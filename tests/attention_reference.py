"""A frozen padded attention: the oracle for `generator.Attention`.

It scores every (decoder position, encoder position) pair of the padded
batch at once, masks the encoder's padding with -1e30 before the softmax,
and projects every padded decoder position, so it needs no per-row
blocks. It starts from a copy of the parameters of the layer under test.
"""

import numpy as np

from satd_forge.errors import DataError
from satd_forge.tensor_core import softmax


class ReferenceAttention:
    """Dot-score attention over padded encoder states with a concat
    projection."""

    def __init__(self, attention):
        self.dim = attention.dim
        self.p = {k: v.copy() for k, v in attention.p.items()}
        self.g = {k: np.zeros_like(v) for k, v in self.p.items()}

    def forward(self, S: np.ndarray, H: np.ndarray, enc_mask: np.ndarray):
        """S (B,K,d) decoder states, H (B,N,d) encoder states.

        Returns (attended (B,K,d), weights (B,K,N), cache).
        """
        if (enc_mask.sum(axis=1) == 0).any():
            raise DataError("attention over an all-masked input sequence")
        scores = S @ H.transpose(0, 2, 1)
        scores = np.where(enc_mask[:, None, :] > 0, scores, -1e30)
        weights = softmax(scores, axis=-1)
        context = weights @ H
        concat = np.concatenate([context, S], axis=-1)
        pre = concat @ self.p["Wc"] + self.p["bc"]
        attended = np.tanh(pre)
        cache = (S, H, weights, concat, attended)
        return attended, weights, cache

    def backward(self, dattended: np.ndarray, cache):
        S, H, weights, concat, attended = cache
        d = self.dim
        dpre = dattended * (1.0 - attended**2)
        flat_c = concat.reshape(-1, 2 * d)
        flat_d = dpre.reshape(-1, d)
        self.g["Wc"] += flat_c.T @ flat_d
        self.g["bc"] += flat_d.sum(axis=0)
        dconcat = dpre @ self.p["Wc"].T
        dcontext = dconcat[..., :d]
        dS = dconcat[..., d:]
        # context = weights @ H
        dweights = dcontext @ H.transpose(0, 2, 1)
        dH = weights.transpose(0, 2, 1) @ dcontext
        # softmax over the encoder axis; masked positions carry zero weight
        dscores = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
        dS += dscores @ H
        dH += dscores.transpose(0, 2, 1) @ S
        return dS, dH
