"""A frozen copy of the padded-layout output heads: the oracle of
`test_heads_differential.py` and `test_padding_gradients.py`.

Before both heads ran on real cells only, the language model's head
scattered its logits' gradient and its input back to the padded
(B, T, ·) layout to sum the weight and bias gradients there, and the
generator's output layer ran on the padded (B, K, d) decoder layout,
zero at padding. These functions do the same with a live `tc.Dense`'s
parameters and return the gradients instead of adding them to the layer.
Their softmax and loss are frozen copies too, from before the live loss
turned its probabilities into the gradient in place.
"""

import numpy as np

from padded_layout import unpack


def softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def masked_cross_entropy(logits: np.ndarray, targets: np.ndarray, packing):
    """Mean log-loss over the real cells, logits (N_real, V) in `packing`
    order; the per-cell losses add up in the padded batch's row-major
    order. Returns (loss, dlogits)."""
    probs = softmax(logits)
    cells, picked = np.arange(packing.n), packing.pack(targets)
    losses = np.zeros(packing.mask.shape)
    losses[packing.rows, packing.times] = -np.log(np.clip(probs[cells, picked], 1e-300, None))
    loss = losses.sum() / packing.n
    dlogits = probs.copy()
    dlogits[cells, picked] -= 1.0
    dlogits *= 1.0 / packing.n
    return loss, dlogits


def _padded_sums(dout: np.ndarray, x: np.ndarray):
    """(gW, gb) summed over every cell of the padded layout."""
    flat_x = x.reshape(-1, x.shape[-1])
    flat_d = dout.reshape(-1, dout.shape[-1])
    return flat_x.T @ flat_d, flat_d.sum(axis=0)


def lm_head(dense, states: np.ndarray, targets: np.ndarray, packing):
    """The language model's head over its top states (N_real, H) in
    `packing` order. Returns (loss, dstates (N_real, H), gW, gb)."""
    W, b = dense.p["W"], dense.p["b"]
    logits = states @ W + b
    loss, dlogits = masked_cross_entropy(logits, targets, packing)
    dstates = dlogits @ W.T
    gW, gb = _padded_sums(unpack(packing, dlogits), unpack(packing, states))
    return loss, dstates, gW, gb


def generator_head(dense, attended: np.ndarray, targets: np.ndarray, dec):
    """The generator's head over the attended decoder cells (N_real, d)
    in row-major order; `dec` is the decoder's packing. Returns (loss,
    dpadded, gW, gb), where dpadded (B, K, d) is the gradient on the
    padded attended layout: `dpadded[dec.mask > 0]` lists the real cells'
    gradients in row-major order."""
    W, b = dense.p["W"], dense.p["b"]
    padded = np.zeros(dec.mask.shape + attended.shape[1:])
    padded[dec.mask > 0] = attended  # boolean indexing runs in row-major order
    logits = padded @ W + b
    loss, dlogits = masked_cross_entropy(dec.pack(logits), targets, dec)
    dlogits = unpack(dec, dlogits)
    dpadded = dlogits @ W.T
    gW, gb = _padded_sums(dlogits, padded)
    return loss, dpadded, gW, gb
