"""A frozen copy of the padded-layout output heads: the oracle of
`test_heads_differential.py` and `test_padding_gradients.py`.

Before both heads ran on real cells only, the language model's head
scattered its logits' gradient and its input back to the padded
(B, T, ·) layout to sum the weight and bias gradients there, and the
generator's output layer ran on the padded (B, K, d) decoder layout,
zero at padding. These functions do the same with a live `tc.Dense`'s
parameters and return the gradients instead of adding them to the layer.
"""

import numpy as np

from padded_layout import unpack
from satd_forge import tensor_core as tc


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
    loss, dlogits, _ = tc.masked_cross_entropy(logits, targets, packing)
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
    loss, dlogits, _ = tc.masked_cross_entropy(dec.pack(logits), targets, dec)
    dlogits = unpack(dec, dlogits)
    dpadded = dlogits @ W.T
    gW, gb = _padded_sums(dlogits, padded)
    return loss, dpadded, gW, gb
