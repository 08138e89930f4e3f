"""The padded layout of packed real cells, for tests that compare the
packed code with padded formulas."""

import numpy as np


def unpack(packing, packed: np.ndarray) -> np.ndarray:
    """Scatter `packed` (N_real, ...), in `packing` order, to the padded
    (B, T, ...) layout of the packing's mask, with zeros at padding."""
    padded = np.zeros(packing.mask.shape + packed.shape[1:])
    padded[packing.rows, packing.times] = packed
    return padded
