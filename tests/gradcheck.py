"""The finite-difference oracle that the backward-pass tests check
analytic gradients against."""

import numpy as np


def check_gradients(
    loss_fn,
    params: dict[str, np.ndarray],
    analytic: dict[str, np.ndarray],
    eps: float = 1e-5,
) -> dict[str, float]:
    """Central finite differences against analytic gradients.

    `loss_fn` must be a deterministic closure over the live parameter
    arrays (dropout disabled). Returns max relative error per block.
    """
    report: dict[str, float] = {}
    for name, param in params.items():
        grad = analytic[name]
        flat = param.ravel()
        fd = np.zeros(flat.size)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            lp = loss_fn()
            flat[k] = orig - eps
            lm = loss_fn()
            flat[k] = orig
            fd[k] = (lp - lm) / (2.0 * eps)
        ga = grad.ravel()
        # the floor keeps finite-difference noise on near-zero coordinates
        # from registering as relative error
        denom = np.maximum(np.abs(ga) + np.abs(fd), 1e-6)
        report[name] = float(np.max(np.abs(ga - fd) / denom)) if flat.size else 0.0
    return report
