"""A frozen per-timestep LSTM layer: the oracle for `tensor_core.LstmLayer`.

Every step runs the whole batch and blends masked rows through
`mask*new + (1-mask)*old`, so it needs neither sorting nor packing. It
starts from a copy of the parameters of the layer under test.
"""

import numpy as np

from satd_forge.errors import TrainingError
from satd_forge.tensor_core import sigmoid


class ReferenceLstmLayer:
    """Single LSTM layer over (batch, time, input) sequences, one full-batch
    step at a time.

    Gate order in the fused weight matrices is input, forget, output,
    candidate. Masked timesteps copy state and cell forward unchanged.
    """

    def __init__(self, layer):
        self.state_size = layer.state_size
        self.p = {k: v.copy() for k, v in layer.p.items()}
        self.g = {k: np.zeros_like(v) for k, v in self.p.items()}

    def forward(self, X: np.ndarray, mask: np.ndarray, h0=None, c0=None):
        B, T, _ = X.shape
        H = self.state_size
        Wx, Wh, b = self.p["Wx"], self.p["Wh"], self.p["b"]
        h = np.zeros((B, H)) if h0 is None else np.array(h0, dtype=np.float64)
        c = np.zeros((B, H)) if c0 is None else np.array(c0, dtype=np.float64)
        states = np.empty((B, T, H))
        cache = {
            "X": X,
            "mask": mask,
            "i": np.empty((B, T, H)),
            "f": np.empty((B, T, H)),
            "o": np.empty((B, T, H)),
            "g": np.empty((B, T, H)),
            "c_prev": np.empty((B, T, H)),
            "h_prev": np.empty((B, T, H)),
            "tanh_c": np.empty((B, T, H)),
        }
        for t in range(T):
            z = X[:, t] @ Wx + h @ Wh + b
            i_g = sigmoid(z[:, :H])
            f_g = sigmoid(z[:, H : 2 * H])
            o_g = sigmoid(z[:, 2 * H : 3 * H])
            g_g = np.tanh(z[:, 3 * H :])
            cache["c_prev"][:, t] = c
            cache["h_prev"][:, t] = h
            c_new = f_g * c + i_g * g_g
            tanh_c = np.tanh(c_new)
            h_new = o_g * tanh_c
            if not np.isfinite(h_new).all():
                raise TrainingError(f"non-finite LSTM state at timestep {t}")
            m = mask[:, t : t + 1]
            h = m * h_new + (1.0 - m) * h
            c = m * c_new + (1.0 - m) * c
            states[:, t] = h
            cache["i"][:, t] = i_g
            cache["f"][:, t] = f_g
            cache["o"][:, t] = o_g
            cache["g"][:, t] = g_g
            cache["tanh_c"][:, t] = tanh_c
        return states, (h, c), cache

    def backward(self, dstates, dh_final, dc_final, cache):
        X, mask = cache["X"], cache["mask"]
        B, T, _ = X.shape
        H = self.state_size
        Wx, Wh = self.p["Wx"], self.p["Wh"]
        gWx, gWh, gb = self.g["Wx"], self.g["Wh"], self.g["b"]
        dX = np.zeros_like(X)
        dh = np.zeros((B, H)) if dh_final is None else np.array(dh_final, dtype=np.float64)
        dc = np.zeros((B, H)) if dc_final is None else np.array(dc_final, dtype=np.float64)
        for t in range(T - 1, -1, -1):
            dh_t = dh if dstates is None else dh + dstates[:, t]
            m = mask[:, t : t + 1]
            dh_new = m * dh_t
            dh_skip = (1.0 - m) * dh_t
            dc_new = m * dc
            dc_skip = (1.0 - m) * dc
            i_g = cache["i"][:, t]
            f_g = cache["f"][:, t]
            o_g = cache["o"][:, t]
            g_g = cache["g"][:, t]
            tanh_c = cache["tanh_c"][:, t]
            c_prev = cache["c_prev"][:, t]
            do = dh_new * tanh_c
            dc_new = dc_new + dh_new * o_g * (1.0 - tanh_c**2)
            df = dc_new * c_prev
            di = dc_new * g_g
            dg = dc_new * i_g
            dz = np.concatenate(
                [
                    di * i_g * (1.0 - i_g),
                    df * f_g * (1.0 - f_g),
                    do * o_g * (1.0 - o_g),
                    dg * (1.0 - g_g**2),
                ],
                axis=1,
            )
            gWx += X[:, t].T @ dz
            gWh += cache["h_prev"][:, t].T @ dz
            gb += dz.sum(axis=0)
            dX[:, t] = dz @ Wx.T
            dh = dz @ Wh.T + dh_skip
            dc = dc_new * f_g + dc_skip
        return dX, dh, dc
