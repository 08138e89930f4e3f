"""A frozen copy of the packed `tensor_core.LstmLayer` step loops: the
bit-for-bit oracle of `test_lstm_step_loops.py`; and a frozen copy of
`tensor_core.LstmStack` from before it kept boolean keep-masks, over
these layers: the bit-for-bit oracle of `test_activation_memory.py`.

Each step slices its own views of the gate blocks and the step buffers.
Any rewrite of the live loops must give exactly these bits: the same
ufunc calls, in the same order, on the same operands. Each copy starts
from the parameters of the layer or stack under test and keeps its own
gradients.
"""

import math

import numpy as np

from satd_forge.errors import TrainingError
from satd_forge.tensor_core import Packing


class PackedReferenceLstmLayer:
    def __init__(self, layer):
        self.state_size = h = layer.state_size
        self.p = {k: v.copy() for k, v in layer.p.items()}
        self.g = {k: np.zeros_like(v) for k, v in self.p.items()}
        self.gate_scale = np.where(np.arange(4 * h) < 3 * h, 0.5, 1.0)

    def forward(self, X: np.ndarray, mask: np.ndarray, h0=None, c0=None, packing=None):
        pk = Packing(mask) if packing is None else packing
        B, N, H = len(pk.lengths), pk.n, self.state_size
        off, order = pk.off, pk.order
        start = np.concatenate(([0], B + off[:-1]))
        scale = self.gate_scale
        gates = X @ (self.p["Wx"] * scale)
        gates += self.p["b"] * scale
        Wh = self.p["Wh"] * scale
        hs, cs = np.empty((B + N, H)), np.empty((B + N, H))
        hs[:B] = 0.0 if h0 is None else np.asarray(h0)[order]
        cs[:B] = 0.0 if c0 is None else np.asarray(c0)[order]
        h_new, c_new, tanh_c = hs[B:], cs[B:], np.empty((N, H))
        rec, ig = np.empty((B, 4 * H)), np.empty((B, H))
        flat, half, shift = gates.reshape(-1), np.tile(scale, B), np.tile(1.0 - scale, B)
        for lo, hi, prev in zip(off[:-1].tolist(), off[1:].tolist(), start.tolist()):
            n = hi - lo
            z = gates[lo:hi]
            np.matmul(hs[prev : prev + n], Wh, out=rec[:n])
            z += rec[:n]
            np.tanh(z, out=z)
            zf = flat[4 * H * lo : 4 * H * hi]
            zf *= half[: 4 * H * n]
            zf += shift[: 4 * H * n]
            c = c_new[lo:hi]
            np.multiply(z[:, H : 2 * H], cs[prev : prev + n], out=c)
            np.multiply(z[:, :H], z[:, 3 * H :], out=ig[:n])
            c += ig[:n]
            np.tanh(c, out=tanh_c[lo:hi])
            np.multiply(tanh_c[lo:hi], z[:, 2 * H : 3 * H], out=h_new[lo:hi])
        if not np.isfinite(h_new).all():
            first = np.argmin(np.isfinite(h_new).all(axis=1))
            raise TrainingError(f"non-finite LSTM state at timestep {int(pk.times[first])}")
        last = start[pk.lengths] + pk.pos
        cache = {"X": X, "gates": gates, "h": hs, "c": cs, "tanh_c": tanh_c,
                 "prev": start[pk.times] + pk.slots, "packing": pk}
        return h_new, (hs[last], cs[last]), cache

    def backward(self, dstates, dh_final, dc_final, cache):
        X, gates, hs, tanh_c, pk = cache["X"], cache["gates"], cache["h"], cache["tanh_c"], cache["packing"]
        B, N, H = len(pk.lengths), pk.n, self.state_size
        i, f, o, g = (gates[:, k * H : (k + 1) * H] for k in range(4))
        forget = f.copy()
        f *= 1.0 - f
        f *= cache["c"][cache["prev"]]
        dc_dh = 1.0 - tanh_c * tanh_c
        dc_dh *= o
        o *= 1.0 - o
        o *= tanh_c
        dg = 1.0 - g * g
        dg *= i
        i *= 1.0 - i
        i *= g
        g[...] = dg
        dh = np.zeros((B, H)) if dh_final is None else np.asarray(dh_final, dtype=np.float64)[pk.order]
        dc = np.zeros((B, H)) if dc_final is None else np.asarray(dc_final, dtype=np.float64)[pk.order]
        dZ, dc3, WhT = gates.reshape(N, 4, H), dc[:, None, :], np.ascontiguousarray(self.p["Wh"].T)
        off = pk.off
        for lo, hi in zip(off[-2::-1].tolist(), off[:0:-1].tolist()):
            n = hi - lo
            dh_t, dc_t = dh[:n], dc[:n]
            if dstates is not None:
                dh_t += dstates[lo:hi]
            dc_t += dh_t * dc_dh[lo:hi]
            z = dZ[lo:hi]
            z[:, :2] *= dc3[:n]
            z[:, 2] *= dh_t
            z[:, 3] *= dc_t
            dc_t *= forget[lo:hi]
            np.matmul(gates[lo:hi], WhT, out=dh_t)
        self.g["Wx"] += X.T @ gates
        self.g["Wh"] += hs[cache["prev"]].T @ gates
        self.g["b"] += gates.sum(axis=0)
        return gates @ self.p["Wx"].T, dh[pk.pos], dc[pk.pos]


def float_dropout_mask(shape, rate: float, rng: np.random.Generator, packing: Packing) -> np.ndarray:
    """The float mask, 0 or 1/(1-rate), that `tensor_core.dropout_mask`
    returned before it returned a boolean keep-mask."""
    if rate == 0.0:
        return np.ones((packing.n,) + tuple(shape[2:]))
    bits = rng.bit_generator
    T, width = int(shape[1]), int(math.prod(shape[2:]))
    draw = np.empty((packing.n,) + tuple(shape[2:]))
    for lo, hi in packing.spans:
        rng.random(out=draw[lo:hi])
        if hi - lo < T:
            bits.advance((T - (hi - lo)) * width)
    return packing.from_row_major(draw >= rate) * (1.0 / (1.0 - rate))


class FloatMaskReferenceStack:
    """Embedding -> dropout -> `PackedReferenceLstmLayer`s, each followed
    by dropout. Its cache stores every float mask and, in each layer's
    cache, the dropped array handed to that layer."""

    def __init__(self, stack):
        M = stack.embedding.p["M"].copy()
        self.embedding = {"M": (M, np.zeros_like(M))}
        self.layers = [PackedReferenceLstmLayer(layer) for layer in stack.layers]

    def named_params(self):
        named = {f"embedding.{key}": pg for key, pg in self.embedding.items()}
        for k, layer in enumerate(self.layers):
            named.update({f"lstm{k}.{key}": (layer.p[key], layer.g[key]) for key in layer.p})
        return named

    def forward(self, idx, packing, drop_rng=None, drop_rate=0.0, initial=()):
        dropping = drop_rng is not None and drop_rate > 0.0
        drops, caches, finals = [], [], []

        def drop(X):
            if not dropping:
                return X
            drops.append(float_dropout_mask(packing.mask.shape + X.shape[1:], drop_rate, drop_rng, packing))
            return X * drops[-1]

        tokens = packing.pack(idx)
        X = drop(self.embedding["M"][0][tokens])
        for k, layer in enumerate(self.layers):
            h0, c0 = initial[k] if k < len(initial) else (None, None)
            X, final, cache = layer.forward(X, packing.mask, h0=h0, c0=c0, packing=packing)
            caches.append(cache)
            finals.append(final)
            X = drop(X)
        return X, finals, {"tokens": tokens, "packing": packing, "drops": drops, "layers": caches}

    def backward(self, dstates, cache, dfinal=(None, None)):
        drops = list(cache["drops"])
        dh_final, dc_final = dfinal
        for k in range(len(self.layers) - 1, -1, -1):
            if drops:
                dstates = dstates * drops.pop()
            dstates, dh0, dc0 = self.layers[k].backward(dstates, dh_final, dc_final, cache["layers"][k])
            dh_final = dc_final = None
        if drops:
            dstates = dstates * drops.pop()
        cells = cache["packing"].row_major
        np.add.at(self.embedding["M"][1], cache["tokens"][cells], dstates[cells])
        return dh0, dc0
