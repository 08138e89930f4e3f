"""Minimal neural toolkit with explicit forward and backward passes:
embedding lookup, LSTM layers with sequence masking, the embedding ->
LSTM stack every network is built on, pooling, dense heads, the binary
and multi-class log-losses, inverted dropout, Adam/RMSprop and the one
training loop.

Everything runs in float64 on numpy; checkpoints store float32.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, TrainingError


def detector_layer_sizes(latent: int, n_layers: int) -> list[int]:
    """LSTM widths for the classifier stack.

    One and two layers use the latent dimension everywhere; three layers
    widen the first to 2x and narrow the last to half, so they need a
    latent dimension of at least 2.
    """
    if n_layers == 1:
        return [latent]
    if n_layers == 2:
        return [latent, latent]
    if n_layers == 3:
        if latent < 2:
            raise DataError(f"hyper-parameter latent must be at least 2 with 3 layers, got {latent!r}")
        return [2 * latent, latent, latent // 2]
    raise DataError(f"unsupported layer count: {n_layers}")


def generator_layer_sizes(latent: int, n_layers: int) -> list[int]:
    if n_layers < 1:
        raise DataError(f"unsupported layer count: {n_layers}")
    return [latent] * n_layers


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    p = np.exp(-np.abs(x))  # never overflows
    return np.where(x >= 0, 1.0 / (1.0 + p), p / (1.0 + p))


def softmax(x, axis: int = -1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def bce_loss(y, p):
    """Binary log-loss -(y log p + (1-y) log(1-p)) with clamped p.

    Returns (loss, dloss/dp).
    """
    y = np.asarray(y, dtype=np.float64)
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    loss = -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    dp = -(y / p) + (1.0 - y) / (1.0 - p)
    return loss, dp


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-scaling dropout mask: 0 with probability `rate`, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise DataError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return np.ones(shape, dtype=np.float64)
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


class Embedding:
    """Lookup table with one row per vocabulary word."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.dim = dim
        self.p = {"M": glorot_uniform(rng, (vocab_size, dim), vocab_size, dim)}
        self.g = {"M": np.zeros((vocab_size, dim))}

    def forward(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.vocab_size):
            raise DataError("embedding index out of range")
        return self.p["M"][indices]

    def backward(self, dout: np.ndarray, indices: np.ndarray):
        np.add.at(self.g["M"], np.asarray(indices), dout)


def row_lengths(mask) -> np.ndarray:
    """Lengths of the rows of a right-padded 0/1 mask (B, T).

    A mask with a hole, or with any value but 0 and 1, raises DataError.
    """
    mask = np.asarray(mask)
    lengths = np.count_nonzero(mask, axis=1)
    if not np.array_equal(mask, np.arange(mask.shape[1]) < lengths[:, None]):
        raise DataError("sequence mask is not right-padded with 0/1 values")
    return lengths


class LstmLayer:
    """Single LSTM layer over right-padded (batch, time, input) sequences.

    Gate order in the fused weight matrices is input, forget, output,
    candidate. Past its length a row's state and cell stay unchanged.

    Inside, the layer keeps only the real cells, packed as in PyTorch's
    `PackedSequence`: time-major, rows sorted longest first, so step t is
    rows `off[t]:off[t+1]` of an (N_real, ·) array. The input projection,
    the gate-derivative factors and the weight and input gradients are one
    vectorized operation each over the real cells. A step applies one tanh
    to all four gates: the sigmoid columns of the weights are halved once
    per call (exact, a power of two), and sigmoid(x) = (1 + tanh(x/2))/2.
    The states at padding carry a row's last state, and they and the
    finals are one gather each from the initial and the packed states.
    """

    def __init__(self, input_size: int, state_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.state_size = state_size
        h = state_size
        self.p = {
            "Wx": glorot_uniform(rng, (input_size, 4 * h), input_size, 4 * h),
            "Wh": glorot_uniform(rng, (h, 4 * h), h, 4 * h),
            "b": np.zeros(4 * h),
        }
        self.p["b"][h : 2 * h] = 1.0  # forget-gate bias
        self.g = {k: np.zeros_like(v) for k, v in self.p.items()}
        self.gate_scale = np.where(np.arange(4 * h) < 3 * h, 0.5, 1.0)

    def forward(self, X: np.ndarray, mask: np.ndarray, h0=None, c0=None):
        """Returns (states (B, T, H), final (h, c), cache)."""
        B, T, D = X.shape
        H = self.state_size
        lengths = row_lengths(mask)
        order = np.argsort(-lengths, kind="stable")  # rows longest first
        pos = np.argsort(order)  # each row's sorted position
        live = lengths[order] > np.arange(lengths.max(initial=0))[:, None]
        active = np.count_nonzero(live, axis=1)
        off = np.concatenate(([0], np.cumsum(active)))
        # the B initial states, then the packed ones; step t reads rows start[t]:start[t]+n
        start = np.concatenate(([0], B + off[:-1]))
        tt, packed_rows = np.nonzero(live)
        rows = order[packed_rows]  # each cell's row in X
        N = len(tt)
        scale = self.gate_scale
        Xp = X[rows, tt]
        gates = Xp @ (self.p["Wx"] * scale)  # pre-activations, then gate values
        gates += self.p["b"] * scale
        Wh = self.p["Wh"] * scale
        hs, cs = np.empty((B + N, H)), np.empty((B + N, H))
        hs[:B] = 0.0 if h0 is None else np.asarray(h0)[order]
        cs[:B] = 0.0 if c0 is None else np.asarray(c0)[order]
        h_new, c_new, tanh_c = hs[B:], cs[B:], np.empty((N, H))
        rec, ig = np.empty((B, 4 * H)), np.empty((B, H))
        # a step's gates are one contiguous run: x*half + shift is (1 + tanh)/2 on the sigmoid
        # gates and leaves the candidate's tanh as it is
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
        src = start[np.minimum(np.arange(1, T + 1), lengths[:, None])] + pos[:, None]
        states = hs[src]
        if not np.isfinite(hs).all():
            finite = np.isfinite(states).all(axis=(0, 2))
            if not finite.all():
                raise TrainingError(f"non-finite LSTM state at timestep {int(np.argmin(finite))}")
        last = start[lengths] + pos
        cache = {"X": Xp, "gates": gates, "h": hs, "c": cs, "tanh_c": tanh_c, "off": off,
                 "prev": start[tt] + packed_rows, "cells": (rows, tt), "lengths": lengths,
                 "order": order, "pos": pos, "shape": X.shape}
        return states, (hs[last], cs[last]), cache

    def backward(self, dstates, dh_final, dc_final, cache):
        """Returns (dX, dh0, dc0). The gate-derivative factors, then the
        gradients of the gate pre-activations, overwrite the gate values, so
        a cache serves one backward pass."""
        Xp, gates, hs, tanh_c, off = cache["X"], cache["gates"], cache["h"], cache["tanh_c"], cache["off"]
        (rows, tt), lengths, order, pos = cache["cells"], cache["lengths"], cache["order"], cache["pos"]
        B, T, D = cache["shape"]
        H = self.state_size
        N = len(Xp)
        i, f, o, g = (gates[:, k * H : (k + 1) * H] for k in range(4))
        forget = f.copy()
        f *= 1.0 - f
        f *= cache["c"][cache["prev"]]  # c_prev f(1-f)
        dc_dh = 1.0 - tanh_c * tanh_c
        dc_dh *= o  # o(1 - tanh^2 c)
        o *= 1.0 - o
        o *= tanh_c  # tanh(c) o(1-o)
        dg = 1.0 - g * g
        dg *= i
        i *= 1.0 - i
        i *= g  # g i(1-i)
        g[...] = dg  # i(1-g^2)
        dh = np.zeros((B, H)) if dh_final is None else np.array(dh_final, dtype=np.float64)
        dc = np.zeros((B, H)) if dc_final is None else np.array(dc_final, dtype=np.float64)
        dS = None
        if dstates is not None:
            dS = dstates[rows, tt]
            # a state at padding is the row's carried last state
            pad = (np.arange(T) >= lengths[:, None]).astype(np.float64)
            dh += (pad[:, None, :] @ dstates)[:, 0]
        dh, dc = dh[order], dc[order]
        dZ, dc3, WhT = gates.reshape(N, 4, H), dc[:, None, :], np.ascontiguousarray(self.p["Wh"].T)
        for lo, hi in zip(off[-2::-1].tolist(), off[:0:-1].tolist()):
            n = hi - lo
            dh_t, dc_t = dh[:n], dc[:n]
            if dS is not None:
                dh_t += dS[lo:hi]
            dc_t += dh_t * dc_dh[lo:hi]
            z = dZ[lo:hi]
            z[:, :2] *= dc3[:n]
            z[:, 2] *= dh_t
            z[:, 3] *= dc_t
            dc_t *= forget[lo:hi]
            np.matmul(gates[lo:hi], WhT, out=dh_t)
        self.g["Wx"] += Xp.T @ gates
        self.g["Wh"] += hs[cache["prev"]].T @ gates
        self.g["b"] += gates.sum(axis=0)
        dX = np.zeros((B, T, D))
        dX[rows, tt] = gates @ self.p["Wx"].T
        return dX, dh[pos], dc[pos]


def block_params(name: str, layer) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(param, grad) of each of a layer's blocks, keyed `name.key`."""
    return {f"{name}.{key}": (layer.p[key], layer.g[key]) for key in layer.p}


class Network:
    """Base of the trainable networks. `named_params()` maps every block
    name to (param, grad) in checkpoint order."""

    def zero_grads(self):
        for _, grad in self.named_params().values():
            grad[...] = 0.0


class LstmStack:
    """Embedding -> dropout -> LSTM layers, each followed by dropout.

    Dropout applies only when a generator and a positive rate are given;
    the masks are drawn after the embedding and after each layer, in
    that order.
    """

    def __init__(self, vocab_size: int, dim: int, sizes: list[int], rng: np.random.Generator):
        self.embedding = Embedding(vocab_size, dim, rng)
        self.layers = []
        prev = dim
        for size in sizes:
            self.layers.append(LstmLayer(prev, size, rng))
            prev = size

    def named_params(self, prefix: str = "") -> dict[str, tuple[np.ndarray, np.ndarray]]:
        named = block_params(f"{prefix}embedding", self.embedding)
        for k, layer in enumerate(self.layers):
            named.update(block_params(f"{prefix}lstm{k}", layer))
        return named

    def forward(self, idx, mask, drop_rng=None, drop_rate: float = 0.0, initial=()):
        """`initial` holds (h, c) for the bottom layers; the rest start at zero.

        Returns (top-layer states, final (h, c) of every layer, cache).
        """
        dropping = drop_rng is not None and drop_rate > 0.0
        drops, caches, finals = [], [], []

        def drop(X):
            if not dropping:
                return X
            drops.append(dropout_mask(X.shape, drop_rate, drop_rng))
            return X * drops[-1]

        X = drop(self.embedding.forward(idx))
        for k, layer in enumerate(self.layers):
            h0, c0 = initial[k] if k < len(initial) else (None, None)
            X, final, cache = layer.forward(X, mask, h0=h0, c0=c0)
            caches.append(cache)
            finals.append(final)
            X = drop(X)
        return X, finals, {"idx": idx, "mask": mask, "drops": drops, "layers": caches}

    def backward(self, dstates, cache, dfinal=(None, None)):
        """`dfinal` is the gradient on the top layer's final (h, c).

        Returns the gradient on the bottom layer's initial (h, c).
        """
        drops = list(cache["drops"])
        dh_final, dc_final = dfinal
        for k in range(len(self.layers) - 1, -1, -1):
            if drops:
                dstates = dstates * drops.pop()
            dstates, dh0, dc0 = self.layers[k].backward(dstates, dh_final, dc_final, cache["layers"][k])
            dh_final = dc_final = None  # lower layers' final states feed nothing else
        # the input gradient is zero at padding, so only real tokens reach the table
        real = np.nonzero(cache["mask"])
        dtokens = dstates[real]
        if drops:
            dtokens *= drops.pop()[real]
        self.embedding.backward(dtokens, np.asarray(cache["idx"])[real])
        return dh0, dc0


def pool_forward(states: np.ndarray, mask: np.ndarray, mode: str):
    """Reduce per-timestep states to one vector per sequence.

    last -> state at the final real position; mean/max -> elementwise over
    real positions only.
    """
    B, T, H = states.shape
    counts = mask.sum(axis=1)
    if (counts == 0).any():
        raise DataError("pooling over an all-masked sequence")
    if mode == "last":
        last_idx = (T - 1) - np.argmax(mask[:, ::-1] > 0, axis=1)
        pooled = states[np.arange(B), last_idx]
        return pooled, ("last", last_idx, states.shape)
    if mode == "mean":
        pooled = (states * mask[:, :, None]).sum(axis=1) / counts[:, None]
        return pooled, ("mean", mask, counts, states.shape)
    if mode == "max":
        masked = np.where(mask[:, :, None] > 0, states, -np.inf)
        arg = masked.argmax(axis=1)
        pooled = np.take_along_axis(states, arg[:, None, :], axis=1)[:, 0, :]
        return pooled, ("max", arg, states.shape)
    raise DataError(f"unknown pooling mode: {mode!r}")


def pool_backward(dpooled: np.ndarray, cache) -> np.ndarray:
    mode = cache[0]
    if mode == "last":
        _, last_idx, shape = cache
        dstates = np.zeros(shape)
        dstates[np.arange(shape[0]), last_idx] = dpooled
        return dstates
    if mode == "mean":
        _, mask, counts, shape = cache
        return dpooled[:, None, :] * mask[:, :, None] / counts[:, None, None]
    _, arg, shape = cache
    dstates = np.zeros(shape)
    np.put_along_axis(dstates, arg[:, None, :], dpooled[:, None, :], axis=1)
    return dstates


class Dense:
    def __init__(self, input_size: int, output_size: int, rng: np.random.Generator):
        self.p = {
            "W": glorot_uniform(rng, (input_size, output_size), input_size, output_size),
            "b": np.zeros(output_size),
        }
        self.g = {k: np.zeros_like(v) for k, v in self.p.items()}

    def forward(self, x: np.ndarray):
        return x @ self.p["W"] + self.p["b"], x

    def backward(self, dout: np.ndarray, x: np.ndarray):
        flat_x = x.reshape(-1, x.shape[-1])
        flat_d = dout.reshape(-1, dout.shape[-1])
        self.g["W"] += flat_x.T @ flat_d
        self.g["b"] += flat_d.sum(axis=0)
        return dout @ self.p["W"].T


def masked_cross_entropy(logits: np.ndarray, targets: np.ndarray, mask: np.ndarray):
    """Mean per-position multi-class log-loss over real positions.

    logits (B, T, V), targets (B, T) int, mask (B, T). Returns
    (loss, dlogits, probs).
    """
    probs = softmax(logits, axis=-1)
    B, T, V = logits.shape
    n_real = mask.sum()
    if n_real == 0:
        raise DataError("cross entropy over an all-masked batch")
    picked = np.take_along_axis(probs, targets[:, :, None], axis=2)[:, :, 0]
    losses = -np.log(np.clip(picked, 1e-300, None)) * mask
    loss = losses.sum() / n_real
    dlogits = probs.copy()
    rows = np.arange(B)[:, None], np.arange(T)[None, :]
    dlogits[rows[0], rows[1], targets] -= 1.0
    dlogits *= mask[:, :, None] / n_real
    return loss, dlogits, probs


class Adam:
    """Bias-corrected adaptive-moment optimizer; one shared step counter."""

    def __init__(self, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, named_params: dict[str, tuple[np.ndarray, np.ndarray]]):
        for name, (_, grad) in named_params.items():
            if not np.isfinite(grad).all():
                raise TrainingError(f"non-finite gradient in {name}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, (param, grad) in named_params.items():
            m = self.m.setdefault(name, np.zeros_like(param))
            v = self.v.setdefault(name, np.zeros_like(param))
            m *= b1
            m += (1.0 - b1) * grad
            v *= b2
            v += (1.0 - b2) * grad**2
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class RmsProp:
    """Squared-gradient moving-average optimizer."""

    def __init__(self, lr: float = 1e-3, rho: float = 0.9, eps: float = 1e-8):
        self.lr = lr
        self.rho = rho
        self.eps = eps
        self.t = 0
        self.cache: dict[str, np.ndarray] = {}

    def step(self, named_params: dict[str, tuple[np.ndarray, np.ndarray]]):
        for name, (_, grad) in named_params.items():
            if not np.isfinite(grad).all():
                raise TrainingError(f"non-finite gradient in {name}")
        self.t += 1
        for name, (param, grad) in named_params.items():
            cache = self.cache.setdefault(name, np.zeros_like(param))
            cache *= self.rho
            cache += (1.0 - self.rho) * grad**2
            param -= self.lr * grad / (np.sqrt(cache) + self.eps)


def fit(network: Network, optimizer, make_batch, n_items: int, hp, seed: int) -> float:
    """The epoch/batch/step loop shared by every trainer.

    Each epoch shuffles the item order with a generator seeded `seed+1`,
    cuts it into `hp.batch_size` chunks, and `make_batch(chunk)` turns a
    chunk into the arguments of `network.loss_and_grads` ahead of the
    dropout generator (seeded `seed+2`) and `hp.dropout`. Returns the
    mean batch loss of the last epoch (0.0 without epochs).
    """
    rng = np.random.default_rng(seed + 1)
    drop_rng = np.random.default_rng(seed + 2)
    final_loss = 0.0
    for epoch in range(hp.epochs):
        order = rng.permutation(n_items)
        epoch_losses = []
        for batch, start in enumerate(range(0, n_items, hp.batch_size)):
            args = make_batch(order[start : start + hp.batch_size])
            loss = network.loss_and_grads(*args, drop_rng, hp.dropout)
            if not np.isfinite(loss):
                raise TrainingError(f"divergent loss in epoch {epoch + 1}, batch {batch + 1}")
            optimizer.step(network.named_params())
            epoch_losses.append(loss)
        final_loss = float(np.mean(epoch_losses))
    return final_loss
