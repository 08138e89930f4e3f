"""Minimal neural toolkit with explicit forward and backward passes:
embedding lookup, LSTM layers with sequence masking, the embedding ->
LSTM stack every network is built on, pooling, dense heads, the binary
and multi-class log-losses, inverted dropout, Adam/RMSprop, the one
training loop, and a central-finite-difference gradient checker.

Everything runs in float64 on numpy; checkpoints store float32.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, TrainingError


def detector_layer_sizes(latent: int, n_layers: int) -> list[int]:
    """LSTM widths for the classifier stack.

    One and two layers use the latent dimension everywhere; three layers
    widen the first to 2x and narrow the last to half.
    """
    if n_layers == 1:
        return [latent]
    if n_layers == 2:
        return [latent, latent]
    if n_layers == 3:
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


def softmax_cross_entropy(logits, target: int):
    """Distribution, loss -log p[target], and gradient at the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    probs = softmax(logits)
    loss = -math.log(max(probs[target], 1e-300))
    grad = probs.copy()
    grad[target] -= 1.0
    return probs, loss, grad


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


class LstmLayer:
    """Single LSTM layer over (batch, time, input) sequences.

    Gate order in the fused weight matrices is input, forget, output,
    candidate. Masked timesteps copy state and cell forward unchanged.
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
            dmask = dropout_mask(X.shape, drop_rate, drop_rng)
            drops.append(dmask)
            return X * dmask

        X = drop(self.embedding.forward(idx))
        for k, layer in enumerate(self.layers):
            h0, c0 = initial[k] if k < len(initial) else (None, None)
            X, final, cache = layer.forward(X, mask, h0=h0, c0=c0)
            caches.append(cache)
            finals.append(final)
            X = drop(X)
        return X, finals, {"idx": idx, "drops": drops, "layers": caches}

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
        if drops:
            dstates = dstates * drops.pop()
        self.embedding.backward(dstates, cache["idx"])
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
