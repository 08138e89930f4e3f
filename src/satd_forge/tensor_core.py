"""Minimal neural toolkit with explicit forward and backward passes:
embedding lookup, LSTM layers over packed sequences, the embedding ->
LSTM stack every network is built on, pooling, dense heads, the binary
and multi-class log-losses, inverted dropout, Adam/RMSprop and the one
training loop.

A right-padded batch enters as token ids and a 0/1 mask (B, T), and the
padded layout ends there: the stack, pooling and the softmax head work on
its real cells only, packed (`Packing`). Dropout draws over the packed
cells, and the embedding gradient and the multi-class loss add up in the
order of the cells they are given; callers that read a row's cells
together, such as attention, gather them in row-major order
(`Packing.row_major`).

Each per-cell array is held once. Dropout keeps a boolean keep-mask, and
a stack's backward pass rebuilds the dropped input of each layer from
what it keeps anyway (the token ids, or the states of the layer below)
instead of storing it; a layer recomputes tanh(c) from its cells. Each
rebuilt value repeats the forward's float64 operations on the same
operands, so it has the same bits. The one softmax head (`softmax_head`)
holds at most two (N_real, V) arrays: the logits, and the probabilities
that become their gradient in place.

A backward pass writes its gradients, as no block is used twice in a
step, so nothing zeroes them first; the embedding's scatter zeroes its
table itself.

Everything runs in float64 on numpy; checkpoints store float32.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import repeat

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
    raise DataError(f"hyper-parameter layers must be 1, 2 or 3, got {n_layers!r}")


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
    """One new array: the shifted inputs, exponentiated and normalized in place."""
    x = np.asarray(x, dtype=np.float64)
    out = x - x.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def bce_loss(y, p):
    """Binary log-loss -(y log p + (1-y) log(1-p)) with clamped p, per row.
    Through a sigmoid its gradient at the logit is p - y, which the
    detector computes itself."""
    y = np.asarray(y, dtype=np.float64)
    p = np.clip(np.asarray(p, dtype=np.float64), 1e-12, 1.0 - 1e-12)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted dropout's keep-mask over `shape`, bool: False with
    probability `rate`, one number of `rng` per entry; a kept number is
    scaled by 1/(1-rate) (`apply_dropout`). Rate 0 draws nothing and keeps
    every number."""
    if not 0.0 <= rate < 1.0:
        raise DataError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return np.ones(shape, dtype=bool)
    return rng.random(shape) >= rate


def apply_dropout(x: np.ndarray, keep: np.ndarray, rate: float, out=None) -> np.ndarray:
    """`x` zeroed where `keep` is False and scaled by 1/(1-rate)
    elsewhere, in a new array or in `out` (which may be `x`). x·1·s is x·s
    and x·0·s is the signed zero x·0 gives, so these are the bits of x
    times the float mask keep/(1-rate)."""
    out = np.multiply(x, keep, out=out)
    out *= 1.0 / (1.0 - rate)
    return out


class Embedding:
    """Lookup table with one row per vocabulary word."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.p = {"M": glorot_uniform(rng, (vocab_size, dim), vocab_size, dim)}
        self.g = {"M": np.zeros((vocab_size, dim))}

    def forward(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0 or indices.max() >= self.vocab_size):
            raise DataError("embedding index out of range")
        return self.p["M"][indices]

    def backward(self, dout: np.ndarray, indices: np.ndarray):
        self.g["M"][...] = 0.0  # the one gradient that is a scatter
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


class Packing:
    """The real cells of a right-padded 0/1 mask (B, T), packed as in
    PyTorch's `PackedSequence`: time-major, rows longest first. The cells
    of step t are `off[t]:off[t+1]`, and a row keeps its slot (its place
    in the sorted order) at every step, so a step's first n cells are the
    same rows as the previous step's first n.

    `pack` gathers a padded (B, T, ...) array into (N_real, ...) in this
    order.
    """

    def __init__(self, mask):
        self.mask = mask = np.asarray(mask)
        self.lengths = lengths = row_lengths(mask)
        self.order = np.argsort(-lengths, kind="stable")  # rows longest first
        self.pos = np.argsort(self.order)  # each row's slot
        live = lengths[self.order] > np.arange(lengths.max(initial=0))[:, None]
        self.off = np.concatenate(([0], np.cumsum(np.count_nonzero(live, axis=1))))
        self.times, self.slots = np.nonzero(live)
        self.rows = self.order[self.slots]  # each cell's row
        self.n = len(self.times)

    def pack(self, padded) -> np.ndarray:
        return np.asarray(padded)[self.rows, self.times]

    @cached_property
    def row_major(self) -> np.ndarray:
        """The packed index of every real cell, in the padded batch's
        row-major order: `packed[row_major]` lists each row's cells in time
        order, one row after another."""
        rows, times = np.nonzero(self.mask)
        return self.off[times] + self.pos[rows]

    @cached_property
    def spans(self) -> list[tuple[int, int]]:
        """(lo, hi) of each row in row-major order: row b's cells are
        `packed[row_major][lo:hi]`."""
        bounds = np.concatenate(([0], np.cumsum(self.lengths))).tolist()
        return list(zip(bounds[:-1], bounds[1:]))

    def from_row_major(self, cells: np.ndarray) -> np.ndarray:
        """The real cells (N_real, ...) in packing order, given in
        row-major order; the inverse of `packed[row_major]`."""
        packed = np.empty_like(cells)
        packed[self.row_major] = cells
        return packed


BLOCK_CELLS = 256  # the fewest cells whose gate factors `LstmLayer.backward` makes at once


class LstmLayer:
    """Single LSTM layer over packed sequences (see `Packing`).

    Gate order in the fused weight matrices is input, forget, output,
    candidate. A row's final state is its state at its last real cell,
    or its initial state when it has none; states at padding are not
    defined.

    The input projection and the weight and input gradients are one
    vectorized operation each over the real cells; the gate-derivative
    factors are one per block of steps (`BLOCK_CELLS`), made just before
    the block's steps run backward. A step applies one tanh to all four
    gates: the sigmoid columns of the weights are halved once per call
    (exact, a power of two), and sigmoid(x) = (1 + tanh(x/2))/2.

    The step loops are the cost at small batches, where a step's numpy
    calls cost more than their arithmetic. Every view a step reads that
    does not depend on the step is built once per call, so a step slices
    only the per-cell arrays around its ufunc calls (ten forward, seven
    backward with a state gradient).

    The cache holds the input X, the gates and the states and cells, one
    copy each; a step's tanh(c) goes to a (B, H) scratch buffer and the
    backward pass recomputes it a block at a time, in place of the cells.
    An inference forward (`cache=False`) keeps no cache.
    """

    def __init__(self, input_size: int, state_size: int, rng: np.random.Generator):
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

    def forward(self, X: np.ndarray, mask: np.ndarray, h0=None, c0=None, packing=None, cache: bool = True):
        """X (N_real, D) holds the real cells of the right-padded (B, T)
        `mask` in the order of `packing`, which is built from the mask when
        not given. Returns (states (N_real, H) in that order, final (h, c)
        of every row, cache).

        With `cache=False` (inference) the cache is None and the gates go
        when the call returns: each row's cell is carried in one (B, H)
        buffer, whose first n rows a step reads and overwrites, instead of
        a (B + N_real, H) array. Only where a step reads and writes its
        cells differs, so the states and finals have the same bits."""
        pk = Packing(mask) if packing is None else packing
        B, N, H = len(pk.lengths), pk.n, self.state_size
        off, order = pk.off, pk.order
        # the B initial states, then the packed ones; step t reads rows start[t]:start[t]+n
        start = np.concatenate(([0], B + off[:-1]))
        scale = self.gate_scale
        gates = X @ (self.p["Wx"] * scale)  # pre-activations, then gate values
        gates += self.p["b"] * scale
        Wh = self.p["Wh"] * scale
        hs, cs = np.empty((B + N, H)), np.empty((B + N if cache else B, H))
        hs[:B] = 0.0 if h0 is None else np.asarray(h0)[order]
        cs[:B] = 0.0 if c0 is None else np.asarray(c0)[order]
        h_new = hs[B:]
        # the row of cs where each step's previous cells start, and where its new ones go: in
        # the per-cell array, or the one buffer's first rows, overwritten in place
        prevs = start.tolist()
        c_reads, c_writes = (prevs, prevs[1:]) if cache else (repeat(0), repeat(0))
        rec, ig, tanh_c = np.empty((B, 4 * H)), np.empty((B, H)), np.empty((B, H))
        # x*half + shift is (1 + tanh)/2 on the sigmoid gates and leaves the candidate's tanh
        half, shift = np.tile(scale, (B, 1)), np.tile(1.0 - scale, (B, 1))
        # each gate's columns over all cells, and the step buffers' first n rows for each row
        # count n of the packing
        gi, gf, go, gg = (gates[:, k * H : (k + 1) * H] for k in range(4))
        heads = {n: (rec[:n], ig[:n], tanh_c[:n], half[:n], shift[:n]) for n in set(np.diff(off).tolist())}
        dot, tanh, multiply, add = np.dot, np.tanh, np.multiply, np.add  # each writes to its last argument
        steps = zip(off[:-1].tolist(), off[1:].tolist(), prevs, c_reads, c_writes)
        for lo, hi, prev, c_read, c_write in steps:
            n = hi - lo
            rec_n, ig_n, tanh_c_t, half_n, shift_n = heads[n]
            z, c = gates[lo:hi], cs[c_write : c_write + n]
            dot(hs[prev : prev + n], Wh, rec_n)
            add(z, rec_n, z)
            tanh(z, z)
            multiply(z, half_n, z)
            add(z, shift_n, z)
            multiply(gf[lo:hi], cs[c_read : c_read + n], c)
            multiply(gi[lo:hi], gg[lo:hi], ig_n)
            add(c, ig_n, c)
            tanh(c, tanh_c_t)
            multiply(tanh_c_t, go[lo:hi], h_new[lo:hi])
        if not np.isfinite(h_new).all():
            # the packing is time-major, so the first bad cell is at the first bad step
            first = np.argmin(np.isfinite(h_new).all(axis=1))
            raise TrainingError(f"non-finite LSTM state at timestep {int(pk.times[first])}")
        last = start[pk.lengths] + pk.pos
        if not cache:
            return h_new, (hs[last], cs[pk.pos]), None
        return h_new, (hs[last], cs[last]), {"X": X, "gates": gates, "h": hs, "c": cs, "packing": pk}

    def backward(self, dstates, dh_final, dc_final, cache):
        """`dstates` (N_real, H) is the gradient on the states, or None.
        Returns (dX (N_real, D), dh0, dc0). The pass consumes `cache`: the
        gate-derivative factors, then the gradients of the gate
        pre-activations, overwrite the gate values, and tanh(c), then the
        forget-gate values, then the previous states, overwrite the cells.
        Nothing else passed in is written.

        The steps run latest first in blocks of whole steps of at least
        BLOCK_CELLS cells (the earliest block takes what is left), and a
        block's factors are made just before its steps run, into one
        scratch block sized by the largest block."""
        X, gates, hs, cs, pk = cache["X"], cache["gates"], cache["h"], cache["c"], cache["packing"]
        B, N, H = len(pk.lengths), pk.n, self.state_size
        prev = np.concatenate(([0], B + pk.off[:-1]))[pk.times] + pk.slots  # each cell's previous state
        i, f, o, g = (gates[:, k * H : (k + 1) * H] for k in range(4))
        cells, off = cs[B:], pk.off  # tanh(c), then the forget-gate values the step loop reads
        blocks, block = [], []
        for lo, hi in zip(off[-2::-1].tolist(), off[:0:-1].tolist()):
            block.append((lo, hi))
            if block[0][1] - lo >= BLOCK_CELLS:
                blocks.append(block)
                block = []
        if block:
            blocks.append(block)
        # a block's previous cells, d(c)/d(h) and (1-o) o tanh(c), at the block's offsets
        c_prev, dc_dh, a_o = np.empty((3, max((b[0][1] - b[-1][0] for b in blocks), default=0), H))
        dh = np.zeros((B, H)) if dh_final is None else np.asarray(dh_final, dtype=np.float64)[pk.order]
        dc = np.zeros((B, H)) if dc_final is None else np.asarray(dc_final, dtype=np.float64)[pk.order]
        dZ, WhT = gates.reshape(N, 4, H), np.ascontiguousarray(self.p["Wh"].T)
        dZ_o = dZ[:, 2]
        # the carried gradients' first n rows for each row count n, and a scratch buffer
        scratch = np.empty((B, H))
        heads = {n: (dh[:n], dc[:n], dc[:n, None], scratch[:n]) for n in set(np.diff(off).tolist())}
        dot, multiply, add = np.dot, np.multiply, np.add  # each writes to its last argument
        for block in blocks:
            start, end = block[-1][0], block[0][1]
            # the previous cells first: the first step's lie in the next (earlier) block, which
            # is untouched until then, and take's "clip" mode, prev being in range, writes to
            # its output unbuffered
            c_prev_b = np.take(cs, prev[start:end], axis=0, out=c_prev[: end - start], mode="clip")
            tanh_c = np.tanh(cells[start:end], out=cells[start:end])
            i_b, f_b, o_b, g_b = i[start:end], f[start:end], o[start:end], g[start:end]
            dc_dh_b = np.multiply(tanh_c, tanh_c, out=dc_dh[: end - start])
            np.subtract(1.0, dc_dh_b, out=dc_dh_b)
            dc_dh_b *= o_b  # o(1 - tanh^2 c)
            a_o_b = np.subtract(1.0, o_b, out=a_o[: end - start])
            a_o_b *= o_b
            a_o_b *= tanh_c  # (1-o) o tanh(c), the bits of o(1-o) tanh(c)
            dg = np.multiply(g_b, g_b, out=tanh_c)
            np.subtract(1.0, dg, out=dg)
            dg *= i_b  # i(1-g^2)
            i_b *= np.subtract(1.0, i_b, out=o_b)  # the o columns are scratch until the loop
            i_b *= g_b  # g i(1-i)
            g_b[...] = dg
            cells[start:end] = f_b
            f_b *= np.subtract(1.0, f_b, out=o_b)
            f_b *= c_prev_b  # c_prev f(1-f)
            for lo, hi in block:
                dh_t, dc_t, dc_t3, tmp = heads[hi - lo]
                if dstates is not None:
                    add(dh_t, dstates[lo:hi], dh_t)
                multiply(dh_t, dc_dh[lo - start : hi - start], tmp)
                add(dc_t, tmp, dc_t)
                z = dZ[lo:hi]
                multiply(z, dc_t3, z)  # all four gates; the output gate's is written next
                multiply(a_o[lo - start : hi - start], dh_t, dZ_o[lo:hi])
                multiply(dc_t, cells[lo:hi], dc_t)
                dot(gates[lo:hi], WhT, dh_t)
        np.matmul(X.T, gates, out=self.g["Wx"])
        # the previous states, gathered into the cells
        np.matmul(np.take(hs, prev, axis=0, out=cells, mode="clip").T, gates, out=self.g["Wh"])
        gates.sum(axis=0, out=self.g["b"])
        return gates @ self.p["Wx"].T, dh[pk.pos], dc[pk.pos]


def block_params(name: str, layer) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(param, grad) of each of a layer's blocks, keyed `name.key`."""
    return {f"{name}.{key}": (layer.p[key], layer.g[key]) for key in layer.p}


def stack_shapes(vocab_size: int, dim: int, sizes, prefix: str = ""):
    """(name, shape) of each block of `LstmStack(vocab_size, dim, sizes)`,
    named and ordered as its `named_params(prefix)`, without building it.
    `sizes` is read one layer at a time."""
    yield f"{prefix}embedding.M", (vocab_size, dim)
    prev = dim
    for k, size in enumerate(sizes):
        yield f"{prefix}lstm{k}.Wx", (prev, 4 * size)
        yield f"{prefix}lstm{k}.Wh", (size, 4 * size)
        yield f"{prefix}lstm{k}.b", (4 * size,)
        prev = size


class LstmStack:
    """Embedding -> dropout -> LSTM layers, each followed by dropout, on
    the real cells of a batch only: the embedding, the dropout masks and
    every layer hand each other (N_real, width) arrays in `Packing` order.

    Dropout applies only when a generator and a positive rate are given;
    the masks are drawn after the embedding and after each layer, in
    that order, each over the (N_real, width) cells in packing order
    (`dropout_mask`).

    The cache keeps the boolean keep-masks but not the dropped arrays it
    hands each layer: the backward pass rebuilds a layer's input from the
    embedding rows of the cached token ids, or from the states of the
    layer below, with the same operations as the forward pass.
    """

    def __init__(self, vocab_size: int, dim: int, sizes: list[int], rng: np.random.Generator):
        self.embedding = Embedding(vocab_size, dim, rng)
        self.layers = [LstmLayer(prev, size, rng) for prev, size in zip([dim, *sizes], sizes)]

    def named_params(self, prefix: str = "") -> dict[str, tuple[np.ndarray, np.ndarray]]:
        named = block_params(f"{prefix}embedding", self.embedding)
        for k, layer in enumerate(self.layers):
            named.update(block_params(f"{prefix}lstm{k}", layer))
        return named

    def forward(self, idx, packing: Packing, drop_rng=None, drop_rate: float = 0.0, initial=(), cache: bool = True):
        """`idx` (B, T) holds token ids, right-padded as `packing`'s mask.
        `initial` holds (h, c) for the bottom layers; the rest start at zero.

        Returns (top-layer states (N_real, H) in packing order, final (h, c)
        of every layer, cache). With `cache=False` (inference) the cache is
        None, and each layer's gates go when it returns, so the arrays of
        one layer and its input are alive at a time.
        """
        dropping = drop_rng is not None and drop_rate > 0.0
        keeps, caches, finals = [], [], []

        def drop(X):
            if not dropping:
                return X
            keeps.append(dropout_mask(X.shape, drop_rate, drop_rng))
            return apply_dropout(X, keeps[-1], drop_rate)

        tokens = packing.pack(idx)
        X = drop(self.embedding.forward(tokens))
        for k, layer in enumerate(self.layers):
            h0, c0 = initial[k] if k < len(initial) else (None, None)
            X, final, layer_cache = layer.forward(X, packing.mask, h0=h0, c0=c0, packing=packing, cache=cache)
            if cache:
                del layer_cache["X"]  # rebuilt by the backward pass
                caches.append(layer_cache)
            finals.append(final)
            X = drop(X)
        if not cache:
            return X, finals, None
        return X, finals, {"tokens": tokens, "packing": packing, "keeps": keeps, "rate": drop_rate, "layers": caches}

    def backward(self, dstates, cache, dfinal=(None, None)):
        """`dstates` (N_real, H) is the gradient on the top states and
        `dfinal` the gradient on the top layer's final (h, c).

        The pass consumes `cache`: each layer's part is let go once its
        gradients are done. Returns the gradient on the bottom layer's
        initial (h, c).
        """
        keeps, rate, layer_caches = cache["keeps"], cache["rate"], cache["layers"]
        B = len(cache["packing"].lengths)

        def drop(X, k, in_place=False):
            return apply_dropout(X, keeps[k], rate, X if in_place else None) if keeps else X

        dh_final, dc_final = dfinal
        for k in range(len(self.layers) - 1, -1, -1):
            dstates = drop(dstates, k + 1)
            below = layer_caches[k - 1]["h"][B:] if k else self.embedding.forward(cache["tokens"])
            # the embedding rows are a new gather, dropped in place; the states below are cached
            layer_cache = {**layer_caches.pop(), "X": drop(below, k, in_place=not k)}
            dstates, dh0, dc0 = self.layers[k].backward(dstates, dh_final, dc_final, layer_cache)
            del below, layer_cache
            dh_final = dc_final = None  # lower layers' final states feed nothing else
        self.embedding.backward(drop(dstates, 0), cache["tokens"])
        return dh0, dc0


POOLING_MODES = ("last", "mean", "max")


def pool_forward(states: np.ndarray, packing: Packing, mode: str):
    """Reduce each row's real states, (N_real, H) in `packing` order, to
    one vector per row (B, H).

    last -> the state at the row's final real position; mean/max ->
    elementwise over its real positions. The mean adds a row's states in
    time order; max picks the first timestep that reaches the maximum.
    """
    lengths = packing.lengths
    if (lengths == 0).any():
        raise DataError("pooling over an all-masked sequence")
    B, H = len(lengths), states.shape[1]
    if mode == "mean":
        # bincount adds in input order, and the packing is time-major
        cells = (packing.rows[:, None] * H + np.arange(H)).ravel()
        total = np.bincount(cells, weights=states.ravel(), minlength=B * H).reshape(B, H)
        return total / lengths[:, None], ("mean", packing.rows, lengths, states.shape)
    if mode == "last":
        cells = (packing.off[lengths - 1] + packing.pos)[:, None]
    elif mode == "max":
        order = packing.row_major
        runs = states[order]  # each row's cells in time order, one row after another
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        top = np.maximum.reduceat(runs, starts, axis=0)
        hits = np.where(runs == np.repeat(top, lengths, axis=0), np.arange(len(runs))[:, None], len(runs))
        cells = order[np.minimum.reduceat(hits, starts, axis=0)]
    else:
        raise DataError(f"unknown pooling mode: {mode!r}")
    columns = np.arange(H)
    return states[cells, columns], ("pick", cells, columns, states.shape)


def pool_backward(dpooled: np.ndarray, cache) -> np.ndarray:
    """The gradient on the packed states (N_real, H); zero at every cell
    the pooling did not read."""
    if cache[0] == "mean":
        _, rows, lengths, _ = cache
        return dpooled[rows] / lengths[rows, None]
    _, cells, columns, shape = cache
    dstates = np.zeros(shape)
    dstates[cells, columns] = dpooled
    return dstates


class Dense:
    """Affine layer x @ W + b. The softmax head runs it on real cells only,
    so its weight and bias gradients are sums over those cells."""

    def __init__(self, input_size: int, output_size: int, rng: np.random.Generator):
        self.p = {
            "W": glorot_uniform(rng, (input_size, output_size), input_size, output_size),
            "b": np.zeros(output_size),
        }
        self.g = {k: np.zeros_like(v) for k, v in self.p.items()}

    def forward(self, x: np.ndarray):
        out = x @ self.p["W"]
        out += self.p["b"]
        return out, x

    def backward(self, dout: np.ndarray, x: np.ndarray):
        """`dout` (N, out) and `x` (N, in). Returns the gradient on `x`."""
        dx = dout @ self.p["W"].T
        np.matmul(x.T, dout, out=self.g["W"])
        dout.sum(axis=0, out=self.g["b"])
        return dx


def masked_cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean per-position multi-class log-loss over the real positions.

    logits (N_real, V); targets (N_real,) int, the target of each logit
    row. Returns (loss, dlogits), dlogits in the order of the logits. The
    softmax makes one new array, which becomes dlogits in place once the
    per-position losses are read; the logits are not written.
    """
    n = len(targets)
    if n == 0:
        raise DataError("cross entropy over an all-masked batch")
    probs = softmax(logits, axis=-1)
    picks = np.arange(n)
    loss = -np.log(np.clip(probs[picks, targets], 1e-300, None)).sum() / n
    probs[picks, targets] -= 1.0
    probs *= 1.0 / n
    return loss, probs


def softmax_head(dense: Dense, x: np.ndarray, targets: np.ndarray):
    """The language model's and the generator's head on the real cells x
    (N_real, d), whose targets are `targets` (N_real,): `dense`,
    `masked_cross_entropy` and `dense`'s backward pass, which writes the
    weight and bias gradients. Returns (loss, dx), and holds at most two
    (N_real, V) arrays. `dense.forward` sees one (1, N_real, d) run:
    `perfbench/workloads.py`'s `generate` check wraps the generator's
    `out.forward`, runs `forward_train` on one row and reads `logits[0]`
    as its (T, V) logits."""
    logits, _ = dense.forward(x[None])
    loss, dlogits = masked_cross_entropy(logits[0], targets)
    del logits
    return loss, dense.backward(dlogits, x)


# the optimizers' decay rates, and the term that keeps their step finite
ADAM_BETA1, ADAM_BETA2 = 0.9, 0.999
RMSPROP_RHO = 0.9
EPS = 1e-8


def _scratch(named_params) -> tuple[np.ndarray, np.ndarray]:
    """Two flat buffers as large as the largest block: an optimizer step's
    scratch, reused block after block."""
    size = max((param.size for param, _ in named_params.values()), default=0)
    return np.empty(size), np.empty(size)


def _view(buffer: np.ndarray, like: np.ndarray) -> np.ndarray:
    return buffer[: like.size].reshape(like.shape)


class Adam:
    """Bias-corrected adaptive-moment optimizer (ADAM_BETA1, ADAM_BETA2,
    EPS); one shared step counter. A block's moments are made on its first
    step; each step runs through two scratch buffers, in the order of
    m = b1 m + (1-b1) g, v = b2 v + (1-b2) g**2,
    param -= lr m_hat / (sqrt(v_hat) + EPS)."""

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, named_params: dict[str, tuple[np.ndarray, np.ndarray]]):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        scratch = _scratch(named_params)
        for name, (param, grad) in named_params.items():
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(param), np.zeros_like(param)
            m, v = self.m[name], self.v[name]
            a, b = (_view(buffer, param) for buffer in scratch)
            m *= b1
            m += np.multiply(1.0 - b1, grad, out=a)
            v *= b2
            np.square(grad, out=b)
            v += np.multiply(1.0 - b2, b, out=b)
            np.divide(m, 1.0 - b1**self.t, out=a)  # m_hat
            np.divide(v, 1.0 - b2**self.t, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += EPS
            np.multiply(self.lr, a, out=a)
            a /= b
            param -= a


class RmsProp:
    """Squared-gradient moving-average optimizer (RMSPROP_RHO, EPS). A
    block's average is made on its first step; each step runs through two
    scratch buffers, in the order of cache = rho cache + (1-rho) g**2,
    param -= lr g / (sqrt(cache) + EPS)."""

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.cache: dict[str, np.ndarray] = {}

    def step(self, named_params: dict[str, tuple[np.ndarray, np.ndarray]]):
        scratch = _scratch(named_params)
        for name, (param, grad) in named_params.items():
            if name not in self.cache:
                self.cache[name] = np.zeros_like(param)
            cache = self.cache[name]
            a, b = (_view(buffer, param) for buffer in scratch)
            cache *= RMSPROP_RHO
            np.square(grad, out=b)
            cache += np.multiply(1.0 - RMSPROP_RHO, b, out=b)
            np.multiply(self.lr, grad, out=a)
            np.sqrt(cache, out=b)
            b += EPS
            a /= b
            param -= a


def fit(network, optimizer, make_batch, n_items: int, hp, seed: int) -> float:
    """The epoch/batch/step loop shared by every trainer.

    Each epoch shuffles the item order with a generator seeded `seed+1`,
    cuts it into `hp.batch_size` chunks, and `make_batch(chunk)` turns a
    chunk into the arguments of `network.loss_and_grads` ahead of the
    dropout generator (seeded `seed+2`) and `hp.dropout`, which writes
    the gradients the optimizer reads. A non-finite loss, or a gradient
    block holding a NaN or infinity, raises TrainingError naming the batch
    or the block before the optimizer steps. Returns the mean batch loss
    of the last epoch (0.0 without epochs).
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
            named = network.named_params()
            for name, (_, grad) in named.items():
                if not np.isfinite(grad).all():
                    raise TrainingError(f"non-finite gradient in {name}")
            optimizer.step(named)
            epoch_losses.append(loss)
        final_loss = float(np.mean(epoch_losses))
    return final_loss
