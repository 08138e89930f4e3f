"""Each per-cell activation is held once, and every value keeps its bits.

The stack keeps a boolean keep-mask per dropout and rebuilds the dropped
arrays it hands its layers in the backward pass; a layer recomputes
tanh(c) there, in place of the cells it consumes. The softmax heads hold
at most two (N_real, V) arrays, and `predict_many` runs an inference
forward, which keeps no cache.
Memory is what `tracemalloc` sees (numpy reports its arrays to it).

The bit-for-bit oracle is `lstm_packed_reference.FloatMaskReferenceStack`,
a frozen copy of the stack from before: fed the keep-masks the live stack
drew, it stores a float mask and each dropped array, over the frozen
packed layers that store tanh(c).
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lstm_packed_reference import FloatMaskReferenceStack
from satd_forge import tensor_core as tc
from satd_forge.detector import DetectorModel, DetectorNetwork, DlHp, predict_many
from satd_forge.pretrainer import LmNetwork
from satd_forge.textpipe import build_vocabulary, length_sorted_chunks, pad_batch
from test_lstm_packing import right_padded


def traced(call):
    """(result, bytes held after `call` returns, peak bytes during it)."""
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_stack_forward_holds_each_cell_array_once():
    # per real cell: the token id (8 bytes), the embedding's keep-mask (D), and per state
    # number the gates (32), the states and cells (16), the layer's keep-mask (1) and the
    # dropped states handed back (8)
    B, T, D, H = 8, 120, 16, 24
    rng = np.random.default_rng(0)
    packing = tc.Packing(right_padded(rng.integers(T // 2, T + 1, size=B), T))
    idx = rng.integers(0, 50, size=(B, T))
    stack = tc.LstmStack(50, D, [H], rng)
    _, held, _ = traced(lambda: stack.forward(idx, packing, np.random.default_rng(1), 0.2))
    # the B initial and B final states and cells, and the dicts' and arrays' headers
    overhead = 8 * (8 * B * H) + 16_384
    assert held <= packing.n * (8 + D + 57 * H) + overhead, (held, packing.n)


def test_inference_stack_forward_peaks_below_six_tenths_of_the_cached_one():
    # a cached forward holds every layer's gates, states and cells until the caller lets the
    # cache go; an inference forward holds one layer's arrays and its input at a time
    B, T, D = 8, 120, 16
    rng = np.random.default_rng(4)
    packing = tc.Packing(right_padded(rng.integers(T // 2, T + 1, size=B), T))
    idx = rng.integers(0, 50, size=(B, T))
    stack = tc.LstmStack(50, D, tc.detector_layer_sizes(D, 3), rng)
    cached, _, cached_peak = traced(lambda: stack.forward(idx, packing))
    inferred, _, peak = traced(lambda: stack.forward(idx, packing, cache=False))
    assert np.array_equal(inferred[0], cached[0])
    assert peak < 0.6 * cached_peak, (peak / cached_peak)


def test_layer_backward_peaks_at_three_cell_arrays_above_its_inputs():
    # tanh(c), then the forget-gate values the step loop reads, overwrite the cache's own cells,
    # and the gate factors need three scratch arrays of one block of steps (at most
    # BLOCK_CELLS + B - 1 cells), not of every cell. The rest grows with the cells by the input
    # gradient (N_real, D) and index arrays only, and with H^2 by the transposed recurrent
    # weights and their gradient's product
    B, T, D, H = 16, 200, 4, 64
    rng = np.random.default_rng(6)
    packing = tc.Packing(right_padded(rng.integers(T // 2, T + 1, size=B), T))
    layer = tc.LstmLayer(D, H, rng)
    X, dstates = rng.normal(size=(packing.n, D)), rng.normal(size=(packing.n, H))
    dh, dc = rng.normal(size=(B, H)), rng.normal(size=(B, H))
    _, _, cache = layer.forward(X, packing.mask, packing=packing)
    d_before = dstates.copy()
    _, _, peak = traced(lambda: layer.backward(dstates, dh, dc, cache))
    assert np.array_equal(dstates, d_before)  # the caller's gradient is not written
    one = packing.n * H * 8
    overhead = packing.n * (8 * D + 64) + 2 * (4 * H * H * 8) + 8 * (B * H * 8) + 16_384
    assert peak <= 3 * one + overhead, (peak / one)


def test_layer_backward_scratch_does_not_grow_with_the_cells():
    # the same B and H at two lengths: the peak above the inputs grows by the input gradient
    # (N_real, D) and the index arrays only; the gate factors' scratch is one block of steps
    B, D, H = 16, 4, 64
    peaks, cells = [], []
    for T in (200, 800):
        rng = np.random.default_rng(7)
        packing = tc.Packing(right_padded(rng.integers(T // 2, T + 1, size=B), T))
        layer = tc.LstmLayer(D, H, rng)
        X, dstates = rng.normal(size=(packing.n, D)), rng.normal(size=(packing.n, H))
        _, _, cache = layer.forward(X, packing.mask, packing=packing)
        _, _, peak = traced(lambda: layer.backward(dstates, None, None, cache))
        peaks.append(peak)
        cells.append(packing.n)
    slack = 3 * (tc.BLOCK_CELLS + B) * H * 8 + 16_384
    grown = peaks[1] - peaks[0]
    assert grown <= (cells[1] - cells[0]) * (8 * D + 64) + slack, (grown / (cells[1] - cells[0]))


def test_lm_step_peaks_below_two_and_a_half_vocabulary_arrays():
    # the logits, and the probabilities that become their gradient in place
    B, T, V = 8, 40, 3000
    rng = np.random.default_rng(2)
    lengths = rng.integers(T // 2, T + 1, size=B)
    mask = right_padded(lengths, T)
    idx = rng.integers(0, V, size=(B, T)) * mask.astype(np.int64)
    tgt = rng.integers(0, V, size=(B, T)) * mask.astype(np.int64)
    net = LmNetwork(V, 4, 1, seed=2)
    net.loss_and_grads(idx, mask, tgt, np.random.default_rng(0), 0.2)  # builds what later calls reuse
    _, _, peak = traced(lambda: net.loss_and_grads(idx, mask, tgt, np.random.default_rng(0), 0.2))
    one = int(mask.sum()) * V * 8
    assert peak < 2.5 * one, (peak / one)


def test_predict_many_peaks_at_one_chunk_forward():
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(40)]
    sequences = [[words[j] for j in rng.integers(0, 40, size=60)] for _ in range(32)]
    vocab = build_vocabulary(sequences, "code")
    hp = DlHp(latent=16, layers=3, batch_size=8)
    model = DetectorModel(kind="dl", vocab=vocab, hp=hp, network=DetectorNetwork(vocab.size, 16, 3, "mean", 3))
    encoded = [vocab.encode(s) for s in sequences]
    first = next(iter(length_sorted_chunks([len(s) for s in encoded], hp.batch_size)))
    matrix, mask = pad_batch([encoded[j] for j in first], hp.seq_cap)
    _, _, one = traced(lambda: model.network.forward(matrix, mask))
    _, _, many = traced(lambda: predict_many(model, sequences))
    # four chunks of the same shape; two caches alive at once would be about twice one
    assert many < 1.25 * one, (many / one)


def run_stack(stack, idx, packing, drop, drop_rate, initial, dstates, dfinal):
    """Forward and backward, dropping with `drop` (the live stack's drop
    generator, or the keep-masks it drew for the frozen one); returns
    (states, finals, gradients, initial-state gradients, the forward cache)."""
    named = stack.named_params()
    for _, grad in named.values():
        grad[...] = 0.0
    states, finals, cache = stack.forward(idx, packing, drop, drop_rate, initial=initial)
    states, finals = states.copy(), [(h.copy(), c.copy()) for h, c in finals]
    d_before = dstates.copy()
    dh0, dc0 = stack.backward(dstates, cache, dfinal=dfinal)
    assert np.array_equal(dstates, d_before)  # the caller's gradient is not written
    grads = {name: grad.copy() for name, (_, grad) in named.items()}
    return states, finals, grads, (dh0, dc0), cache


def record_inputs(layer, forward_inputs, backward_inputs):
    """Wrap a live layer so its forward input X and the X its backward cache
    holds are stored."""
    forward, backward = layer.forward, layer.backward

    def recording_forward(X, *args, **kwargs):
        forward_inputs.append(X.copy())
        return forward(X, *args, **kwargs)

    def recording_backward(dstates, dh_final, dc_final, cache):
        backward_inputs.append(cache["X"].copy())
        return backward(dstates, dh_final, dc_final, cache)

    layer.forward, layer.backward = recording_forward, recording_backward


@st.composite
def stack_cases(draw):
    lengths = draw(st.lists(st.integers(0, 9), min_size=1, max_size=6).filter(any))
    T = draw(st.integers(max(lengths), 11))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    return lengths, T, sizes


class TestStackAgainstFloatMasks:
    @settings(max_examples=120, deadline=None)
    @given(stack_cases(), st.integers(1, 5), st.sampled_from([0.0, 0.2, 0.5]), st.integers(0, 2**32 - 1),
           st.integers(0, 1), st.booleans())
    def test_same_bits_as_the_frozen_stack(self, case, dim, drop_rate, seed, n_initial, given_final):
        lengths, T, sizes = case
        rng = np.random.default_rng(seed)
        B, vocab = len(lengths), 7
        stack = tc.LstmStack(vocab, dim, sizes, rng)
        ref = FloatMaskReferenceStack(stack)
        packing = tc.Packing(right_padded(lengths, T))
        idx = rng.integers(0, vocab, size=(B, T))
        initial = [(rng.normal(size=(B, H)), rng.normal(size=(B, H))) for H in sizes[:n_initial]]
        dstates = rng.normal(size=(packing.n, sizes[-1]))
        dfinal = (rng.normal(size=(B, sizes[-1])), rng.normal(size=(B, sizes[-1]))) if given_final else (None, None)
        forward_inputs, backward_inputs = [], []
        for layer in stack.layers:
            record_inputs(layer, forward_inputs, backward_inputs)
        drop_rng, same = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = run_stack(stack, idx, packing, drop_rng, drop_rate, initial, dstates, dfinal)
        keeps = got[4]["keeps"]
        want = run_stack(ref, idx, packing, keeps, drop_rate, initial, dstates, dfinal)
        assert np.array_equal(got[0], want[0])
        for (h, c), (wh, wc) in zip(got[1], want[1], strict=True):
            assert np.array_equal(h, wh) and np.array_equal(c, wc)
        assert got[2].keys() == want[2].keys()
        for name in got[2]:
            assert np.array_equal(got[2][name], want[2][name]), name
        for a, b in zip(got[3], want[3]):
            assert np.array_equal(a, b)
        # the masks are plain draws of the generator, after the embedding and then after each
        # layer, and nothing else draws from it
        assert len(keeps) == (len(sizes) + 1 if drop_rate else 0)
        for keep in keeps:
            assert np.array_equal(keep, same.random(keep.shape) >= drop_rate)
        assert drop_rng.random() == same.random()
        # the dropped products each layer got, and the ones the backward pass rebuilt
        frozen_inputs = [cache["X"] for cache in want[4]["layers"]]
        assert len(forward_inputs) == len(frozen_inputs) == len(backward_inputs) == len(sizes)
        for fwd, frozen, rebuilt in zip(forward_inputs, frozen_inputs, backward_inputs[::-1]):
            assert np.array_equal(fwd, frozen) and np.array_equal(rebuilt, frozen)
            assert np.array_equal(np.signbit(rebuilt), np.signbit(frozen))
