"""Property tests of the packed LSTM layer and stack against the frozen
full-batch reference (`lstm_reference.ReferenceLstmLayer`).

Every state at a real cell, final and gradient must agree within 1e-12
(relative and absolute) over random length sets, with zero gradient at
padding, and the embedding gradient, taken over real tokens only, must
equal `np.add.at` over the whole padded batch bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lstm_reference import ReferenceLstmLayer
from padded_layout import unpack
from satd_forge import tensor_core as tc
from satd_forge.errors import TrainingError
from test_lstm_packing import close, reference_stack, right_padded, run_both


@st.composite
def length_sets(draw, max_rows=7, max_time=9):
    """(lengths, T): zero-length rows, ties, B=1, and every row shorter than T."""
    lengths = draw(st.lists(st.integers(0, max_time), min_size=1, max_size=max_rows))
    T = draw(st.integers(max(max(lengths), 1), max_time + 2))
    return lengths, T


def check_layer(lengths, T, D, H, seed, given_initial, upstream):
    rng = np.random.default_rng(seed)
    B = len(lengths)
    layer = tc.LstmLayer(D, H, rng)
    ref = ReferenceLstmLayer(layer)
    X = rng.normal(size=(B, T, D))
    mask = right_padded(lengths, T)
    h0 = rng.normal(size=(B, H)) if given_initial else None
    c0 = rng.normal(size=(B, H)) if given_initial else None
    # a gradient at every real position; padding takes none
    dstates = rng.normal(size=(B, T, H)) if upstream in ("states", "both") else None
    dh_final = rng.normal(size=(B, H)) if upstream in ("final", "both") else None
    dc_final = rng.normal(size=(B, H)) if upstream in ("final", "both") else None
    new, old = run_both(layer, ref, X, mask, h0, c0, dstates, dh_final, dc_final)
    for a, b in zip(new[:6], old[:6]):
        close(a, b)
    for key in ("Wx", "Wh", "b"):
        close(new[6][key], old[6][key])


def check_stack(lengths, T, sizes, seed, drop_rate, n_initial, vocab=11, dim=4):
    rng = np.random.default_rng(seed)
    B = len(lengths)
    stack = tc.LstmStack(vocab, dim, sizes, rng)
    mask = right_padded(lengths, T)
    idx = (rng.integers(1, vocab, size=(B, T)) * mask).astype(np.int64)
    initial = [(rng.normal(size=(B, H)), rng.normal(size=(B, H))) for H in sizes[:n_initial]]
    packing = tc.Packing(mask)
    dstates = unpack(packing, packing.pack(rng.normal(size=(B, T, sizes[-1]))))  # zero at padding
    dfinal = (rng.normal(size=(B, sizes[-1])), rng.normal(size=(B, sizes[-1])))
    drop_seed = seed + 1 if drop_rate else None

    named = stack.named_params()
    for _, grad in named.values():
        grad[...] = 0.0
    drop_rng = np.random.default_rng(drop_seed) if drop_seed is not None else None
    states, finals, cache = stack.forward(idx, packing, drop_rng, drop_rate, initial=initial)
    states = states.copy()
    finals = [(h.copy(), c.copy()) for h, c in finals]
    dh0, dc0 = stack.backward(packing.pack(dstates), cache, dfinal=dfinal)

    want = reference_stack(stack, idx, mask, drop_seed, drop_rate, initial, dstates, dfinal)
    close(states, packing.pack(want[0]))
    for (h, c), (wh, wc) in zip(finals, want[1]):
        close(h, wh)
        close(c, wc)
    for name, (_, grad) in named.items():
        close(grad, want[2][name])
    close(dh0, want[3][0])
    close(dc0, want[3][1])


class TestLayerProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        length_sets(),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["states", "final", "both"]),
    )
    def test_agrees_with_reference(self, lt, D, H, seed, given_initial, upstream):
        lengths, T = lt
        check_layer(lengths, T, D, H, seed, given_initial, upstream)

    @pytest.mark.parametrize("B,H,median,seed", [(32, 32, 65, 37), (8, 16, 200, 11)])
    def test_benchmark_scale(self, B, H, median, seed):
        # lognormal lengths: B=32 gives T=293, 28% real; B=8 gives T=593, 48% real
        rng = np.random.default_rng(seed)
        lengths = np.clip(rng.lognormal(np.log(median), 0.8, B).astype(int), 1, 1500).tolist()
        check_layer(lengths, max(lengths), H, H, seed, True, "both")


class TestStackProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        length_sets(max_rows=6, max_time=7),
        st.sampled_from([[3], [2, 3], [4, 3, 2]]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.3]),
        st.integers(0, 1),
    )
    def test_agrees_with_reference(self, lt, sizes, seed, drop_rate, n_initial):
        lengths, T = lt
        check_stack(lengths, T, sizes, seed, drop_rate, n_initial)

    def test_benchmark_scale(self):
        rng = np.random.default_rng(33)  # T=307, 27% real
        lengths = np.clip(rng.lognormal(np.log(65), 0.8, 32).astype(int), 1, 1500).tolist()
        check_stack(lengths, max(lengths), [32], 33, 0.2, 1, vocab=50, dim=32)

    @pytest.mark.parametrize("drop_rate", [0.0, 0.3])
    def test_embedding_gradient_is_add_at_over_the_padded_batch(self, drop_rate):
        rng = np.random.default_rng(21)
        lengths = [4, 0, 9, 6, 9, 2, 5]
        B, T, vocab = len(lengths), 10, 6  # few words, so rows share them
        stack = tc.LstmStack(vocab, 3, [4, 5], rng)
        packing = tc.Packing(right_padded(lengths, T))
        idx = rng.integers(0, vocab, size=(B, T))  # padding positions hold words too
        seen = []
        bottom = stack.layers[0]
        layer_backward = bottom.backward

        def capture(*args):
            result = layer_backward(*args)
            seen.append(result[0])
            return result

        bottom.backward = capture
        for _, grad in stack.named_params().values():
            grad[...] = 0.0
        drop_rng = np.random.default_rng(4) if drop_rate else None
        _, _, cache = stack.forward(idx, packing, drop_rng, drop_rate)
        stack.backward(packing.pack(rng.normal(size=(B, T, 5))), cache)
        dX = seen[0]  # real cells only: the padded batch's input gradient is zero at padding
        # the float mask the stack's bool keep-mask stands for
        full = unpack(packing, dX * (cache["keeps"][0] * (1.0 / (1.0 - drop_rate))) if drop_rate else dX)
        want = np.zeros_like(stack.embedding.g["M"])
        np.add.at(want, idx, full)
        np.testing.assert_array_equal(stack.embedding.g["M"], want)


class TestNonFinite:
    def test_error_names_the_timestep_of_a_middle_row(self):
        # the row is neither the longest nor the first in caller order
        rng = np.random.default_rng(9)
        layer = tc.LstmLayer(2, 3, rng)
        lengths = [3, 7, 5, 2]
        X = rng.normal(size=(4, 7, 2))
        X[2, 4, 1] = np.nan
        packing = tc.Packing(right_padded(lengths, 7))
        with pytest.raises(TrainingError, match="non-finite LSTM state at timestep 4$"):
            layer.forward(packing.pack(X), packing.mask)

    def test_padding_input_is_never_read(self):
        # the stack looks up real cells only: tokens at padding, in the vocabulary or not, change nothing
        rng = np.random.default_rng(10)
        stack = tc.LstmStack(5, 2, [3], rng)
        packing = tc.Packing(right_padded([6, 2, 4], 6))
        idx = rng.integers(1, 5, size=(3, 6))
        clean, _, _ = stack.forward(idx, packing)
        idx[1, 2:] = 99
        idx[2, 4:] = -1
        states, _, _ = stack.forward(idx, packing)
        np.testing.assert_array_equal(states, clean)
