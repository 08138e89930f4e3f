"""The packed LSTM layer's step loops against a frozen copy of themselves
(`lstm_packed_reference.PackedReferenceLstmLayer`), bit for bit.

The step loops may be rewritten for speed only if every value keeps its
bits: states, finals, the gate cache before and after the backward pass,
the input gradient, the initial-state gradients and the weight gradients
must be equal under `np.array_equal`, not merely close. So must the
tanh(c) recomputed over all cells at once and the one the frozen loops
store step by step.

The backward pass makes its gate factors a block of steps at a time
(`tensor_core.BLOCK_CELLS`); the blocks must not change a bit either, so
the small Hypothesis packings also run with blocks of 1, 2 and 7 cells,
where they cross many block boundaries.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lstm_packed_reference import PackedReferenceLstmLayer
from satd_forge import tensor_core as tc
from test_lstm_packing import right_padded


@st.composite
def masks(draw):
    """Ragged right-padded masks (zero-length rows, ties, B=1, padding past
    the longest row), or the all-ones (B, 1) masks of a greedy-decoding step."""
    if draw(st.booleans()):
        return np.ones((draw(st.integers(1, 6)), 1))
    lengths = draw(st.lists(st.integers(0, 9), min_size=1, max_size=7))
    T = draw(st.integers(max(max(lengths), 1), 11))
    return right_padded(lengths, T)


def run(layer, X, mask, packing, h0, c0, dstates, dh_final, dc_final):
    states, (h, c), cache = layer.forward(X, mask, h0=h0, c0=c0, packing=packing)
    forward = [states.copy(), h.copy(), c.copy()] + [cache[k].copy() for k in ("gates", "h", "c")]
    # the frozen loops store each step's tanh(c); the live layer's backward pass recomputes it
    # over all cells at once
    forward.append(cache["tanh_c"].copy() if "tanh_c" in cache else np.tanh(cache["c"][len(mask):]))
    dX, dh0, dc0 = layer.backward(dstates, dh_final, dc_final, cache)
    return forward + [cache["gates"], dX, dh0, dc0] + [layer.g[k] for k in ("Wx", "Wh", "b")]


def check(mask, D, H, seed, given_initial, dense_states, given_final):
    rng = np.random.default_rng(seed)
    B = len(mask)
    layer = tc.LstmLayer(D, H, rng)
    layer.p["b"] += rng.normal(size=4 * H)
    ref = PackedReferenceLstmLayer(layer)
    packing = tc.Packing(mask)
    X = rng.normal(size=(packing.n, D))
    h0, c0 = (rng.normal(size=(B, H)), rng.normal(size=(B, H))) if given_initial else (None, None)
    dstates = rng.normal(size=(packing.n, H)) if dense_states else None
    dh_final, dc_final = (rng.normal(size=(B, H)), rng.normal(size=(B, H))) if given_final else (None, None)
    got = run(layer, X, mask, packing, h0, c0, dstates, dh_final, dc_final)
    want = run(ref, X, mask, packing, h0, c0, dstates, dh_final, dc_final)
    for k, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), f"result {k} differs"


class TestStepLoopsBitForBit:
    @settings(max_examples=300, deadline=None)
    @given(masks(), st.integers(1, 6), st.integers(1, 17), st.integers(0, 2**32 - 1),
           st.booleans(), st.booleans(), st.booleans())
    def test_same_bits_as_the_frozen_loops(self, mask, D, H, seed, given_initial, dense_states, given_final):
        check(mask, D, H, seed, given_initial, dense_states, given_final)

    @pytest.mark.parametrize("B,H,median,seed", [(8, 16, 55, 3), (32, 32, 65, 4)])
    def test_benchmark_shapes(self, B, H, median, seed):
        # the detector's batches (B=8, latent 16) and the generator's (B=32, latent 32)
        rng = np.random.default_rng(seed)
        lengths = np.clip(rng.lognormal(np.log(median), 0.8, B).astype(int), 1, 1500)
        check(right_padded(lengths, int(lengths.max())), H, H, seed, True, True, True)


class TestBlockedBackward:
    @pytest.mark.parametrize("block_cells", [1, 2, 7])
    @settings(max_examples=100, deadline=None)
    @given(masks(), st.integers(1, 6), st.integers(1, 17), st.integers(0, 2**32 - 1),
           st.booleans(), st.booleans(), st.booleans())
    @example(right_padded([3, 0, 5, 0], 6), 2, 3, 0, False, False, True)  # zero-length rows, no dstates
    def test_small_blocks_keep_the_bits(self, block_cells, mask, D, H, seed, given_initial, dense_states,
                                        given_final):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tc, "BLOCK_CELLS", block_cells)
            check(mask, D, H, seed, given_initial, dense_states, given_final)

    @pytest.mark.parametrize("dense_states,given_final", [(True, False), (False, True)])
    def test_default_blocks_at_the_generators_shape(self, dense_states, given_final):
        # B=32, latent 32, lengths around 65 with some rows empty: many blocks of the default size
        rng = np.random.default_rng(5)
        lengths = np.clip(rng.lognormal(np.log(65), 0.8, 32).astype(int), 1, 1500)
        lengths[::7] = 0
        mask = right_padded(lengths, int(lengths.max()))
        assert mask.sum() > 4 * tc.BLOCK_CELLS
        check(mask, 32, 32, 5, True, dense_states, given_final)
