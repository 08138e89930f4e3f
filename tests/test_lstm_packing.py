"""The packed, time-major LSTM against a frozen per-timestep copy.

`lstm_reference.ReferenceLstmLayer` is the layer as it was before rows
were sorted and packed: every step runs the whole batch and blends the
masked rows. The packed layer and stack define states at real cells
only and take no gradient at padding, so the reference gets a gradient
of zero there, as every consumer of the states passes. States at real
cells, finals and every gradient must agree within 1e-12.
"""

import numpy as np
import pytest

from lstm_reference import ReferenceLstmLayer
from padded_layout import unpack
from satd_forge import tensor_core as tc
from satd_forge.errors import DataError


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


def right_padded(lengths, T):
    return (np.arange(T) < np.asarray(lengths)[:, None]).astype(np.float64)


def run_both(layer, ref, X, mask, h0, c0, dstates, dh_final, dc_final):
    """Forward and backward through both layers; returns both result tuples,
    with states and input gradients at real cells in packing order.

    `X` (B, T, D) and `dstates` (B, T, H) or None are padded: the packed
    layer gets their real cells, and the reference gets `dstates` with
    zeros at padding."""
    packing = tc.Packing(mask)
    d_real = None if dstates is None else packing.pack(dstates)
    d_padded = None if dstates is None else unpack(packing, d_real)
    results = []
    for lstm, x, d, cells in ((layer, packing.pack(X), d_real, np.asarray),
                              (ref, X, d_padded, packing.pack)):
        for g in lstm.g.values():
            g[...] = 0.0
        states, (h, c), cache = lstm.forward(x, mask, h0=h0, c0=c0)
        states, h, c = cells(states).copy(), h.copy(), c.copy()
        dX, dh0, dc0 = lstm.backward(d, dh_final, dc_final, cache)
        results.append((states, h, c, cells(dX), dh0, dc0, {k: v.copy() for k, v in lstm.g.items()}))
    return results


# unsorted lengths, ties, a length-0 row and a full-length row
LENGTHS = [[3, 0, 5, 5, 1, 4], [5], [0], [2, 2, 2], [1, 3, 5, 4, 2]]


class TestLayerAgainstReference:
    @pytest.mark.parametrize("lengths", LENGTHS)
    @pytest.mark.parametrize("given_initial", [False, True])
    @pytest.mark.parametrize("upstream", ["states", "final", "both"])
    def test_states_finals_and_gradients(self, lengths, given_initial, upstream):
        rng = np.random.default_rng(len(lengths) * 7 + given_initial)
        B, T, D, H = len(lengths), 5, 3, 4
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

    def test_repeat_forward_backward_keeps_agreeing(self):
        # the backward pass overwrites the gate cache; a new forward starts clean
        rng = np.random.default_rng(5)
        layer = tc.LstmLayer(2, 3, rng)
        ref = ReferenceLstmLayer(layer)
        X = rng.normal(size=(4, 6, 2))
        mask = right_padded([6, 2, 4, 1], 6)
        dstates = rng.normal(size=(4, 6, 3))
        first = run_both(layer, ref, X, mask, None, None, dstates, None, None)
        second = run_both(layer, ref, X, mask, None, None, dstates, None, None)
        for run in (first, second):
            for a, b in zip(run[0][:6], run[1][:6]):
                close(a, b)
        close(first[0][3], second[0][3])

    def test_caller_row_order_is_kept(self):
        rng = np.random.default_rng(6)
        layer = tc.LstmLayer(3, 2, rng)
        X = rng.normal(size=(3, 4, 3))
        mask = right_padded([1, 4, 2], 4)
        packing = tc.Packing(mask)
        states, (h, c), _ = layer.forward(packing.pack(X), mask)
        states = unpack(packing, states)
        for r in range(3):
            lone = tc.Packing(mask[r : r + 1])
            alone, (h_r, c_r), _ = layer.forward(lone.pack(X[r : r + 1]), mask[r : r + 1])
            close(states[r], unpack(lone, alone)[0])
            close(h[r], h_r[0])
            close(c[r], c_r[0])


def reference_stack(stack, idx, packing, keeps, drop_rate, initial, dstates, dfinal):
    """`LstmStack` forward and backward composed from reference layers, on
    the padded batch. `keeps` are the boolean keep-masks the packed stack
    drew (its cache's "keeps", none without dropout): each is scattered
    to the padded layout as the float mask it stands for, zero at padding."""
    M = stack.embedding.p["M"]
    refs = [ReferenceLstmLayer(layer) for layer in stack.layers]
    masks = [unpack(packing, keep * (1.0 / (1.0 - drop_rate))) for keep in keeps]
    caches, finals = [], []

    def drop(X, k):
        return X * masks[k] if masks else X

    X = drop(M[idx], 0)
    for k, ref in enumerate(refs):
        h0, c0 = initial[k] if k < len(initial) else (None, None)
        X, final, cache = ref.forward(X, packing.mask, h0=h0, c0=c0)
        caches.append(cache)
        finals.append(final)
        X = drop(X, k + 1)
    states = X
    dh_final, dc_final = dfinal
    d = dstates
    for k in range(len(refs) - 1, -1, -1):
        d, dh, dc = refs[k].backward(drop(d, k + 1), dh_final, dc_final, caches[k])
        dh_final = dc_final = None
    d = drop(d, 0)
    gM = np.zeros_like(M)
    np.add.at(gM, idx, d)
    grads = {"embedding.M": gM}
    for k, ref in enumerate(refs):
        grads.update({f"lstm{k}.{key}": g for key, g in ref.g.items()})
    return states, finals, grads, (dh, dc)


class TestStackAgainstReference:
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("drop_rate", [0.0, 0.3])
    def test_stack(self, n_layers, drop_rate):
        rng = np.random.default_rng(40 + n_layers)
        stack = tc.LstmStack(9, 4, tc.detector_layer_sizes(4, n_layers), rng)
        lengths = [2, 6, 0, 4, 6, 1]
        B, T = len(lengths), 6
        mask = right_padded(lengths, T)
        idx = (rng.integers(1, 9, size=(B, T)) * mask).astype(np.int64)
        H0 = stack.layers[0].state_size
        initial = [(rng.normal(size=(B, H0)), rng.normal(size=(B, H0)))]
        Htop = stack.layers[-1].state_size
        packing = tc.Packing(mask)
        dstates = unpack(packing, packing.pack(rng.normal(size=(B, T, Htop))))  # zero at padding
        dfinal = (rng.normal(size=(B, Htop)), rng.normal(size=(B, Htop)))

        named = stack.named_params()
        for _, grad in named.values():
            grad[...] = 0.0
        drop_rng = np.random.default_rng(3) if drop_rate else None
        states, finals, cache = stack.forward(idx, packing, drop_rng, drop_rate, initial=initial)
        states, keeps = states.copy(), cache["keeps"]
        finals = [(h.copy(), c.copy()) for h, c in finals]
        dh0, dc0 = stack.backward(packing.pack(dstates), cache, dfinal=dfinal)

        want = reference_stack(stack, idx, packing, keeps, drop_rate, initial, dstates, dfinal)
        close(states, packing.pack(want[0]))
        for (h, c), (wh, wc) in zip(finals, want[1]):
            close(h, wh)
            close(c, wc)
        for name, (_, grad) in named.items():
            close(grad, want[2][name])
        close(dh0, want[3][0])
        close(dc0, want[3][1])


class TestMasks:
    def test_mask_with_a_hole_raises(self):
        rng = np.random.default_rng(7)
        layer = tc.LstmLayer(2, 3, rng)
        mask = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with pytest.raises(DataError, match="right-padded"):
            layer.forward(rng.normal(size=(2, 3, 2)), mask)
        with pytest.raises(DataError, match="right-padded"):
            tc.Packing(mask)

    def test_left_padding_and_fractional_values_raise(self):
        rng = np.random.default_rng(8)
        layer = tc.LstmLayer(2, 3, rng)
        X = rng.normal(size=(1, 3, 2))
        for bad in ([[0.0, 1.0, 1.0]], [[1.0, 0.5, 0.0]]):
            with pytest.raises(DataError):
                layer.forward(X, np.array(bad))

    def test_row_lengths(self):
        mask = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        assert tc.row_lengths(mask).tolist() == [2, 0, 3]
