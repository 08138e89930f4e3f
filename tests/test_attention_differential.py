"""Property tests of the per-row attention against the frozen padded one
(`attention_reference.ReferenceAttention`).

Over ragged batches, with garbage at every padding position, the
attended vectors at real decoder cells, the gradients on the decoder and
encoder states and the gradients of `Wc` and `bc` must agree within
1e-12 (relative and absolute). The padded formula gives padding exactly
zero gradient, which is why the per-row form may leave it out. A
finite-difference check covers the per-row backward pass on its own.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from attention_reference import ReferenceAttention
from gradcheck import check_gradients
from satd_forge import tensor_core as tc
from satd_forge.generator import Attention


def close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


def right_padded(lengths, T):
    return (np.arange(T) < np.asarray(lengths)[:, None]).astype(np.float64)


@st.composite
def ragged_batches(draw, max_rows=6, max_time=8):
    """(decoder lengths, K, encoder lengths, N): decoder rows may be empty,
    every encoder row has a real cell, and both may be shorter than the
    padded width."""
    B = draw(st.integers(1, max_rows))
    dec = draw(st.lists(st.integers(0, max_time), min_size=B, max_size=B))
    enc = draw(st.lists(st.integers(1, max_time), min_size=B, max_size=B))
    K = draw(st.integers(max(max(dec), 1), max_time + 2))
    N = draw(st.integers(max(enc), max_time + 2))
    return dec, K, enc, N


def padded_inputs(rng, dec_lengths, K, enc_lengths, N, d):
    """Padded decoder and encoder states with garbage at padding, and the
    upstream gradient, zero at decoder padding as the output layer passes."""
    dec_mask, enc_mask = right_padded(dec_lengths, K), right_padded(enc_lengths, N)
    S = rng.normal(size=(len(dec_lengths), K, d))
    S[dec_mask == 0] = 1e3
    H = rng.normal(size=(len(enc_lengths), N, d))
    H[enc_mask == 0] = -1e3
    dattended = rng.normal(size=S.shape) * dec_mask[:, :, None]
    return dec_mask, enc_mask, S, H, dattended


@settings(max_examples=60, deadline=None)
@given(ragged_batches(), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_per_row_attention_matches_padded(batch, d, seed):
    dec_lengths, K, enc_lengths, N = batch
    rng = np.random.default_rng(seed)
    dec_mask, enc_mask, S, H, dattended = padded_inputs(rng, dec_lengths, K, enc_lengths, N, d)
    att = Attention(d, rng)
    ref = ReferenceAttention(att)
    dec, enc = tc.Packing(dec_mask), tc.Packing(enc_mask)
    real_dec, real_enc = dec_mask > 0, enc_mask > 0

    attended, cache = att.forward(S[real_dec], H[real_enc], dec.spans, enc.spans)
    ref_attended, _, ref_cache = ref.forward(S, H, enc_mask)
    close(attended, ref_attended[real_dec])

    dS, dH = att.backward(dattended[real_dec], cache)
    ref_dS, ref_dH = ref.backward(dattended, ref_cache)
    assert not ref_dS[~real_dec].any()
    assert not ref_dH[~real_enc].any()
    close(dS, ref_dS[real_dec])
    close(dH, ref_dH[real_enc])
    close(att.g["Wc"], ref.g["Wc"])
    close(att.g["bc"], ref.g["bc"])


@settings(max_examples=30, deadline=None)
@given(ragged_batches(max_time=6), st.integers(0, 2**31 - 1))
def test_decoding_step_over_a_subset_of_rows(batch, seed):
    # greedy decoding attends one decoder state per live row, over the
    # encoder spans of the rows still live, in the states' original place
    _, _, enc_lengths, N = batch
    rng = np.random.default_rng(seed)
    d = 3
    enc_mask = right_padded(enc_lengths, N)
    enc = tc.Packing(enc_mask)
    H = rng.normal(size=(len(enc_lengths), N, d))
    live = np.flatnonzero(rng.random(len(enc_lengths)) < 0.6)
    if not len(live):
        live = np.array([0])
    X = rng.normal(size=(len(live), d))
    att = Attention(d, rng)
    attended, _ = att.forward(X, H[enc_mask > 0], [(i, i + 1) for i in range(len(live))],
                              [enc.spans[r] for r in live])
    want, _, _ = ReferenceAttention(att).forward(X[:, None], H[live], enc_mask[live])
    close(attended, want[:, 0])


def test_finite_differences():
    rng = np.random.default_rng(4)
    d = 3
    dec_mask, enc_mask, S, H, dattended = padded_inputs(rng, [3, 1, 0, 2], 4, [2, 4, 1, 3], 5, d)
    dec, enc = tc.Packing(dec_mask), tc.Packing(enc_mask)
    att = Attention(d, rng)
    att.p["bc"][...] = rng.normal(size=d)
    S_rows, H_rows, weight = S[dec_mask > 0], H[enc_mask > 0], dattended[dec_mask > 0]

    def loss_fn():
        attended, _ = att.forward(S_rows, H_rows, dec.spans, enc.spans)
        return float((attended * weight).sum())

    _, cache = att.forward(S_rows, H_rows, dec.spans, enc.spans)
    dS, dH = att.backward(weight, cache)
    report = check_gradients(
        loss_fn,
        {"Wc": att.p["Wc"], "bc": att.p["bc"], "S": S_rows, "H": H_rows},
        {"Wc": att.g["Wc"], "bc": att.g["bc"], "S": dS, "H": dH},
    )
    assert max(report.values()) < 1e-6, report
