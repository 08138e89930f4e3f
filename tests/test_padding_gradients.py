"""Every consumer of the LSTM stack's top states passes exactly zero
gradient at padding.

This is why `LstmStack` defines states at real cells only and takes no
gradient at padding: scattered back to the padded batch, the gradient
that pooling, attention and the masked cross-entropy give the states is
zero at every padding position, so leaving those positions out changes
nothing. Each consumer is checked on a padded batch with rows of length
1 and with garbage at padding, against its padded formula (for
attention, the frozen padded `attention_reference.ReferenceAttention`;
for the output heads, the frozen padded `heads_reference`).
"""

import numpy as np
import pytest

from attention_reference import ReferenceAttention
from heads_reference import generator_head, lm_head
from padded_layout import unpack
from satd_forge import tensor_core as tc
from satd_forge.generator import Attention, Seq2SeqNetwork
from satd_forge.textpipe import pad_batch

DEC_LENGTHS, K = [3, 1, 5, 1, 4], 6
ENC_LENGTHS, N = [2, 7, 1, 3, 5], 7


def right_padded(lengths, T):
    return (np.arange(T) < np.asarray(lengths)[:, None]).astype(np.float64)


def padded_pool_gradient(states, mask, mode, dpooled):
    """The gradient each pooling mode gives a padded (B, T, H) batch,
    taken with the padded formulas: masked argmax, masked mean, last
    real position."""
    B, T, H = states.shape
    dstates = np.zeros(states.shape)
    if mode == "mean":
        return dpooled[:, None, :] * mask[:, :, None] / mask.sum(axis=1)[:, None, None]
    if mode == "last":
        dstates[np.arange(B), mask.sum(axis=1).astype(int) - 1] = dpooled
        return dstates
    arg = np.where(mask[:, :, None] > 0, states, -np.inf).argmax(axis=1)
    np.put_along_axis(dstates, arg[:, None, :], dpooled[:, None, :], axis=1)
    return dstates


@pytest.mark.parametrize("mode", ["last", "mean", "max"])
def test_pooling(mode):
    rng = np.random.default_rng(1)
    mask = right_padded(DEC_LENGTHS, K)
    packing = tc.Packing(mask)
    states = rng.normal(size=(len(DEC_LENGTHS), K, 4))
    states[mask == 0] = 50.0  # above every real state
    states[2, 1] = states[2, 3] = 9.0  # a tie at row 2's maximum: the first timestep takes it
    pooled, cache = tc.pool_forward(packing.pack(states), packing, mode)
    dpooled = rng.normal(size=pooled.shape)
    want = padded_pool_gradient(states, mask, mode, dpooled)
    assert not want[mask == 0].any()
    np.testing.assert_array_equal(unpack(packing, tc.pool_backward(dpooled, cache)), want)


def test_attention_over_decoder_and_encoder_padding():
    rng = np.random.default_rng(2)
    d = 3
    dec_mask, enc_mask = right_padded(DEC_LENGTHS, K), right_padded(ENC_LENGTHS, N)
    dec, enc = tc.Packing(dec_mask), tc.Packing(enc_mask)
    S = rng.normal(size=(len(DEC_LENGTHS), K, d))
    S[dec_mask == 0] = 1e3
    H = rng.normal(size=(len(ENC_LENGTHS), N, d))
    H[enc_mask == 0] = -1e3
    att = Attention(d, rng)
    ref = ReferenceAttention(att)
    _, weights, cache = ref.forward(S, H, enc_mask)
    assert not weights.transpose(0, 2, 1)[enc_mask == 0].any()
    _, att_cache = att.forward(S[dec_mask > 0], H[enc_mask > 0], dec.spans, enc.spans)
    for b, w in enumerate(att_cache["weights"]):  # each row's block is the padded weights' real block
        np.testing.assert_allclose(w, weights[b, : DEC_LENGTHS[b], : ENC_LENGTHS[b]], rtol=1e-12, atol=1e-12)
    # the output layer passes zero at decoder padding (see the next test)
    dattended = rng.normal(size=S.shape) * dec_mask[:, :, None]
    dS, dH = ref.backward(dattended, cache)
    assert not dS[dec_mask == 0].any()
    assert not dH[enc_mask == 0].any()
    # so the per-row form, which never reads padding, gets the same gradients at real cells
    dS_rows, dH_rows = att.backward(dattended[dec_mask > 0], att_cache)
    np.testing.assert_allclose(dS_rows, dS[dec_mask > 0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dH_rows, dH[enc_mask > 0], rtol=1e-12, atol=1e-12)
    # encoder padding takes no gradient even from decoder positions that do
    _, dH_all = ref.backward(rng.normal(size=S.shape), ref.forward(S, H, enc_mask)[2])
    assert not dH_all[enc_mask == 0].any()


def test_masked_cross_entropy_through_the_output_layer():
    rng = np.random.default_rng(3)
    B, V, d = len(DEC_LENGTHS), 7, 3
    mask = right_padded(DEC_LENGTHS, K)
    packing = tc.Packing(mask)
    logits = rng.normal(size=(B, K, V))
    targets = rng.integers(0, V, size=(B, K))  # padding holds words too
    loss, dlogits = tc.masked_cross_entropy(packing.pack(logits), packing.pack(targets))
    # the padded formula: a softmax at every position, masked afterwards
    probs = tc.softmax(logits, axis=-1)
    picked = np.take_along_axis(probs, targets[:, :, None], axis=2)[:, :, 0]
    want = probs.copy()
    want[np.arange(B)[:, None], np.arange(K), targets] -= 1.0
    want *= mask[:, :, None] / mask.sum()
    # the padded sum runs in row-major order, the packed one in packing order
    assert loss == pytest.approx((-np.log(picked) * mask).sum() / mask.sum(), rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(unpack(packing, dlogits), want)
    # so the output layer's padded sums add zeros at padding, and the head on real cells,
    # which never reads padding, gets the padded head's loss, input gradient and sums
    dense = tc.Dense(d, V, rng)
    states = packing.pack(rng.normal(size=(B, K, d)))
    ref_loss, ref_dstates, gW, gb = lm_head(dense, states, targets, packing)
    head_loss, head_dstates = tc.softmax_head(dense, states, packing.pack(targets))
    assert head_loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
    np.testing.assert_array_equal(head_dstates, ref_dstates)
    np.testing.assert_allclose(dense.g["W"], gW, rtol=1e-12, atol=1e-12 * np.abs(gW).max())
    np.testing.assert_allclose(dense.g["b"], gb, rtol=1e-12, atol=1e-12 * np.abs(gb).max())


def test_generator_passes_no_gradient_to_padding():
    net = Seq2SeqNetwork(code_vocab_size=6, comment_vocab_size=8, latent=4, n_layers=2, seed=3)
    enc_idx, enc_mask = pad_batch([[1, 2, 3, 4], [2], [5, 1, 1]], 6)
    dec_idx, dec_mask = pad_batch([[1, 3, 4], [1], [1, 5]], 5)
    tgt_idx, _ = pad_batch([[3, 4, 2], [2], [5, 2]], 5)
    loss, caches = net.forward_train(enc_idx, enc_mask, dec_idx, dec_mask, tgt_idx, np.random.default_rng(0), 0.3)
    # the padded head on the same attended cells passes zero at decoder padding,
    # which is what the head on real cells and the per-row attention leave out
    dec = caches["decoder"]["packing"]
    ref_loss, dpadded, _, _ = generator_head(net.out, caches["attention"]["attended"], tgt_idx, dec)
    assert ref_loss == loss
    assert not dpadded[dec_mask == 0].any()
    dattended = caches["dattended"]
    np.testing.assert_array_equal(dattended, dpadded[dec_mask > 0])
    dstates, dHenc = net.attention.backward(dattended, caches["attention"])
    # the padded formula on the same states, with garbage at padding
    S = np.full(dec_mask.shape + (4,), 7.0)
    S[dec_mask > 0] = caches["attention"]["S"]
    H = np.full(enc_mask.shape + (4,), -7.0)
    H[enc_mask > 0] = caches["attention"]["H"]
    ref = ReferenceAttention(net.attention)
    ref_states, ref_Henc = ref.backward(dpadded, ref.forward(S, H, enc_mask)[2])
    assert not ref_states[dec_mask == 0].any()
    assert not ref_Henc[enc_mask == 0].any()
    np.testing.assert_allclose(dstates, ref_states[dec_mask > 0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(dHenc, ref_Henc[enc_mask > 0], rtol=1e-12, atol=1e-12)
