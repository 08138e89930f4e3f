"""The output heads on real cells against the frozen padded heads.

The language model's head and the generator's output layer run on real
cells only (`heads_reference` holds the padded heads they replaced).
The weight and bias gradients are sums over the real cells instead of
the padded layout, so they may differ in rounding only:
‖Δ‖∞ ≤ 1e-12·‖g‖∞. Every batch holds rows of length 1.

The language model's head already computed its logits and the gradient
it passes down on the packed cells, so its loss and that gradient must
match bit for bit. The generator's output layer used to multiply each
padded row, (K, d) @ (d, V), and now multiplies all real cells at once,
(N_real, d) @ (d, V). BLAS picks its kernel by the row count (a
one-row product is a matrix-vector product), so a row's logits, and the
gradient on the attended cells, may differ in the last bits: they must
match within 1e-12 relative.

A head on real cells also allocates nothing the size of the padded
(B, T, V) layout, so padding the same rows wider must not raise the
language model step's peak memory by more than a small fraction of one
such array.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heads_reference import generator_head, lm_head
from satd_forge import tensor_core as tc
from satd_forge.generator import Seq2SeqNetwork
from satd_forge.pretrainer import LmNetwork
from satd_forge.textpipe import pad_batch

GRADIENT_BOUND = 1e-12


def record_first_argument(obj, name: str, seen: dict):
    """Wrap `obj.name` so each call stores its first argument in `seen[name]`."""
    method = getattr(obj, name)

    def wrapper(*args, **kwargs):
        seen[name] = args[0]
        return method(*args, **kwargs)

    setattr(obj, name, wrapper)


def assert_close(got, want):
    assert np.abs(got - want).max() <= GRADIENT_BOUND * np.abs(want).max()


def assert_sums_close(dense, gW, gb):
    assert_close(dense.g["W"], gW)
    assert_close(dense.g["b"], gb)


def sequences(rng, lengths, vocab_size):
    return [rng.integers(1, vocab_size, size=n).tolist() for n in lengths]


# each length is a sequence's; a sequence of 2 makes a row of length 1
lengths_with_ones = st.lists(st.integers(2, 12), min_size=0, max_size=6).map(lambda rest: [2] + rest)


class TestLanguageModelHead:
    @settings(max_examples=25, deadline=None)
    @given(lengths=lengths_with_ones, layers=st.integers(1, 3), seed=st.integers(0, 2**16),
           dropout=st.sampled_from([0.0, 0.3]))
    def test_matches_the_padded_head(self, lengths, layers, seed, dropout):
        rng = np.random.default_rng(seed)
        V = 40
        seqs = sequences(rng, lengths, V)
        idx, mask = pad_batch([s[:-1] for s in seqs], 12)
        tgt, _ = pad_batch([s[1:] for s in seqs], 12)
        net = LmNetwork(V, 6, layers, seed)
        seen = {}
        record_first_argument(net.out, "forward", seen)
        record_first_argument(net.stack, "backward", seen)
        loss = net.loss_and_grads(idx, mask, tgt, np.random.default_rng(seed), dropout)
        ref_loss, ref_dstates, gW, gb = lm_head(net.out, seen["forward"], tgt, tc.Packing(mask))
        assert loss == ref_loss
        np.testing.assert_array_equal(seen["backward"], ref_dstates)
        assert_sums_close(net.out, gW, gb)

    def test_all_rows_of_length_one(self):
        net = LmNetwork(9, 4, 2, seed=4)
        idx, mask = pad_batch([[3], [5], [3]], 4)
        tgt, _ = pad_batch([[1], [8], [2]], 4)
        seen = {}
        record_first_argument(net.out, "forward", seen)
        record_first_argument(net.stack, "backward", seen)
        loss = net.loss_and_grads(idx, mask, tgt, None, 0.0)
        ref_loss, ref_dstates, gW, gb = lm_head(net.out, seen["forward"], tgt, tc.Packing(mask))
        assert loss == ref_loss
        np.testing.assert_array_equal(seen["backward"], ref_dstates)
        assert_sums_close(net.out, gW, gb)


class TestGeneratorHead:
    @settings(max_examples=25, deadline=None)
    @given(enc_lengths=st.lists(st.integers(1, 9), min_size=1, max_size=6), data=st.data(),
           layers=st.integers(1, 2), seed=st.integers(0, 2**16), dropout=st.sampled_from([0.0, 0.3]))
    def test_matches_the_padded_head(self, enc_lengths, data, layers, seed, dropout):
        rng = np.random.default_rng(seed)
        code_V, comment_V = 30, 25
        # framed comments of 2 make decoder rows of length 1
        framed_lengths = [2] + data.draw(st.lists(st.integers(2, 8), min_size=len(enc_lengths) - 1,
                                                  max_size=len(enc_lengths) - 1))
        codes = sequences(rng, enc_lengths, code_V)
        framed = sequences(rng, framed_lengths, comment_V)
        enc_idx, enc_mask = pad_batch(codes, 9)
        dec_idx, dec_mask = pad_batch([f[:-1] for f in framed], 8)
        tgt, _ = pad_batch([f[1:] for f in framed], 8)
        net = Seq2SeqNetwork(code_V, comment_V, 5, layers, seed)
        seen = {}
        record_first_argument(net.out, "forward", seen)
        record_first_argument(net.attention, "backward", seen)
        loss = net.loss_and_grads(enc_idx, enc_mask, dec_idx, dec_mask, tgt, np.random.default_rng(seed), dropout)
        assert seen["forward"].shape[0] == 1  # one run of every real decoder cell
        ref_loss, dpadded, gW, gb = generator_head(net.out, seen["forward"][0], tgt, tc.Packing(dec_mask))
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        assert_close(seen["backward"], dpadded[dec_mask > 0])
        assert_sums_close(net.out, gW, gb)

    def test_batch_of_one_gives_the_rows_logits(self):
        # one call of the output layer, whose logits[0] are a single row's (K, V) in time order
        net = Seq2SeqNetwork(6, 7, 4, 1, seed=2)
        calls = []
        forward = net.out.forward

        def keep(x):
            logits, cache = forward(x)
            calls.append((x, logits))
            return logits, cache

        net.out.forward = keep
        _, caches = net.forward_train(np.array([[1, 2, 3]]), np.ones((1, 3)), np.array([[1, 4]]),
                                      np.ones((1, 2)), np.array([[4, 2]]))
        [(x, logits)] = calls
        assert x.shape == (1, 2, 4) and logits.shape == (1, 2, 7)
        np.testing.assert_array_equal(x[0], caches["attention"]["attended"])


def lm_step_peak(net, seqs, width):
    """Peak bytes that tracemalloc sees during one `loss_and_grads` of
    `seqs`, right-padded to `width` columns."""
    idx = np.zeros((len(seqs), width), dtype=np.int64)
    tgt = np.zeros((len(seqs), width), dtype=np.int64)
    mask = np.zeros((len(seqs), width))
    for r, s in enumerate(seqs):
        idx[r, : len(s) - 1], tgt[r, : len(s) - 1], mask[r, : len(s) - 1] = s[:-1], s[1:], 1.0
    drop_rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        net.loss_and_grads(idx, mask, tgt, drop_rng, 0.2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layers", [1, 3])
def test_lm_step_peak_does_not_grow_with_padding(layers):
    B, T, V = 8, 16, 400
    rng = np.random.default_rng(6)
    seqs = sequences(rng, [2, 17, 5, 2, 9, 12, 3, 7], V)  # inputs of 1 to 16 tokens
    net = LmNetwork(V, 8, layers, seed=6)
    lm_step_peak(net, seqs, T)  # the first call builds what later calls reuse
    narrow, wide = lm_step_peak(net, seqs, T), lm_step_peak(net, seqs, 4 * T)
    assert wide - narrow < 0.1 * B * T * V * 8, (narrow, wide)
