"""The inference forward (`cache=False`) against the training forward, bit
for bit.

An inference forward carries each row's cell in one (B, H) buffer and
keeps no cache; only where a step reads and writes its cells differs, so
states, finals, probabilities and generated words must keep their bits.
`predict_many` and `generate_comments` run it, and still print the
committed outputs of `tests/fixtures/networks`.
"""

from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satd_forge import tensor_core as tc
from satd_forge.cli import _input_sequences
from satd_forge.detector import DetectorNetwork, check_detector_input, load_detector, predict_many
from satd_forge.generator import check_generator_input, generate_comments, load_generator
from test_lstm_packing import right_padded

NETWORK_FIXTURES = Path(__file__).parent / "fixtures" / "networks"


@st.composite
def packings(draw):
    """Ragged right-padded masks with zero-length rows, ties and padding past
    the longest row, or the all-ones (B, 1) mask of a greedy-decoding step."""
    if draw(st.booleans()):
        return tc.Packing(np.ones((draw(st.integers(1, 6)), 1)))
    lengths = draw(st.lists(st.integers(0, 9), min_size=1, max_size=7))
    T = draw(st.integers(max(max(lengths), 1), 11))
    return tc.Packing(right_padded(lengths, T))


def assert_finals_equal(got, want):
    for (h, c), (wh, wc) in zip(got, want, strict=True):
        assert np.array_equal(h, wh) and np.array_equal(c, wc)


class TestSameBitsAsTheTrainingForward:
    @settings(max_examples=200, deadline=None)
    @given(packings(), st.integers(1, 6), st.integers(1, 9), st.integers(0, 2**32 - 1), st.booleans())
    def test_layer(self, packing, D, H, seed, given_initial):
        rng = np.random.default_rng(seed)
        B = len(packing.lengths)
        layer = tc.LstmLayer(D, H, rng)
        layer.p["b"] += rng.normal(size=4 * H)
        X = rng.normal(size=(packing.n, D))
        h0, c0 = (rng.normal(size=(B, H)), rng.normal(size=(B, H))) if given_initial else (None, None)
        states, finals, cache = layer.forward(X, packing.mask, h0=h0, c0=c0, packing=packing)
        got_states, got_finals, no_cache = layer.forward(X, packing.mask, h0=h0, c0=c0, packing=packing,
                                                         cache=False)
        assert no_cache is None and cache is not None
        assert np.array_equal(got_states, states)
        assert_finals_equal([got_finals], [finals])

    @settings(max_examples=120, deadline=None)
    @given(packings(), st.lists(st.integers(1, 6), min_size=1, max_size=3), st.integers(1, 5),
           st.integers(0, 2**32 - 1), st.integers(0, 3))
    def test_stack(self, packing, sizes, dim, seed, n_initial):
        rng = np.random.default_rng(seed)
        B, vocab = len(packing.lengths), 7
        stack = tc.LstmStack(vocab, dim, sizes, rng)
        idx = rng.integers(0, vocab, size=packing.mask.shape)
        initial = [(rng.normal(size=(B, H)), rng.normal(size=(B, H))) for H in sizes[:n_initial]]
        states, finals, cache = stack.forward(idx, packing, initial=initial)
        got_states, got_finals, no_cache = stack.forward(idx, packing, initial=initial, cache=False)
        assert no_cache is None and len(cache["layers"]) == len(sizes)
        assert np.array_equal(got_states, states)
        assert_finals_equal(got_finals, finals)


def forcing_the_cache(monkeypatch):
    """Make every `LstmStack.forward` a training forward, whatever its caller asks."""
    forward = tc.LstmStack.forward

    def training_forward(self, *args, cache=True, **kwargs):
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(tc.LstmStack, "forward", training_forward)


def fixture_sequences(kind, check):
    return _input_sequences(str(NETWORK_FIXTURES / "code.txt"), kind, check)[1]


def test_predict_many_prints_the_fixture_with_the_training_forwards_bits(monkeypatch):
    model = load_detector(NETWORK_FIXTURES / "dl.ckpt")
    sequences = fixture_sequences(model.vocab.kind, partial(check_detector_input, model))
    got = predict_many(model, sequences)
    lines = (NETWORK_FIXTURES / "dl.out").read_text(encoding="utf-8").splitlines()
    assert [f"{p:.6f}\t{'SATD' if positive else 'NonSATD'}" for p, positive in got] == [
        line.rsplit("\t", 1)[0] for line in lines
    ]
    forcing_the_cache(monkeypatch)
    assert predict_many(model, sequences) == got  # the same floats, not merely close


def test_generate_comments_prints_the_fixture_with_the_training_forwards_bits(monkeypatch):
    model = load_generator(NETWORK_FIXTURES / "generator.ckpt")
    sequences = fixture_sequences("code", partial(check_generator_input, model))
    logits = []
    forward = model.network.out.forward

    def keeping_logits(x):
        out, cache = forward(x)
        logits.append(out.copy())
        return out, cache

    monkeypatch.setattr(model.network.out, "forward", keeping_logits)
    got = generate_comments(model, sequences)
    want = (NETWORK_FIXTURES / "generator.out").read_text(encoding="utf-8").splitlines()
    assert ["// " + " ".join(words) for words in got] == want
    inference_logits, logits[:] = logits[:], []
    forcing_the_cache(monkeypatch)
    assert generate_comments(model, sequences) == got
    assert len(logits) == len(inference_logits)
    for a, b in zip(logits, inference_logits):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("pooling", ["last", "mean", "max"])
def test_detector_network_keeps_no_cache_at_inference(pooling):
    rng = np.random.default_rng(5)
    mask = right_padded([5, 3, 7, 1], 8)
    idx = rng.integers(0, 11, size=mask.shape)
    net = DetectorNetwork(11, 4, 3, pooling, seed=5)
    probs, caches = net.forward(idx, mask)
    got, none = net.forward(idx, mask, cache=False)
    assert none is None and caches["stack"] is not None
    assert np.array_equal(got, probs)
