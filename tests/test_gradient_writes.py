"""A backward pass writes its gradients rather than adding to them: run
twice on equal caches, a layer's backward pass writes the same gradients,
and one `loss_and_grads` writes every gradient block of a network,
whatever the blocks held before."""

import numpy as np
import pytest

from satd_forge import tensor_core as tc
from satd_forge.detector import DetectorNetwork
from satd_forge.generator import Attention, Seq2SeqNetwork
from satd_forge.pretrainer import LmNetwork
from satd_forge.textpipe import pad_batch

MASK = np.array([[1.0] * 5, [1.0] * 3 + [0.0] * 2, [1.0] + [0.0] * 4])


def lstm_layer(rng):
    layer, packing = tc.LstmLayer(3, 4, rng), tc.Packing(MASK)
    X, dstates = rng.normal(size=(packing.n, 3)), rng.normal(size=(packing.n, 4))
    dh, dc = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))

    def run():
        _, _, cache = layer.forward(X, MASK, packing=packing)
        layer.backward(dstates, dh, dc, cache)

    return layer, run


def dense(rng):
    layer = tc.Dense(4, 3, rng)
    x, dout = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
    return layer, lambda: layer.backward(dout, layer.forward(x)[1])


def attention(rng):
    layer = Attention(4, rng)
    S, H = rng.normal(size=(5, 4)), rng.normal(size=(7, 4))
    dec_spans, enc_spans = [(0, 2), (2, 5)], [(0, 4), (4, 7)]
    dattended = rng.normal(size=(5, 4))

    def run():
        _, cache = layer.forward(S, H, dec_spans, enc_spans)
        layer.backward(dattended, cache)

    return layer, run


def embedding(rng):
    layer = tc.Embedding(6, 3, rng)
    indices = np.array([1, 4, 1, 1, 0])  # a repeated index adds up within one pass
    dout = rng.normal(size=(5, 3))
    return layer, lambda: layer.backward(dout, indices)


@pytest.mark.parametrize("build", [lstm_layer, dense, attention, embedding])
def test_backward_twice_on_equal_caches_writes_equal_gradients(build):
    layer, run = build(np.random.default_rng(0))
    run()
    first = {key: grad.copy() for key, grad in layer.g.items()}
    assert any(np.any(grad) for grad in first.values())
    run()
    for key, grad in layer.g.items():
        np.testing.assert_array_equal(grad, first[key], err_msg=key)


def detector_step():
    net = DetectorNetwork(vocab_size=9, latent=4, n_layers=2, pooling="max", seed=1)
    idx, mask = pad_batch([np.array([1, 2, 3, 4]), np.array([5, 6]), np.array([7])], 10)
    return net, (idx, mask, np.array([1.0, 0.0, 1.0]))


def lm_step():
    net = LmNetwork(9, 4, 2, seed=1)
    rows, mask = pad_batch([np.array([1, 2, 3, 4, 5]), np.array([6, 7]), np.array([8, 1, 2])], 10)
    return net, (rows[:, :-1], mask[:, 1:], rows[:, 1:])


def generator_step():
    net = Seq2SeqNetwork(9, 7, 4, 2, seed=1)
    enc_idx, enc_mask = pad_batch([np.array([1, 2, 3]), np.array([4, 5, 6, 7, 8])], 10)
    rows, mask = pad_batch([np.array([1, 3, 4, 2]), np.array([1, 5, 2])], 10)  # <sos> ... <eos>
    return net, (enc_idx, enc_mask, rows[:, :-1], mask[:, 1:], rows[:, 1:])


@pytest.mark.parametrize("build", [detector_step, lm_step, generator_step])
def test_one_step_writes_every_gradient_block(build):
    # a block a step stopped writing would keep its NaN, where training would read a stale gradient
    net, args = build()
    named = net.named_params()
    for _, grad in named.values():
        grad[...] = np.nan
    loss = net.loss_and_grads(*args, np.random.default_rng(3), 0.2)
    assert np.isfinite(loss)
    for name, (_, grad) in named.items():
        assert np.isfinite(grad).all(), name
