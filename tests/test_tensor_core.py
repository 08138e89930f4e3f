import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients
from padded_layout import unpack
from satd_forge import tensor_core as tc
from satd_forge.checkpoint import load_checkpoint, save_checkpoint
from satd_forge.errors import CheckpointError, DataError, TrainingError


def gradcheck(loss_fn, layers, tol=1e-4):
    params, grads = {}, {}
    for name, layer in layers.items():
        for key, value in layer.p.items():
            params[f"{name}.{key}"] = value
            grads[f"{name}.{key}"] = layer.g[key]
    report = check_gradients(loss_fn, params, grads)
    worst = max(report.values())
    assert worst < tol, report
    return worst


def pool_padded(states, mask, mode):
    """`pool_forward` of a padded (B, T, H) batch."""
    packing = tc.Packing(mask)
    return tc.pool_forward(packing.pack(states), packing, mode)


class TestPooling:
    # the worked example: S1=[5.2, 3.3], S2=[4.7, 7.5], S3=[9.1, 0.6]
    STATES = np.array([[[5.2, 3.3], [4.7, 7.5], [9.1, 0.6]]])
    MASK = np.ones((1, 3))

    def test_last(self):
        pooled, _ = pool_padded(self.STATES, self.MASK, "last")
        np.testing.assert_allclose(pooled[0], [9.1, 0.6], atol=1e-9)

    def test_max(self):
        pooled, _ = pool_padded(self.STATES, self.MASK, "max")
        np.testing.assert_allclose(pooled[0], [9.1, 7.5], atol=1e-9)

    def test_mean(self):
        pooled, _ = pool_padded(self.STATES, self.MASK, "mean")
        np.testing.assert_allclose(pooled[0], [19.0 / 3.0, 3.8], atol=1e-9)

    def test_single_position_all_modes_agree(self):
        states = np.array([[[1.5, -2.0]]])
        mask = np.ones((1, 1))
        for mode in ("last", "mean", "max"):
            pooled, _ = pool_padded(states, mask, mode)
            np.testing.assert_allclose(pooled[0], [1.5, -2.0])

    def test_padding_never_affects_mean_max(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            real = rng.integers(1, 5)
            pad = rng.integers(0, 4)
            states = rng.normal(size=(1, real, 3))
            padded = np.concatenate([states, rng.normal(size=(1, pad, 3)) * 100], axis=1)
            mask = np.concatenate([np.ones((1, real)), np.zeros((1, pad))], axis=1)
            for mode in ("mean", "max", "last"):
                a, _ = pool_padded(states, np.ones((1, real)), mode)
                b, _ = pool_padded(padded, mask, mode)
                np.testing.assert_allclose(a, b)

    def test_all_masked_rejected(self):
        with pytest.raises(DataError):
            pool_padded(np.zeros((1, 2, 2)), np.zeros((1, 2)), "mean")


class TestSigmoidAndBce:
    def test_zero_preactivation(self):
        assert tc.sigmoid(0.0) == pytest.approx(0.5)

    def test_saturation(self):
        assert tc.sigmoid(20.0) > 0.999999

    def test_symmetry(self):
        x = np.random.default_rng(1).normal(scale=5, size=100)
        np.testing.assert_allclose(tc.sigmoid(x) + tc.sigmoid(-x), 1.0, atol=1e-12)

    def test_bce_perfect_prediction(self):
        loss, _ = tc.bce_loss(1.0, 1.0)
        assert loss == pytest.approx(0.0, abs=1e-10)

    def test_bce_half(self):
        loss, _ = tc.bce_loss(1.0, 0.5)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_bce_gradient_vs_fd(self):
        rng = np.random.default_rng(2)
        for y in (0.0, 1.0):
            p = rng.uniform(0.05, 0.95)
            _, dp = tc.bce_loss(y, p)
            eps = 1e-7
            lp, _ = tc.bce_loss(y, p + eps)
            lm, _ = tc.bce_loss(y, p - eps)
            fd = (lp - lm) / (2 * eps)
            assert abs(dp - fd) / max(abs(fd), 1e-8) < 1e-6

    def test_fused_gradient_is_p_minus_y(self):
        # composing sigmoid with the binary log-loss must give p - y at the
        # pre-activation, checked by finite differences
        rng = np.random.default_rng(3)
        for y in (0.0, 1.0):
            z = rng.normal()
            p = float(tc.sigmoid(z))
            analytic = p - y
            eps = 1e-6

            def loss_at(zv):
                val, _ = tc.bce_loss(y, float(tc.sigmoid(zv)))
                return float(val)

            fd = (loss_at(z + eps) - loss_at(z - eps)) / (2 * eps)
            assert abs(analytic - fd) < 1e-6


def single_ce(logits, target):
    """`masked_cross_entropy` of one prediction, and its softmax: (probs, loss, dlogits)."""
    logits = np.asarray(logits)[None, :]
    loss, dlogits = tc.masked_cross_entropy(logits, np.array([target]))
    return tc.softmax(logits)[0], loss, dlogits[0]


class TestSoftmaxCe:
    def test_uniform(self):
        probs, loss, _ = single_ce(np.zeros(10), 4)
        np.testing.assert_allclose(probs, 0.1, atol=1e-12)
        assert loss == pytest.approx(math.log(10), abs=1e-12)

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.0, 0.0, 1.1, -0.4, 0.9])
        p1, _, _ = single_ce(logits, 2)
        p2, _, _ = single_ce(logits + 123.0, 2)
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(4)
        probs = tc.softmax(rng.normal(size=(5, 11)), axis=-1)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)

    def test_gradient_vs_fd(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=7)
        target = 3
        _, _, grad = single_ce(logits, target)
        eps = 1e-6
        for k in range(7):
            bumped = logits.copy()
            bumped[k] += eps
            _, lp, _ = single_ce(bumped, target)
            bumped[k] -= 2 * eps
            _, lm, _ = single_ce(bumped, target)
            fd = (lp - lm) / (2 * eps)
            assert abs(grad[k] - fd) / max(abs(fd), 1e-8) < 1e-5


class TestDropout:
    def test_rate_zero_all_ones(self):
        mask = tc.dropout_mask((20, 3), 0.0, np.random.default_rng(0))
        assert mask.shape == (20, 3) and mask.dtype == bool
        assert mask.all()

    def test_mean_near_one(self):
        mask = tc.dropout_mask((10_000, 100), 0.2, np.random.default_rng(1))
        assert 0.995 <= tc.apply_dropout(np.ones(mask.shape), mask, 0.2).mean() <= 1.005

    def test_values_are_zero_or_scaled(self):
        mask = tc.dropout_mask((2500, 1), 0.2, np.random.default_rng(2))
        assert mask.dtype == bool
        assert set(np.unique(tc.apply_dropout(np.ones(mask.shape), mask, 0.2))) <= {0.0, 1.0 / 0.8}

    def test_same_seed_same_mask(self):
        a = tc.dropout_mask((36, 1), 0.2, np.random.default_rng(9))
        b = tc.dropout_mask((36, 1), 0.2, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_bad_rate(self):
        with pytest.raises(DataError):
            tc.dropout_mask((2, 1), 1.0, np.random.default_rng(0))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 40), st.integers(1, 5), st.sampled_from([0.0, 0.1, 0.5, 0.9]),
           st.integers(0, 2**31 - 1))
    def test_mask_is_a_same_seeded_draw(self, cells, width, rate, seed):
        # one number per entry in the order of `shape`, as a same-seeded draw gives them, and
        # the generator ends where that draw leaves it; rate 0 draws nothing
        rng, same = np.random.default_rng(seed), np.random.default_rng(seed)
        mask = tc.dropout_mask((cells, width), rate, rng)
        want = same.random((cells, width)) >= rate if rate else np.ones((cells, width), dtype=bool)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, want)
        assert rng.random() == same.random()

    @pytest.mark.parametrize("rate", [0.1, 0.2, 0.3, 0.5, 0.9])
    def test_apply_dropout_gives_the_float_mask_product(self, rate):
        # the same bits as x times the float mask keep/(1-rate), signed zeros too
        rng = np.random.default_rng(int(rate * 10))
        x = rng.normal(size=(40, 7))
        x[::5] = -0.0
        keep = rng.random(x.shape) >= rate
        before = x.copy()
        got = tc.apply_dropout(x, keep, rate)
        want = x * (keep * (1.0 / (1.0 - rate)))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(x, before)


class TestOptimizers:
    def test_adam_first_step_bias_correction(self):
        param = np.zeros(3)
        grad = np.ones(3)
        opt = tc.Adam(lr=1e-3)
        opt.step({"p": (param, grad)})
        np.testing.assert_allclose(param, -1e-3, atol=1e-9)

    def test_zero_gradient_no_move(self):
        param = np.full(3, 7.0)
        opt = tc.Adam()
        opt.step({"p": (param, np.zeros(3))})
        np.testing.assert_array_equal(param, 7.0)
        param = np.full(3, 7.0)
        tc.RmsProp().step({"p": (param, np.zeros(3))})
        np.testing.assert_array_equal(param, 7.0)

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(TrainingError):
            tc.Adam().step({"p": (np.zeros(2), np.array([1.0, np.nan]))})
        with pytest.raises(TrainingError):
            tc.RmsProp().step({"p": (np.zeros(2), np.array([np.inf, 0.0]))})

    @pytest.mark.parametrize("make_opt", [tc.Adam, tc.RmsProp])
    def test_quadratic_descent_monotone(self, make_opt):
        # minimizing f(x) = 0.5 x^2 must lower the loss at every step
        param = np.array([2.0])
        opt = make_opt(lr=1e-2)
        losses = []
        for _ in range(50):
            grad = param.copy()
            losses.append(0.5 * float(param[0] ** 2))
            opt.step({"x": (param, grad)})
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_step_counter(self):
        opt = tc.Adam()
        for _ in range(3):
            opt.step({"p": (np.zeros(1), np.zeros(1))})
        assert opt.t == 3

    @pytest.mark.parametrize("make_opt", [tc.Adam, tc.RmsProp])
    def test_state_is_made_on_a_blocks_first_step_only(self, monkeypatch, make_opt):
        calls = []
        zeros_like = np.zeros_like

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return zeros_like(a, *args, **kwargs)

        monkeypatch.setattr(np, "zeros_like", counted)
        rng = np.random.default_rng(0)
        named = {"W": (rng.normal(size=(4, 3)), rng.normal(size=(4, 3))), "b": (np.zeros(3), rng.normal(size=3))}
        opt = make_opt()
        opt.step(named)
        assert calls
        calls.clear()
        opt.step(named)
        assert calls == []

    def test_updates_are_the_textbook_expressions_bit_for_bit(self):
        # the pre-scratch steps, written as expressions; three steps over two blocks
        rng = np.random.default_rng(5)
        shapes = [(6, 5), (5,)]
        params = [rng.normal(size=s) for s in shapes]
        grads = [[rng.normal(size=s) for s in shapes] for _ in range(3)]
        adam_p, rms_p = [p.copy() for p in params], [p.copy() for p in params]
        adam, rms = tc.Adam(lr=0.01), tc.RmsProp(lr=0.01)
        want_adam, want_rms = [p.copy() for p in params], [p.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        cache = [np.zeros(s) for s in shapes]
        b1, b2 = tc.ADAM_BETA1, tc.ADAM_BETA2
        for t, step_grads in enumerate(grads, start=1):
            adam.step({str(i): (adam_p[i], g.copy()) for i, g in enumerate(step_grads)})
            rms.step({str(i): (rms_p[i], g.copy()) for i, g in enumerate(step_grads)})
            for i, g in enumerate(step_grads):
                m[i] = m[i] * b1 + (1.0 - b1) * g
                v[i] = v[i] * b2 + (1.0 - b2) * g**2
                m_hat, v_hat = m[i] / (1.0 - b1**t), v[i] / (1.0 - b2**t)
                want_adam[i] -= 0.01 * m_hat / (np.sqrt(v_hat) + tc.EPS)
                cache[i] = cache[i] * tc.RMSPROP_RHO + (1.0 - tc.RMSPROP_RHO) * g**2
                want_rms[i] -= 0.01 * g / (np.sqrt(cache[i]) + tc.EPS)
        for got, want in zip(adam_p + rms_p, want_adam + want_rms):
            np.testing.assert_array_equal(got, want)


def lstm_padded(lstm, X, mask):
    """`LstmLayer.forward` of a padded (B, T, D) batch, with the states
    scattered back to (B, T, H), zero at padding."""
    packing = tc.Packing(mask)
    states, final, cache = lstm.forward(packing.pack(X), mask, packing=packing)
    return unpack(packing, states), final, cache


class TestLstm:
    def test_zero_weights_zero_states(self):
        rng = np.random.default_rng(0)
        lstm = tc.LstmLayer(3, 4, rng)
        for key in lstm.p:
            lstm.p[key][...] = 0.0
        X = rng.normal(size=(2, 5, 3))
        states, (h, c), _ = lstm_padded(lstm, X, np.ones((2, 5)))
        np.testing.assert_allclose(states, 0.0, atol=1e-15)
        np.testing.assert_allclose(h, 0.0, atol=1e-15)

    def test_all_masked_returns_initial_state(self):
        rng = np.random.default_rng(1)
        lstm = tc.LstmLayer(3, 4, rng)
        X = rng.normal(size=(2, 5, 3))
        states, (h, c), _ = lstm_padded(lstm, X, np.zeros((2, 5)))
        np.testing.assert_allclose(h, 0.0, atol=1e-15)
        np.testing.assert_allclose(c, 0.0, atol=1e-15)

    def test_nan_input_raises_with_timestep(self):
        rng = np.random.default_rng(2)
        lstm = tc.LstmLayer(2, 3, rng)
        X = rng.normal(size=(1, 4, 2))
        X[0, 2, 0] = np.nan
        with pytest.raises(TrainingError, match="timestep 2"):
            lstm_padded(lstm, X, np.ones((1, 4)))

    def test_final_state_is_the_last_real_state(self):
        rng = np.random.default_rng(3)
        lstm = tc.LstmLayer(2, 3, rng)
        X = rng.normal(size=(1, 4, 2))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])
        states, (h, _), _ = lstm_padded(lstm, X, mask)
        np.testing.assert_array_equal(h, states[:, 1])


class TestGradientChecks:
    def test_embedding(self):
        rng = np.random.default_rng(10)
        emb = tc.Embedding(6, 4, rng)
        dense = tc.Dense(4, 1, rng)
        idx = np.array([[0, 2, 2, 5]])
        y = np.array([1.0])

        def loss_fn():
            X = emb.forward(idx)
            pooled = X.mean(axis=1)
            logits, _ = dense.forward(pooled)
            losses, _ = tc.bce_loss(y, tc.sigmoid(logits[:, 0]))
            return float(losses.mean())

        for layer in (emb, dense):
            for g in layer.g.values():
                g[...] = 0.0
        X = emb.forward(idx)
        pooled = X.mean(axis=1)
        logits, cache = dense.forward(pooled)
        p = tc.sigmoid(logits[:, 0])
        dpool = dense.backward(((p - y) / len(y))[:, None], cache)
        dX = np.repeat(dpool[:, None, :], idx.shape[1], axis=1) / idx.shape[1]
        emb.backward(dX, idx)
        gradcheck(loss_fn, {"emb": emb, "dense": dense}, tol=1e-6)

    def test_repeated_index_accumulates(self):
        rng = np.random.default_rng(11)
        emb = tc.Embedding(4, 2, rng)
        idx = np.array([[1, 1, 1]])
        dout = np.ones((1, 3, 2))
        emb.backward(dout, idx)
        np.testing.assert_allclose(emb.g["M"][1], 3.0)
        np.testing.assert_allclose(emb.g["M"][0], 0.0)

    def test_index_out_of_range(self):
        emb = tc.Embedding(4, 2, np.random.default_rng(0))
        with pytest.raises(DataError):
            emb.forward(np.array([[4]]))

    def test_identity_matrix_lookup(self):
        emb = tc.Embedding(3, 3, np.random.default_rng(0))
        emb.p["M"][...] = np.eye(3)
        out = emb.forward(np.array([0, 2, 2]))
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 0, 1]])

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("pooling", ["last", "mean", "max"])
    def test_lstm_stack_all_depths_and_poolings(self, n_layers, pooling):
        rng = np.random.default_rng(12)
        latent = 4
        sizes = tc.detector_layer_sizes(latent, n_layers)
        emb = tc.Embedding(7, latent, rng)
        lstms = []
        prev = latent
        for size in sizes:
            lstms.append(tc.LstmLayer(prev, size, rng))
            prev = size
        dense = tc.Dense(prev, 1, rng)
        idx = np.array([[1, 2, 3], [4, 5, 0]])
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        packing = tc.Packing(mask)
        y = np.array([1.0, 0.0])

        def loss_fn():
            X = emb.forward(packing.pack(idx))
            for lstm in lstms:
                X, _, _ = lstm.forward(X, mask)
            pooled, _ = tc.pool_forward(X, packing, pooling)
            logits, _ = dense.forward(pooled)
            losses, _ = tc.bce_loss(y, tc.sigmoid(logits[:, 0]))
            return float(losses.mean())

        layers = {"emb": emb, "dense": dense}
        layers.update({f"lstm{k}": l for k, l in enumerate(lstms)})
        for layer in layers.values():
            for g in layer.g.values():
                g[...] = 0.0
        X = emb.forward(packing.pack(idx))
        caches = []
        for lstm in lstms:
            X, _, cache = lstm.forward(X, mask)
            caches.append(cache)
        pooled, pcache = tc.pool_forward(X, packing, pooling)
        logits, dcache = dense.forward(pooled)
        p = tc.sigmoid(logits[:, 0])
        dpool = dense.backward(((p - y) / len(y))[:, None], dcache)
        dstates = tc.pool_backward(dpool, pcache)
        for k in range(len(lstms) - 1, -1, -1):
            dstates, _, _ = lstms[k].backward(dstates, None, None, caches[k])
        emb.backward(dstates, packing.pack(idx))
        gradcheck(loss_fn, layers)

    def test_three_layer_sizing_rule(self):
        assert tc.detector_layer_sizes(32, 3) == [64, 32, 16]
        assert tc.detector_layer_sizes(8, 2) == [8, 8]
        assert tc.detector_layer_sizes(8, 1) == [8]
        assert tc.generator_layer_sizes(16, 2) == [16, 16]

    def test_linear_model_near_exact(self):
        rng = np.random.default_rng(13)
        dense = tc.Dense(3, 1, rng)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 1))

        def loss_fn():
            out, _ = dense.forward(x)
            return float(((out - y) ** 2).mean())

        for g in dense.g.values():
            g[...] = 0.0
        out, cache = dense.forward(x)
        dense.backward(2.0 * (out - y) / out.size, cache)
        worst = gradcheck(loss_fn, {"dense": dense}, tol=1e-8)
        assert worst < 1e-8


class TestLstmStack:
    def test_handoff_gradients(self):
        # initial (h, c) in, gradient on the top layer's final (h, c) in,
        # gradient on the bottom layer's initial (h, c) out
        rng = np.random.default_rng(21)
        stack = tc.LstmStack(6, 3, [4, 4], rng)
        idx = np.array([[1, 2, 3], [4, 5, 0]])
        packing = tc.Packing(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]]))
        h0, c0 = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        w_states, w_h, w_c = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
        w_states = packing.pack(w_states)  # the states of real cells

        def run():
            states, finals, cache = stack.forward(idx, packing, np.random.default_rng(5), 0.3, initial=[(h0, c0)])
            h, c = finals[-1]
            loss = float((states * w_states).sum() + (h * w_h).sum() + (c * w_c).sum())
            return loss, cache

        def loss_fn():
            return run()[0]

        named = stack.named_params()
        for _, grad in named.values():
            grad[...] = 0.0
        _, cache = run()
        dh0, dc0 = stack.backward(w_states, cache, dfinal=(w_h, w_c))
        params = {k: v[0] for k, v in named.items()}
        analytic = {k: v[1] for k, v in named.items()}
        params.update(h0=h0, c0=c0)
        analytic.update(h0=dh0, c0=dc0)
        report = check_gradients(loss_fn, params, analytic)
        assert max(report.values()) < 1e-4, report

    def test_upper_layers_start_at_zero(self):
        rng = np.random.default_rng(22)
        stack = tc.LstmStack(5, 3, [3, 3], rng)
        idx, packing = np.array([[1, 2]]), tc.Packing(np.ones((1, 2)))
        zeros = (np.zeros((1, 3)), np.zeros((1, 3)))
        a, finals_a, _ = stack.forward(idx, packing)
        b, finals_b, _ = stack.forward(idx, packing, initial=[zeros, zeros])
        np.testing.assert_array_equal(a, b)
        for (ha, ca), (hb, cb) in zip(finals_a, finals_b):
            np.testing.assert_array_equal(ha, hb)
            np.testing.assert_array_equal(ca, cb)


class TestFit:
    class Diverging(tc.Network):
        def __init__(self):
            self.w = np.zeros(1)

        def named_params(self):
            return {"w": (self.w, np.zeros(1))}

        def loss_and_grads(self, chunk, drop_rng, drop_rate):
            return float("nan") if 5 in chunk else 1.0

    def test_divergence_names_epoch_and_batch(self):
        hp = SimpleNamespace(epochs=2, batch_size=3, dropout=0.0)
        with pytest.raises(TrainingError, match=r"epoch 1, batch \d"):
            tc.fit(self.Diverging(), tc.Adam(), lambda chunk: (list(chunk),), 9, hp, seed=0)

    def test_zero_epochs_reports_zero_loss(self):
        hp = SimpleNamespace(epochs=0, batch_size=3, dropout=0.0)
        assert tc.fit(self.Diverging(), tc.Adam(), lambda chunk: (list(chunk),), 9, hp, seed=0) == 0.0


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.ckpt"
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        save_checkpoint(path, "dl", {"seed": 1}, [("w", arr)])
        header, blocks = load_checkpoint(path)
        assert header["kind"] == "dl"
        assert header["seed"] == 1
        np.testing.assert_allclose(blocks["w"], arr)

    def test_float32_round_trip_is_bitwise_stable(self, tmp_path):
        rng = np.random.default_rng(7)
        arr = rng.normal(size=(5, 4))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, "dl", {}, [("w", arr)])
        _, blocks = load_checkpoint(p1)
        save_checkpoint(p2, "dl", {}, [("w", blocks["w"])])
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_block(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, "dl", {}, [("w", np.ones((4, 4)))])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
