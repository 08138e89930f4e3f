import math
from dataclasses import replace

import numpy as np
import pytest

from gradcheck import check_gradients
from satd_forge.checkpoint import load_checkpoint
from satd_forge.detector import (
    DetectorModel,
    DlHp,
    LinearBlocks,
    SvmHp,
    check_detector_setting,
    embed_average,
    fit_detector,
    load_detector,
    predict_many,
    save_detector,
    train_linear_svm,
    train_mnb,
)
from satd_forge.errors import DataError, TrainingError
from satd_forge.generator import GeneratorHp
from satd_forge.textpipe import build_vocabulary, pad_batch
from satd_forge.vsm import bow_counts


def train_dl(seqs, labels, hp, seed):
    """The LSTM detector with `hp`, through the factory, over a code
    vocabulary built from `seqs`."""
    return fit_detector(check_detector_setting(hp.to_dict()), seqs, labels, seed, "code")


def synthetic_corpus(n, seed, markers=("hackmark", "fixmark")):
    rng = np.random.default_rng(seed)
    fillers = [f"tok{i}" for i in range(30)]
    seqs, labels = [], []
    for i in range(n):
        length = rng.integers(6, 14)
        seq = [fillers[j] for j in rng.integers(0, 30, length)]
        if i % 2 == 0:
            for m in markers:
                seq.insert(rng.integers(0, len(seq) + 1), m)
            labels.append(1)
        else:
            labels.append(0)
        seqs.append(seq)
    return seqs, labels


class TestDlDetector:
    def test_overfits_small_separable_set(self):
        seqs, labels = synthetic_corpus(20, seed=0)
        hp = DlHp(latent=8, layers=1, batch_size=10, pooling="max", epochs=60,
                  learning_rate=2e-3)
        model = train_dl(seqs, labels, hp, 1)
        preds = [predict_many(model, [s])[0][1] for s in seqs]
        assert all(p == bool(y) for p, y in zip(preds, labels))

    def test_zero_epochs_predicts_near_half(self):
        seqs, labels = synthetic_corpus(10, seed=1)
        hp = DlHp(latent=8, layers=1, batch_size=4, pooling="mean", epochs=0)
        model = train_dl(seqs, labels, hp, 2)
        probs = [predict_many(model, [s])[0][0] for s in seqs]
        assert all(abs(p - 0.5) < 0.2 for p in probs)

    def test_same_seed_identical_checkpoint_bytes(self, tmp_path):
        seqs, labels = synthetic_corpus(12, seed=2)
        hp = DlHp(latent=8, layers=1, batch_size=6, pooling="last", epochs=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_detector(train_dl(seqs, labels, hp, 7), p1)
        save_detector(train_dl(seqs, labels, hp, 7), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            train_dl([["a"], ["b"]], [1, 1], DlHp(epochs=1), 0)

    def test_threshold_rule(self):
        seqs, labels = synthetic_corpus(10, seed=3)
        hp = DlHp(latent=8, layers=1, batch_size=4, pooling="max", epochs=0)
        model = train_dl(seqs, labels, hp, 3)
        prob, label = predict_many(model, [seqs[0]])[0]
        assert label == (prob >= model.hp.threshold)
        model.hp = replace(model.hp, threshold=0.0)
        prob2, label2 = predict_many(model, [seqs[0]])[0]
        assert prob2 == prob  # threshold never changes the probability
        assert label2

    def test_prediction_invariant_to_trailing_padding(self):
        seqs, labels = synthetic_corpus(10, seed=4)
        hp = DlHp(latent=8, layers=1, batch_size=4, pooling="mean", epochs=3)
        model = train_dl(seqs, labels, hp, 4)
        seq = model.vocab.encode(seqs[0])
        lone, lone_mask = pad_batch([seq], 1500)
        padded = np.concatenate([lone, np.zeros((1, 7), dtype=np.int64)], axis=1)
        padded_mask = np.concatenate([lone_mask, np.zeros((1, 7))], axis=1)
        a, _ = model.network.forward(lone, lone_mask)
        b, _ = model.network.forward(padded, padded_mask)
        assert a[0] == pytest.approx(b[0], abs=1e-12)

    def test_empty_sequence_rejected(self):
        seqs, labels = synthetic_corpus(10, seed=5)
        model = train_dl(seqs, labels, DlHp(latent=8, epochs=0), 5)
        with pytest.raises(DataError):
            predict_many(model, [[]])

    def test_gradients_through_dropout(self):
        # re-seeding the mask generator inside the closure makes the
        # dropped forward pass deterministic, so it can be FD-checked
        from satd_forge import tensor_core as tc
        from satd_forge.detector import DetectorNetwork

        net = DetectorNetwork(vocab_size=7, latent=4, n_layers=2, pooling="mean", seed=0)
        idx, mask = pad_batch([[1, 2, 3], [4, 5]], 10)
        y = np.array([1.0, 0.0])

        def loss_fn():
            probs, _ = net.forward(idx, mask, np.random.default_rng(77), 0.25)
            losses = tc.bce_loss(y, probs)
            return float(losses.mean())

        probs, caches = net.forward(idx, mask, np.random.default_rng(77), 0.25)
        net.backward((probs - y) / len(y), caches)
        named = net.named_params()
        report = check_gradients(
            loss_fn,
            {k: v[0] for k, v in named.items()},
            {k: v[1] for k, v in named.items()},
        )
        assert max(report.values()) < 1e-4, report

    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    @pytest.mark.parametrize("pooling", ["last", "mean", "max"])
    def test_network_gradients_every_depth_and_pooling(self, n_layers, pooling):
        from satd_forge import tensor_core as tc
        from satd_forge.detector import DetectorNetwork

        net = DetectorNetwork(vocab_size=7, latent=4, n_layers=n_layers, pooling=pooling, seed=n_layers)
        idx, mask = pad_batch([[1, 2, 3], [4, 5]], 10)
        y = np.array([1.0, 0.0])

        def loss_fn():
            probs, _ = net.forward(idx, mask)
            return float(tc.bce_loss(y, probs).mean())

        net.loss_and_grads(idx, mask, y, None, 0.0)
        named = net.named_params()
        report = check_gradients(
            loss_fn, {k: v[0] for k, v in named.items()}, {k: v[1] for k, v in named.items()}
        )
        assert max(report.values()) < 1e-4, report

    def test_last_pool_single_layer_equals_final_state(self):
        seqs, labels = synthetic_corpus(8, seed=6)
        hp = DlHp(latent=8, layers=1, batch_size=4, pooling="last", epochs=2)
        model = train_dl(seqs, labels, hp, 6)
        net = model.network
        idx, mask = pad_batch([model.vocab.encode(seqs[0])], 1500)
        from satd_forge import tensor_core as tc

        packing = tc.Packing(mask)
        X = net.stack.embedding.forward(packing.pack(idx))
        states, (h_final, _), _ = net.stack.layers[0].forward(X, mask)
        pooled, _ = tc.pool_forward(states, packing, "last")
        np.testing.assert_array_equal(pooled, h_final)


class TestMnb:
    def test_matches_hand_computed_posteriors(self):
        # closed-form Bayes on {("todo hack", +), ("good code", -)}, alpha=1
        docs = [["todo", "hack"], ["good", "code"]]
        labels = [1, 0]
        vocab = build_vocabulary(docs, "code")
        vectors = bow_counts(docs, vocab)
        prior, log_prob = train_mnb(vectors, labels, alpha=1.0, vocab_size=vocab.size)
        V = vocab.size  # 5 including the reserved token
        assert prior[0] == pytest.approx(math.log(0.5), abs=1e-12)
        assert prior[1] == pytest.approx(math.log(0.5), abs=1e-12)
        i_todo = vocab.index_of["todo"]
        i_good = vocab.index_of["good"]
        assert log_prob[1, i_todo] == pytest.approx(math.log(2 / (2 + V)), abs=1e-12)
        assert log_prob[1, i_good] == pytest.approx(math.log(1 / (2 + V)), abs=1e-12)
        assert log_prob[0, i_good] == pytest.approx(math.log(2 / (2 + V)), abs=1e-12)

    def test_classifies_toy_example(self):
        docs = [["todo", "hack"], ["good", "code"]]
        model = fit_detector(check_detector_setting({"model": "mnb"}), docs, [1, 0], 0, "code")
        _, positive = predict_many(model, [["todo"]])[0]
        assert positive
        _, positive = predict_many(model, [["good"]])[0]
        assert not positive

    def test_tie_breaks_negative(self):
        docs = [["a"], ["a"]]
        model = fit_detector(check_detector_setting({"model": "mnb"}), docs, [1, 0], 0, "code")
        prob, positive = predict_many(model, [["a"]])[0]
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert not positive

    def test_matches_bruteforce_bayes_on_eight_documents(self):
        # oracle: direct evaluation of the smoothed Bayes formulas
        docs = [
            ["todo", "fix", "todo"],
            ["hack", "hack"],
            ["todo"],
            ["hack", "fix"],
            ["good", "code"],
            ["clean", "code", "code"],
            ["good"],
            ["clean", "good", "code"],
        ]
        labels = [1, 1, 1, 1, 0, 0, 0, 0]
        alpha = 1.0
        vocab = build_vocabulary(docs, "code")
        vectors = bow_counts(docs, vocab)
        prior, log_prob = train_mnb(vectors, labels, alpha=alpha, vocab_size=vocab.size)
        for c in (0, 1):
            class_docs = [d for d, y in zip(docs, labels) if y == c]
            total = sum(len(d) for d in class_docs)
            assert prior[c] == pytest.approx(math.log(len(class_docs) / len(docs)), abs=1e-12)
            for word, idx in vocab.index_of.items():
                count = sum(d.count(word) for d in class_docs)
                expected = math.log((count + alpha) / (total + alpha * vocab.size))
                assert log_prob[c, idx] == pytest.approx(expected, abs=1e-12)

    def test_alpha_must_be_positive(self):
        with pytest.raises(DataError, match="hyper-parameter alpha must be"):
            check_detector_setting({"model": "mnb", "alpha": 0.0})


class TestSvm:
    def test_separable_2d(self):
        # oracle: the set is linearly separable by construction, so a
        # hinge-loss minimizer must reach training accuracy 1.0
        rng = np.random.default_rng(0)
        vectors, labels = [], []
        for _ in range(40):
            x = rng.normal(size=2)
            y = 1 if x[0] + x[1] > 0.0 else -1
            x = x + np.array([0.5, 0.5]) * y  # margin
            vectors.append({0: x[0], 1: x[1]})
            labels.append(y)
        w, b, _ = train_linear_svm(vectors, labels, lam=1e-2, epochs=40, seed=1, dim=2)
        preds = [1 if (w[0] * v[0] + w[1] * v[1] + b) > 0 else -1 for v in vectors]
        assert preds == labels

    def test_huge_lambda_shrinks_weights(self):
        vectors = [{0: 1.0}, {0: -1.0}]
        labels = [1, -1]
        w, b, _ = train_linear_svm(vectors, labels, lam=1e6, epochs=10, seed=0, dim=1)
        assert abs(w[0]) < 1e-3

    def test_objective_decreases_on_average(self):
        rng = np.random.default_rng(2)
        vectors, labels = [], []
        for _ in range(60):
            x = rng.normal(size=3)
            y = 1 if x[0] - x[2] > 0 else -1
            vectors.append({i: x[i] for i in range(3)})
            labels.append(y)
        _, _, history = train_linear_svm(vectors, labels, lam=1e-2, epochs=30, seed=3, dim=3)
        first = np.mean(history[:5])
        last = np.mean(history[-5:])
        assert last < first

    def test_label_validation(self):
        with pytest.raises(DataError):
            train_linear_svm([{0: 1.0}], [0], lam=1e-2, epochs=1, seed=0, dim=1)

    def test_zero_margin_is_negative(self):
        model = DetectorModel(
            kind="svm",
            vocab=build_vocabulary([["a"]], "code"),
            hp=SvmHp(),
            network=LinearBlocks({"svm.w": np.zeros(2), "svm.b": np.zeros(1)}),
        )
        _, positive = predict_many(model, [["a"]])[0]
        assert not positive


class TestEmbedAverage:
    def test_single_token(self):
        vocab = build_vocabulary([["a", "b"]], "code")
        M = np.arange(6, dtype=float).reshape(3, 2)
        np.testing.assert_array_equal(embed_average(vocab.encode(["a"]), M), M[1])

    def test_opposite_embeddings_cancel(self):
        vocab = build_vocabulary([["a", "b"]], "code")
        M = np.array([[0.0, 0.0], [1.0, -2.0], [-1.0, 2.0]])
        np.testing.assert_allclose(embed_average(vocab.encode(["a", "b"]), M), 0.0)

    def test_permutation_invariant(self):
        vocab = build_vocabulary([["a", "b", "c"]], "code")
        M = np.random.default_rng(0).normal(size=(4, 3))
        x = embed_average(vocab.encode(["a", "b", "c", "a"]), M)
        y = embed_average(vocab.encode(["a", "a", "c", "b"]), M)
        np.testing.assert_allclose(x, y)

    def test_all_oov_warns_and_zeroes(self):
        vocab = build_vocabulary([["a"]], "code")
        M = np.ones((2, 3))
        with pytest.warns(UserWarning):
            out = embed_average(vocab.encode(["zzz"]), M)
        np.testing.assert_array_equal(out, 0.0)


class TestPersistence:
    @pytest.mark.parametrize("kind,features", [("mnb", "bow"), ("mnb", "tfidf"), ("svm", "bow"), ("svm", "tfidf")])
    def test_traditional_round_trip(self, tmp_path, kind, features):
        seqs, labels = synthetic_corpus(20, seed=8)
        model = fit_detector(check_detector_setting({"model": kind, "features": features}), seqs, labels, 1, "code")
        path = tmp_path / "m.ckpt"
        save_detector(model, path)
        loaded = load_detector(path)
        assert loaded.kind == kind
        for seq in seqs:
            assert predict_many(loaded, [seq])[0][1] == predict_many(model, [seq])[0][1]

    @pytest.mark.parametrize("hp,epochs", [({"model": "svm"}, 20), ({"model": "svm", "epochs": 3}, 3)])
    def test_svm_header_records_the_epochs_it_trained(self, tmp_path, hp, epochs):
        seqs, labels = synthetic_corpus(20, seed=8)
        model = fit_detector(check_detector_setting(hp), seqs, labels, 1, "code")
        assert len(model.objective_history) == epochs
        save_detector(model, tmp_path / "svm.ckpt")
        header, _ = load_checkpoint(tmp_path / "svm.ckpt")
        assert header["hp"]["epochs"] == epochs

    def test_dl_round_trip_predictions_match(self, tmp_path):
        seqs, labels = synthetic_corpus(10, seed=9)
        hp = DlHp(latent=8, layers=2, batch_size=4, pooling="max", epochs=3)
        model = train_dl(seqs, labels, hp, 10)
        path = tmp_path / "dl.ckpt"
        save_detector(model, path)
        loaded = load_detector(path)
        for seq in seqs[:4]:
            # float32 storage rounds parameters; probabilities stay close
            expected = predict_many(model, [seq])[0][0]
            assert predict_many(loaded, [seq])[0][0] == pytest.approx(expected, abs=1e-4)


class TestHyperParameterRules:
    @pytest.mark.parametrize("bad", [
        {"latent": True}, {"layers": 0}, {"batch_size": 2.0}, {"epochs": -1}, {"epochs": False},
        {"learning_rate": 0}, {"learning_rate": -0.1}, {"learning_rate": math.nan},
        {"learning_rate": math.inf}, {"learning_rate": "0.01"}, {"learning_rate": True},
        {"dropout": "0.2"}, {"dropout": -0.5}, {"dropout": 1.0}, {"dropout": math.nan},
        {"dropout": True}, {"seq_cap": "1500"}, {"seq_cap": 0}, {"seq_cap": 1.0}, {"threshold": "0.5"},
        {"threshold": -0.01}, {"threshold": 1.01}, {"threshold": math.nan}, {"threshold": math.inf},
        {"threshold": False},
    ])
    def test_rejected(self, bad):
        with pytest.raises(DataError, match=f"hyper-parameter {next(iter(bad))} must be"):
            DlHp.parse(bad)

    def test_boundaries_accepted(self):
        DlHp.parse({"latent": 1, "layers": 1, "batch_size": 1, "epochs": 0, "learning_rate": 1, "dropout": 0,
                    "seq_cap": 1, "threshold": 0})
        DlHp.parse({"dropout": 0.999, "threshold": 1})

    @pytest.mark.parametrize("bad", [{"code_cap": "10"}, {"code_cap": 0}, {"comment_cap": 2.5},
                                     {"comment_cap": 0}, {"dropout": 1.5}])
    def test_generator_rejected(self, bad):
        with pytest.raises(DataError, match=f"hyper-parameter {next(iter(bad))} must be"):
            GeneratorHp.parse(bad)

    def test_generator_boundaries_accepted(self):
        GeneratorHp.parse({"code_cap": 1, "comment_cap": 1, "dropout": 0})

    @pytest.mark.parametrize("lam", [0, -1.0, math.nan, math.inf, "0.1", None])
    def test_svm_lam(self, lam):
        with pytest.raises(DataError, match="hyper-parameter lam must be"):
            check_detector_setting({"model": "svm", "lam": lam})
