import math

import numpy as np
import pytest

from gradcheck import check_gradients
from satd_forge.errors import DataError
from satd_forge.generator import (
    Attention,
    GeneratorHp,
    Seq2SeqNetwork,
    generate_comments,
    load_generator,
    save_generator,
    train_generator,
)
from satd_forge.textpipe import EOS, SOS, frame_comment, pad_batch


def tiny_pairs(n=6):
    comments = [
        "todo e g check metadata",
        "workaround issue user types",
        "hack for empty arrays",
        "fixme overflow on inputs",
        "todo remove this bridge",
        "workaround clearing the area",
        "hack skip broken cache",
        "fixme tighten race window",
    ]
    pairs = []
    for i in range(n):
        code = ["(", "If", "(", f"Name:v{i}", ")", f"Name:v{i}", ")", "If"]
        pairs.append((code, frame_comment(comments[i].split())))
    return pairs


def one_step(att, state, enc_states, mask):
    """Context, weights and attended vector of one decoder step over one
    encoded sequence, through Attention.forward; the weights are spread
    over every encoder position, zero at masked ones."""
    S = np.asarray(state, dtype=np.float64)[None, :]
    real = np.asarray(mask) > 0
    H = np.asarray(enc_states, dtype=np.float64)
    attended, cache = att.forward(S, H[real], [(0, 1)], [(0, int(real.sum()))])
    weights = np.zeros(len(real))
    weights[real] = cache["weights"][0][0]
    context = (weights[:, None] * H).sum(axis=0)
    return context, weights, attended[0]


class TestAttention:
    def test_identical_states_give_uniform_weights(self):
        rng = np.random.default_rng(0)
        att = Attention(4, rng)
        state = rng.normal(size=4)
        enc = np.tile(rng.normal(size=4), (5, 1))
        context, weights, _ = one_step(att, state, enc, np.ones(5))
        np.testing.assert_allclose(weights, 0.2, atol=1e-12)
        np.testing.assert_allclose(context, enc[0], atol=1e-12)

    def test_dominant_alignment_takes_all_weight(self):
        rng = np.random.default_rng(1)
        att = Attention(3, rng)
        state = np.array([10.0, 0.0, 0.0])
        enc = np.array([[10.0, 0.0, 0.0], [0.0, 0.1, 0.0], [0.0, 0.0, 0.1]])
        _, weights, _ = one_step(att, state, enc, np.ones(3))
        assert weights[0] > 0.999999

    def test_weights_sum_to_one_and_ignore_masked(self):
        rng = np.random.default_rng(2)
        att = Attention(4, rng)
        state = rng.normal(size=4)
        enc = rng.normal(size=(6, 4))
        mask = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        _, weights, _ = one_step(att, state, enc, mask)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_array_equal(weights[3:], 0.0)

    def test_all_masked_rejected(self):
        rng = np.random.default_rng(3)
        att = Attention(2, rng)
        with pytest.raises(DataError):
            one_step(att, np.zeros(2), np.zeros((3, 2)), np.zeros(3))


class TestTraining:
    def test_teacher_forcing_shapes(self):
        pairs = tiny_pairs(4)
        for _, framed in pairs:
            dec_in, target = framed[:-1], framed[1:]
            assert len(dec_in) == len(target) == len(framed) - 1
            assert dec_in[0] == SOS
            assert target[-1] == EOS

    def test_initial_loss_is_log_vocab_at_uniform_output(self):
        pairs = tiny_pairs(4)
        hp = GeneratorHp(latent=8, layers=1, batch_size=4, epochs=0)
        model = train_generator(pairs, hp, seed=0)
        net = model.network
        net.out.p["W"][...] = 0.0
        net.out.p["b"][...] = 0.0
        enc_idx, enc_mask = pad_batch([model.code_vocab.encode(pairs[0][0])], 100)
        framed = model.comment_vocab.encode(pairs[0][1])
        dec_idx, dec_mask = pad_batch([framed[:-1]], 100)
        tgt, _ = pad_batch([framed[1:]], 100)
        loss, _ = net.forward_train(enc_idx, enc_mask, dec_idx, dec_mask, tgt)
        assert loss == pytest.approx(math.log(model.comment_vocab.size), abs=1e-9)

    def test_single_pair_memorization_reaches_bleu_one(self):
        from satd_forge.evalkit import bleu_n

        code = ["(", "If", "(", "Name:number", ")", "Name:number", ")", "If"]
        framed = frame_comment("todo e g check metadata".split())
        hp = GeneratorHp(latent=32, layers=1, batch_size=1, epochs=120, learning_rate=2e-3)
        model = train_generator([(code, framed)], hp, seed=1)
        out = generate_comments(model, [code])[0]
        assert out == "todo e g check metadata".split()
        assert bleu_n(out, framed[1:-1], 4) == pytest.approx(1.0)

    def test_unframed_comment_rejected(self):
        with pytest.raises(DataError):
            train_generator([(["a"], ["no", "markers"])], GeneratorHp(epochs=1), seed=0)

    def test_over_cap_rejected(self):
        hp = GeneratorHp(epochs=1, code_cap=4)
        with pytest.raises(DataError):
            train_generator([(["a"] * 5, frame_comment(["w"]))], hp, seed=0)

    def test_nan_free_training_runs(self):
        pairs = tiny_pairs(6)
        hp = GeneratorHp(latent=8, layers=2, batch_size=3, epochs=4)
        model = train_generator(pairs, hp, seed=2)
        assert model.final_loss is not None and np.isfinite(model.final_loss)

    def test_determinism(self):
        pairs = tiny_pairs(4)
        hp = GeneratorHp(latent=8, layers=1, batch_size=2, epochs=4)
        a = train_generator(pairs, hp, seed=9)
        b = train_generator(pairs, hp, seed=9)
        assert a.final_loss == b.final_loss
        out_a = generate_comments(a, [pairs[0][0]])[0]
        out_b = generate_comments(b, [pairs[0][0]])[0]
        assert out_a == out_b


class TestGradients:
    def test_two_layer_handoff_with_dropout(self):
        # the encoder's top layer hands its final state to the decoder's bottom layer
        net = Seq2SeqNetwork(code_vocab_size=6, comment_vocab_size=7, latent=3, n_layers=2, seed=8)
        enc_idx, enc_mask = pad_batch([[1, 2, 3], [4, 5]], 10)
        dec_idx, dec_mask = pad_batch([[1, 3, 4], [1, 5]], 10)
        tgt_idx, _ = pad_batch([[3, 4, 2], [5, 2]], 10)

        def loss_fn():
            loss, _ = net.forward_train(enc_idx, enc_mask, dec_idx, dec_mask, tgt_idx,
                                        np.random.default_rng(3), 0.2)
            return float(loss)

        net.loss_and_grads(enc_idx, enc_mask, dec_idx, dec_mask, tgt_idx, np.random.default_rng(3), 0.2)
        named = net.named_params()
        report = check_gradients(
            loss_fn, {k: v[0] for k, v in named.items()}, {k: v[1] for k, v in named.items()}
        )
        assert max(report.values()) < 1e-4, report


class TestDecoding:
    def test_untrained_near_zero_model_emits_to_cap(self):
        pairs = tiny_pairs(3)
        hp = GeneratorHp(latent=8, layers=1, batch_size=3, epochs=0, comment_cap=150)
        model = train_generator(pairs, hp, seed=3)
        for name, (param, _) in model.network.named_params().items():
            param[...] = param * 1e-6  # keep argmax at the padding index
        out = generate_comments(model, [pairs[0][0]])[0]
        assert len(out) == 150
        assert SOS not in out and EOS not in out

    def test_empty_input_rejected(self):
        pairs = tiny_pairs(3)
        model = train_generator(pairs, GeneratorHp(latent=8, epochs=0), seed=4)
        with pytest.raises(DataError):
            generate_comments(model, [[]])

    def test_decoding_deterministic(self):
        pairs = tiny_pairs(4)
        model = train_generator(pairs, GeneratorHp(latent=8, epochs=3), seed=5)
        assert generate_comments(model, [pairs[1][0]])[0] == generate_comments(model, [pairs[1][0]])[0]


class TestPersistence:
    def test_round_trip_same_outputs(self, tmp_path):
        pairs = tiny_pairs(4)
        hp = GeneratorHp(latent=8, layers=1, batch_size=2, epochs=30, learning_rate=2e-3)
        model = train_generator(pairs, hp, seed=6)
        path = tmp_path / "g.ckpt"
        save_generator(model, path)
        loaded = load_generator(path)
        for code, _ in pairs:
            assert generate_comments(loaded, [code])[0] == generate_comments(loaded, [code])[0]
        assert loaded.comment_vocab.words == model.comment_vocab.words
        assert loaded.hp == model.hp
