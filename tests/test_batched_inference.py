"""Batched inference against one input at a time: `predict_many`,
`decode_greedy_many` and `generate_comments`, and the `detect` command
that runs on them."""

import json

import numpy as np
import pytest

from attention_reference import ReferenceAttention
from padded_layout import unpack
from satd_forge import tensor_core as tc
from satd_forge.cli import main
from satd_forge.detector import check_detector_setting, fit_detector, predict_many
from satd_forge.errors import DataError
from satd_forge.generator import (
    GeneratorHp,
    generate_comments,
    train_generator,
)
from satd_forge.textpipe import EOS, SOS, frame_comment, length_sorted_chunks, pad_batch


def labeled_sequences(n=24, seed=0):
    rng = np.random.default_rng(seed)
    fillers = [f"tok{i}" for i in range(15)]
    seqs, labels = [], []
    for i in range(n):
        seq = [fillers[j] for j in rng.integers(0, 15, int(rng.integers(1, 12)))]
        if i % 2 == 0:
            seq.insert(int(rng.integers(0, len(seq) + 1)), "hackmark")
        seqs.append(seq)
        labels.append(1 - i % 2)
    return seqs, labels


def unsorted_queries(seed=1):
    """Lengths neither sorted nor grouped, with ties and unseen tokens."""
    rng = np.random.default_rng(seed)
    lengths = [3, 9, 1, 9, 5, 12, 2, 7, 4, 11, 6]
    words = [f"tok{i}" for i in range(15)] + ["hackmark", "unseen"]
    return [[words[j] for j in rng.integers(0, len(words), n)] for n in lengths]


class TestPredictMany:
    @pytest.mark.parametrize("pooling", ["last", "mean", "max"])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_dl_equals_one_forward_per_sequence(self, pooling, layers):
        seqs, labels = labeled_sequences()
        hp = {"model": "dl", "latent": 6, "layers": layers, "batch_size": 4,
              "pooling": pooling, "epochs": 2, "learning_rate": 0.01}
        model = fit_detector(check_detector_setting(hp), seqs, labels, seed=3, vocab_kind="code")
        queries = unsorted_queries()
        many = predict_many(model, queries)
        assert len(many) == len(queries)
        for query, (prob, positive) in zip(queries, many):
            # the batch-of-one forward pass the detector used per sequence
            matrix, mask = pad_batch([model.vocab.encode(query)], model.hp.seq_cap)
            alone, _ = model.network.forward(matrix, mask)
            assert prob == pytest.approx(float(alone[0]), rel=0, abs=1e-12)
            assert positive == (prob >= model.hp.threshold)
            assert (prob, positive) == pytest.approx(predict_many(model, [query])[0], rel=0, abs=1e-12)

    @pytest.mark.parametrize("hp", [
        {"model": "mnb", "features": "bow"},
        {"model": "mnb", "features": "tfidf"},
        {"model": "svm", "features": "bow", "epochs": 5},
        {"model": "svm", "features": "tfidf", "epochs": 5},
    ], ids=["mnb-bow", "mnb-tfidf", "svm-bow", "svm-tfidf"])
    def test_linear_models_equal_predict(self, hp):
        seqs, labels = labeled_sequences()
        model = fit_detector(check_detector_setting(hp), seqs, labels, seed=3, vocab_kind="code")
        queries = unsorted_queries()
        assert predict_many(model, queries) == [predict_many(model, [q])[0] for q in queries]

    def test_empty_sequence_rejected(self):
        seqs, labels = labeled_sequences()
        model = fit_detector(check_detector_setting({"model": "dl", "latent": 4, "epochs": 0}), seqs, labels, seed=3,
                             vocab_kind="code")
        with pytest.raises(DataError):
            predict_many(model, [["tok1"], []])

    def test_no_sequences(self):
        seqs, labels = labeled_sequences()
        model = fit_detector(check_detector_setting({"model": "dl", "latent": 4, "epochs": 0}), seqs, labels, seed=3,
                             vocab_kind="code")
        assert predict_many(model, []) == []


class TestDetectCommand:
    def test_empty_sequences_print_zero_in_input_order(self, tmp_path, capsys):
        rows = []
        for i in range(20):
            words = (["todo", "fix"] if i % 2 == 0 else ["plain", "text"]) + [f"w{i % 5}"]
            rows.append({"project": "p", "path": "A.java", "span": [i, i], "column": 1,
                         "code_text": "if (a) f();", "sbt_tokens": ["(", "If", ")", "If"],
                         "comment_raw": "// " + " ".join(words), "comment_words": words,
                         "label": "SATD" if i % 2 == 0 else "NonSATD"})
        data = tmp_path / "data.jsonl"
        data.write_text("\n".join([json.dumps({"_meta": {}})] + [json.dumps(r) for r in rows]) + "\n")
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": "dl", "latent": 4, "batch_size": 2, "epochs": 1}))
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", str(data), "--task", "detect-comment", "--hp", str(hp),
                     "--seed", "1", "--out", str(ckpt)]) == 0
        lines = ["// todo fix w1", "// 123 !!!", "// plain text w2 and more words", "// 4 5", "// todo"]
        inputs = tmp_path / "lines.txt"
        inputs.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["detect", "--model", str(ckpt), "--input", str(inputs)]) == 0
        out = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert [f[2] for f in out] == lines
        assert out[1][:2] == ["0.000000", "NonSATD"]
        assert out[3][:2] == ["0.000000", "NonSATD"]
        for f in (out[0], out[2], out[4]):
            assert 0.0 < float(f[0]) < 1.0


def reference_decode(network, enc_indices, sos, eos, max_words):
    """Greedy decoding of one input, one decoder step at a time, as the
    generator did before it decoded batches, with the padded attention."""
    attention = ReferenceAttention(network.attention)
    enc_idx, enc_mask = pad_batch([enc_indices], len(enc_indices))
    enc = tc.Packing(enc_mask)
    Henc, enc_finals, _ = network.encoder.forward(enc_idx, enc)
    states = enc_finals[-1:]
    word, out = sos, []
    step = tc.Packing(np.ones((1, 1)))
    for _ in range(max_words):
        X, states, _ = network.decoder.forward(np.array([[word]]), step, initial=states)
        attended, _, _ = attention.forward(unpack(step, X), unpack(enc, Henc), enc_mask)
        logits, _ = network.out.forward(attended)
        word = int(np.argmax(logits[0, 0]))
        if word == eos:
            break
        out.append(word)
    return out


@pytest.fixture(scope="module")
def memorized():
    """A generator that has memorized comments of 1 to 6 words."""
    comments = ["hack", "todo later", "fixme odd case", "workaround this for now",
                "todo remove the old bridge", "hack around the broken cache code"]
    pairs = []
    for i, comment in enumerate(comments):
        code = ["(", "If"] + [f"Name:v{i}"] * (i % 3 + 1) + [")", "If"]
        pairs.append((code, frame_comment(comment.split())))
    hp = GeneratorHp(latent=12, layers=2, batch_size=3, epochs=150, learning_rate=0.01,
                     dropout=0.0, comment_cap=30)
    return train_generator(pairs, hp, seed=7), pairs


class TestDecodeGreedyMany:
    def test_equals_one_input_at_a_time(self, memorized):
        model, pairs = memorized
        net = model.network
        sos, eos = model.comment_vocab.index_of[SOS], model.comment_vocab.index_of[EOS]
        inputs = [model.code_vocab.encode(code) for code, _ in pairs]
        inputs = [inputs[j] for j in (3, 0, 5, 1, 4, 2)]  # lengths unsorted
        cap = 4
        alone = [reference_decode(net, enc, sos, eos, cap) for enc in inputs]
        lengths = sorted(len(a) for a in alone)
        # rows leave at <eos> on different steps, and at least one row runs to the cap
        assert len(set(lengths)) >= 3 and lengths[-1] == cap and lengths[0] < cap
        assert net.decode_greedy_many(inputs, sos, eos, cap) == alone
        assert [net.decode_greedy_many([enc], sos, eos, cap)[0] for enc in inputs] == alone

    def test_generate_comments_keeps_input_order(self, memorized):
        model, pairs = memorized
        codes = [pairs[j][0] for j in (5, 2, 0, 4, 1, 3, 2)]
        comments = generate_comments(model, codes)
        assert comments == [generate_comments(model, [c])[0] for c in codes]
        assert comments[2] == ["hack"]

    def test_empty_or_long_input_rejected(self, memorized):
        model, pairs = memorized
        with pytest.raises(DataError):
            generate_comments(model, [pairs[0][0], []])
        with pytest.raises(DataError):
            generate_comments(model, [["x"] * (model.hp.code_cap + 1)])


def test_length_sorted_chunks():
    seqs = [[1], [1, 2, 3], [], [4, 5, 6], [7, 8]]
    assert length_sorted_chunks([len(s) for s in seqs], 2) == [[1, 3], [4, 0], [2]]
    assert length_sorted_chunks([], 3) == []
