"""The token store against the list path it replaced (`list_path_reference`):
the same vocabulary words, padded batches, bag-of-words rows, checkpoint
bytes and `tune --remainder-out` rows, on a corpus with blank lines, a
`_meta` line between rows, a last line without a line break, empty
sequences and the reserved words written as tokens."""

import json
import random

import numpy as np
import pytest

import list_path_reference as ref
from satd_forge import evalkit
from satd_forge.cli import main
from satd_forge.detector import check_detector_setting, save_detector
from satd_forge.generator import GeneratorHp, save_generator
from satd_forge.pretrainer import DlHp, save_lm
from satd_forge.textpipe import EOS, SOS, UNKN_PAD, TokenStore, build_vocabulary, pad_batch
from satd_forge.vsm import bow_counts

CODE_WORDS = ["(IfStatement", ")IfStatement", "(Name:x", ")Name:x", "(Call:f", ")Call:f", UNKN_PAD, SOS]
COMMENT_WORDS = ["todo", "fix", "hack", "later", "the", "cache", UNKN_PAD, EOS]


def write_corpus(path, n=90, seed=0):
    """Rows of every label, some with empty code or no comment; row j has
    its own names, so every fold meets words the others lack."""
    rng = random.Random(seed)
    lines = [json.dumps({"_meta": {"command": "test"}})]
    for j in range(n):
        label = rng.choice(["SATD", "SATD", "NonSATD", "NonSATD", "Excluded", "Unlabeled"])
        code = [rng.choice(CODE_WORDS + [f"(Name:v{j}", f"(Name:v{j // 3}"]) for _ in range(rng.randint(0, 12))]
        if label == "SATD" and not code:
            code = ["(IfStatement"]
        words = [rng.choice(COMMENT_WORDS + [f"w{j % 11}"]) for _ in range(rng.randint(0, 6))]
        lines.append(json.dumps({
            "project": f"p{j % 4}", "path": f"F{j}.java", "span": [j, j + 1], "column": 1,
            "code_text": "if (x) {}", "sbt_tokens": code, "comment_raw": "// c" if words else None,
            "comment_words": words, "label": label,
        }))
        if j == n // 2:
            lines += ["", json.dumps({"_meta": {"note": "a second meta line"}}), "   "]
    path.write_text("\n".join(lines), encoding="utf-8")  # no line break after the last row
    return path


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return write_corpus(tmp_path_factory.mktemp("store") / "data.jsonl")


def store_and_items(path, task):
    """(the store's task column or pairs, the reference's items)."""
    items, _, _ = ref.task_data(ref.read_jsonl(path), task)
    if task == "generate":
        return TokenStore.read(path, pairs=True), items
    store = TokenStore.read(path, code=task == "detect-code", comment=task == "detect-comment")
    return (store.code if task == "detect-code" else store.comment), items


def subsets(n):
    rng = np.random.default_rng(n)
    every_other = np.arange(0, n, 2)
    some = np.flatnonzero(rng.random(n) < 0.7)
    return [np.arange(n), every_other, some, rng.permutation(n), np.arange(n)[::-1].copy()]


@pytest.mark.parametrize("task,kind", [("detect-code", "code"), ("detect-comment", "comment"),
                                       ("detect-code", "comment"), ("detect-comment", "code")])
def test_vocabulary_words(corpus, task, kind):
    column, items = store_and_items(corpus, task)
    assert list(column) == items
    for rows in subsets(len(items)):
        want = ref.build_vocabulary([items[i] for i in rows], kind).words
        assert build_vocabulary(column.select(rows), kind).words == want


def test_generation_vocabularies(corpus):
    store, pairs = store_and_items(corpus, "generate")
    assert list(zip(store.code, store.comment)) == pairs
    for rows in subsets(len(pairs)):
        chosen = store.select(rows)
        assert build_vocabulary(chosen.code, "code").words == ref.build_vocabulary([pairs[i][0] for i in rows],
                                                                                     "code").words
        assert build_vocabulary(chosen.comment, "comment").words == ref.build_vocabulary(
            [pairs[i][1] for i in rows], "comment").words


def assert_same_batch(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("task", ["detect-code", "detect-comment"])
def test_batches_and_shifted_batches(corpus, task):
    column, items = store_and_items(corpus, task)
    rng = np.random.default_rng(1)
    vocab = ref.build_vocabulary(items[: len(items) // 2], "code")  # the second half meets unseen words
    lut = column.lookup(vocab)
    lists = [vocab.encode(s) for s in items]
    for _ in range(20):
        chunk = rng.choice(len(items), size=int(rng.integers(1, 9)), replace=False)
        assert_same_batch(pad_batch(column.encode_rows(lut, chunk), 50), ref.pad_batch([lists[j] for j in chunk], 50))
        usable = [j for j in chunk if len(items[j]) >= 2]
        if usable:
            assert_same_batch(pad_batch(column.encode_rows(lut, usable, tail=1), 50),
                              ref.pad_batch([lists[j][:-1] for j in usable], 50))
            assert_same_batch(pad_batch(column.encode_rows(lut, usable, head=1), 50),
                              ref.pad_batch([lists[j][1:] for j in usable], 50))


def test_generation_batches(corpus):
    store, pairs = store_and_items(corpus, "generate")
    vocab = ref.build_vocabulary([f for _, f in pairs], "comment")
    framed = store.comment
    lut = framed.lookup(vocab)
    lists = [vocab.encode(f) for _, f in pairs]
    chunk = np.random.default_rng(2).permutation(len(pairs))[:7]
    assert_same_batch(pad_batch(framed.encode_rows(lut, chunk, tail=1), 20),
                      ref.pad_batch([lists[j][:-1] for j in chunk], 20))
    assert_same_batch(pad_batch(framed.encode_rows(lut, chunk, head=1), 20),
                      ref.pad_batch([lists[j][1:] for j in chunk], 20))


@pytest.mark.parametrize("task", ["detect-code", "detect-comment"])
def test_bag_of_words_rows(corpus, task):
    column, items = store_and_items(corpus, task)
    for rows in subsets(len(items)):
        vocab = ref.build_vocabulary([items[i] for i in rows[: len(rows) // 2]], "comment")
        got, want = bow_counts(column.select(rows), vocab), ref.bow_counts([items[i] for i in rows], vocab)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert got.n_cols == want.n_cols


TINY = {"latent": 4, "batch_size": 4, "epochs": 2, "learning_rate": 0.01}


@pytest.mark.parametrize("task,hp", [
    ("detect-code", {"model": "dl", **TINY, "pooling": "max"}),
    ("detect-comment", {"model": "dl", **TINY, "layers": 2}),
    ("detect-comment", {"model": "mnb", "alpha": 0.5}),
    ("detect-code", {"model": "svm", "features": "tfidf", "epochs": 3}),
    ("detect-comment", {"model": "svm", "features": "bow", "lam": 0.1}),
])
def test_detector_checkpoint_bytes(corpus, tmp_path, task, hp):
    (tmp_path / "hp.json").write_text(json.dumps(hp))
    out = tmp_path / "m.ckpt"
    assert main(["train", str(corpus), "--task", task, "--hp", str(tmp_path / "hp.json"), "--seed", "4",
                 "--out", str(out)]) == 0
    items, labels, _ = ref.task_data(ref.read_jsonl(corpus), task)
    kind = "code" if task == "detect-code" else "comment"
    save_detector(ref.fit_detector(check_detector_setting(hp), items, labels, 4, kind), tmp_path / "ref.ckpt")
    assert out.read_bytes() == (tmp_path / "ref.ckpt").read_bytes()


def test_language_model_checkpoint_bytes(corpus, tmp_path):
    (tmp_path / "hp.json").write_text(json.dumps(TINY))
    assert main(["pretrain", str(corpus), "--hp", str(tmp_path / "hp.json"), "--seed", "5",
                 "--out", str(tmp_path / "lm.ckpt")]) == 0
    sequences = [r.sbt_tokens for r in ref.read_jsonl(corpus)]
    save_lm(ref.train_next_token_lm(sequences, DlHp.from_dict(TINY), 5), tmp_path / "ref.ckpt")
    assert (tmp_path / "lm.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()


def test_generator_checkpoint_bytes(corpus, tmp_path):
    hp = {**TINY, "comment_cap": 10}
    (tmp_path / "hp.json").write_text(json.dumps(hp))
    assert main(["train", str(corpus), "--task", "generate", "--hp", str(tmp_path / "hp.json"), "--seed", "6",
                 "--out", str(tmp_path / "gen.ckpt")]) == 0
    pairs, _, _ = ref.task_data(ref.read_jsonl(corpus), "generate")
    save_generator(ref.train_generator(pairs, GeneratorHp.from_dict(hp), 6), tmp_path / "ref.ckpt")
    assert (tmp_path / "gen.ckpt").read_bytes() == (tmp_path / "ref.ckpt").read_bytes()


@pytest.mark.parametrize("task,grid", [
    ("detect-comment", {"model": "mnb"}),
    ("generate", {"latent": 4, "batch_size": 4, "epochs": 1, "comment_cap": 10}),
])
def test_tune_remainder_rows(corpus, tmp_path, task, grid):
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    remainder = tmp_path / "remainder.jsonl"
    assert main(["tune", str(corpus), "--task", task, "--grid", str(tmp_path / "grid.json"), "--seed", "2",
                 "--out", str(tmp_path / "t.json"), "--remainder-out", str(remainder)]) == 0
    _, labels, _ = ref.task_data(ref.read_jsonl(corpus), task)
    _, remainder_ids = evalkit.tuning_split(labels, fraction=0.1, seed=2)
    rows = remainder.read_bytes().splitlines(keepends=True)[1:]
    assert rows == ref.remainder_lines(corpus, task, remainder_ids)
    assert rows[-1].endswith(b"\n")
