"""The CSR featurization and linear models against the frozen dict-based
code in `linear_reference`: the same bag-of-words and TF-IDF rows, naive
Bayes log-probabilities within 1e-12, SVM weights, bias and objective
history within 1e-12, and the same predicted labels, on Hypothesis
documents and on the benchmark's `detect` corpus."""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import linear_reference as ref
from satd_forge.detector import check_detector_setting, fit_detector, predict_many, train_linear_svm, train_mnb
from satd_forge.textpipe import UNKN_PAD, build_vocabulary
from satd_forge.vsm import bow_counts, fit_tfidf, transform

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

KNOWN = ("a", "b", "c", "d", "e", "todo", "hack")
OOV = ("zz", "qq")  # left out of every vocabulary

# the reserved token counts where it is written out
documents = st.lists(st.sampled_from(KNOWN + OOV + (UNKN_PAD,)), max_size=12)


def assert_rows_equal(matrix, rows, rel=0.0):
    got = list(matrix)
    assert len(got) == len(rows)
    for g, want in zip(got, rows):
        assert list(g) == list(want)  # same terms in the same order
        for idx, value in want.items():
            assert abs(g[idx] - value) <= rel * abs(value)


def assert_mnb_equal(got, want):
    for g, w in zip(got, want):
        assert np.abs(g - w).max() <= 1e-12


def assert_svm_equal(got, want):
    (w, b, history), (w_ref, b_ref, history_ref) = got, want
    assert np.abs(w - w_ref).max() <= 1e-12 * max(1.0, np.abs(w_ref).max())
    assert abs(b - b_ref) <= 1e-12 * max(1.0, abs(b_ref))
    assert len(history) == len(history_ref)
    for h, h_ref in zip(history, history_ref):
        assert abs(h - h_ref) <= 1e-12 * abs(h_ref)


def reference_predictions(model, ref_vectors, sequences):
    return [ref.predict_linear(model, vec, seq) for vec, seq in zip(ref_vectors, sequences)]


def assert_predictions_equal(got, want):
    assert [positive for _, positive in got] == [positive for _, positive in want]
    for (p, _), (p_ref, _) in zip(got, want):
        assert abs(p - p_ref) <= 1e-12


def require(condition):
    assert condition


def compare_all(train, labels, test, lam, epochs, seed, skip_unless=require):
    """Every layer and both models, fit on `train` and scored on `test`.
    A set that `skip_unless` rejects is left out, or fails the test."""
    vocab = build_vocabulary([[t for t in d if t not in OOV] for d in train], "code")
    n, df, idf = ref.fit_tfidf(train, vocab)
    counts = bow_counts(train, vocab)
    assert_rows_equal(counts, [ref.bow_counts(d, vocab) for d in train])
    tfidf = fit_tfidf(counts)
    assert tfidf.n_documents == n
    assert {i: int(v) for i, v in enumerate(tfidf.df) if v} == df
    for features in ("bow", "tfidf"):
        if features == "bow":
            vectors, ref_vectors = counts, [ref.bow_counts(d, vocab) for d in train]
            test_vectors = [ref.bow_counts(d, vocab) for d in test]
        else:
            vectors, ref_vectors = transform(counts, tfidf), [ref.transform(d, vocab, idf) for d in train]
            test_vectors = [ref.transform(d, vocab, idf) for d in test]
            assert_rows_equal(vectors, ref_vectors, rel=1e-15)
            assert_rows_equal(transform(bow_counts(test, vocab), tfidf), test_vectors, rel=1e-15)
        assert_mnb_equal(
            train_mnb(vectors, labels, alpha=0.5, vocab_size=vocab.size),
            ref.train_mnb(ref_vectors, labels, alpha=0.5, vocab_size=vocab.size),
        )
        svm_labels = [1 if y else -1 for y in labels]
        margins = []
        want = ref.train_linear_svm(ref_vectors, svm_labels, lam, epochs, seed, vocab.size, margins)
        # Small integer counts can put a margin exactly on the hinge, where the
        # last bit decides whether the step updates; `skip_unless` rejects such a set.
        skip_unless(all(abs(m - 1.0) > 1e-9 for m in margins))
        assert_svm_equal(train_linear_svm(vectors, svm_labels, lam=lam, epochs=epochs, seed=seed), want)
        scored = [d for d in test if d]
        scored_vectors = [v for d, v in zip(test, test_vectors) if d]
        for hp in ({"model": "mnb", "features": features, "alpha": 0.5},
                   {"model": "svm", "features": features, "lam": lam, "epochs": epochs}):
            model = fit_detector(check_detector_setting(hp), train, labels, seed, "code", vocab=vocab)
            assert_predictions_equal(
                predict_many(model, scored), reference_predictions(model, scored_vectors, scored)
            )


labelled_sets = st.lists(st.tuples(documents, st.booleans()), min_size=2, max_size=16).filter(
    lambda rows: len({y for _, y in rows}) == 2 and any(set(d) & set(KNOWN) for d, _ in rows)
)


@given(labelled_sets, st.lists(documents, max_size=8), st.sampled_from([1e-3, 1e-2, 1.0]), st.integers(0, 9))
@settings(max_examples=150, deadline=None)
def test_hypothesis_documents(rows, test, lam, seed):
    train = [d for d, _ in rows]
    labels = [int(y) for _, y in rows]
    # empty and all-out-of-vocabulary documents, a repeated token and the literal reserved token
    test = test + [[], ["zz", "qq"], ["todo"] * 5, [UNKN_PAD, "a"]]
    compare_all(train, labels, test, lam=lam, epochs=3, seed=seed, skip_unless=assume)


def test_detect_corpus():
    sys.path.insert(0, str(PERFBENCH))
    try:
        from gen import sequence_corpus
    finally:
        sys.path.remove(str(PERFBENCH))
    corpus = sequence_corpus(1, n_train=400, n_heldout=300, median=55)
    docs = [r["sbt_tokens"] for r in corpus.records]
    labels = [int(r["label"] == "SATD") for r in corpus.records]
    compare_all(docs[:360], labels[:360], docs[360:] + corpus.heldout_sbt, lam=0.01, epochs=20, seed=7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pretrained_embed_svm(seed):
    rng = np.random.default_rng(seed)
    docs = [list(rng.choice(list(KNOWN + OOV), size=rng.integers(1, 9))) for _ in range(40)]
    docs[3] = ["zz", "qq"]  # averages to a zero vector
    docs[4] = ["e", "e"]
    labels = [int("todo" in d or "hack" in d) for d in docs]
    vocab = build_vocabulary([list(KNOWN)], "code")
    embedding = rng.normal(size=(vocab.size, 6))
    embedding[vocab.index_of["e"], 2] = 0.0  # docs[4] has an exact zero feature
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        setting = check_detector_setting({"model": "svm", "lam": 0.05, "epochs": 6})
        model = fit_detector(setting, docs, labels, seed, "code", vocab=vocab, init_blocks={"embedding.M": embedding})
        feats = [ref.embed_average(d, vocab, embedding) for d in docs]
        dense = [{i: float(v) for i, v in enumerate(f) if v != 0.0} for f in feats]
        want = ref.train_linear_svm(dense, [1 if y else -1 for y in labels], lam=0.05, epochs=6, seed=seed, dim=6)
        assert_svm_equal((model.weights, model.bias, model.objective_history), want)
        assert_predictions_equal(predict_many(model, docs), reference_predictions(model, [None] * len(docs), docs))
