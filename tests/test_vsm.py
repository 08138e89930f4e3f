import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from satd_forge.errors import DataError
from satd_forge.textpipe import build_vocabulary
from satd_forge.vsm import Csr, bow_counts, fit_tfidf, transform


def vocab_for(*docs):
    return build_vocabulary(list(docs), "code")


def tfidf_of(docs, vocab):
    return fit_tfidf(bow_counts(docs, vocab))


def transform_one(doc, vocab, model):
    [row] = transform(bow_counts([doc], vocab), model)
    return row


class TestBowCounts:
    def test_counts(self):
        vocab = vocab_for(["a", "b"])
        [counts] = bow_counts([["a", "a", "b"]], vocab)
        assert counts == {vocab.index_of["a"]: 2.0, vocab.index_of["b"]: 1.0}

    def test_empty_document(self):
        assert list(bow_counts([[]], vocab_for(["a"]))) == [{}]

    def test_oov_ignored_and_sum_matches(self):
        vocab = vocab_for(["a", "b"])
        doc = ["a", "zzz", "b", "b"]
        [counts] = bow_counts([doc], vocab)
        in_vocab = [t for t in doc if t in vocab.index_of]
        assert sum(counts.values()) == len(in_vocab)


class TestCsr:
    def test_rows_keep_first_occurrence_order(self):
        vocab = vocab_for(["a", "b", "c"])
        counts = bow_counts([["c", "a", "c"], [], ["zzz"], ["b", "a", "b", "b"]], vocab)
        ia, ib, ic = (vocab.index_of[t] for t in "abc")
        assert list(counts) == [{ic: 2.0, ia: 1.0}, {}, {}, {ib: 3.0, ia: 1.0}]
        assert [list(row) for row in counts] == [[ic, ia], [], [], [ib, ia]]
        assert counts.indptr.tolist() == [0, 2, 2, 2, 4]
        assert counts.row_ids().tolist() == [0, 0, 3, 3]
        assert len(counts) == 4 and counts.n_cols == vocab.size

    def test_empty_document_set(self):
        counts = bow_counts([], vocab_for(["a"]))
        assert len(counts) == 0 and list(counts) == []
        assert counts.dot(np.ones(counts.n_cols)).shape == (0,)

    def test_reserved_token_counts_when_literal(self):
        vocab = vocab_for(["a"])
        [counts] = bow_counts([[vocab.words[0], "a", vocab.words[0]]], vocab)
        assert counts == {0: 2.0, vocab.index_of["a"]: 1.0}

    def test_dot_matches_rowwise_sums(self):
        dense = np.array([[0.0, 2.0, -1.0], [0.0, 0.0, 0.0], [3.5, 0.0, 0.25]])
        matrix = Csr.from_dense(dense)
        assert list(matrix) == [{1: 2.0, 2: -1.0}, {}, {0: 3.5, 2: 0.25}]
        w = np.array([0.5, -2.0, 4.0])
        np.testing.assert_array_equal(matrix.dot(w), dense @ w)


class TestTfIdf:
    def test_idf_term_in_all_documents(self):
        docs = [["t"], ["t"], ["t"], ["t"]]
        vocab = vocab_for(*docs)
        model = tfidf_of(docs, vocab)
        assert model.idf[vocab.index_of["t"]] == pytest.approx(1.0, abs=1e-15)

    def test_idf_half_documents(self):
        docs = [["t"], ["t"], ["u"], ["u"]]
        vocab = vocab_for(*docs)
        model = tfidf_of(docs, vocab)
        assert model.idf[vocab.index_of["t"]] == pytest.approx(math.log(2) + 1.0, abs=1e-15)

    def test_fit_order_independent(self):
        docs = [["a", "b"], ["b"], ["c", "a"]]
        vocab = vocab_for(*docs)
        a = tfidf_of(docs, vocab)
        b = tfidf_of(list(reversed(docs)), vocab)
        np.testing.assert_array_equal(a.df, b.df)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            tfidf_of([], vocab_for(["a"]))

    def test_transform_arithmetic(self):
        docs = [["t"], ["t"], ["u"], ["u"]]
        vocab = vocab_for(*docs)
        model = tfidf_of(docs, vocab)
        weighted = transform_one(["t", "t", "t"], vocab, model)
        assert weighted[vocab.index_of["t"]] == pytest.approx(3 * (math.log(2) + 1), abs=1e-12)

    def test_unseen_terms_zero(self):
        docs = [["t"]]
        vocab = build_vocabulary([["t", "u"]], "code")
        model = tfidf_of(docs, vocab)
        assert transform_one(["u", "u"], vocab, model) == {}

    def test_matches_bruteforce_oracle_on_six_documents(self):
        # oracle: literal re-computation of idf(t) = ln(|D|/df(t)) + 1 and
        # tfidf(t, d) = tf(t, d) * idf(t), independent of the implementation
        docs = [
            ["todo", "fix", "parser"],
            ["fix", "fix", "cache"],
            ["parser", "cache"],
            ["todo", "todo", "todo"],
            ["cache"],
            ["parser", "fix", "todo", "extra"],
        ]
        vocab = vocab_for(*docs)
        model = tfidf_of(docs, vocab)
        for doc in docs:
            got = transform_one(doc, vocab, model)
            expected = {}
            for term in set(doc):
                tf = doc.count(term)
                df = sum(1 for d in docs if term in d)
                idx = vocab.index_of[term]
                expected[idx] = tf * (math.log(len(docs) / df) + 1.0)
            assert set(got) == set(expected)
            for idx, value in expected.items():
                assert abs(got[idx] - value) < 1e-12

    def test_idf_monotone_in_rarity(self):
        docs = [["rare", "common"], ["common"], ["common"], ["other"]]
        vocab = vocab_for(*docs)
        model = tfidf_of(docs, vocab)
        assert model.idf[vocab.index_of["rare"]] > model.idf[vocab.index_of["common"]]

    @given(st.integers(min_value=1, max_value=6))
    def test_transform_linear_in_tf(self, k):
        docs = [["t"], ["u"]]
        vocab = vocab_for(*docs)
        model = tfidf_of(docs, vocab)
        single = transform_one(["t"], vocab, model)
        repeated = transform_one(["t"] * k, vocab, model)
        idx = vocab.index_of["t"]
        assert repeated[idx] == pytest.approx(k * single[idx], rel=1e-12)
