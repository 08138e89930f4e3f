"""Vector space model: bag-of-words counts and TF-IDF weighting for the
traditional classifiers. A document set is one CSR matrix, a row per
document and a column per vocabulary term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .textpipe import Vocabulary, as_column


@dataclass
class Csr:
    """Compressed sparse rows: row r holds `data[indptr[r]:indptr[r + 1]]`
    at columns `indices[indptr[r]:indptr[r + 1]]`."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    @classmethod
    def from_entries(cls, rows, cols, data, n_rows: int, n_cols: int) -> "Csr":
        """Entries listed row by row; each row keeps their order."""
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return cls(indptr, np.asarray(cols, dtype=np.int64), np.asarray(data, dtype=np.float64), n_cols)

    @classmethod
    def from_dense(cls, matrix) -> "Csr":
        """The nonzero entries of a 2-D array."""
        rows, cols = np.nonzero(matrix)
        return cls.from_entries(rows, cols, matrix[rows, cols], *matrix.shape)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __iter__(self):
        """Each row as {column: value}. The benchmark's output checks
        (`perfbench/checks.py`: `mnb_log_probs`, `svm_objective`) read the
        Csr that `train_mnb` and `train_linear_svm` receive this way."""
        for a, b in zip(self.indptr[:-1], self.indptr[1:]):
            yield dict(zip(self.indices[a:b].tolist(), self.data[a:b].tolist()))

    def row_ids(self) -> np.ndarray:
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def dot(self, w: np.ndarray) -> np.ndarray:
        """The matrix times a vector. Each row adds its entries one by one,
        in stored order."""
        sums = np.bincount(self.row_ids(), weights=self.data * w[self.indices], minlength=len(self))
        return sums.astype(np.float64)  # a bincount of no entries is integer


def bow_counts(documents, vocab: Vocabulary) -> Csr:
    """Occurrence counts per vocabulary term, one row per document of
    `documents` (a TokenColumn, or token lists); out-of-vocabulary tokens
    ignored. A row lists its terms in order of first occurrence."""
    column = as_column(documents)
    cols = column.lookup(vocab, missing=-1)[column.flat()]
    rows = np.repeat(np.arange(len(column)), column.lengths())
    known = cols >= 0
    keys, first, counts = np.unique(rows[known] * vocab.size + cols[known], return_index=True, return_counts=True)
    order = np.argsort(first)
    keys, counts = keys[order], counts[order]
    return Csr.from_entries(keys // vocab.size, keys % vocab.size, counts, len(column), vocab.size)


@dataclass
class TfIdfModel:
    n_documents: int
    df: np.ndarray  # training documents containing each term

    @property
    def idf(self) -> np.ndarray:
        """ln(|D|/df) + 1, and 0 for terms unseen at fit time."""
        return (np.log(self.n_documents / np.maximum(self.df, 1)) + 1.0) * (self.df > 0)


def fit_tfidf(counts: Csr) -> TfIdfModel:
    """Document frequencies over the training documents' counts;
    idf = ln(|D|/df) + 1."""
    if not len(counts):
        raise DataError("cannot fit TF-IDF on an empty document set")
    df = np.bincount(counts.indices, minlength=counts.n_cols).astype(np.float64)
    return TfIdfModel(n_documents=len(counts), df=df)


def transform(counts: Csr, model: TfIdfModel) -> Csr:
    """tf(t, d) * idf(t); terms unseen at fit time are dropped (weight zero)."""
    seen = model.df[counts.indices] > 0
    cols = counts.indices[seen]
    return Csr.from_entries(
        counts.row_ids()[seen], cols, counts.data[seen] * model.idf[cols], len(counts), counts.n_cols
    )


def as_csr(vectors, n_cols: int) -> Csr:
    """A Csr as it is; {column: value} maps, each row in its own order, as
    an `n_cols`-wide Csr. Only tests pass the maps, the benchmark's own
    (`perfbench/tests/test_checks.py`) among them."""
    if isinstance(vectors, Csr):
        return vectors
    rows = list(vectors)
    row_of = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
    cols, data = [c for row in rows for c in row], [v for row in rows for v in row.values()]
    return Csr.from_entries(row_of, cols, data, len(rows), n_cols)
