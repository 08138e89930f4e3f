"""Frozen dict-based featurization and linear models: the oracle for the
CSR code in `vsm` and `detector`.

Every document is a `{term_index: weight}` dict, and every sum walks one
dict in insertion order. The SVM decays its whole weight vector at each
step. Their outputs are the contract the array versions keep.
"""

import math
import warnings

import numpy as np

from satd_forge import tensor_core as tc


def embed_average(sequence, vocab, embedding) -> np.ndarray:
    """Mean embedding of the in-vocabulary tokens of a sequence."""
    indices = [i for i in vocab.encode(sequence) if i != 0]
    if not indices:
        warnings.warn("sequence has no in-vocabulary tokens; using a zero vector", stacklevel=2)
        return np.zeros(embedding.shape[1])
    return embedding[indices].mean(axis=0)


def bow_counts(document, vocab) -> dict[int, float]:
    counts: dict[int, float] = {}
    for tok in document:
        idx = vocab.index_of.get(tok)
        if idx is None:
            continue
        counts[idx] = counts.get(idx, 0.0) + 1.0
    return counts


def fit_tfidf(documents, vocab) -> tuple[int, dict[int, int], dict[int, float]]:
    """(|D|, df, idf) with idf = ln(|D|/df) + 1."""
    documents = list(documents)
    df: dict[int, int] = {}
    for doc in documents:
        for idx in set(bow_counts(doc, vocab)):
            df[idx] = df.get(idx, 0) + 1
    idf = {t: math.log(len(documents) / df_t) + 1.0 for t, df_t in df.items()}
    return len(documents), df, idf


def transform(document, vocab, idf: dict[int, float]) -> dict[int, float]:
    weighted: dict[int, float] = {}
    for idx, tf in bow_counts(document, vocab).items():
        if idx in idf:
            weighted[idx] = tf * idf[idx]
    return weighted


def _sparse_dot(weights: np.ndarray, vec: dict[int, float]) -> float:
    return float(sum(weights[i] * v for i, v in vec.items()))


def train_mnb(vectors, labels, alpha: float, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    labels = [int(v) for v in labels]
    n_class = np.array([labels.count(0), labels.count(1)], dtype=np.float64)
    counts = np.zeros((2, vocab_size))
    for vec, y in zip(vectors, labels):
        for idx, value in vec.items():
            counts[y, idx] += value
    totals = counts.sum(axis=1, keepdims=True)
    feature_log_prob = np.log(counts + alpha) - np.log(totals + alpha * vocab_size)
    class_log_prior = np.log(n_class / n_class.sum())
    return class_log_prior, feature_log_prob


def train_linear_svm(vectors, labels, lam: float, epochs: int, seed: int, dim: int, margins=None):
    """`margins`, if a list, receives each step's margin."""
    labels = [int(v) for v in labels]
    w = np.zeros(dim)
    b = 0.0
    rng = np.random.default_rng(seed)
    t = 0
    history: list[float] = []

    def objective() -> float:
        hinge = 0.0
        for vec, y in zip(vectors, labels):
            hinge += max(0.0, 1.0 - y * (_sparse_dot(w, vec) + b))
        return 0.5 * lam * float(w @ w) + hinge / len(vectors)

    for _ in range(epochs):
        for j in rng.permutation(len(vectors)):
            t += 1
            eta = 1.0 / (lam * t)
            vec, y = vectors[j], labels[j]
            margin = y * (_sparse_dot(w, vec) + b)
            if margins is not None:
                margins.append(margin)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                for idx, value in vec.items():
                    w[idx] += eta * y * value
                b += eta * y
        history.append(objective())
    return w, b, history


def predict_linear(model, vec: dict[int, float] | None, sequence=None) -> tuple[float, bool]:
    """One sequence's (probability, label); `vec` is its featurized dict,
    or None for `pretrained_embed_svm`, which averages `sequence`."""
    p = model.network.p
    if model.kind == "mnb":
        scores = p["class_log_prior"].copy()
        for c in range(2):
            scores[c] += sum(p["feature_log_prob"][c, i] * v for i, v in vec.items())
        shifted = scores - scores.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        return float(probs[1]), bool(scores[1] > scores[0])
    if model.kind == "pretrained_embed_svm":
        feats = embed_average(sequence, model.vocab, p["embedding.M"])
        margin = float(p["svm.w"] @ feats + float(p["svm.b"][0]))
    else:
        margin = _sparse_dot(p["svm.w"], vec) + float(p["svm.b"][0])
    return float(tc.sigmoid(margin)), margin > 0
