"""Technical-debt detectors over token sequences: the LSTM classifier,
multinomial naive Bayes, a linear hinge-loss SVM, and the
averaged-embedding feature path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor_core as tc
from .checkpoint import load_blocks, load_checkpoint, save_checkpoint, save_network
from .errors import CheckpointError, DataError, TrainingError
from .textpipe import Vocabulary, build_vocabulary, length_sorted_chunks, pad_batch
from .vsm import TfIdfModel, bow_counts, fit_tfidf, transform


@dataclass
class DetectorHp:
    latent: int = 32
    layers: int = 1
    batch_size: int = 32
    pooling: str = "mean"  # last | mean | max
    epochs: int = 100
    learning_rate: float = 1e-3
    dropout: float = 0.2
    seq_cap: int = 1500
    threshold: float = 0.5

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "DetectorHp":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in obj.items() if k in known})


class DetectorNetwork(tc.Network):
    """Embedding -> stacked LSTM -> pooling -> dense + sigmoid."""

    def __init__(self, vocab_size: int, latent: int, n_layers: int, pooling: str, seed: int):
        rng = np.random.default_rng(seed)
        self.pooling = pooling
        self.stack = tc.LstmStack(vocab_size, latent, tc.detector_layer_sizes(latent, n_layers), rng)
        self.dense = tc.Dense(self.stack.layers[-1].state_size, 1, rng)

    def named_params(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return {**self.stack.named_params(), **tc.block_params("dense", self.dense)}

    def forward(self, idx: np.ndarray, mask: np.ndarray, drop_rng=None, drop_rate: float = 0.0):
        states, _, stack_cache = self.stack.forward(idx, mask, drop_rng, drop_rate)
        pooled, pool_cache = tc.pool_forward(states, mask, self.pooling)
        logits, dense_cache = self.dense.forward(pooled)
        probs = tc.sigmoid(logits[:, 0])
        return probs, {"stack": stack_cache, "pool": pool_cache, "dense": dense_cache}

    def backward(self, dlogits: np.ndarray, caches: dict):
        dpooled = self.dense.backward(dlogits[:, None], caches["dense"])
        self.stack.backward(tc.pool_backward(dpooled, caches["pool"]), caches["stack"])

    def loss_and_grads(self, idx, mask, labels, drop_rng=None, drop_rate=0.0) -> float:
        """Mean binary log-loss over the batch; fills parameter gradients."""
        self.zero_grads()
        probs, caches = self.forward(idx, mask, drop_rng, drop_rate)
        losses, _ = tc.bce_loss(labels, probs)
        dlogits = (probs - labels) / len(labels)
        self.backward(dlogits, caches)
        return float(losses.mean())


@dataclass
class DetectorModel:
    kind: str  # dl | mnb | svm | pretrained_embed_svm
    vocab: Vocabulary
    hp: DetectorHp
    threshold: float = 0.5
    network: DetectorNetwork | None = None
    class_log_prior: np.ndarray | None = None
    feature_log_prob: np.ndarray | None = None
    weights: np.ndarray | None = None
    bias: float = 0.0
    embedding: np.ndarray | None = None
    tfidf: TfIdfModel | None = None
    features: str = "bow"  # bow | tfidf | embed_average
    alpha: float = 1.0
    final_loss: float | None = None
    objective_history: list[float] = field(default_factory=list)
    seed: int = 0


def _encode_for_training(sequences, vocab, cap: int) -> list[list[int]]:
    encoded = [vocab.encode(s) for s in sequences]
    for seq in encoded:
        if len(seq) > cap:
            raise DataError(f"sequence of length {len(seq)} exceeds cap {cap}")
        if not seq:
            raise DataError("empty sequence in training data")
    return encoded


def train_dl_detector(
    sequences,
    labels,
    hp: DetectorHp,
    seed: int,
    vocab: Vocabulary | None = None,
    vocab_kind: str = "code",
    init_blocks: dict[str, np.ndarray] | None = None,
    init_mode: str = "end2end",
) -> DetectorModel:
    """Train the LSTM classifier with Adam on binary log-loss.

    The vocabulary is built from the training sequences unless one is
    passed in. Pre-trained blocks, named as in `LstmStack.named_params`,
    replace the embedding (`embedding_only`) or the whole stack
    (`end2end`) before training.
    """
    labels = [int(v) for v in labels]
    if len(sequences) != len(labels):
        raise DataError("sequences and labels differ in length")
    if not sequences:
        raise DataError("empty training set")
    if len(set(labels)) < 2:
        raise TrainingError("training data contains a single class")
    if vocab is None:
        vocab = build_vocabulary(sequences, vocab_kind)
    network = DetectorNetwork(vocab.size, hp.latent, hp.layers, hp.pooling, seed)
    if init_blocks is not None:
        if init_mode not in ("end2end", "embedding_only"):
            raise DataError(f"unknown pre-training mode: {init_mode!r}")
        wanted = network.stack.named_params()
        if init_mode == "embedding_only":
            wanted = {"embedding.M": wanted["embedding.M"]}
        load_blocks(wanted, init_blocks, "pre-trained language model")
    encoded = _encode_for_training(sequences, vocab, hp.seq_cap)
    y_all = np.asarray(labels, dtype=np.float64)

    def make_batch(chunk):
        matrix, mask = pad_batch([encoded[j] for j in chunk], hp.seq_cap)
        return matrix, mask, y_all[chunk]

    final_loss = tc.fit(network, tc.Adam(lr=hp.learning_rate), make_batch, len(encoded), hp, seed)
    return DetectorModel(
        kind="dl",
        vocab=vocab,
        hp=hp,
        threshold=hp.threshold,
        network=network,
        final_loss=final_loss,
        seed=seed,
    )


def _featurize(model: DetectorModel, sequence) -> dict[int, float]:
    if model.features == "tfidf":
        if model.tfidf is None:
            raise DataError("model has no fitted TF-IDF state")
        return transform(sequence, model.vocab, model.tfidf)
    return bow_counts(sequence, model.vocab)


def _sparse_dot(weights: np.ndarray, vec: dict[int, float]) -> float:
    return float(sum(weights[i] * v for i, v in vec.items()))


def predict(model: DetectorModel, sequence) -> tuple[float, bool]:
    """Probability and label for one token sequence: `predict_many` of one."""
    return predict_many(model, [sequence])[0]


def predict_many(model: DetectorModel, sequences) -> list[tuple[float, bool]]:
    """Probability and label for each token sequence, in input order.

    The DL detector sorts the sequences by length, longest first, pads
    them in chunks of `hp.batch_size` and runs one forward pass per chunk;
    it calls ties at the threshold positive. The linear models score one
    sequence at a time; the SVM calls a zero margin negative.
    """
    sequences = list(sequences)
    if not all(sequences):
        raise DataError("cannot classify an empty sequence")
    if model.kind in ("mnb", "svm", "pretrained_embed_svm"):
        return [_predict_linear(model, s) for s in sequences]
    if model.kind != "dl":
        raise DataError(f"unknown detector kind: {model.kind!r}")
    cap = model.hp.seq_cap
    for seq in sequences:
        if len(seq) > cap:
            raise DataError(f"sequence of length {len(seq)} exceeds cap {cap}")
    encoded = [model.vocab.encode(s) for s in sequences]
    probs = np.empty(len(encoded))
    for chunk in length_sorted_chunks(encoded, model.hp.batch_size):
        matrix, mask = pad_batch([encoded[j] for j in chunk], cap)
        chunk_probs, _ = model.network.forward(matrix, mask)
        probs[chunk] = chunk_probs
    return [(float(p), bool(p >= model.threshold)) for p in probs]


def _predict_linear(model: DetectorModel, sequence) -> tuple[float, bool]:
    if model.kind == "mnb":
        vec = _featurize(model, sequence)
        scores = model.class_log_prior.copy()
        for c in range(2):
            scores[c] += sum(model.feature_log_prob[c, i] * v for i, v in vec.items())
        shifted = scores - scores.max()
        probs = np.exp(shifted) / np.exp(shifted).sum()
        return float(probs[1]), bool(scores[1] > scores[0])
    if model.kind == "pretrained_embed_svm":
        feats = embed_average(sequence, model.vocab, model.embedding)
        margin = float(model.weights @ feats + model.bias)
    else:
        margin = _sparse_dot(model.weights, _featurize(model, sequence)) + model.bias
    return float(tc.sigmoid(margin)), margin > 0


def train_mnb(vectors, labels, alpha: float = 1.0, vocab_size: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Laplace-smoothed multinomial naive Bayes over sparse count vectors.

    Returns (class_log_prior, feature_log_prob) for classes (0, 1).
    """
    if alpha <= 0:
        raise DataError(f"smoothing parameter must be positive, got {alpha}")
    labels = [int(v) for v in labels]
    if not vectors or len(vectors) != len(labels):
        raise DataError("empty or mismatched training vectors")
    n_class = np.array([labels.count(0), labels.count(1)], dtype=np.float64)
    if (n_class == 0).any():
        raise DataError("both classes must be present to fit naive Bayes")
    counts = np.zeros((2, vocab_size))
    for vec, y in zip(vectors, labels):
        for idx, value in vec.items():
            counts[y, idx] += value
    totals = counts.sum(axis=1, keepdims=True)
    feature_log_prob = np.log(counts + alpha) - np.log(totals + alpha * vocab_size)
    class_log_prior = np.log(n_class / n_class.sum())
    return class_log_prior, feature_log_prob


def train_linear_svm(
    vectors,
    labels,
    lam: float = 1e-2,
    epochs: int = 20,
    seed: int = 0,
    dim: int = 0,
) -> tuple[np.ndarray, float, list[float]]:
    """Stochastic sub-gradient descent on the L2-regularized hinge loss.

    Labels are -1/+1; the unregularized bias moves only on margin
    violations. Returns (weights, bias, per-epoch objective values).
    """
    labels = [int(v) for v in labels]
    if any(y not in (-1, 1) for y in labels):
        raise DataError("SVM labels must be -1 or +1")
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
            w *= 1.0 - eta * lam
            if margin < 1.0:
                for idx, value in vec.items():
                    w[idx] += eta * y * value
                b += eta * y
        history.append(objective())
    return w, b, history


def embed_average(sequence, vocab: Vocabulary, embedding: np.ndarray) -> np.ndarray:
    """Mean embedding of the in-vocabulary tokens of a sequence."""
    indices = [i for i in vocab.encode(sequence) if i != 0]
    if not indices:
        warnings.warn("sequence has no in-vocabulary tokens; using a zero vector", stacklevel=2)
        return np.zeros(embedding.shape[1])
    return embedding[indices].mean(axis=0)


def fit_traditional(
    sequences,
    labels,
    kind: str,
    hp: DetectorHp,
    features: str = "bow",
    alpha: float = 1.0,
    lam: float = 1e-2,
    epochs: int = 20,
    seed: int = 0,
    vocab: Vocabulary | None = None,
    vocab_kind: str = "code",
    embedding: np.ndarray | None = None,
) -> DetectorModel:
    """Fit MNB or the SVM on featurized sequences (bow/tfidf/embed_average)."""
    labels = [int(v) for v in labels]
    if vocab is None:
        vocab = build_vocabulary(sequences, vocab_kind)
    model = DetectorModel(
        kind=kind, vocab=vocab, hp=hp, features=features, alpha=alpha, seed=seed
    )
    if kind == "pretrained_embed_svm":
        if embedding is None:
            raise DataError("pretrained_embed_svm requires an embedding matrix")
        model.embedding = embedding
        feats = [embed_average(s, vocab, embedding) for s in sequences]
        dense = [{i: float(v) for i, v in enumerate(f) if v != 0.0} for f in feats]
        svm_labels = [1 if y == 1 else -1 for y in labels]
        w, b, history = train_linear_svm(
            dense, svm_labels, lam=lam, epochs=epochs, seed=seed, dim=embedding.shape[1]
        )
        model.weights, model.bias, model.objective_history = w, b, history
        model.features = "embed_average"
        return model

    if features == "tfidf":
        model.tfidf = fit_tfidf(sequences, vocab)
        vectors = [transform(s, vocab, model.tfidf) for s in sequences]
    else:
        vectors = [bow_counts(s, vocab) for s in sequences]

    if kind == "mnb":
        prior, log_prob = train_mnb(vectors, labels, alpha=alpha, vocab_size=vocab.size)
        model.class_log_prior, model.feature_log_prob = prior, log_prob
    elif kind == "svm":
        svm_labels = [1 if y == 1 else -1 for y in labels]
        w, b, history = train_linear_svm(
            vectors, svm_labels, lam=lam, epochs=epochs, seed=seed, dim=vocab.size
        )
        model.weights, model.bias, model.objective_history = w, b, history
    else:
        raise DataError(f"unknown traditional detector kind: {kind!r}")
    return model


def fit_detector(hp_dict: dict, items, labels, seed: int, vocab_kind: str, lm=None,
                 mode: str = "end2end") -> DetectorModel:
    """Train the detector a hyper-parameter dict names: `model` is dl
    (the default), mnb or svm.

    A pre-trained language model `lm` brings its vocabulary and
    initializes the dl detector's embedding (`embedding_only`) or whole
    stack (`end2end`); with `embedding_only` it turns the svm into
    `pretrained_embed_svm` over averaged embeddings. Empty sequences are
    dropped for dl only.
    """
    model_type = hp_dict.get("model", "dl")
    hp = DetectorHp.from_dict(hp_dict)
    if model_type == "dl":
        usable = [(s, y) for s, y in zip(items, labels) if s]
        init_blocks = None
        if lm is not None:
            init_blocks = {name: param for name, (param, _) in lm.network.stack.named_params().items()}
        return train_dl_detector(
            [s for s, _ in usable],
            [y for _, y in usable],
            hp,
            seed,
            vocab=lm.vocab if lm is not None else None,
            vocab_kind=vocab_kind,
            init_blocks=init_blocks,
            init_mode=mode,
        )
    if model_type not in ("mnb", "svm"):
        raise DataError(f"unknown model type: {model_type!r}")
    lam = hp_dict.get("lam", 1e-2)
    epochs = hp_dict.get("epochs", 20)
    if lm is None:
        return fit_traditional(
            items,
            labels,
            kind=model_type,
            hp=hp,
            features=hp_dict.get("features", "bow"),
            alpha=hp_dict.get("alpha", 1.0),
            lam=lam,
            epochs=epochs,
            seed=seed,
            vocab_kind=vocab_kind,
        )
    if model_type != "svm" or mode != "embedding_only":
        raise DataError(
            f"a pre-trained language model cannot initialize model {model_type!r} in mode {mode!r}: "
            "it serves dl in either mode and svm in embedding_only"
        )
    return fit_traditional(
        items,
        labels,
        kind="pretrained_embed_svm",
        hp=hp,
        lam=lam,
        epochs=epochs,
        seed=seed,
        vocab=lm.vocab,
        embedding=lm.network.stack.embedding.p["M"],
    )


def save_detector(model: DetectorModel, path):
    header = {
        "hp": model.hp.to_dict(),
        "vocab_words": model.vocab.words,
        "vocab_kind": model.vocab.kind,
        "threshold": model.threshold,
        "features": model.features,
        "alpha": model.alpha,
        "seed": model.seed,
    }
    if model.kind == "dl":
        save_network(path, "dl", header, model.network)
        return
    blocks: list[tuple[str, np.ndarray]] = []
    if model.kind == "mnb":
        blocks.append(("class_log_prior", model.class_log_prior))
        blocks.append(("feature_log_prob", model.feature_log_prob))
    elif model.kind in ("svm", "pretrained_embed_svm"):
        if model.kind == "pretrained_embed_svm":
            blocks.append(("embedding.M", model.embedding))
        blocks.append(("svm.w", model.weights))
        blocks.append(("svm.b", np.array([model.bias])))
    else:
        raise DataError(f"cannot save detector of kind {model.kind!r}")
    if model.tfidf is not None:
        header["tfidf_n_documents"] = model.tfidf.n_documents
        df = np.zeros(model.vocab.size)
        for idx, value in model.tfidf.df.items():
            df[idx] = value
        blocks.append(("tfidf.df", df))
    save_checkpoint(path, model.kind, header, blocks)


def load_detector(path) -> DetectorModel:
    header, blocks = load_checkpoint(path)
    kind = header["kind"]
    vocab = Vocabulary(words=list(header["vocab_words"]), kind=header["vocab_kind"])
    hp = DetectorHp.from_dict(header["hp"])
    model = DetectorModel(
        kind=kind,
        vocab=vocab,
        hp=hp,
        threshold=header.get("threshold", 0.5),
        features=header.get("features", "bow"),
        alpha=header.get("alpha", 1.0),
        seed=header.get("seed", 0),
    )
    if kind == "dl":
        model.network = DetectorNetwork(vocab.size, hp.latent, hp.layers, hp.pooling, model.seed)
        load_blocks(model.network.named_params(), blocks, path)
        return model
    # the linear models' blocks at the shapes the vocabulary implies; a
    # pre-trained embedding is as wide as its language model's latent size
    if kind == "mnb":
        expected = {"class_log_prior": (2,), "feature_log_prob": (2, vocab.size)}
    elif kind == "svm":
        expected = {"svm.w": (vocab.size,), "svm.b": (1,)}
    elif kind == "pretrained_embed_svm":
        width = blocks["embedding.M"].shape[-1:]
        expected = {"embedding.M": (vocab.size, *width), "svm.w": width, "svm.b": (1,)}
    else:
        raise CheckpointError(f"unknown detector kind in checkpoint: {kind!r}")
    if "tfidf.df" in blocks:
        expected["tfidf.df"] = (vocab.size,)
    arrays = {name: np.zeros(shape) for name, shape in expected.items()}
    load_blocks({name: (a, None) for name, a in arrays.items()}, blocks, path)
    if kind == "mnb":
        model.class_log_prior = arrays["class_log_prior"]
        model.feature_log_prob = arrays["feature_log_prob"]
    else:
        model.weights = arrays["svm.w"]
        model.bias = float(arrays["svm.b"][0])
        model.embedding = arrays.get("embedding.M")
    if "tfidf.df" in arrays:
        df = {i: int(v) for i, v in enumerate(arrays["tfidf.df"]) if v > 0}
        model.tfidf = TfIdfModel(
            vocab_size=vocab.size, n_documents=int(header["tfidf_n_documents"]), df=df
        )
    return model
