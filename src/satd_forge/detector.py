"""Technical-debt detectors over token sequences: the LSTM classifier,
multinomial naive Bayes, a linear hinge-loss SVM, and the
averaged-embedding feature path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc
from .checkpoint import (
    check_network,
    header_checks,
    header_object,
    header_vocabulary,
    load_blocks,
    load_checkpoint,
    save_checkpoint,
    save_network,
)
from .errors import (
    CheckpointError,
    DataError,
    HyperParameters,
    TrainingError,
    check_choice,
    check_count,
    check_number,
    check_positive,
    check_training_hp,
)
from .textpipe import Vocabulary, build_vocabulary, length_sorted_chunks, pad_batch
from .vsm import Csr, TfIdfModel, as_csr, bow_counts, fit_tfidf, transform


@dataclass
class DetectorHp(HyperParameters):
    latent: int = 32
    layers: int = 1
    batch_size: int = 32
    pooling: str = "mean"  # last | mean | max
    epochs: int = 100
    learning_rate: float = 1e-3
    dropout: float = 0.2
    seq_cap: int = 1500
    threshold: float = 0.5


class DetectorNetwork(tc.Network):
    """Embedding -> stacked LSTM -> pooling -> dense + sigmoid."""

    def __init__(self, vocab_size: int, latent: int, n_layers: int, pooling: str, seed: int):
        rng = np.random.default_rng(seed)
        self.pooling = pooling
        self.stack = tc.LstmStack(vocab_size, latent, tc.detector_layer_sizes(latent, n_layers), rng)
        self.dense = tc.Dense(self.stack.layers[-1].state_size, 1, rng)

    def named_params(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return {**self.stack.named_params(), **tc.block_params("dense", self.dense)}

    @staticmethod
    def block_shapes(vocab_size: int, latent: int, n_layers: int):
        """(name, shape) of each block of `named_params`, without building the network."""
        sizes = tc.detector_layer_sizes(latent, n_layers)
        yield from tc.stack_shapes(vocab_size, latent, sizes)
        yield "dense.W", (sizes[-1], 1)
        yield "dense.b", (1,)

    def forward(self, idx: np.ndarray, mask: np.ndarray, drop_rng=None, drop_rate: float = 0.0):
        packing = tc.Packing(mask)
        states, _, stack_cache = self.stack.forward(idx, packing, drop_rng, drop_rate)
        pooled, pool_cache = tc.pool_forward(states, packing, self.pooling)
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


def _featurize(model: DetectorModel, sequences):
    """The linear model's features: a Csr of counts or TF-IDF weights, or
    the dense averaged embeddings of `pretrained_embed_svm`."""
    if model.kind == "pretrained_embed_svm":
        averages = [embed_average(s, model.vocab, model.embedding) for s in sequences]
        return np.array(averages).reshape(-1, model.embedding.shape[1])
    counts = bow_counts(sequences, model.vocab)
    return transform(counts, model.tfidf) if model.features == "tfidf" else counts


def check_detector_input(model: DetectorModel, seq) -> None:
    """Raise DataError unless `predict_many` can score `seq`."""
    if not seq:
        raise DataError("cannot classify an empty sequence")
    if model.kind == "dl" and len(seq) > model.hp.seq_cap:
        raise DataError(f"sequence of length {len(seq)} exceeds cap {model.hp.seq_cap}")


def predict_many(model: DetectorModel, sequences) -> list[tuple[float, bool]]:
    """Probability and label for each token sequence, in input order.

    The DL detector sorts the sequences by length, longest first, pads
    them in chunks of `hp.batch_size` and runs one forward pass per chunk;
    it calls ties at the threshold positive. The linear models featurize
    all sequences at once and score them with one product; naive Bayes
    calls a tie negative and the SVM a zero margin.
    """
    sequences = list(sequences)
    for seq in sequences:
        check_detector_input(model, seq)
    if model.kind in ("mnb", "svm", "pretrained_embed_svm"):
        return _predict_linear(model, sequences)
    if model.kind != "dl":
        raise DataError(f"unknown detector kind: {model.kind!r}")
    cap = model.hp.seq_cap
    encoded = [model.vocab.encode(s) for s in sequences]
    probs = np.empty(len(encoded))
    for chunk in length_sorted_chunks(encoded, model.hp.batch_size):
        matrix, mask = pad_batch([encoded[j] for j in chunk], cap)
        # the forward cache goes at once, so no two chunks' caches are alive together
        probs[chunk] = model.network.forward(matrix, mask)[0]
    return [(float(p), bool(p >= model.threshold)) for p in probs]


def _predict_linear(model: DetectorModel, sequences) -> list[tuple[float, bool]]:
    features = _featurize(model, sequences)
    if model.kind == "mnb":
        scores = np.stack([features.dot(log_prob) for log_prob in model.feature_log_prob], axis=1)
        scores += model.class_log_prior
        shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs, positive = shifted[:, 1] / shifted.sum(axis=1), scores[:, 1] > scores[:, 0]
    else:
        margins = features.dot(model.weights) + model.bias
        probs, positive = tc.sigmoid(margins), margins > 0
    return [(float(p), bool(y)) for p, y in zip(probs, positive)]


def train_mnb(vectors, labels, alpha: float = 1.0, vocab_size: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Laplace-smoothed multinomial naive Bayes over count rows: a Csr, or
    {term_index: count} maps.

    Returns (class_log_prior, feature_log_prob) for classes (0, 1).
    """
    check_positive("alpha", alpha)
    vectors = as_csr(vectors, vocab_size)
    labels = np.asarray([int(v) for v in labels], dtype=np.int64)
    if not len(vectors) or len(vectors) != len(labels):
        raise DataError("empty or mismatched training vectors")
    n_class = np.bincount(labels, minlength=2).astype(np.float64)
    if (n_class == 0).any():
        raise DataError("both classes must be present to fit naive Bayes")
    cells = labels[vectors.row_ids()] * vocab_size + vectors.indices  # (class, term) of each entry
    counts = np.bincount(cells, weights=vectors.data, minlength=2 * vocab_size).reshape(2, vocab_size)
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
    """Pegasos: stochastic sub-gradient descent on the L2-regularized
    hinge loss over a Csr, or `dim`-wide {index: value} maps, with one
    seeded permutation of the rows per epoch.

    Labels are -1/+1; the unregularized bias moves only on margin
    violations. The weights are kept as w = s * v, so the decay at each
    step scales s alone. Returns (weights, bias, per-epoch objective values).
    """
    check_positive("lam", lam)
    labels = [int(v) for v in labels]
    if any(y not in (-1, 1) for y in labels):
        raise DataError("SVM labels must be -1 or +1")
    vectors = as_csr(vectors, dim)
    if not labels or len(vectors) != len(labels):
        raise DataError("empty or mismatched training vectors")
    bounds = zip(vectors.indptr[:-1], vectors.indptr[1:])
    rows = [(vectors.indices[lo:hi], vectors.data[lo:hi]) for lo, hi in bounds]
    y_all = np.asarray(labels, dtype=np.float64)
    v = np.zeros(vectors.n_cols)
    s = 1.0
    b = 0.0
    rng = np.random.default_rng(seed)
    t = 0
    history: list[float] = []
    for _ in range(epochs):
        for j in rng.permutation(len(rows)).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            (idx, x), y = rows[j], labels[j]
            margin = y * (s * v[idx].dot(x) + b)
            s *= 1.0 - eta * lam
            if s < 1e-9:  # fold s into v before dividing by it; the first step sets it to 0
                v *= s
                s = 1.0
            if margin < 1.0:
                v[idx] += np.multiply(x, eta * y / s)
                b += eta * y
        w = s * v
        hinge = np.maximum(0.0, 1.0 - y_all * (vectors.dot(w) + b)).sum()
        history.append(0.5 * lam * float(w @ w) + float(hinge) / len(labels))
    return s * v, b, history


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
        model.embedding, model.features = embedding, "embed_average"
        vectors = Csr.from_dense(_featurize(model, sequences))
    else:
        vectors = bow_counts(sequences, vocab)
        if features == "tfidf":
            model.tfidf = fit_tfidf(vectors)
            vectors = transform(vectors, model.tfidf)
    if kind == "mnb":
        model.class_log_prior, model.feature_log_prob = train_mnb(
            vectors, labels, alpha=alpha, vocab_size=vocab.size
        )
    elif kind in ("svm", "pretrained_embed_svm"):
        svm_labels = [1 if y == 1 else -1 for y in labels]
        model.weights, model.bias, model.objective_history = train_linear_svm(
            vectors, svm_labels, lam=lam, epochs=epochs, seed=seed
        )
    else:
        raise DataError(f"unknown traditional detector kind: {kind!r}")
    return model


def check_detector_setting(hp_dict: dict) -> tuple[str, DetectorHp]:
    """The model type (dl, the default, mnb or svm) and parsed
    hyper-parameters of a detector setting; DataError for an unknown model
    type or a value that training rejects."""
    model_type = hp_dict.get("model", "dl")
    hp = DetectorHp.from_dict(hp_dict)
    check_training_hp(hp)
    if model_type == "dl":
        check_choice("pooling", hp.pooling, tc.POOLING_MODES)
    elif model_type not in ("mnb", "svm"):
        raise DataError(f"unknown model type: {model_type!r}")
    return model_type, hp


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
    model_type, hp = check_detector_setting(hp_dict)
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
    # how the sequences become features: a language model brings its vocabulary and embedding
    feature_args = {"features": hp_dict.get("features", "bow"), "alpha": hp_dict.get("alpha", 1.0)}
    if lm is not None:
        if model_type != "svm" or mode != "embedding_only":
            raise DataError(
                f"a pre-trained language model cannot initialize model {model_type!r} in mode {mode!r}: "
                "it serves dl in either mode and svm in embedding_only"
            )
        model_type = "pretrained_embed_svm"
        feature_args = {"vocab": lm.vocab, "embedding": lm.network.stack.embedding.p["M"]}
    return fit_traditional(
        items, labels, kind=model_type, hp=hp, lam=hp_dict.get("lam", 1e-2), epochs=hp_dict.get("epochs", 20),
        seed=seed, vocab_kind=vocab_kind, **feature_args
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
        blocks.append(("tfidf.df", model.tfidf.df))
    save_checkpoint(path, model.kind, header, blocks)


def load_detector(path) -> DetectorModel:
    header, blocks = load_checkpoint(path)
    kind = header["kind"]
    vocab = header_vocabulary(header, "vocab_words")
    hp = DetectorHp.from_dict(header_object(header, "hp"))
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
        with header_checks(path):
            check_number("threshold", model.threshold, lambda v: 0 <= v <= 1, "a number in [0, 1]", "header field")
            check_choice("pooling", hp.pooling, tc.POOLING_MODES, "header hyper-parameter")
        check_network(path, header, hp, DetectorNetwork.block_shapes(vocab.size, hp.latent, hp.layers), blocks)
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
    if model.features == "tfidf":
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
    if model.features == "tfidf":
        with header_checks(path):
            check_count("tfidf_n_documents", header["tfidf_n_documents"], 1, "header field")
        model.tfidf = TfIdfModel(n_documents=header["tfidf_n_documents"], df=arrays["tfidf.df"])
    return model
