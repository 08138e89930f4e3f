"""Technical-debt detectors over token sequences: the LSTM classifier,
multinomial naive Bayes, a linear hinge-loss SVM, and the
averaged-embedding feature path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

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
    DataError,
    HyperParameters,
    TrainingError,
    check_choice,
    check_count,
    check_number,
    check_positive,
    check_training_hp,
)
from .textpipe import Vocabulary, as_column, build_vocabulary, length_sorted_chunks, pad_batch
from .vsm import Csr, TfIdfModel, as_csr, bow_counts, fit_tfidf, transform


@dataclass(frozen=True)
class DlHp(HyperParameters):
    """The LSTM classifier's setting; `pretrain` reads it too, so one dict
    serves `pretrain` and `train --init`."""

    model = "dl"
    SIZES = ("latent", "layers", "batch_size", "seq_cap")

    latent: int = 32
    layers: int = 1
    batch_size: int = 32
    pooling: str = "mean"  # last | mean | max
    epochs: int = 100
    learning_rate: float = 1e-3
    dropout: float = 0.2
    seq_cap: int = 1500
    threshold: float = 0.5  # a probability at or above it is SATD

    def check(self) -> None:
        check_training_hp(self)
        tc.detector_layer_sizes(self.latent, self.layers)  # 1 to 3 layers, and latent >= 2 with 3
        check_choice("pooling", self.pooling, tc.POOLING_MODES)
        check_number("threshold", self.threshold, lambda v: 0 <= v <= 1, "a number in [0, 1]")


FEATURES = ("bow", "tfidf")


@dataclass(frozen=True)
class MnbHp(HyperParameters):
    """Multinomial naive Bayes: its features and Laplace smoothing. It
    calls a positive log-odds SATD."""

    model = "mnb"

    features: str = "bow"  # bow | tfidf
    alpha: float = 1.0

    def check(self) -> None:
        check_choice("features", self.features, FEATURES)
        check_positive("alpha", self.alpha)


@dataclass(frozen=True)
class SvmHp(HyperParameters):
    """The Pegasos SVM: its features, L2 weight and passes over the rows.
    It calls a positive margin SATD."""

    model = "svm"

    features: str = "bow"  # bow | tfidf; a pretrained_embed_svm's reads embed_average
    lam: float = 1e-2
    epochs: int = 20

    def check(self) -> None:
        check_choice("features", self.features, FEATURES)
        check_positive("lam", self.lam)
        check_count("epochs", self.epochs, 0)


SETTINGS = {hp.model: hp for hp in (DlHp, MnbHp, SvmHp)}


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

    def loss_and_grads(self, idx, mask, labels, drop_rng, drop_rate: float) -> float:
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
    hp: DlHp | MnbHp | SvmHp  # the setting it was trained with, or the one its header records
    network: DetectorNetwork | None = None
    class_log_prior: np.ndarray | None = None
    feature_log_prob: np.ndarray | None = None
    weights: np.ndarray | None = None
    bias: float = 0.0
    embedding: np.ndarray | None = None
    tfidf: TfIdfModel | None = None
    final_loss: float | None = None
    objective_history: list[float] = field(default_factory=list)
    seed: int = 0


def train_dl_detector(
    column,
    labels,
    hp: DlHp,
    seed: int,
    vocab: Vocabulary,
    init_blocks: dict[str, np.ndarray] | None,
) -> DetectorModel:
    """Train the LSTM classifier with Adam on binary log-loss over the
    non-empty rows of a TokenColumn (`fit_detector` drops the empty ones).

    Pre-trained blocks, named as in `LstmStack.named_params`, replace the
    whole stack, or the embedding alone when `init_blocks` holds only
    `embedding.M`, before training.
    """
    labels = [int(v) for v in labels]
    if len(column) != len(labels):
        raise DataError("sequences and labels differ in length")
    if not len(column):
        raise DataError("empty training set")
    if len(set(labels)) < 2:
        raise TrainingError("training data contains a single class")
    network = DetectorNetwork(vocab.size, hp.latent, hp.layers, hp.pooling, seed)
    if init_blocks is not None:
        wanted = network.stack.named_params()
        if list(init_blocks) == ["embedding.M"]:
            wanted = {"embedding.M": wanted["embedding.M"]}
        load_blocks(wanted, init_blocks, "pre-trained language model")
    column.check_cap(hp.seq_cap)
    lut = column.lookup(vocab)
    y_all = np.asarray(labels, dtype=np.float64)

    def make_batch(chunk):
        matrix, mask = pad_batch(column.encode_rows(lut, chunk), hp.seq_cap)
        return matrix, mask, y_all[chunk]

    final_loss = tc.fit(network, tc.Adam(lr=hp.learning_rate), make_batch, len(column), hp, seed)
    return DetectorModel(kind="dl", vocab=vocab, hp=hp, network=network, final_loss=final_loss, seed=seed)


def _featurize(model: DetectorModel, column):
    """The linear model's features of a TokenColumn's rows: a Csr of counts
    or TF-IDF weights, or the dense averaged embeddings of
    `pretrained_embed_svm`."""
    if model.kind == "pretrained_embed_svm":
        rows = column.encode_rows(column.lookup(model.vocab), slice(None))
        averages = [embed_average(row, model.embedding) for row in rows]
        return np.array(averages).reshape(-1, model.embedding.shape[1])
    counts = bow_counts(column, model.vocab)
    return counts if model.tfidf is None else transform(counts, model.tfidf)


def check_detector_input(model: DetectorModel, length: int) -> None:
    """Raise DataError unless `predict_many` can score a sequence of
    `length` tokens."""
    if not length:
        raise DataError("cannot classify an empty sequence")
    if model.kind == "dl" and length > model.hp.seq_cap:
        raise DataError(f"sequence of length {length} exceeds cap {model.hp.seq_cap}")


def predict_many(model: DetectorModel, sequences) -> list[tuple[float, bool]]:
    """Probability and label for each token sequence (a TokenColumn's
    rows, or token lists), in input order.

    The DL detector sorts the sequences by length, longest first, pads
    them in chunks of `hp.batch_size` and runs one forward pass per chunk;
    it calls ties at the threshold positive. The linear models featurize
    all sequences at once and score them with one product; naive Bayes
    calls a tie negative and the SVM a zero margin.
    """
    column = as_column(sequences)
    lengths = column.lengths().tolist()
    for length in lengths:
        check_detector_input(model, length)
    if model.kind in ("mnb", "svm", "pretrained_embed_svm"):
        return _predict_linear(model, column)
    if model.kind != "dl":
        raise DataError(f"unknown detector kind: {model.kind!r}")
    cap = model.hp.seq_cap
    lut = column.lookup(model.vocab)
    probs = np.empty(len(column))
    for chunk in length_sorted_chunks(lengths, model.hp.batch_size):
        matrix, mask = pad_batch(column.encode_rows(lut, chunk), cap)
        # the forward cache goes at once, so no two chunks' caches are alive together
        probs[chunk] = model.network.forward(matrix, mask)[0]
    return [(float(p), bool(p >= model.hp.threshold)) for p in probs]


def _predict_linear(model: DetectorModel, column) -> list[tuple[float, bool]]:
    features = _featurize(model, column)
    if model.kind == "mnb":
        scores = np.stack([features.dot(log_prob) for log_prob in model.feature_log_prob], axis=1)
        scores += model.class_log_prior
        shifted = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs, positive = shifted[:, 1] / shifted.sum(axis=1), scores[:, 1] > scores[:, 0]
    else:
        margins = features.dot(model.weights) + model.bias
        probs, positive = tc.sigmoid(margins), margins > 0
    return [(float(p), bool(y)) for p, y in zip(probs, positive)]


def train_mnb(vectors, labels, alpha: float, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Laplace-smoothed multinomial naive Bayes over count rows: a Csr, or
    {term_index: count} maps. `MnbHp.check` checks `alpha`.

    Returns (class_log_prior, feature_log_prob) for classes (0, 1).
    """
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
    lam: float,
    epochs: int,
    seed: int,
    dim: int = 0,
) -> tuple[np.ndarray, float, list[float]]:
    """Pegasos: stochastic sub-gradient descent on the L2-regularized
    hinge loss over a Csr, or `dim`-wide {index: value} maps, with one
    seeded permutation of the rows per epoch.

    Labels are -1/+1; the unregularized bias moves only on margin
    violations. The weights are kept as w = s * v, so the decay at each
    step scales s alone. `SvmHp.check` checks `lam` and `epochs`.
    Returns (weights, bias, per-epoch objective values).
    """
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


def embed_average(indices, embedding: np.ndarray) -> np.ndarray:
    """Mean embedding of the in-vocabulary tokens of one encoded sequence:
    its indices other than 0."""
    indices = np.asarray(indices)
    indices = indices[indices != 0]
    if not len(indices):
        warnings.warn("sequence has no in-vocabulary tokens; using a zero vector", stacklevel=2)
        return np.zeros(embedding.shape[1])
    return embedding[indices].mean(axis=0)


def check_detector_setting(hp_dict: dict) -> DlHp | MnbHp | SvmHp:
    """A detector `--hp` dict as the setting type its `model` names (dl when
    it names none); DataError for a key outside that kind, or for any value
    training would reject."""
    model = hp_dict.get("model", "dl")
    if not isinstance(model, str) or model not in SETTINGS:
        raise DataError(f"unknown model type: {model!r}")
    return SETTINGS[model].parse(hp_dict)


def fit_detector(setting: DlHp | MnbHp | SvmHp, items, labels, seed: int, vocab_kind: str,
                 vocab: Vocabulary | None = None, init_blocks: dict[str, np.ndarray] | None = None) -> DetectorModel:
    """Train the detector a checked setting's type names: the LSTM
    classifier (DlHp), naive Bayes (MnbHp) or the SVM (SvmHp), on the items
    (a TokenColumn, or token lists), over `vocab`, or over a `vocab_kind`
    vocabulary built from the items.

    Pre-trained `LstmStack` blocks (`pretrainer.detector_start`) start the
    dl detector from a language model's whole stack, or from its embedding
    alone when `init_blocks` holds only `embedding.M`; from the embedding
    alone they turn the svm into `pretrained_embed_svm` over averaged
    embeddings. Empty sequences are dropped for dl only.
    """
    column = as_column(items)
    if vocab is None:
        vocab = build_vocabulary(column, vocab_kind)
    if isinstance(setting, DlHp):
        kept = np.flatnonzero(column.lengths())
        kept_labels = [labels[j] for j in kept]
        return train_dl_detector(column.select(kept), kept_labels, setting, seed, vocab, init_blocks)
    kind = setting.model
    if init_blocks is not None:
        mode = "embedding_only" if list(init_blocks) == ["embedding.M"] else "end2end"
        if kind != "svm" or mode != "embedding_only":
            raise DataError(
                f"a pre-trained language model cannot initialize model {kind!r} in mode {mode!r}: "
                "it serves dl in either mode and svm in embedding_only"
            )
        if setting.features == "tfidf":
            raise DataError("hyper-parameter features 'tfidf' does not apply to an svm that starts from "
                            "a language model's embedding: its features are the averaged embeddings")
        kind = "pretrained_embed_svm"
    labels = [int(v) for v in labels]
    model = DetectorModel(kind=kind, vocab=vocab, hp=setting, seed=seed)
    if kind == "pretrained_embed_svm":
        model.hp, model.embedding = replace(setting, features="embed_average"), init_blocks["embedding.M"]
        vectors = Csr.from_dense(_featurize(model, column))
    else:
        vectors = bow_counts(column, vocab)
        if setting.features == "tfidf":
            model.tfidf = fit_tfidf(vectors)
            vectors = transform(vectors, model.tfidf)
    if kind == "mnb":
        model.class_log_prior, model.feature_log_prob = train_mnb(
            vectors, labels, alpha=setting.alpha, vocab_size=vocab.size
        )
    else:
        svm_labels = [1 if y == 1 else -1 for y in labels]
        model.weights, model.bias, model.objective_history = train_linear_svm(
            vectors, svm_labels, lam=setting.lam, epochs=setting.epochs, seed=seed
        )
    return model


# the blocks of each linear kind's checkpoint in file order: (block, DetectorModel
# field, shape), where "V" stands for the vocabulary's size and "W" for the width
# of a pre-trained embedding; a tfidf model adds its document frequencies, "tfidf.df"
LINEAR_BLOCKS = {
    "mnb": [("class_log_prior", "class_log_prior", (2,)), ("feature_log_prob", "feature_log_prob", (2, "V"))],
    "svm": [("svm.w", "weights", ("V",)), ("svm.b", "bias", (1,))],
    "pretrained_embed_svm": [
        ("embedding.M", "embedding", ("V", "W")), ("svm.w", "weights", ("W",)), ("svm.b", "bias", (1,))
    ],
}


def save_detector(model: DetectorModel, path):
    # a format 1 header records every detector field for every kind: the dl fields as
    # `hp`, a linear model's with the dl defaults, and `threshold`, `features` and `alpha`
    setting = model.hp.to_dict()
    hp = {key: setting.get(key, default) for key, default in DlHp().to_dict().items()}
    header = {
        "hp": hp,
        "vocab_words": model.vocab.words,
        "vocab_kind": model.vocab.kind,
        "threshold": hp["threshold"],
        "features": setting.get("features", MnbHp.features),
        "alpha": setting.get("alpha", MnbHp.alpha),
        "seed": model.seed,
    }
    if model.kind == "dl":
        save_network(path, "dl", header, model.network)
        return
    if model.kind not in LINEAR_BLOCKS:
        raise DataError(f"cannot save detector of kind {model.kind!r}")
    blocks = [(name, np.atleast_1d(getattr(model, field))) for name, field, _ in LINEAR_BLOCKS[model.kind]]
    if model.tfidf is not None:
        header["tfidf_n_documents"] = model.tfidf.n_documents
        blocks.append(("tfidf.df", model.tfidf.df))
    save_checkpoint(path, model.kind, header, blocks)


# the setting type each kind's header records
HEADER_SETTINGS = {**SETTINGS, "pretrained_embed_svm": SvmHp}


def load_detector(path) -> DetectorModel:
    header, blocks = load_checkpoint(path, tuple(HEADER_SETTINGS))
    kind = header["kind"]
    vocab = header_vocabulary(header, "vocab_words")
    # the setting's fields wherever `save_detector` put them; a field the header lacks
    # keeps its default, and only what inference reads is checked
    hp = HEADER_SETTINGS[kind].from_dict({**header_object(header, "hp"), **header})
    model = DetectorModel(kind=kind, vocab=vocab, hp=hp, seed=header.get("seed", 0))
    if kind == "dl":
        with header_checks(path):
            check_number("threshold", hp.threshold, lambda v: 0 <= v <= 1, "a number in [0, 1]", "header field")
            check_choice("pooling", hp.pooling, tc.POOLING_MODES, "header hyper-parameter")
        check_network(path, header, hp, DetectorNetwork.block_shapes(vocab.size, hp.latent, hp.layers), blocks)
        model.network = DetectorNetwork(vocab.size, hp.latent, hp.layers, hp.pooling, model.seed)
        load_blocks(model.network.named_params(), blocks, path)
        return model
    # the blocks at the shapes the vocabulary implies; a pre-trained
    # embedding is as wide as its language model's latent size
    dims = {"V": vocab.size}
    if kind == "pretrained_embed_svm":
        dims["W"] = np.atleast_1d(blocks["embedding.M"]).shape[-1]
    layout = [(name, field, tuple(dims.get(d, d) for d in shape)) for name, field, shape in LINEAR_BLOCKS[kind]]
    if hp.features == "tfidf":
        layout.append(("tfidf.df", None, (vocab.size,)))
    arrays = {name: np.zeros(shape) for name, _, shape in layout}
    load_blocks({name: (a, None) for name, a in arrays.items()}, blocks, path)
    for name, field, _ in layout:
        if field is not None:
            setattr(model, field, float(arrays[name][0]) if field == "bias" else arrays[name])
    if hp.features == "tfidf":
        with header_checks(path):
            check_count("tfidf_n_documents", header["tfidf_n_documents"], 1, "header field")
        model.tfidf = TfIdfModel(n_documents=header["tfidf_n_documents"], df=arrays["tfidf.df"])
    return model
