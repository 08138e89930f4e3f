"""A frozen copy of the training input path as it ran before the token
store: read every row into a record, take the task's items as Python
lists of strings, build each vocabulary with a set and a loop, encode
every sequence to a list, pad lists, and count bag-of-words terms from the
strings. The differential tests hold the store path to its vocabularies,
batches, count rows, checkpoints and remainder rows.

Only the networks, the training loop, the optimizers, TF-IDF weighting,
the linear trainers and the checkpoint writers come from the package:
they consume the inputs this module builds."""

import itertools
import warnings

import numpy as np

from satd_forge import tensor_core as tc
from satd_forge.detector import DetectorModel, DetectorNetwork, train_linear_svm, train_mnb
from satd_forge.generator import GeneratorModel, Seq2SeqNetwork
from satd_forge.java_miner import SATD, JsonlRows
from satd_forge.pretrainer import LmModel, LmNetwork
from satd_forge.textpipe import CODE_RESERVED, COMMENT_RESERVED, Vocabulary, frame_comment
from satd_forge.vsm import Csr, fit_tfidf, transform


def read_jsonl(path):
    return [record for record, _ in JsonlRows(path)]


def item_rows(records, task):
    if task == "generate":
        return [i for i, r in enumerate(records) if r.label == SATD and r.comment_words]
    return range(len(records))


def task_data(records, task):
    """(items, labels, stratified), as the CLI took them from the records."""
    if task == "generate":
        pairs = [(records[i].sbt_tokens, frame_comment(records[i].comment_words)) for i in item_rows(records, task)]
        return pairs, [0] * len(pairs), False
    items = [r.sbt_tokens if task == "detect-code" else r.comment_words for r in records]
    return items, [1 if r.label == SATD else 0 for r in records], True


def remainder_lines(path, task, remainder_ids):
    records = read_jsonl(path)
    rows = item_rows(records, task)
    keep = {rows[i] for i in remainder_ids}
    return [line for i, (_, line) in enumerate(JsonlRows(path)) if i in keep]


def build_vocabulary(corpus, kind):
    words = list(CODE_RESERVED if kind == "code" else COMMENT_RESERVED)
    seen = set(words)
    n_tokens = 0
    for seq in corpus:
        for tok in seq:
            n_tokens += 1
            if tok not in seen:
                seen.add(tok)
                words.append(tok)
    if n_tokens == 0:
        warnings.warn(f"building {kind} vocabulary from an empty corpus", stacklevel=2)
    return Vocabulary(words=words, kind=kind)


def pad_batch(index_lists, cap):
    batch = len(index_lists)
    width = max((len(s) for s in index_lists), default=0)
    matrix = np.zeros((batch, width), dtype=np.int64)
    mask = np.zeros((batch, width), dtype=np.float64)
    for r, seq in enumerate(index_lists):
        assert len(seq) <= cap
        matrix[r, : len(seq)] = seq
        mask[r, : len(seq)] = 1.0
    return matrix, mask


def bow_counts(documents, vocab):
    documents = list(documents)
    tokens = itertools.chain.from_iterable(documents)
    cols = np.fromiter(map(vocab.index_of.get, tokens, itertools.repeat(-1)), dtype=np.int64)
    rows = np.repeat(np.arange(len(documents)), [len(doc) for doc in documents])
    known = cols >= 0
    keys, first, counts = np.unique(rows[known] * vocab.size + cols[known], return_index=True, return_counts=True)
    order = np.argsort(first)
    keys, counts = keys[order], counts[order]
    return Csr.from_entries(keys // vocab.size, keys % vocab.size, counts, len(documents), vocab.size)


def fit_detector(setting, items, labels, seed, kind):
    vocab = build_vocabulary(items, kind)
    if setting.model == "dl":
        hp = setting
        kept = [j for j, s in enumerate(items) if s]
        encoded = [vocab.encode(items[j]) for j in kept]
        y_all = np.asarray([int(labels[j]) for j in kept], dtype=np.float64)
        network = DetectorNetwork(vocab.size, hp.latent, hp.layers, hp.pooling, seed)

        def make_batch(chunk):
            matrix, mask = pad_batch([encoded[j] for j in chunk], hp.seq_cap)
            return matrix, mask, y_all[chunk]

        final_loss = tc.fit(network, tc.Adam(lr=hp.learning_rate), make_batch, len(encoded), hp, seed)
        return DetectorModel(kind="dl", vocab=vocab, hp=hp, network=network, final_loss=final_loss, seed=seed)
    labels = [int(v) for v in labels]
    model = DetectorModel(kind=setting.model, vocab=vocab, hp=setting, seed=seed)
    vectors = bow_counts(items, vocab)
    if setting.features == "tfidf":
        model.tfidf = fit_tfidf(vectors)
        vectors = transform(vectors, model.tfidf)
    if setting.model == "mnb":
        model.class_log_prior, model.feature_log_prob = train_mnb(vectors, labels, alpha=setting.alpha,
                                                                  vocab_size=vocab.size)
    else:
        model.weights, model.bias, model.objective_history = train_linear_svm(
            vectors, [1 if y == 1 else -1 for y in labels], lam=setting.lam, epochs=setting.epochs, seed=seed)
    return model


def train_next_token_lm(sequences, hp, seed):
    usable = [s for s in sequences if len(s) >= 2]
    vocab = build_vocabulary(usable, "code")
    encoded = [vocab.encode(s) for s in usable]
    network = LmNetwork(vocab.size, hp.latent, hp.layers, seed)

    def make_batch(chunk):
        idx, mask = pad_batch([encoded[j][:-1] for j in chunk], hp.seq_cap)
        tgt, _ = pad_batch([encoded[j][1:] for j in chunk], hp.seq_cap)
        return idx, mask, tgt

    final_loss = tc.fit(network, tc.Adam(lr=hp.learning_rate), make_batch, len(encoded), hp, seed)
    return LmModel(vocab=vocab, hp=hp, network=network, final_loss=final_loss, seed=seed)


def train_generator(pairs, hp, seed):
    code_vocab = build_vocabulary([c for c, _ in pairs], "code")
    comment_vocab = build_vocabulary([f for _, f in pairs], "comment")
    network = Seq2SeqNetwork(code_vocab.size, comment_vocab.size, hp.latent, hp.layers, seed)
    enc_seqs = [code_vocab.encode(c) for c, _ in pairs]
    framed_seqs = [comment_vocab.encode(f) for _, f in pairs]

    def make_batch(chunk):
        enc_idx, enc_mask = pad_batch([enc_seqs[j] for j in chunk], hp.code_cap)
        dec_idx, dec_mask = pad_batch([framed_seqs[j][:-1] for j in chunk], hp.comment_cap + 2)
        tgt_idx, _ = pad_batch([framed_seqs[j][1:] for j in chunk], hp.comment_cap + 2)
        return enc_idx, enc_mask, dec_idx, dec_mask, tgt_idx

    final_loss = tc.fit(network, tc.RmsProp(lr=hp.learning_rate), make_batch, len(pairs), hp, seed)
    return GeneratorModel(code_vocab=code_vocab, comment_vocab=comment_vocab, hp=hp, network=network,
                          final_loss=final_loss, seed=seed)
