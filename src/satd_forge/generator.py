"""Comment generation: LSTM encoder-decoder with global dot-product
attention, teacher-forcing training, and greedy decoding.

The encoder hands its top layer's final state and cell to the decoder's
bottom layer; upper decoder layers start at zero. Attention scores are
plain dot products, combined through tanh(Wc [context; state]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .checkpoint import check_network, header_object, header_vocabulary, load_blocks, load_checkpoint, save_network
from .errors import DataError, HyperParameters, check_training_hp
from .textpipe import EOS, SOS, TokenStore, Vocabulary, as_column, build_vocabulary, length_sorted_chunks, pad_batch


@dataclass(frozen=True)
class GeneratorHp(HyperParameters):
    described = "the generator"
    SIZES = ("latent", "layers", "batch_size", "code_cap", "comment_cap")

    latent: int = 64
    layers: int = 1
    batch_size: int = 32
    epochs: int = 300
    learning_rate: float = 1e-3
    dropout: float = 0.2
    code_cap: int = 1500
    comment_cap: int = 150  # emitted words; framed sequences may be cap+2

    def check(self) -> None:
        check_training_hp(self)


class Attention:
    """Global dot-product attention (Luong et al., 2015) with a concat
    projection, tanh(Wc [context; state] + bc).

    Attention is defined one sequence at a time, so it runs one row at a
    time: a row's decoder states score, weigh and average only its own
    real encoder states, read as views. The projection and its tanh run
    once over every decoder state of the batch.
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.p = {
            "Wc": tc.glorot_uniform(rng, (2 * dim, dim), 2 * dim, dim),
            "bc": np.zeros(dim),
        }
        self.g = {k: np.zeros_like(v) for k, v in self.p.items()}

    def forward(self, S: np.ndarray, H: np.ndarray, dec_spans, enc_spans):
        """S (N_S, d) decoder states and H (N_H, d) encoder states at real
        cells, each row's cells contiguous and in time order (see
        `Packing.row_major`): row b's are S[lo:hi] for (lo, hi) =
        dec_spans[b], and H[lo:hi] for enc_spans[b].

        Returns (attended (N_S, d) in the order of S, cache); the cache
        holds each row's attention weights (k_b, n_b) under "weights".
        """
        context = np.empty_like(S)
        weights = []
        for (s0, s1), (h0, h1) in zip(dec_spans, enc_spans):
            if h0 == h1:
                raise DataError("attention over an all-masked input sequence")
            Hb = H[h0:h1]
            w = S[s0:s1] @ Hb.T
            # softmax over the row's encoder states
            w -= w.max(axis=1, keepdims=True)
            np.exp(w, out=w)
            w /= w.sum(axis=1, keepdims=True)
            np.matmul(w, Hb, out=context[s0:s1])
            weights.append(w)
        concat = np.concatenate([context, S], axis=1)
        attended = np.tanh(concat @ self.p["Wc"] + self.p["bc"])
        cache = {"S": S, "H": H, "spans": (dec_spans, enc_spans), "weights": weights,
                 "concat": concat, "attended": attended}
        return attended, cache

    def backward(self, dattended: np.ndarray, cache):
        """`dattended` (N_S, d) in the order of S. Returns (dS, dH) in the
        orders of S and H; an encoder state that no row reads gets zero."""
        S, H, weights, attended = cache["S"], cache["H"], cache["weights"], cache["attended"]
        d = self.dim
        dpre = dattended * (1.0 - attended**2)
        self.g["Wc"] += cache["concat"].T @ dpre
        self.g["bc"] += dpre.sum(axis=0)
        dconcat = dpre @ self.p["Wc"].T
        dcontext, dS = dconcat[:, :d], dconcat[:, d:]
        dH = np.zeros_like(H)
        for (s0, s1), (h0, h1), w in zip(*cache["spans"], weights):
            Hb, dc, dHb = H[h0:h1], dcontext[s0:s1], dH[h0:h1]
            # context = w @ Hb
            dw = dc @ Hb.T
            np.matmul(w.T, dc, out=dHb)
            # softmax over the row's encoder states
            dw -= (dw * w).sum(axis=1, keepdims=True)
            dw *= w
            dS[s0:s1] += dw @ Hb
            dHb += dw.T @ S[s0:s1]
        return dS, dH


class Seq2SeqNetwork(tc.Network):
    def __init__(self, code_vocab_size: int, comment_vocab_size: int, latent: int, n_layers: int, seed: int):
        rng = np.random.default_rng(seed)
        sizes = tc.generator_layer_sizes(latent, n_layers)
        self.encoder = tc.LstmStack(code_vocab_size, latent, sizes, rng)
        self.decoder = tc.LstmStack(comment_vocab_size, latent, sizes, rng)
        self.attention = Attention(latent, rng)
        self.out = tc.Dense(latent, comment_vocab_size, rng)

    def named_params(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        enc = self.encoder.named_params("enc_")
        dec = self.decoder.named_params("dec_")
        # checkpoints list both embeddings before both stacks' layers
        return {
            "enc_embedding.M": enc.pop("enc_embedding.M"),
            "dec_embedding.M": dec.pop("dec_embedding.M"),
            **enc,
            **dec,
            **tc.block_params("attention", self.attention),
            **tc.block_params("out", self.out),
        }

    @staticmethod
    def block_shapes(code_vocab_size: int, comment_vocab_size: int, latent: int, n_layers: int):
        """(name, shape) of each block of `named_params`, without building
        the network; the layers are counted lazily, so a header's layer
        count is compared with the blocks before any list that long exists."""
        for prefix, vocab_size in (("enc_", code_vocab_size), ("dec_", comment_vocab_size)):
            yield from tc.stack_shapes(vocab_size, latent, (latent for _ in range(n_layers)), prefix)
        yield "attention.Wc", (2 * latent, latent)
        yield "attention.bc", (latent,)
        yield "out.W", (latent, comment_vocab_size)
        yield "out.b", (comment_vocab_size,)

    def forward_train(
        self, enc_idx, enc_mask, dec_idx, dec_mask, targets, drop_rng=None, drop_rate=0.0
    ):
        """Teacher-forced loss: decoder inputs are the target sequence
        shifted right by one position.

        Everything runs on real cells only. The softmax head runs here, on
        the attended cells in row-major order: it adds its weight and bias
        gradients to `out`, and the caches hold its gradient on the attended
        cells, (N_real, d), for `backward`.
        """
        enc, dec = tc.Packing(enc_mask), tc.Packing(dec_mask)
        Henc, enc_finals, enc_cache = self.encoder.forward(enc_idx, enc, drop_rng, drop_rate)
        states, _, dec_cache = self.decoder.forward(
            dec_idx, dec, drop_rng, drop_rate, initial=enc_finals[-1:]
        )
        attended, att_cache = self.attention.forward(
            states[dec.row_major], Henc[enc.row_major], dec.spans, enc.spans
        )
        loss, dattended = tc.softmax_head(self.out, attended, targets[dec.mask > 0])
        caches = {"encoder": enc_cache, "decoder": dec_cache, "attention": att_cache, "dattended": dattended}
        return loss, caches

    def backward(self, caches):
        """Consumes `caches`: each part is let go once its gradients are done."""
        enc, dec = caches["encoder"]["packing"], caches["decoder"]["packing"]
        dstates, dHenc = self.attention.backward(caches.pop("dattended"), caches.pop("attention"))
        dstates, dHenc = dec.from_row_major(dstates), enc.from_row_major(dHenc)
        handoff = self.decoder.backward(dstates, caches.pop("decoder"))
        # encoder: attention gradient on every state, handoff on the final one
        self.encoder.backward(dHenc, caches.pop("encoder"), dfinal=handoff)

    def loss_and_grads(self, enc_idx, enc_mask, dec_idx, dec_mask, targets, drop_rng, drop_rate: float):
        self.zero_grads()
        loss, caches = self.forward_train(
            enc_idx, enc_mask, dec_idx, dec_mask, targets, drop_rng, drop_rate
        )
        self.backward(caches)
        return loss

    def decode_greedy_many(self, enc_lists, sos: int, eos: int, max_words: int) -> list[list[int]]:
        """Argmax decoding of a batch of inputs (index lists or arrays), one
        decoder step for all rows at a time. Each row emits until `eos` or
        the word cap, and leaves the batch at its `eos`."""
        enc_idx, enc_mask = pad_batch(enc_lists, max(map(len, enc_lists)))
        enc = tc.Packing(enc_mask)
        Henc, enc_finals, _ = self.encoder.forward(enc_idx, enc, cache=False)
        Henc, enc_spans = Henc[enc.row_major], enc.spans
        states = enc_finals[-1:]
        rows = np.arange(len(enc_lists))  # input index of each live row
        words = np.full(len(rows), sos)
        out: list[list[int]] = [[] for _ in enc_lists]
        step = tc.Packing(np.ones((len(rows), 1)))  # one step of the live rows
        for _ in range(max_words):
            X, states, _ = self.decoder.forward(words[:, None], step, initial=states, cache=False)
            attended, _ = self.attention.forward(X, Henc, step.spans, enc_spans)
            logits, _ = self.out.forward(attended[:, None])
            words = np.argmax(logits[:, 0], axis=1)
            live = words != eos
            for row, word in zip(rows[live].tolist(), words[live].tolist()):
                out[row].append(word)
            if not live.all():
                rows, words = rows[live], words[live]
                enc_spans = [span for span, keep in zip(enc_spans, live.tolist()) if keep]
                states = [(h[live], c[live]) for h, c in states]
                if not len(rows):
                    break
                step = tc.Packing(np.ones((len(rows), 1)))
        return out


@dataclass
class GeneratorModel:
    code_vocab: Vocabulary
    comment_vocab: Vocabulary
    hp: GeneratorHp
    network: Seq2SeqNetwork
    final_loss: float | None = None
    seed: int = 0


def train_generator(pairs, hp: GeneratorHp, seed: int) -> GeneratorModel:
    """Train on (sbt_tokens, framed_comment) pairs with RMSprop, over code
    and comment vocabularies built from the pairs. `pairs` is a TokenStore
    whose `code` and `comment` columns hold them, or a list of them.

    Framed comments must carry <sos>/<eos>; the decoder trains on the
    sequence offset by one position.
    """
    hp.check()
    if not isinstance(pairs, TokenStore):
        pairs = TokenStore.from_pairs(pairs)
    if not len(pairs):
        raise DataError("empty training set")
    code, framed = pairs.code, pairs.comment
    _check_pairs(code, framed, hp)
    code_vocab = build_vocabulary(code, "code")
    comment_vocab = build_vocabulary(framed, "comment")
    network = Seq2SeqNetwork(code_vocab.size, comment_vocab.size, hp.latent, hp.layers, seed)
    code_lut, comment_lut = code.lookup(code_vocab), framed.lookup(comment_vocab)

    def make_batch(chunk):
        enc_idx, enc_mask = pad_batch(code.encode_rows(code_lut, chunk), hp.code_cap)
        dec_idx, dec_mask = pad_batch(framed.encode_rows(comment_lut, chunk, tail=1), hp.comment_cap + 2)
        tgt_idx, _ = pad_batch(framed.encode_rows(comment_lut, chunk, head=1), hp.comment_cap + 2)
        return enc_idx, enc_mask, dec_idx, dec_mask, tgt_idx

    final_loss = tc.fit(network, tc.RmsProp(lr=hp.learning_rate), make_batch, len(pairs), hp, seed)
    return GeneratorModel(
        code_vocab=code_vocab,
        comment_vocab=comment_vocab,
        hp=hp,
        network=network,
        final_loss=final_loss,
        seed=seed,
    )


def _check_pairs(code, framed, hp: GeneratorHp) -> None:
    """DataError for the first pair, in order, whose code is empty or
    longer than `code_cap`, or whose framed comment is longer than
    `comment_cap` words or lacks its markers."""
    code_len, framed_len = code.lengths(), framed.lengths()
    sos, eos = (framed.words.index(w) if w in framed.words else -1 for w in (SOS, EOS))
    framed_ok = framed_len >= 2
    firsts, lasts = framed.ids[framed.starts[framed_ok]], framed.ids[framed.ends[framed_ok] - 1]
    framed_ok[framed_ok] = (firsts == sos) & (lasts == eos)
    bad = (code_len > hp.code_cap) | (framed_len > hp.comment_cap + 2) | (code_len == 0) | ~framed_ok
    for j in np.flatnonzero(bad)[:1].tolist():
        if code_len[j] > hp.code_cap:
            raise DataError(f"code sequence of length {code_len[j]} exceeds cap {hp.code_cap}")
        if framed_len[j] > hp.comment_cap + 2:
            raise DataError(f"comment of length {framed_len[j]} exceeds cap {hp.comment_cap}")
        if not code_len[j]:
            raise DataError("empty code sequence in training pair")
        raise DataError("comment is not framed with sentence markers")


def check_generator_input(model: GeneratorModel, length: int) -> None:
    """Raise DataError unless `generate_comments` can decode a sequence of
    `length` tokens."""
    if not length:
        raise DataError("cannot generate a comment for an empty input")
    if length > model.hp.code_cap:
        raise DataError(f"input of length {length} exceeds cap {model.hp.code_cap}")


def generate_comments(model: GeneratorModel, sequences) -> list[list[str]]:
    """Greedy decode code sequences (a TokenColumn's rows, or token lists)
    into comment words (markers excluded), in input order. The inputs are
    sorted by length, longest first, and decoded in chunks of
    `hp.batch_size`."""
    column = as_column(sequences)
    lengths = column.lengths().tolist()
    for length in lengths:
        check_generator_input(model, length)
    lut = column.lookup(model.code_vocab)
    sos = model.comment_vocab.index_of[SOS]
    eos = model.comment_vocab.index_of[EOS]
    comments: list[list[str]] = [[] for _ in lengths]
    for chunk in length_sorted_chunks(lengths, model.hp.batch_size):
        decoded = model.network.decode_greedy_many(column.encode_rows(lut, chunk), sos, eos, model.hp.comment_cap)
        for j, indices in zip(chunk, decoded):
            comments[j] = model.comment_vocab.decode(indices)
    return comments


def save_generator(model: GeneratorModel, path):
    header = {
        "hp": model.hp.to_dict(),
        "code_vocab_words": model.code_vocab.words,
        "comment_vocab_words": model.comment_vocab.words,
        "seed": model.seed,
    }
    save_network(path, "generator", header, model.network)


def load_generator(path) -> GeneratorModel:
    header, blocks = load_checkpoint(path, ("generator",))
    hp = GeneratorHp.from_dict(header_object(header, "hp"))
    code_vocab = header_vocabulary(header, "code_vocab_words", "code")
    comment_vocab = header_vocabulary(header, "comment_vocab_words", "comment")
    shapes = Seq2SeqNetwork.block_shapes(code_vocab.size, comment_vocab.size, hp.latent, hp.layers)
    check_network(path, header, hp, shapes, blocks)
    network = Seq2SeqNetwork(code_vocab.size, comment_vocab.size, hp.latent, hp.layers, header.get("seed", 0))
    load_blocks(network.named_params(), blocks, path)
    return GeneratorModel(
        code_vocab=code_vocab,
        comment_vocab=comment_vocab,
        hp=hp,
        network=network,
        seed=header.get("seed", 0),
    )
