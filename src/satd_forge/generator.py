"""Comment generation: LSTM encoder-decoder with global dot-product
attention, teacher-forcing training, and greedy decoding.

The encoder hands its top layer's final state and cell to the decoder's
bottom layer; upper decoder layers start at zero. Attention scores are
plain dot products, combined through tanh(Wc [context; state]).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from . import tensor_core as tc
from .checkpoint import load_blocks, load_checkpoint, save_network
from .errors import DataError, check_training_hp
from .textpipe import EOS, SOS, Vocabulary, build_vocabulary, length_sorted_chunks, pad_batch


@dataclass
class GeneratorHp:
    latent: int = 64
    layers: int = 1
    batch_size: int = 32
    epochs: int = 300
    learning_rate: float = 1e-3
    dropout: float = 0.2
    code_cap: int = 1500
    comment_cap: int = 150  # emitted words; framed sequences may be cap+2

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "GeneratorHp":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in obj.items() if k in known})


class Attention:
    """Dot-score attention over encoder states with a concat projection."""

    def __init__(self, dim: int, rng: np.random.Generator):
        self.dim = dim
        self.p = {
            "Wc": tc.glorot_uniform(rng, (2 * dim, dim), 2 * dim, dim),
            "bc": np.zeros(dim),
        }
        self.g = {k: np.zeros_like(v) for k, v in self.p.items()}

    def forward(self, S: np.ndarray, H: np.ndarray, enc_mask: np.ndarray):
        """S (B,K,d) decoder states, H (B,N,d) encoder states.

        Returns (attended (B,K,d), weights (B,K,N), cache).
        """
        if (enc_mask.sum(axis=1) == 0).any():
            raise DataError("attention over an all-masked input sequence")
        scores = S @ H.transpose(0, 2, 1)
        scores = np.where(enc_mask[:, None, :] > 0, scores, -1e30)
        weights = tc.softmax(scores, axis=-1)
        context = weights @ H
        concat = np.concatenate([context, S], axis=-1)
        pre = concat @ self.p["Wc"] + self.p["bc"]
        attended = np.tanh(pre)
        cache = (S, H, weights, concat, attended)
        return attended, weights, cache

    def backward(self, dattended: np.ndarray, cache):
        S, H, weights, concat, attended = cache
        d = self.dim
        dpre = dattended * (1.0 - attended**2)
        flat_c = concat.reshape(-1, 2 * d)
        flat_d = dpre.reshape(-1, d)
        self.g["Wc"] += flat_c.T @ flat_d
        self.g["bc"] += flat_d.sum(axis=0)
        dconcat = dpre @ self.p["Wc"].T
        dcontext = dconcat[..., :d]
        dS = dconcat[..., d:]
        # context = weights @ H
        dweights = dcontext @ H.transpose(0, 2, 1)
        dH = weights.transpose(0, 2, 1) @ dcontext
        # softmax over the encoder axis; masked positions carry zero weight
        dscores = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
        dS += dscores @ H
        dH += dscores.transpose(0, 2, 1) @ S
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

    def forward_train(
        self, enc_idx, enc_mask, dec_idx, dec_mask, targets, drop_rng=None, drop_rate=0.0
    ):
        """Teacher-forced loss: decoder inputs are the target sequence
        shifted right by one position.

        The stacks run on real cells only; attention and the output layer
        run on the padded (B, K, d) layout, and the loss on real positions.
        """
        enc, dec = tc.Packing(enc_mask), tc.Packing(dec_mask)
        Henc, enc_finals, enc_cache = self.encoder.forward(enc_idx, enc, drop_rng, drop_rate)
        states, _, dec_cache = self.decoder.forward(
            dec_idx, dec, drop_rng, drop_rate, initial=enc_finals[-1:]
        )
        attended, _, att_cache = self.attention.forward(dec.unpack(states), enc.unpack(Henc), enc_mask)
        logits, dense_cache = self.out.forward(attended)
        loss, dlogits, _ = tc.masked_cross_entropy(dec.pack(logits), targets, dec)
        caches = {
            "encoder": enc_cache,
            "decoder": dec_cache,
            "attention": att_cache,
            "out": dense_cache,
            "dlogits": dec.unpack(dlogits),
        }
        return loss, caches

    def backward(self, caches):
        enc, dec = caches["encoder"]["packing"], caches["decoder"]["packing"]
        dattended = self.out.backward(caches["dlogits"], caches["out"])
        dstates, dHenc = self.attention.backward(dattended, caches["attention"])
        handoff = self.decoder.backward(dec.pack(dstates), caches["decoder"])
        # encoder: attention gradient on every state, handoff on the final one
        self.encoder.backward(enc.pack(dHenc), caches["encoder"], dfinal=handoff)

    def loss_and_grads(self, enc_idx, enc_mask, dec_idx, dec_mask, targets, drop_rng=None, drop_rate=0.0):
        self.zero_grads()
        loss, caches = self.forward_train(
            enc_idx, enc_mask, dec_idx, dec_mask, targets, drop_rng, drop_rate
        )
        self.backward(caches)
        return loss

    def decode_greedy_many(
        self, enc_lists: list[list[int]], sos: int, eos: int, max_words: int
    ) -> list[list[int]]:
        """Argmax decoding of a batch of inputs, one decoder step for all
        rows at a time. Each row emits until `eos` or the word cap, and
        leaves the batch at its `eos`."""
        enc_idx, enc_mask = pad_batch(enc_lists, max(map(len, enc_lists)))
        enc = tc.Packing(enc_mask)
        Henc, enc_finals, _ = self.encoder.forward(enc_idx, enc)
        Henc = enc.unpack(Henc)
        states = enc_finals[-1:]
        rows = np.arange(len(enc_lists))  # input index of each live row
        words = np.full(len(rows), sos)
        out: list[list[int]] = [[] for _ in enc_lists]
        for _ in range(max_words):
            step = tc.Packing(np.ones((len(rows), 1)))
            X, states, _ = self.decoder.forward(words[:, None], step, initial=states)
            attended, _, _ = self.attention.forward(step.unpack(X), Henc, enc_mask)
            logits, _ = self.out.forward(attended)
            words = np.argmax(logits[:, 0], axis=1)
            live = words != eos
            for row, word in zip(rows[live].tolist(), words[live].tolist()):
                out[row].append(word)
            if not live.all():
                rows, words, Henc, enc_mask = rows[live], words[live], Henc[live], enc_mask[live]
                states = [(h[live], c[live]) for h, c in states]
                if not len(rows):
                    break
        return out


@dataclass
class GeneratorModel:
    code_vocab: Vocabulary
    comment_vocab: Vocabulary
    hp: GeneratorHp
    network: Seq2SeqNetwork
    final_loss: float | None = None
    seed: int = 0


def train_generator(
    pairs,
    hp: GeneratorHp,
    seed: int,
    code_vocab: Vocabulary | None = None,
    comment_vocab: Vocabulary | None = None,
) -> GeneratorModel:
    """Train on (sbt_tokens, framed_comment) pairs with RMSprop.

    Framed comments must carry <sos>/<eos>; the decoder trains on the
    sequence offset by one position.
    """
    check_training_hp(hp)
    pairs = list(pairs)
    if not pairs:
        raise DataError("empty training set")
    for code, framed in pairs:
        if len(code) > hp.code_cap:
            raise DataError(f"code sequence of length {len(code)} exceeds cap {hp.code_cap}")
        if len(framed) > hp.comment_cap + 2:
            raise DataError(f"comment of length {len(framed)} exceeds cap {hp.comment_cap}")
        if not code:
            raise DataError("empty code sequence in training pair")
        if len(framed) < 2 or framed[0] != SOS or framed[-1] != EOS:
            raise DataError("comment is not framed with sentence markers")
    if code_vocab is None:
        code_vocab = build_vocabulary([c for c, _ in pairs], "code")
    if comment_vocab is None:
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
    return GeneratorModel(
        code_vocab=code_vocab,
        comment_vocab=comment_vocab,
        hp=hp,
        network=network,
        final_loss=final_loss,
        seed=seed,
    )


def generate_comments(model: GeneratorModel, sequences) -> list[list[str]]:
    """Greedy decode code sequences into comment words (markers
    excluded), in input order. The inputs are sorted by length, longest
    first, and decoded in chunks of `hp.batch_size`."""
    sequences = list(sequences)
    for seq in sequences:
        if not seq:
            raise DataError("cannot generate a comment for an empty input")
        if len(seq) > model.hp.code_cap:
            raise DataError(f"input of length {len(seq)} exceeds cap {model.hp.code_cap}")
    encoded = [model.code_vocab.encode(s) for s in sequences]
    sos = model.comment_vocab.index_of[SOS]
    eos = model.comment_vocab.index_of[EOS]
    comments: list[list[str]] = [[] for _ in encoded]
    for chunk in length_sorted_chunks(encoded, model.hp.batch_size):
        decoded = model.network.decode_greedy_many(
            [encoded[j] for j in chunk], sos, eos, model.hp.comment_cap
        )
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
    header, blocks = load_checkpoint(path)
    hp = GeneratorHp.from_dict(header["hp"])
    code_vocab = Vocabulary(words=list(header["code_vocab_words"]), kind="code")
    comment_vocab = Vocabulary(words=list(header["comment_vocab_words"]), kind="comment")
    network = Seq2SeqNetwork(code_vocab.size, comment_vocab.size, hp.latent, hp.layers, header.get("seed", 0))
    load_blocks(network.named_params(), blocks, path)
    return GeneratorModel(
        code_vocab=code_vocab,
        comment_vocab=comment_vocab,
        hp=hp,
        network=network,
        seed=header.get("seed", 0),
    )
