"""Next-token language-model pre-training over code sequences. Its LSTM
stack later initializes a detector (`detector.fit_detector`)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .checkpoint import check_network, header_object, header_vocabulary, load_blocks, load_checkpoint, save_network
from .detector import DlHp
from .errors import DataError
from .textpipe import Vocabulary, as_column, build_vocabulary, pad_batch


class LmNetwork(tc.Network):
    """Embedding -> stacked LSTM (classifier layer plan) -> dense softmax."""

    def __init__(self, vocab_size: int, latent: int, n_layers: int, seed: int):
        rng = np.random.default_rng(seed)
        self.stack = tc.LstmStack(vocab_size, latent, tc.detector_layer_sizes(latent, n_layers), rng)
        self.out = tc.Dense(self.stack.layers[-1].state_size, vocab_size, rng)

    def named_params(self):
        return {**self.stack.named_params(), **tc.block_params("out", self.out)}

    @staticmethod
    def block_shapes(vocab_size: int, latent: int, n_layers: int):
        """(name, shape) of each block of `named_params`, without building the network."""
        sizes = tc.detector_layer_sizes(latent, n_layers)
        yield from tc.stack_shapes(vocab_size, latent, sizes)
        yield "out.W", (sizes[-1], vocab_size)
        yield "out.b", (vocab_size,)

    def loss_and_grads(self, idx, mask, targets, drop_rng, drop_rate: float):
        self.zero_grads()
        packing = tc.Packing(mask)
        states, _, stack_cache = self.stack.forward(idx, packing, drop_rng, drop_rate)
        loss, dstates = tc.softmax_head(self.out, states, packing.pack(targets))
        self.stack.backward(dstates, stack_cache)
        return loss


@dataclass
class LmModel:
    vocab: Vocabulary
    hp: DlHp
    network: LmNetwork
    final_loss: float | None = None
    seed: int = 0


def train_next_token_lm(sequences, hp: DlHp, seed: int) -> LmModel:
    """Teacher-forced next-token prediction over the full sequence, Adam,
    with a code vocabulary built from the usable sequences (a TokenColumn's
    rows, or token lists). It reads the dl detector's setting, whose stack
    it shapes for `train --init`; `pooling` and `threshold` go unused."""
    hp.check()
    column = as_column(sequences)
    # sequences shorter than 2 tokens have no next token to predict
    usable = column.select(np.flatnonzero(column.lengths() >= 2))
    if len(usable) < hp.batch_size:
        raise DataError(
            f"corpus of {len(usable)} usable sequences is smaller than one batch ({hp.batch_size})"
        )
    usable.check_cap(hp.seq_cap)
    vocab = build_vocabulary(usable, "code")
    lut = usable.lookup(vocab)
    network = LmNetwork(vocab.size, hp.latent, hp.layers, seed)

    def make_batch(chunk):
        idx, mask = pad_batch(usable.encode_rows(lut, chunk, tail=1), hp.seq_cap)
        tgt, _ = pad_batch(usable.encode_rows(lut, chunk, head=1), hp.seq_cap)
        return idx, mask, tgt

    final_loss = tc.fit(network, tc.Adam(lr=hp.learning_rate), make_batch, len(usable), hp, seed)
    return LmModel(vocab=vocab, hp=hp, network=network, final_loss=final_loss, seed=seed)


def detector_start(lm: LmModel, mode: str) -> dict:
    """`fit_detector`'s `vocab` and `init_blocks` for a detector that starts
    from `lm`: its vocabulary, and its whole stack (`end2end`) or its
    embedding alone (`embedding_only`)."""
    if mode not in ("end2end", "embedding_only"):
        raise DataError(f"unknown pre-training mode: {mode!r}")
    blocks = {name: param for name, (param, _) in lm.network.stack.named_params().items()}
    if mode == "embedding_only":
        blocks = {"embedding.M": blocks["embedding.M"]}
    return {"vocab": lm.vocab, "init_blocks": blocks}


def save_lm(model: LmModel, path):
    header = {
        "hp": model.hp.to_dict(),
        "vocab_words": model.vocab.words,
        "vocab_kind": model.vocab.kind,
        "seed": model.seed,
    }
    save_network(path, "lm", header, model.network)


def load_lm(path) -> LmModel:
    header, blocks = load_checkpoint(path, ("lm",))
    hp = DlHp.from_dict(header_object(header, "hp"))
    vocab = header_vocabulary(header, "vocab_words", header.get("vocab_kind", "code"))
    check_network(path, header, hp, LmNetwork.block_shapes(vocab.size, hp.latent, hp.layers), blocks)
    network = LmNetwork(vocab.size, hp.latent, hp.layers, header.get("seed", 0))
    load_blocks(network.named_params(), blocks, path)
    return LmModel(vocab=vocab, hp=hp, network=network, seed=header.get("seed", 0))
