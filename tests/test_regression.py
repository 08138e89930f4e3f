"""Fixed-seed final losses of the three neural trainers at tiny sizes,
and the bytes of the checkpoints they write.

The expected losses were recorded before the networks shared one LSTM
stack and one training loop; any change to the order of random draws or
of arithmetic in the forward/backward passes shows up here.
"""

import hashlib

import numpy as np
import pytest

from satd_forge.detector import DlHp, check_detector_setting, fit_detector, save_detector
from satd_forge.generator import GeneratorHp, save_generator, train_generator
from satd_forge.pretrainer import detector_start, save_lm, train_next_token_lm
from satd_forge.textpipe import frame_comment
from test_detector import train_dl

REL = 1e-12

DL_LOSS = {
    "last": 0.6972507171207035,
    "mean": 0.6981807864412666,
    "max": 0.6948941117476964,
}
LM_LOSS = 2.3772105893369173
GENERATOR_LOSS = 2.113648103506795
END2END_LOSS = 0.6820949910578832


def detector_corpus():
    rng = np.random.default_rng(2024)
    fillers = [f"t{i}" for i in range(12)]
    seqs, labels = [], []
    for i in range(12):
        seq = [fillers[j] for j in rng.integers(0, 12, rng.integers(3, 9))]
        if i % 2 == 0:
            seq.insert(int(rng.integers(0, len(seq) + 1)), "hackmark")
        seqs.append(seq)
        labels.append(1 - i % 2)
    return seqs, labels


def lm_corpus():
    rng = np.random.default_rng(7)
    return [[f"t{j}" for j in rng.integers(0, 10, rng.integers(2, 10))] for _ in range(10)]


def generator_pairs():
    rng = np.random.default_rng(11)
    words = ["todo", "hack", "fix", "later", "cache", "race", "empty"]
    pairs = []
    for _ in range(6):
        code = [f"n{j}" for j in rng.integers(0, 9, rng.integers(2, 8))]
        comment = [words[j] for j in rng.integers(0, len(words), rng.integers(1, 5))]
        pairs.append((code, frame_comment(comment)))
    return pairs


LM_HP = DlHp(latent=6, layers=2, batch_size=4, epochs=2, learning_rate=0.01, dropout=0.2)


@pytest.mark.parametrize("pooling", ["last", "mean", "max"])
def test_dl_detector_three_layers_with_dropout(pooling):
    seqs, labels = detector_corpus()
    hp = DlHp(latent=6, layers=3, batch_size=4, pooling=pooling, epochs=2,
              learning_rate=0.01, dropout=0.3)
    model = train_dl(seqs, labels, hp, 11)
    assert model.final_loss == pytest.approx(DL_LOSS[pooling], rel=REL)


def test_next_token_lm_two_layers():
    model = train_next_token_lm(lm_corpus(), LM_HP, seed=12)
    assert model.final_loss == pytest.approx(LM_LOSS, rel=REL)


def test_generator_two_layers():
    hp = GeneratorHp(latent=6, layers=2, batch_size=3, epochs=2, learning_rate=0.01, dropout=0.2)
    model = train_generator(generator_pairs(), hp, seed=13)
    assert model.final_loss == pytest.approx(GENERATOR_LOSS, rel=REL)


def test_detector_initialised_end2end_from_lm():
    lm = train_next_token_lm(lm_corpus(), LM_HP, seed=14)
    seqs, labels = detector_corpus()
    hp = {"model": "dl", "latent": 6, "layers": 2, "batch_size": 4, "pooling": "mean",
          "epochs": 2, "learning_rate": 0.01, "dropout": 0.2}
    model = fit_detector(check_detector_setting(hp), seqs, labels, 15, "code", **detector_start(lm, "end2end"))
    assert model.final_loss == pytest.approx(END2END_LOSS, rel=REL)


# SHA-256 of the checkpoints the trainers above write (float32 blocks). They
# pin the bytes a user gets, which is stricter than the 1e-12 on the loss.
# Recorded with CPython 3.11 and numpy 2.4 under OpenBLAS with one thread.
CHECKPOINT_SHA256 = {
    "dl-last": "e99e6d63f603a23708aa5e33f124b78453dfbd8853e5aca633c1f64681a4a0f0",
    "dl-mean": "4833ab13928fecedfb1dbe42015b579392c238c3bac20a9f4402c0f870c1ab8f",
    "dl-max": "cc2b0efb9175aff7e105df777822df33b5f492ff0d3b55f681f5169076de8995",
    "lm": "5240fc46dfaf16aa616021ffbfec1319b27199f760eec80217cd60f8a6c192ef",
    "generator": "7a4320acf68695154f7f13b9605dfd10c6add41e12e28df33df497833d5e810f",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("pooling", ["last", "mean", "max"])
def test_dl_detector_checkpoint_bytes(tmp_path, pooling):
    seqs, labels = detector_corpus()
    hp = DlHp(latent=6, layers=3, batch_size=4, pooling=pooling, epochs=2,
              learning_rate=0.01, dropout=0.3)
    save_detector(train_dl(seqs, labels, hp, 11), tmp_path / "dl.ckpt")
    assert sha256(tmp_path / "dl.ckpt") == CHECKPOINT_SHA256[f"dl-{pooling}"]


def test_next_token_lm_checkpoint_bytes(tmp_path):
    save_lm(train_next_token_lm(lm_corpus(), LM_HP, seed=12), tmp_path / "lm.ckpt")
    assert sha256(tmp_path / "lm.ckpt") == CHECKPOINT_SHA256["lm"]


def test_generator_checkpoint_bytes(tmp_path):
    hp = GeneratorHp(latent=6, layers=2, batch_size=3, epochs=2, learning_rate=0.01, dropout=0.2)
    save_generator(train_generator(generator_pairs(), hp, seed=13), tmp_path / "gen.ckpt")
    assert sha256(tmp_path / "gen.ckpt") == CHECKPOINT_SHA256["generator"]
