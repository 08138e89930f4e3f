"""Fixed-seed final losses of the three neural trainers at tiny sizes.

The expected values were recorded before the networks shared one LSTM
stack and one training loop; any change to the order of random draws or
of arithmetic in the forward/backward passes shows up here.
"""

import numpy as np
import pytest

from satd_forge.detector import DetectorHp, fit_detector, train_dl_detector
from satd_forge.generator import GeneratorHp, train_generator
from satd_forge.pretrainer import train_next_token_lm
from satd_forge.textpipe import frame_comment

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


LM_HP = DetectorHp(latent=6, layers=2, batch_size=4, epochs=2, learning_rate=0.01, dropout=0.2)


@pytest.mark.parametrize("pooling", ["last", "mean", "max"])
def test_dl_detector_three_layers_with_dropout(pooling):
    seqs, labels = detector_corpus()
    hp = DetectorHp(latent=6, layers=3, batch_size=4, pooling=pooling, epochs=2,
                    learning_rate=0.01, dropout=0.3)
    model = train_dl_detector(seqs, labels, hp, seed=11)
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
    model = fit_detector(hp, seqs, labels, 15, "code", lm=lm, mode="end2end")
    assert model.final_loss == pytest.approx(END2END_LOSS, rel=REL)
