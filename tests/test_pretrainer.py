import math

import numpy as np
import pytest

from gradcheck import check_gradients
from satd_forge import tensor_core as tc
from satd_forge.detector import DetectorNetwork, DlHp, check_detector_setting, fit_detector
from satd_forge.errors import DataError
from satd_forge.pretrainer import detector_start, load_lm, save_lm, train_next_token_lm
from satd_forge.textpipe import pad_batch


def alternating_corpus(n=12, length=10):
    return [["a", "b"] * (length // 2) for _ in range(n)]


class TestLm:
    def test_memorizes_deterministic_pattern(self):
        seqs = alternating_corpus()
        hp = DlHp(latent=8, layers=1, batch_size=4, epochs=40, learning_rate=3e-3)
        model = train_next_token_lm(seqs, hp, seed=0)
        encoded = [model.vocab.encode(s) for s in seqs[:4]]
        idx, mask = pad_batch([s[:-1] for s in encoded], 100)
        tgt, _ = pad_batch([s[1:] for s in encoded], 100)
        packing = tc.Packing(mask)
        states, _, _ = model.network.stack.forward(idx, packing)
        logits, _ = model.network.out.forward(states)
        hits = (logits.argmax(axis=-1) == packing.pack(tgt)).sum()
        assert hits / mask.sum() == 1.0

    def test_initial_loss_log_vocab(self):
        seqs = alternating_corpus()
        hp = DlHp(latent=8, layers=1, batch_size=4, epochs=0)
        model = train_next_token_lm(seqs, hp, seed=1)
        model.network.out.p["W"][...] = 0.0
        model.network.out.p["b"][...] = 0.0
        encoded = [model.vocab.encode(s) for s in seqs[:4]]
        idx, mask = pad_batch([s[:-1] for s in encoded], 100)
        tgt, _ = pad_batch([s[1:] for s in encoded], 100)
        loss = model.network.loss_and_grads(idx, mask, tgt, None, 0.0)
        assert loss == pytest.approx(math.log(model.vocab.size), abs=1e-9)

    def test_corpus_smaller_than_batch_rejected(self):
        hp = DlHp(batch_size=8, epochs=1)
        with pytest.raises(DataError):
            train_next_token_lm([["a", "b"]] * 4, hp, seed=0)

    def test_same_seed_identical_weights(self):
        seqs = alternating_corpus()
        hp = DlHp(latent=8, layers=1, batch_size=4, epochs=3)
        a = train_next_token_lm(seqs, hp, seed=5)
        b = train_next_token_lm(seqs, hp, seed=5)
        for name, (pa, _) in a.network.named_params().items():
            pb = dict(b.network.named_params())[name][0]
            np.testing.assert_array_equal(pa, pb)

    def test_gradients_vs_finite_differences(self):
        from satd_forge.pretrainer import LmNetwork

        net = LmNetwork(vocab_size=6, latent=4, n_layers=2, seed=3)
        idx, mask = pad_batch([[1, 2, 3], [4, 5]], 10)
        tgt, _ = pad_batch([[2, 3, 1], [5, 4]], 10)

        def loss_fn():
            # loss_and_grads zeroes and refills gradients; harmless here
            return float(net.loss_and_grads(idx, mask, tgt, None, 0.0))

        net.loss_and_grads(idx, mask, tgt, None, 0.0)
        named = net.named_params()
        params = {k: v[0] for k, v in named.items()}
        analytic = {k: v[1].copy() for k, v in named.items()}
        report = check_gradients(loss_fn, params, analytic)
        assert max(report.values()) < 1e-4, report


DETECTOR_ITEMS = [["a", "b", "a"], ["b", "a", "b"]] * 3
DETECTOR_LABELS = [1, 0] * 3


def lm_and_detector(tmp_seed=0, latent=8, layers=2, mode="end2end", lm=None):
    """An LM and a detector initialized from it; zero epochs leave the
    detector's weights as initialized."""
    if lm is None:
        hp = DlHp(latent=latent, layers=layers, batch_size=4, epochs=3)
        lm = train_next_token_lm(alternating_corpus(), hp, seed=tmp_seed)
    hp_dict = {"model": "dl", "latent": latent, "layers": layers, "batch_size": 2, "epochs": 0}
    detector = fit_detector(check_detector_setting(hp_dict), DETECTOR_ITEMS, DETECTOR_LABELS, tmp_seed + 1, "code",
                            **detector_start(lm, mode))
    return lm, detector


class TestTransplant:
    def test_end2end_copies_embedding_and_lstms(self):
        lm, detector = lm_and_detector()
        target, source = detector.network.stack, lm.network.stack
        np.testing.assert_array_equal(target.embedding.p["M"], source.embedding.p["M"])
        for k, lstm in enumerate(target.layers):
            for key in ("Wx", "Wh", "b"):
                np.testing.assert_array_equal(lstm.p[key], source.layers[k].p[key])

    def test_embedding_only_leaves_lstms_fresh(self):
        lm, detector = lm_and_detector(tmp_seed=10, mode="embedding_only")
        fresh = DetectorNetwork(lm.vocab.size, 8, 2, "mean", seed=11).stack
        np.testing.assert_array_equal(
            detector.network.stack.embedding.p["M"], lm.network.stack.embedding.p["M"]
        )
        for k, lstm in enumerate(detector.network.stack.layers):
            for key in ("Wx", "Wh", "b"):
                np.testing.assert_array_equal(lstm.p[key], fresh.layers[k].p[key])

    def test_mismatched_latent_rejected_listing_blocks(self):
        lm, _ = lm_and_detector(tmp_seed=20, latent=8)
        with pytest.raises(DataError, match="embedding.M"):
            lm_and_detector(tmp_seed=30, latent=16, lm=lm)

    def test_unknown_mode_rejected(self):
        lm, _ = lm_and_detector(tmp_seed=40)
        with pytest.raises(DataError):
            lm_and_detector(tmp_seed=40, mode="frankenstein", lm=lm)

    def test_transplanted_blocks_round_trip_bitwise(self, tmp_path):
        from satd_forge.checkpoint import load_checkpoint
        from satd_forge.detector import save_detector

        lm, _ = lm_and_detector(tmp_seed=50)
        lm_path = tmp_path / "lm.ckpt"
        save_lm(lm, lm_path)
        _, detector = lm_and_detector(tmp_seed=50, lm=load_lm(lm_path))
        det_path = tmp_path / "det.ckpt"
        save_detector(detector, det_path)
        _, lm_blocks = load_checkpoint(lm_path)
        _, det_blocks = load_checkpoint(det_path)
        np.testing.assert_array_equal(lm_blocks["embedding.M"], det_blocks["embedding.M"])
