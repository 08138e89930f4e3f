"""Acceptance suite: one test per shipping criterion, each printing a
PASS line (run with -s to see them)."""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

from gradcheck import check_gradients
from satd_forge import tensor_core as tc
from satd_forge.detector import DlHp, check_detector_setting, fit_detector, predict_many
from satd_forge.evalkit import (
    bleu_n,
    cross_project_rounds,
    mean_bleu,
    modified_precision,
    prf1,
    run_cv,
    stratified_folds,
    tuning_split,
)
from satd_forge.generator import GeneratorHp, Seq2SeqNetwork, generate_comments, train_generator
from satd_forge.java_miner import UNLABELED, label_comment, mine_file
from satd_forge.textpipe import build_vocabulary, frame_comment, pad_batch
from satd_forge.vsm import bow_counts, fit_tfidf, transform
from satd_forge.ast_sbt import AstNode, sbt_serialize
from test_detector import train_dl

FIXTURES = Path(__file__).parent / "fixtures" / "java"
GOLDEN = Path(__file__).parent / "fixtures" / "golden_pairs.json"


def report(n, text):
    print(f"\nacceptance criterion {n}: PASS - {text}")


def test_criterion_01_pooling_worked_example():
    states = np.array([[[5.2, 3.3], [4.7, 7.5], [9.1, 0.6]]])
    packing = tc.Packing(np.ones((1, 3)))
    last, _ = tc.pool_forward(packing.pack(states), packing, "last")
    maxp, _ = tc.pool_forward(packing.pack(states), packing, "max")
    mean, _ = tc.pool_forward(packing.pack(states), packing, "mean")
    assert np.abs(last[0] - np.array([9.1, 0.6])).max() < 1e-9
    assert np.abs(maxp[0] - np.array([9.1, 7.5])).max() < 1e-9
    assert np.abs(mean[0] - np.array([19.0 / 3.0, 3.8])).max() < 1e-9
    report(1, "pooling reproduces the worked example to 1e-9")


def _collect(layers):
    params, grads = {}, {}
    for name, layer in layers.items():
        for key, value in layer.p.items():
            params[f"{name}.{key}"] = value
            grads[f"{name}.{key}"] = layer.g[key]
    return params, grads


def test_criterion_02_gradient_fidelity():
    worst_overall = 0.0

    # embedding gradient through a mean + dense head
    rng = np.random.default_rng(100)
    emb = tc.Embedding(6, 4, rng)
    dense = tc.Dense(4, 1, rng)
    idx = np.array([[0, 2, 2, 5]])
    y = np.array([1.0])

    def emb_loss():
        X = emb.forward(idx)
        logits, _ = dense.forward(X.mean(axis=1))
        losses, _ = tc.bce_loss(y, tc.sigmoid(logits[:, 0]))
        return float(losses.mean())

    for layer in (emb, dense):
        for g in layer.g.values():
            g[...] = 0.0
    X = emb.forward(idx)
    logits, cache = dense.forward(X.mean(axis=1))
    p = tc.sigmoid(logits[:, 0])
    dpool = dense.backward(((p - y) / 1)[:, None], cache)
    emb.backward(np.repeat(dpool[:, None, :], 4, axis=1) / 4, idx)
    params, grads = _collect({"emb": emb, "dense": dense})
    rep = check_gradients(emb_loss, params, grads)
    worst_overall = max(worst_overall, max(rep.values()))
    assert max(rep.values()) < 1e-4

    # LSTM stacks at depths 1..3 (the 2x/1x/0.5x sizing rule) under every
    # pooling mode, ending in sigmoid + binary log-loss
    for n_layers, pooling in itertools.product((1, 2, 3), ("last", "mean", "max")):
        rng = np.random.default_rng(200 + n_layers)
        latent = 4
        emb = tc.Embedding(7, latent, rng)
        sizes = tc.detector_layer_sizes(latent, n_layers)
        assert sizes == {1: [4], 2: [4, 4], 3: [8, 4, 2]}[n_layers]
        lstms = []
        prev = latent
        for size in sizes:
            lstms.append(tc.LstmLayer(prev, size, rng))
            prev = size
        dense = tc.Dense(prev, 1, rng)
        idx = np.array([[1, 2, 3], [4, 5, 0]])
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        packing = tc.Packing(mask)
        y = np.array([1.0, 0.0])

        def stack_loss():
            X = emb.forward(packing.pack(idx))
            for lstm in lstms:
                X, _, _ = lstm.forward(X, mask)
            pooled, _ = tc.pool_forward(X, packing, pooling)
            logits, _ = dense.forward(pooled)
            losses, _ = tc.bce_loss(y, tc.sigmoid(logits[:, 0]))
            return float(losses.mean())

        layers = {"emb": emb, "dense": dense}
        layers.update({f"lstm{k}": l for k, l in enumerate(lstms)})
        for layer in layers.values():
            for g in layer.g.values():
                g[...] = 0.0
        X = emb.forward(packing.pack(idx))
        caches = []
        for lstm in lstms:
            X, _, c = lstm.forward(X, mask)
            caches.append(c)
        pooled, pcache = tc.pool_forward(X, packing, pooling)
        logits, dcache = dense.forward(pooled)
        p = tc.sigmoid(logits[:, 0])
        dpool = dense.backward(((p - y) / len(y))[:, None], dcache)
        dstates = tc.pool_backward(dpool, pcache)
        for k in range(len(lstms) - 1, -1, -1):
            dstates, _, _ = lstms[k].backward(dstates, None, None, caches[k])
        emb.backward(dstates, packing.pack(idx))
        params, grads = _collect(layers)
        rep = check_gradients(stack_loss, params, grads)
        worst_overall = max(worst_overall, max(rep.values()))
        assert max(rep.values()) < 1e-4, (n_layers, pooling, rep)

    # softmax + multi-class log-loss at the single-prediction level: one real position
    def single_ce(logits, target):
        loss, dlogits = tc.masked_cross_entropy(logits[None, :], np.array([target]))
        return loss, dlogits[0]

    rng = np.random.default_rng(300)
    logits = rng.normal(size=7)
    _, grad = single_ce(logits, 3)
    eps = 1e-6
    for k in range(7):
        bumped = logits.copy()
        bumped[k] += eps
        lp, _ = single_ce(bumped, 3)
        bumped[k] -= 2 * eps
        lm, _ = single_ce(bumped, 3)
        fd = (lp - lm) / (2 * eps)
        rel = abs(grad[k] - fd) / max(abs(grad[k]) + abs(fd), 1e-6)
        worst_overall = max(worst_overall, rel)
        assert rel < 1e-5

    # the full attention path inside the encoder-decoder
    net = Seq2SeqNetwork(code_vocab_size=6, comment_vocab_size=8, latent=4, n_layers=1, seed=7)
    enc_idx, enc_mask = pad_batch([[1, 2, 3, 4], [2, 5]], 10)
    dec_idx, dec_mask = pad_batch([[1, 3, 4], [1, 5]], 10)
    tgt_idx, _ = pad_batch([[3, 4, 2], [5, 2]], 10)

    def gen_loss():
        loss, _ = net.forward_train(enc_idx, enc_mask, dec_idx, dec_mask, tgt_idx)
        return float(loss)

    net.loss_and_grads(enc_idx, enc_mask, dec_idx, dec_mask, tgt_idx, None, 0.0)
    # forward_train adds the softmax head's weight gradients, so the analytic ones are copied
    named = net.named_params()
    rep = check_gradients(
        gen_loss, {k: v[0] for k, v in named.items()}, {k: v[1].copy() for k, v in named.items()}
    )
    worst_overall = max(worst_overall, max(rep.values()))
    assert max(rep.values()) < 1e-4, rep
    report(2, f"all finite-difference checks under 1e-4 (worst {worst_overall:.2e})")


def test_criterion_03_tfidf_and_mnb_oracles():
    # TF-IDF against literal re-computation on six documents
    docs = [
        ["todo", "fix", "parser"],
        ["fix", "fix", "cache"],
        ["parser", "cache"],
        ["todo", "todo", "todo"],
        ["cache"],
        ["parser", "fix", "todo", "extra"],
    ]
    vocab = build_vocabulary(docs, "code")
    counts = bow_counts(docs, vocab)
    model = fit_tfidf(counts)
    for doc, got in zip(docs, transform(counts, model)):
        for term in set(doc):
            tf = doc.count(term)
            df = sum(1 for d in docs if term in d)
            expected = tf * (math.log(len(docs) / df) + 1.0)
            assert abs(got[vocab.index_of[term]] - expected) < 1e-12

    # MNB against hand-computed Bayes posteriors on the two-class toy corpus
    from satd_forge.detector import train_mnb

    toy = [["todo", "hack"], ["good", "code"]]
    labels = [1, 0]
    tvocab = build_vocabulary(toy, "code")
    vectors = bow_counts(toy, tvocab)
    prior, log_prob = train_mnb(vectors, labels, alpha=1.0, vocab_size=tvocab.size)
    V = tvocab.size
    assert abs(prior[1] - math.log(0.5)) < 1e-12
    for c, class_doc in ((1, toy[0]), (0, toy[1])):
        for word, idx in tvocab.index_of.items():
            count = class_doc.count(word)
            expected = math.log((count + 1.0) / (2.0 + V))
            assert abs(log_prob[c, idx] - expected) < 1e-12
    report(3, "TF-IDF and naive-Bayes match literal recomputation to 1e-12")


def _planted_corpus(n, seed):
    rng = np.random.default_rng(seed)
    fillers = [f"tok{i}" for i in range(30)]
    markers = ("hackmark", "fixmark")
    seqs, labels = [], []
    for i in range(n):
        length = int(rng.integers(6, 14))
        seq = [fillers[j] for j in rng.integers(0, 30, length)]
        if i % 2 == 0:
            for m in markers:
                seq.insert(int(rng.integers(0, len(seq) + 1)), m)
            labels.append(1)
        else:
            labels.append(0)
        seqs.append(seq)
    return seqs, labels


def test_criterion_04_detector_capability_cv():
    seqs, labels = _planted_corpus(400, seed=42)
    plan = stratified_folds(labels, k=10, stratified=True, seed=7)
    scores = {}

    for pooling in ("last", "mean", "max"):
        hp = DlHp(
            latent=16, layers=1, batch_size=32, pooling=pooling, epochs=30,
            learning_rate=2e-3,
        )

        def dl_recipe(train_ids, test_ids, fold):
            model = train_dl([seqs[i] for i in train_ids], [labels[i] for i in train_ids], hp, fold)
            preds = [predict_many(model, [seqs[i]])[0][1] for i in test_ids]
            return prf1(preds, [labels[i] for i in test_ids]).as_dict()

        result = run_cv(dl_recipe, plan)
        scores[f"lstm/{pooling}"] = result.mean["f1"]

    def mnb_recipe(train_ids, test_ids, fold):
        model = fit_detector(check_detector_setting({"model": "mnb"}), [seqs[i] for i in train_ids],
                             [labels[i] for i in train_ids], fold, "code")
        preds = [predict_many(model, [seqs[i]])[0][1] for i in test_ids]
        return prf1(preds, [labels[i] for i in test_ids]).as_dict()

    scores["mnb"] = run_cv(mnb_recipe, plan).mean["f1"]

    def svm_recipe(train_ids, test_ids, fold):
        setting = check_detector_setting({"model": "svm", "features": "bow", "epochs": 20})
        model = fit_detector(setting, [seqs[i] for i in train_ids], [labels[i] for i in train_ids], fold, "code")
        preds = [predict_many(model, [seqs[i]])[0][1] for i in test_ids]
        return prf1(preds, [labels[i] for i in test_ids]).as_dict()

    scores["svm"] = run_cv(svm_recipe, plan).mean["f1"]

    assert all(f1 >= 0.95 for f1 in scores.values()), scores
    summary = ", ".join(f"{k}={v:.3f}" for k, v in scores.items())
    report(4, f"10-fold F1 over 0.95 for every detector ({summary})")


def test_criterion_05_overfit_sanity():
    seqs, labels = _planted_corpus(40, seed=3)
    hp = DlHp(
        latent=16, layers=1, batch_size=20, pooling="max", epochs=200,
        learning_rate=2e-3,
    )
    model = train_dl(seqs, labels, hp, 1)
    preds = [predict_many(model, [s])[0][1] for s in seqs]
    metrics = prf1(preds, labels)
    assert metrics.f1 == 1.0
    report(5, "40-pair training F1 hits 1.0 within 200 epochs")


GEN_COMMENTS = [
    "todo e g check metadata",
    "workaround issue user types in pail",
    "hack for empty arrays",
    "fixme overflow on large inputs",
    "todo remove this silly bridge",
    "workaround clearing the text area",
    "hack skip the broken cache",
    "fixme tighten the race window",
    "todo drop the legacy shim",
    "workaround for the flaky driver",
    "hack fold the nested branches",
    "fixme guard against null owner",
    "todo inline the tiny helper",
    "workaround copy before mutation",
    "hack reuse the stale buffer",
    "fixme rescale the odd metric",
    "todo split the long method",
    "workaround retry on timeout",
    "hack mask the rare warning",
    "fixme align the byte order",
]


def _generation_pairs():
    pairs = []
    for i, comment in enumerate(GEN_COMMENTS):
        code = [
            "(", "IfStatement", "(", "ParExpr", "(", f"Name:v{i}", ")", f"Name:v{i}",
            ")", "ParExpr", "(", "Block", "(", f"Call:f{i}", ")", f"Call:f{i}",
            ")", "Block", ")", "IfStatement",
        ]
        pairs.append((code, frame_comment(comment.split())))
    return pairs


def test_criterion_06_generator_memorization():
    pairs = _generation_pairs()
    hp = GeneratorHp(latent=64, layers=1, batch_size=20, epochs=300, learning_rate=2e-3)
    model = train_generator(pairs, hp, seed=5)
    exact = 0
    scored = []
    for code, framed in pairs:
        hyp = generate_comments(model, [code])[0]
        ref = framed[1:-1]
        exact += hyp == ref
        scored.append((hyp, ref))
    bleu4 = mean_bleu(scored)["bleu_4"]
    assert exact >= 18, f"only {exact}/20 reproduced"
    assert bleu4 >= 0.9, f"training BLEU-4 {bleu4:.3f}"
    report(6, f"memorized {exact}/20 pairs exactly, training BLEU-4 {bleu4:.3f}")


def test_criterion_07_bleu_oracle():
    sentence = "fix the broken cache path now".split()
    for n in (1, 2, 3, 4):
        assert bleu_n(sentence, sentence, n) == 1.0
    hyp = "the the the the the the the".split()
    ref = "the cat is on the mat".split()
    assert modified_precision(hyp, ref, 1) == (2, 7)
    report(7, "identical sentences score exactly 1.0; clipped unigram precision is 2/7")


def test_criterion_08_sbt_injectivity():
    def compositions(total):
        if total == 0:
            return [()]
        out = []
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                out.append((first,) + rest)
        return out

    def trees_with(n, labels):
        if n == 1:
            return [AstNode(label) for label in labels]
        out = []
        for label in labels:
            for parts in compositions(n - 1):
                for combo in itertools.product(*(trees_with(k, labels) for k in parts)):
                    out.append(AstNode(label, tuple(combo)))
        return out

    trees = []
    for n in range(1, 6):
        trees.extend(trees_with(n, ("A", "B", "C")))
    serializations = {tuple(sbt_serialize(t)) for t in trees}
    assert len(serializations) == len(trees)
    report(8, f"{len(trees)} trees with <= 5 nodes serialize pairwise distinctly")


def test_criterion_09_mining_golden_files():
    golden = json.loads(GOLDEN.read_text())
    rows = []
    for path in sorted(FIXTURES.glob("*.java")):
        for r in mine_file(path, FIXTURES, ""):
            rows.append(
                {
                    "path": r.path,
                    "column": r.column,
                    "comment_raw": r.comment_raw,
                    # as `label` labels a mined corpus
                    "label": UNLABELED if r.comment_raw is None else label_comment(r.comment_raw),
                }
            )
    assert rows == golden
    assert not any(r["path"] == "DoubleComment.java" for r in rows)
    report(9, "12 fixtures mine to the exact annotated pair set (multi-comment fragment dropped)")


def test_criterion_10_protocol_invariants():
    rng = random.Random(99)
    for trial in range(30):
        n = rng.randint(12, 120)
        labels = [rng.random() < rng.uniform(0.2, 0.8) for _ in range(n)]
        if not any(labels) or all(labels):
            labels[0] = True
            labels[-1] = False

        tuning, rest = tuning_split(labels, fraction=0.10, seed=trial)
        assert sorted(tuning + rest) == list(range(n))
        n_pos = sum(labels)
        want_pos = int(n_pos * 0.10 + 0.5)
        assert sum(labels[i] for i in tuning) == want_pos

        k = rng.randint(2, min(10, n))
        plan = stratified_folds(labels, k=k, stratified=True, seed=trial)
        everything = sorted(i for fold in plan.folds for i in fold)
        assert everything == list(range(n))
        per_fold_pos = [sum(labels[i] for i in fold) for fold in plan.folds]
        assert max(per_fold_pos) - min(per_fold_pos) <= 1

        projects = [f"proj{rng.randint(0, 4)}" for _ in range(n)]
        if len(set(projects)) < 2:
            projects[0] = "proj_a"
            projects[1] = "proj_b"

        def recipe(train_ids, test_ids, round_index):
            train_tags = {projects[i] for i in train_ids}
            test_tags = {projects[i] for i in test_ids}
            assert not (train_tags & test_tags), "project leaked across the split"
            return {"f1": 0.0}

        cross_project_rounds(projects, recipe)
    report(10, "tuning split, fold plans, and cross-project rounds hold on 30 random datasets")


def test_criterion_11_reproduction_guide():
    guide = Path(__file__).parent.parent / "docs" / "REPRODUCTION.md"
    assert guide.exists(), "reproduction guide missing"
    text = guide.read_text()
    # exact search grids
    for fragment in (
        "8, 16, 32, 64, 128, 256",
        "8, 16, 32, 64, 128, 265, 512",
        "512, 1024, 2048",
    ):
        normalized = text.replace("[", "").replace("]", "")
        assert fragment in normalized, f"grid {fragment!r} not documented"
    # result ordering, tuning split, leave-one-project-out, sizing rule
    assert "F1 descending" in text
    assert "stratified 10%" in text
    assert "holds out one project" in text
    assert "double the latent dimension" in text
    report(11, "full-scale protocol documented in docs/REPRODUCTION.md")
