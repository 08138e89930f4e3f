"""Quick tests of the benchmark's own checks and generators.

Every check passes on a right answer and fails on a slightly wrong one.
Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import copy
import math
import random

import numpy as np
import pytest

import checks
import gen
import tracer
from workloads import read_rows


# -- mine ------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_tree(tmp_path_factory):
    """A two-project tree mined, labeled and balanced through the CLI."""
    from satd_forge.cli import main

    root = tmp_path_factory.mktemp("tree")
    plan = gen.java_tree(root / "src", seed=3, projects=2, files_per_project=4, median_bytes=5000)
    assert main(["mine", str(root / "src"), "--out", str(root / "mined.jsonl")]) == 0
    assert main(["label", str(root / "mined.jsonl"), "--out", str(root / "labeled.jsonl")]) == 0
    assert main(["dataset", str(root / "labeled.jsonl"), "--seed", "1", "--balance",
                 "--out", str(root / "data.jsonl"), "--pool-out", str(root / "pool.jsonl")]) == 0
    out = {name: read_rows(root / f"{name}.jsonl") for name in ("mined", "labeled", "data", "pool")}
    return plan, out


def test_mined_labels_match_plan_and_catch_off_by_one(small_tree):
    plan, out = small_tree
    rows = out["labeled"][0]
    assert checks.mined_labels(rows, plan) == []
    wrong = copy.deepcopy(plan)
    wrong.labels["SATD"] += 1
    assert checks.mined_labels(rows, wrong)
    relabeled = copy.deepcopy(rows)
    k = next(i for i, r in enumerate(relabeled) if r["label"] == "NonSATD")
    relabeled[k]["label"] = "SATD"
    assert checks.mined_labels(relabeled, plan)


def test_skipped_diagnostics(small_tree):
    plan, out = small_tree
    meta = out["mined"][1]
    assert checks.skipped_diagnostics(meta, plan) == []
    wrong = copy.deepcopy(plan)
    wrong.skipped_candidates += 1
    assert checks.skipped_diagnostics(meta, wrong)


def test_dataset_counts(small_tree):
    plan, out = small_tree
    data, meta = out["data"]
    pool = out["pool"][0]
    assert checks.dataset_counts(meta["provenance"], data, pool, plan) == []
    for key in ("duplicates", "overlong", "satd_kept"):
        wrong = copy.deepcopy(plan)
        setattr(wrong, key, getattr(plan, key) + 1)
        assert checks.dataset_counts(meta["provenance"], data, pool, wrong), key
    assert checks.dataset_counts(meta["provenance"], data[1:], pool, plan)


def test_planted_kinds_all_occur(small_tree):
    plan, _ = small_tree
    assert plan.duplicates and plan.overlong and plan.skipped_candidates and plan.multi_comment_drops
    assert plan.nonsatd_kept > plan.satd_kept


def test_lossless():
    source = "if (a) { b(); }\n"
    lexemes = ["if", " ", "(", "a", ")", " ", "{", " ", "b", "(", ")", ";", " ", "}", "\n"]
    assert checks.lossless(source, lexemes) == []
    assert checks.lossless(source, lexemes[:-1])
    assert checks.lossless(source, lexemes[:3] + ["b"] + lexemes[4:])


def test_sbt_well_formed():
    good = ["(", "IfStatement", "(", "ParExpr", ")", "ParExpr", ")", "IfStatement"]
    assert checks.sbt_well_formed(good) == []
    assert checks.sbt_well_formed(good[:-2])
    assert checks.sbt_well_formed(good[:5] + ["Block"] + good[6:])
    assert checks.sbt_well_formed(["(", "A", "(", "B", ")", "B", ")", "A"][::-1])
    assert checks.sbt_well_formed([])


def test_comment_vocabularies_respect_the_keyword_protocol():
    keywords = gen.SATD_KEYWORDS + gen.EXCLUSION_KEYWORDS
    for word in gen.PLAIN_WORDS:
        assert not any(word.startswith(k) for k in keywords), word
    for phrase in gen.DEBT_PHRASES:
        assert any(w.startswith(k) for w in phrase.split() for k in gen.SATD_KEYWORDS), phrase
    for phrase in gen.EXCLUDED_PHRASES:
        words = phrase.split()
        assert not any(w.startswith(k) for w in words for k in gen.SATD_KEYWORDS), phrase
        assert any(w.startswith(k) for w in words for k in gen.EXCLUSION_KEYWORDS), phrase


# -- detect / generate inputs -------------------------------------------------


def test_generated_sbt_matches_the_package_parser():
    from satd_forge.ast_sbt import parse_if_statement, sbt_serialize
    from satd_forge.java_miner import lex_java

    corpus = gen.sequence_corpus(9, n_train=20, n_heldout=60)
    for line, sbt in zip(corpus.heldout_lines, corpus.heldout_sbt):
        assert sbt_serialize(parse_if_statement(lex_java(line))) == sbt
    for r in corpus.records:
        assert sbt_serialize(parse_if_statement(lex_java(r["code_text"]))) == r["sbt_tokens"]


def test_sequence_corpus_is_seeded_and_capped():
    a = gen.sequence_corpus(4, n_train=200, n_heldout=10)
    b = gen.sequence_corpus(4, n_train=200, n_heldout=10)
    assert a.records == b.records and a.heldout_lines == b.heldout_lines
    lengths = sorted(len(r["sbt_tokens"]) for r in a.records)
    assert lengths[-1] <= 1500
    assert 40 <= lengths[len(lengths) // 2] <= 100


def test_f1_floor():
    actual = [1, 1, 0, 0]
    assert checks.f1_floor([True, True, False, False], actual, 0.9) == []
    assert checks.f1_floor([True, False, True, False], actual, 0.9)
    assert checks.f1_floor([True, True, False], actual, 0.1)


# -- detect: the classic models ------------------------------------------------


def _sparse_docs(seed=0, n=40, vocab=12):
    rng = random.Random(seed)
    docs = [{rng.randrange(vocab): float(rng.randint(1, 3)) for _ in range(rng.randint(1, 5))} for _ in range(n)]
    labels = [k % 2 for k in range(n)]
    return docs, labels, vocab


def test_mnb_check_against_the_package():
    from satd_forge.detector import train_mnb

    docs, labels, vocab = _sparse_docs()
    prior, log_prob = train_mnb(docs, labels, alpha=1.0, vocab_size=vocab)
    assert checks.mnb_log_probs(docs, labels, 1.0, vocab, prior, log_prob) == []
    nudged = log_prob.copy()
    nudged[1, 3] += 1e-9
    assert checks.mnb_log_probs(docs, labels, 1.0, vocab, prior, nudged)
    assert checks.mnb_log_probs(docs, labels, 0.5, vocab, prior, log_prob)


def test_svm_check_against_the_package():
    from satd_forge.detector import train_linear_svm

    docs, labels, vocab = _sparse_docs(1)
    signs = [1 if y else -1 for y in labels]
    w, b, history = train_linear_svm(docs, signs, lam=0.01, epochs=5, seed=2, dim=vocab)
    assert checks.svm_objective(docs, signs, 0.01, w, b, history) == []
    perturbed = w.copy()
    perturbed[int(np.argmax(np.abs(w)))] *= 1.001
    assert checks.svm_objective(docs, signs, 0.01, perturbed, b, history)
    assert checks.svm_objective(docs, signs, 0.01, w, b + 1e-3, history)


# -- generate ------------------------------------------------------------------


def test_greedy_is_argmax():
    eos = 2
    logits = np.array([[0.0, 0.0, 0.0, 5.0], [0.0, 4.0, 0.0, 0.0], [0.0, 0.0, 3.0, 0.0]])
    assert checks.greedy_is_argmax(logits, [3, 1], eos, max_words=10) == []
    assert checks.greedy_is_argmax(logits, [3, 3], eos, max_words=10)
    assert checks.greedy_is_argmax(logits[:2], [3, 1], eos, max_words=2) == []  # stopped by the cap
    assert checks.greedy_is_argmax(logits[:2], [3, 1], eos, max_words=10)
    tie = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 9.0]])
    assert checks.greedy_is_argmax(tie, [1], eos, max_words=10) == []


def test_loss_below_uniform():
    assert checks.loss_below_uniform("lm", math.log(50) - 0.01, 50) == []
    assert checks.loss_below_uniform("lm", math.log(50), 50)


def test_digests_agree():
    assert checks.digests_agree({"a": "1"}, {"a": "1"}, "x") == []
    assert checks.digests_agree({"a": "1"}, {"a": "2"}, "x")
    assert checks.digests_agree({"a": "1"}, {}, "x")


# -- tracing -------------------------------------------------------------------


def test_tracer_self_times_and_restore():
    import satd_forge.cli as cli
    import satd_forge.java_miner as jm

    original = jm.lex_java
    trace = tracer.Tracer(targets=[
        ("java_miner", "mine_source", None, None),
        ("java_miner", "lex_java", tracer._count_lex, None),
        ("tensor_core", "LstmLayer.forward", None, None),
    ])
    trace.install()
    try:
        assert jm.lex_java is not original
        jm.mine_source("class A { void m() { if (a) { f(); } } }\n")
        trace.active = False
        jm.lex_java("x")
    finally:
        trace.uninstall()
    assert jm.lex_java is original and cli.main is not None
    names = [s[0] for s in trace.spans]
    assert names == ["java_miner.mine_source", "java_miner.lex_java"]
    assert trace.spans[1][3] == 0  # lex_java ran inside mine_source
    selfs = trace.self_times()
    outer = trace.spans[0][2] - trace.spans[0][1]
    inner = trace.spans[1][2] - trace.spans[1][1]
    assert selfs["java_miner.mine_source"] == pytest.approx(outer - inner)
    assert trace.counts["java_miner.lex_java.mb"] == pytest.approx(41 / 1e6)


def test_metric_units_cover_layer_metrics():
    trace = tracer.Tracer()
    assert set(trace.layer_metrics()) == set(tracer.metric_units())


def test_tracer_skips_targets_a_refactor_moved():
    trace = tracer.Tracer(targets=[("java_miner", "no_such_function", None, None),
                                   ("tensor_core", "NoSuchLayer.forward", None, None)])
    trace.install()
    trace.uninstall()
    assert trace.self_times() == {}
