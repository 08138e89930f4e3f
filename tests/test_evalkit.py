import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satd_forge import evalkit
from satd_forge.errors import DataError
from satd_forge.evalkit import (
    FoldPlan,
    bleu_n,
    cross_project_rounds,
    mean_bleu,
    modified_precision,
    prf1,
    run_cv,
    sort_result_rows,
    stratified_folds,
    tuning_split,
    write_report,
)


class TestPrf1:
    def test_all_correct(self):
        m = prf1([1, 0, 1], [1, 0, 1])
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_harmonic_mean(self):
        # P=0.5, R=1.0  ->  F1 = 2/3
        m = prf1([1, 1], [1, 0])
        assert m.precision == pytest.approx(0.5)
        assert m.recall == pytest.approx(1.0)
        assert m.f1 == pytest.approx(2.0 / 3.0)

    def test_zero_denominators_yield_zero(self):
        m = prf1([0, 0], [1, 0])
        assert m.precision == 0.0 and m.f1 == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            prf1([1], [1, 0])

    @given(
        st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60),
    )
    def test_matches_bruteforce_confusion_recount(self, pairs):
        preds = [p for p, _ in pairs]
        actual = [a for _, a in pairs]
        m = prf1(preds, actual)
        tp = sum(p and a for p, a in pairs)
        fp = sum(p and not a for p, a in pairs)
        fn = sum(not p and a for p, a in pairs)
        assert (m.tp, m.fp, m.fn) == (tp, fp, fn)
        if tp + fp:
            assert m.precision == pytest.approx(tp / (tp + fp))
        if tp + fn:
            assert m.recall == pytest.approx(tp / (tp + fn))

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40),
           st.randoms())
    def test_permutation_invariant(self, pairs, rng):
        m1 = prf1([p for p, _ in pairs], [a for _, a in pairs])
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        m2 = prf1([p for p, _ in shuffled], [a for _, a in shuffled])
        assert m1.f1 == pytest.approx(m2.f1)


class TestBleu:
    def test_identical_is_exactly_one(self):
        sentence = "todo e g check metadata".split()
        for n in (1, 2, 3, 4):
            assert bleu_n(sentence, sentence, n) == 1.0

    def test_clipped_repetition_precision(self):
        hyp = "the the the the the the the".split()
        ref = "the cat is on the mat".split()
        assert modified_precision(hyp, ref, 1) == (2, 7)

    def test_disjoint_vocabulary_scores_below_smoothed_floor(self):
        hyp = [f"h{i}" for i in range(60)]
        ref = [f"r{i}" for i in range(60)]
        score = bleu_n(hyp, ref, 4)
        assert score == pytest.approx(1.0 / 120.0, rel=1e-9)
        assert score < 0.01

    def test_empty_hypothesis_zero(self):
        assert bleu_n([], ["a"], 4) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(DataError):
            bleu_n(["a"], [], 1)

    def test_brevity_penalty(self):
        hyp = ["a", "b"]
        ref = ["a", "b", "c", "d"]
        expected = math.exp(1 - 4 / 2) * 1.0  # unigram precision is 1
        assert bleu_n(hyp, ref, 1) == pytest.approx(expected)

    def test_score_within_unit_interval_and_monotone_to_identity(self):
        ref = "fix the broken cache path now".split()
        partial = "fix the broken thing".split()
        for n in (1, 2, 3, 4):
            s_partial = bleu_n(partial, ref, n)
            s_exact = bleu_n(ref, ref, n)
            assert 0.0 <= s_partial <= 1.0
            assert s_exact == 1.0
            assert s_partial <= s_exact

    def test_mean_bleu(self):
        pairs = [(["a"], ["a"]), (["b"], ["c"])]
        scores = mean_bleu(pairs)
        assert scores["bleu_1"] == pytest.approx((1.0 + 0.5) / 2)


class TestTuningSplit:
    def test_stratified_ten_percent(self):
        labels = [1] * 50 + [0] * 50
        tuning, rest = tuning_split(labels, fraction=0.10, seed=0)
        assert len(tuning) == 10
        assert sum(labels[i] for i in tuning) == 5
        assert sorted(tuning + rest) == list(range(100))

    def test_union_is_original(self):
        labels = [1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 1]
        tuning, rest = tuning_split(labels, seed=3)
        assert sorted(tuning + rest) == list(range(len(labels)))

    def test_seed_deterministic(self):
        labels = [1, 0] * 30
        assert tuning_split(labels, seed=5) == tuning_split(labels, seed=5)

    def test_bad_fraction(self):
        with pytest.raises(DataError):
            tuning_split([1, 0], fraction=1.5)


class TestFolds:
    def test_balanced_small_case(self):
        labels = [1] * 10 + [0] * 10
        plan = stratified_folds(labels, k=10, stratified=True, seed=0)
        for fold in plan.folds:
            assert len(fold) == 2
            assert sum(labels[i] for i in fold) == 1

    def test_partition(self):
        labels = [1, 0] * 17
        plan = stratified_folds(labels, k=5, seed=1)
        everything = sorted(i for fold in plan.folds for i in fold)
        assert everything == list(range(len(labels)))

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(DataError):
            stratified_folds([1, 0], k=3)

    @given(
        st.lists(st.booleans(), min_size=10, max_size=80),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=99),
    )
    @settings(max_examples=80)
    def test_stratification_bound_any_ratio(self, labels, k, seed):
        if k > len(labels):
            return
        larger = max(sum(labels), len(labels) - sum(labels))
        if k > larger:  # the classes would fill folds 0..larger-1 only
            with pytest.raises(DataError, match=f"cannot deal {k} stratified folds: the larger class has {larger} "):
                stratified_folds(labels, k=k, stratified=True, seed=seed)
            return
        plan = stratified_folds(labels, k=k, stratified=True, seed=seed)
        everything = sorted(i for fold in plan.folds for i in fold)
        assert everything == list(range(len(labels)))
        assert all(plan.folds)
        positives = [sum(labels[i] for i in fold) for fold in plan.folds]
        assert max(positives) - min(positives) <= 1

    @given(
        st.integers(min_value=10, max_value=60),
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=99),
    )
    def test_generator_mode_partitions(self, n, k, seed):
        if k > n:
            return
        plan = stratified_folds([0] * n, k=k, stratified=False, seed=seed)
        everything = sorted(i for fold in plan.folds for i in fold)
        assert everything == list(range(n))
        sizes = [len(fold) for fold in plan.folds]
        assert max(sizes) - min(sizes) <= 1


class TestRunCv:
    def test_constant_positive_classifier_closed_form(self):
        # on a balanced fold: R = 1, P = 0.5, F1 = 2/3
        labels = [1, 0] * 20
        plan = stratified_folds(labels, k=10, stratified=True, seed=0)

        def recipe(train_ids, test_ids, fold):
            preds = [True] * len(test_ids)
            return prf1(preds, [labels[i] for i in test_ids]).as_dict()

        result = run_cv(recipe, plan)
        assert result.mean["recall"] == pytest.approx(1.0)
        assert result.mean["precision"] == pytest.approx(0.5)
        assert result.mean["f1"] == pytest.approx(2.0 / 3.0)

    def test_mean_matches_manual_average(self):
        labels = [1, 0] * 10
        plan = stratified_folds(labels, k=4, seed=2)

        def recipe(train_ids, test_ids, fold):
            return {"f1": float(fold)}

        result = run_cv(recipe, plan)
        manual = sum(r["f1"] for r in result.per_fold) / len(result.per_fold)
        assert result.mean["f1"] == pytest.approx(manual)

    def test_train_and_test_disjoint(self):
        labels = [1, 0] * 10
        items = list(range(20))
        plan = stratified_folds(labels, k=5, seed=3)
        seen = []

        def recipe(train_ids, test_ids, fold):
            assert not (set(train_ids.tolist()) & set(test_ids.tolist()))
            assert sorted(train_ids.tolist() + test_ids.tolist()) == items
            seen.extend(test_ids.tolist())
            return {"f1": 0.0}

        run_cv(recipe, plan)
        assert sorted(seen) == items


class TestSorting:
    def test_f1_then_precision(self):
        rows = [
            {"name": "low", "f1": 0.672, "precision": 0.521},
            {"name": "high", "f1": 0.673, "precision": 0.555},
            {"name": "tie_hi_p", "f1": 0.673, "precision": 0.600},
        ]
        ordered = sort_result_rows(rows)
        assert [r["name"] for r in ordered] == ["tie_hi_p", "high", "low"]


class TestCrossProject:
    def test_two_projects_two_rounds(self):
        items = ["a", "b", "c", "d"]
        projects = ["p1", "p1", "p2", "p2"]
        calls = []

        def recipe(train_ids, test_ids, fold):
            calls.append((tuple(items[i] for i in train_ids), tuple(items[i] for i in test_ids)))
            return {"f1": 1.0}

        rows, mean = cross_project_rounds(projects, recipe)
        assert len(rows) == 2
        assert mean["f1"] == 1.0
        for train, test in calls:
            assert not (set(train) & set(test))

    def test_eight_projects_eight_rounds(self):
        projects = [f"proj{i}" for i in range(8) for _ in range(3)]

        def recipe(train_ids, test_ids, fold):
            return {"f1": 0.5}

        rows, _ = cross_project_rounds(projects, recipe)
        assert len(rows) == 8

    @given(st.lists(st.sampled_from(["p1", "p2", "p3", "p4"]), min_size=4, max_size=40))
    @settings(max_examples=60)
    def test_no_leakage_property(self, projects):
        if len(set(projects)) < 2:
            return
        def recipe(train_ids, test_ids, fold):
            train_projects = {projects[i] for i in train_ids}
            test_projects = {projects[i] for i in test_ids}
            assert not (train_projects & test_projects)
            return {"f1": 0.0}

        cross_project_rounds(projects, recipe)

    def test_single_project_rejected(self):
        with pytest.raises(DataError):
            cross_project_rounds(["only"], lambda *a: {})



class TestReport:
    def test_report_bundle(self, tmp_path):
        rows = [{"fold": 0, "f1": 0.5, "precision": 0.4, "recall": 0.6}]
        plan = FoldPlan(folds=[[0, 1], [2, 3]], stratified=True, seed=9)
        write_report(tmp_path / "rep", rows, folds=plan, config={"seed": 9},
                     columns=["fold", "precision", "recall", "f1"], title="")
        metrics = json.loads((tmp_path / "rep" / "metrics.json").read_text())
        assert metrics["config"]["seed"] == 9
        assert metrics["rows"] == rows
        folds = json.loads((tmp_path / "rep" / "folds.json").read_text())
        assert folds["k"] == 2
        table = (tmp_path / "rep" / "table.txt").read_text()
        assert "precision" in table and "0.500" in table
