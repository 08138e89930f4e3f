"""Evaluation protocol: precision/recall/F1, sentence BLEU, the stratified
tuning split, k-fold plans, the one train-and-score loop behind
cross-validation runs, leave-one-project-out rounds and tuning, and report
emission."""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from .atomic import atomic_write
from .errors import DataError


@dataclass
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float

    def as_dict(self) -> dict:
        return asdict(self)


def prf1(predicted, actual) -> Metrics:
    """Precision/recall/F1 with SATD (truthy) as the positive class.

    A zero denominator yields 0.0.
    """
    predicted = [bool(p) for p in predicted]
    actual = [bool(a) for a in actual]
    if len(predicted) != len(actual):
        raise DataError("prediction and label vectors differ in length")
    if not predicted:
        raise DataError("cannot score an empty prediction vector")
    counts = Counter(zip(predicted, actual))
    tp, fp, fn, tn = counts[True, True], counts[True, False], counts[False, True], counts[False, False]
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Metrics(tp, fp, fn, tn, precision, recall, f1)


def ngram_counts(words, n: int) -> Counter:
    return Counter(tuple(words[i : i + n]) for i in range(len(words) - n + 1))


def modified_precision(hypothesis, reference, n: int) -> tuple[int, int]:
    """(clipped matches, total hypothesis n-grams) for order n."""
    hyp_counts = ngram_counts(hypothesis, n)
    ref_counts = ngram_counts(reference, n)
    clipped = sum(min(count, ref_counts[gram]) for gram, count in hyp_counts.items())
    return clipped, sum(hyp_counts.values())


def bleu_n(hypothesis, reference, n: int) -> float:
    """Sentence BLEU: geometric mean of modified 1..n-gram precisions with
    a brevity penalty.

    A zero clipped precision is smoothed to 1/(2|hyp|); orders longer than
    the hypothesis contribute no factor. An empty hypothesis scores 0.
    """
    if n < 1 or n > 4:
        raise DataError(f"BLEU order must be within 1..4, got {n}")
    if not reference:
        raise DataError("BLEU reference must be nonempty")
    hyp_len = len(hypothesis)
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for k in range(1, n + 1):
        clipped, total = modified_precision(hypothesis, reference, k)
        if total == 0:
            continue
        p_k = clipped / total if clipped > 0 else 1.0 / (2.0 * hyp_len)
        log_sum += math.log(p_k) / n
    brevity = math.exp(min(0.0, 1.0 - len(reference) / hyp_len))
    return brevity * math.exp(log_sum)


def bleu_suite(hypothesis, reference) -> dict[str, float]:
    return {f"bleu_{n}": bleu_n(hypothesis, reference, n) for n in (1, 2, 3, 4)}


def mean_bleu(pairs) -> dict[str, float]:
    """Mean sentence BLEU over (hypothesis, reference) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise DataError("no sentence pairs to score")
    totals = {f"bleu_{n}": 0.0 for n in (1, 2, 3, 4)}
    for hyp, ref in pairs:
        for key, value in bleu_suite(hyp, ref).items():
            totals[key] += value
    return {key: value / len(pairs) for key, value in totals.items()}


def tuning_split(labels, fraction: float = 0.10, seed: int = 0):
    """Index split into (tuning, remainder); stratified within rounding.
    Over one class, as generation's all-0 labels, that is a plain seeded
    shuffle."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"split fraction must be in (0, 1), got {fraction}")
    n = len(labels)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    rng = random.Random(seed)
    tuning: list[int] = []
    for value in sorted({bool(v) for v in labels}, reverse=True):
        ids = [i for i, v in enumerate(labels) if bool(v) == value]
        rng.shuffle(ids)
        take = int(len(ids) * fraction + 0.5)
        tuning.extend(ids[:take])
    tuning_set = sorted(tuning)
    chosen = set(tuning_set)
    remainder = [i for i in range(n) if i not in chosen]
    return tuning_set, remainder


@dataclass
class FoldPlan:
    folds: list[list[int]]
    stratified: bool
    seed: int

    @property
    def k(self) -> int:
        return len(self.folds)


def stratified_folds(labels, k: int = 10, stratified: bool = True, seed: int = 0) -> FoldPlan:
    """Partition indices into k folds; stratified mode deals each class
    round-robin from fold 0 so per-fold positive counts differ by at most
    one, and needs k no larger than the larger class, or a fold is empty."""
    n = len(labels)
    if k > n:
        raise DataError(f"cannot make {k} folds from {n} observations")
    if k < 2:
        raise DataError(f"fold count must be at least 2, got {k}")
    rng = random.Random(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    if stratified:
        classes = [[i for i, v in enumerate(labels) if bool(v) == value] for value in (True, False)]
        larger = max(map(len, classes))
        if k > larger:
            raise DataError(f"cannot deal {k} stratified folds: the larger class has {larger} observations")
        for ids in classes:
            rng.shuffle(ids)
            for j, idx in enumerate(ids):
                folds[j % k].append(idx)
    else:
        ids = list(range(n))
        rng.shuffle(ids)
        base, extra = divmod(n, k)
        bounds = [j * base + min(j, extra) for j in range(k + 1)]  # the first `extra` folds take one more
        folds = [ids[a:b] for a, b in zip(bounds, bounds[1:])]
    return FoldPlan(folds=[sorted(f) for f in folds], stratified=stratified, seed=seed)


def run_trials(n_items: int, trials, labels=None) -> list[dict]:
    """The evaluation loop behind cross validation, cross-project rounds and
    tuning, over items 0..n_items-1. Each trial `(recipe, index, test_ids,
    name)` trains on the complement of `test_ids`, in increasing index
    order, and scores `test_ids`.

    `recipe(train_ids, test_ids, index)` gets both as index arrays and must
    return a dict of numeric scores; the dicts come back in trial order.
    Given a detector's `labels` (SATD truthy), a trial whose training rows
    are not of both classes raises DataError naming it, before any trains.
    """
    import numpy as np

    def train_ids(test_ids):
        train = np.ones(n_items, dtype=bool)
        train[test_ids] = False
        return np.flatnonzero(train)

    if labels is not None:
        for _, _, test_ids, name in trials:
            satd = np.asarray(labels, dtype=bool)[train_ids(test_ids)]
            if satd.all() or not satd.any():
                raise DataError(f"{name} trains on {np.count_nonzero(satd)} SATD and {np.count_nonzero(~satd)} "
                                "NonSATD rows; a detector needs both classes")
    return [recipe(train_ids(test_ids), np.asarray(test_ids, dtype=np.int64), index)
            for recipe, index, test_ids, _ in trials]


@dataclass
class CvResult:
    per_fold: list[dict]
    mean: dict


def _mean_of(dicts: list[dict]) -> dict:
    keys = [
        k for k, v in dicts[0].items() if isinstance(v, (int, float)) and k != "fold"
    ]
    return {k: sum(d[k] for d in dicts) / len(dicts) for k in keys}


def run_cv(recipe, plan: FoldPlan, labels=None) -> CvResult:
    """Train on k-1 folds and score the held-out fold, for every fold;
    `labels` as `run_trials` reads them."""
    n_items = sum(len(fold) for fold in plan.folds)
    scores = run_trials(n_items, [(recipe, j, fold, f"fold {j}") for j, fold in enumerate(plan.folds)], labels)
    per_fold = [
        {"fold": j, "test_size": len(fold), **row}
        for j, (fold, row) in enumerate(zip(plan.folds, scores))
    ]
    return CvResult(per_fold=per_fold, mean=_mean_of(per_fold))


def sort_result_rows(rows: list[dict], primary: str = "f1", tiebreak: str = "precision") -> list[dict]:
    """Best first: primary metric descending, tiebreaker descending."""
    return sorted(rows, key=lambda r: (-r.get(primary, 0.0), -r.get(tiebreak, 0.0)))


def cross_project_rounds(projects, recipe, labels=None) -> tuple[list[dict], dict]:
    """Leave-one-project-out over items whose projects are `projects`: each
    round tests on one project, in sorted project order, and trains on the
    rest; `labels` as `run_trials` reads them. Returns (per-project rows,
    average)."""
    tags = sorted(set(projects))
    if len(tags) < 2:
        raise DataError("cross-project validation needs at least two projects")
    rounds = [[i for i, p in enumerate(projects) if p == tag] for tag in tags]  # test ids per project
    trials = [(recipe, index, test_ids, f"the round that holds out project {tag!r}")
              for index, (tag, test_ids) in enumerate(zip(tags, rounds))]
    scores = run_trials(len(projects), trials, labels)
    rows = [
        {"project": tag, "test_size": len(test_ids), **row}
        for tag, test_ids, row in zip(tags, rounds, scores)
    ]
    return rows, _mean_of(rows)


def format_table(rows: list[dict], columns: list[str], title: str = "") -> str:
    """Fixed-width text table in the style of the result tables."""
    widths = {c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in rows)) if rows else len(c) for c in columns}
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(c.ljust(widths[c]) for c in columns)
    lines.append(header)
    lines.append("-" * len(header))
    for r in rows:
        lines.append(" | ".join(_fmt(r.get(c, "")).ljust(widths[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def write_report(directory, rows: list[dict], config: dict, columns: list[str], title: str,
                 folds: FoldPlan | None = None):
    """Emit metrics.json, a plain-text table of `columns` and, given the
    fold plan, folds.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {"config": config, "rows": rows}
    files = {"metrics.json": json.dumps(payload, indent=2, sort_keys=True)}
    if folds is not None:
        files["folds.json"] = json.dumps(
            {"k": folds.k, "stratified": folds.stratified, "seed": folds.seed, "folds": folds.folds},
            indent=2,
        )
    files["table.txt"] = format_table(rows, columns, title)
    for name, text in files.items():
        with atomic_write(directory / name) as f:
            f.write(text)
