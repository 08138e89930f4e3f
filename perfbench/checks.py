"""Output checks for the benchmark's workloads.

Each check takes plain data and returns a list of failure messages; an
empty list means the output is right. The checks recompute their answers
with the standard library (plus numpy arrays as inputs) instead of calling
back into ``satd_forge``, so a fault in the package cannot hide itself.
"""

from __future__ import annotations

import math
import re

LABELS = ("SATD", "NonSATD", "Excluded", "Unlabeled")
_TAG = re.compile(r"\btag(\d+)\b")


def mined_labels(rows: list[dict], plan) -> list[str]:
    """Pair counts and labels of a labeled corpus against the plan."""
    errors = []
    counts = {k: 0 for k in LABELS}
    for r in rows:
        counts[r["label"]] = counts.get(r["label"], 0) + 1
    if counts != plan.labels:
        errors.append(f"label counts {counts} != planted {plan.labels}")
    for r in rows:
        m = _TAG.search(r["code_text"])
        expected = plan.tag_labels.get(f"tag{m.group(1)}") if m else None
        if expected != r["label"]:
            errors.append(f"{r['path']} span {r['span']}: label {r['label']} != planted {expected}")
            break
    return errors


def skipped_diagnostics(meta: dict, plan) -> list[str]:
    skipped = sum(1 for d in meta.get("diagnostics", []) if "skipped if-statement" in d)
    if skipped != plan.skipped_candidates:
        return [f"{skipped} skipped-candidate diagnostics != planted {plan.skipped_candidates}"]
    return []


def dataset_counts(provenance: dict, data_rows: list[dict], pool_rows: list[dict], plan) -> list[str]:
    """Dedup, length filter and balancing against the plan."""
    labelled = plan.labels["SATD"] + plan.labels["NonSATD"]
    expected = {
        "input_labeled": labelled,
        "after_dedup": labelled - plan.duplicates,
        "after_length_filter": labelled - plan.duplicates - plan.overlong,
        "satd": plan.satd_kept,
        "final": 2 * plan.satd_kept,
    }
    errors = [
        f"provenance {k}={provenance.get(k)} != expected {v}"
        for k, v in expected.items()
        if provenance.get(k) != v
    ]
    satd = sum(1 for r in data_rows if r["label"] == "SATD")
    non = sum(1 for r in data_rows if r["label"] == "NonSATD")
    if satd != non or satd != plan.satd_kept:
        errors.append(f"balanced dataset has {satd} SATD and {non} NonSATD, planted {plan.satd_kept}")
    if len(pool_rows) != plan.nonsatd_kept - plan.satd_kept:
        errors.append(f"pool of {len(pool_rows)} != {plan.nonsatd_kept - plan.satd_kept}")
    return errors


def lossless(source: str, lexemes: list[str]) -> list[str]:
    joined = "".join(lexemes)
    if joined != source:
        at = next((i for i, (a, b) in enumerate(zip(joined, source)) if a != b), min(len(joined), len(source)))
        return [f"lexemes differ from the source at offset {at}"]
    return []


def sbt_well_formed(tokens: list[str]) -> list[str]:
    """4 tokens per node: `(` label ... `)` label, properly nested."""
    if not tokens or len(tokens) % 4:
        return [f"SBT of length {len(tokens)} is not 4 tokens per node"]
    stack = []
    for k in range(0, len(tokens), 2):
        bracket, label = tokens[k], tokens[k + 1]
        if bracket == "(":
            stack.append(label)
        elif bracket == ")":
            if not stack or stack.pop() != label:
                return [f"unbalanced SBT at token {k}"]
        else:
            return [f"SBT token {k} is {bracket!r}, not a bracket"]
    if stack:
        return ["SBT leaves open nodes"]
    return []


def f1_floor(predicted: list[bool], actual: list[int], floor: float) -> list[str]:
    if len(predicted) != len(actual):
        return [f"{len(predicted)} verdicts for {len(actual)} lines"]
    tp = sum(1 for p, a in zip(predicted, actual) if p and a)
    fp = sum(1 for p, a in zip(predicted, actual) if p and not a)
    fn = sum(1 for p, a in zip(predicted, actual) if a and not p)
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    return [] if f1 >= floor else [f"held-out F1 {f1:.3f} below {floor}"]


def mnb_log_probs(vectors, labels, alpha, vocab_size, prior, log_prob, tol=1e-12) -> list[str]:
    """Laplace-smoothed multinomial naive Bayes recomputed from the counts."""
    counts = [[0.0] * vocab_size for _ in range(2)]
    for vec, y in zip(vectors, labels):
        for idx, value in vec.items():
            counts[int(y)][idx] += value
    n = [sum(1 for y in labels if int(y) == c) for c in (0, 1)]
    worst = 0.0
    for c in (0, 1):
        total = sum(counts[c])
        worst = max(worst, abs(prior[c] - math.log(n[c] / len(labels))))
        for j in range(vocab_size):
            want = math.log(counts[c][j] + alpha) - math.log(total + alpha * vocab_size)
            worst = max(worst, abs(float(log_prob[c][j]) - want))
    return [] if worst <= tol else [f"naive Bayes log-probabilities off by {worst:.3g}"]


def svm_objective(vectors, labels, lam, weights, bias, history, rtol=1e-9) -> list[str]:
    """L2-regularised hinge objective recomputed from the returned weights."""
    hinge = 0.0
    for vec, y in zip(vectors, labels):
        margin = y * (sum(float(weights[i]) * v for i, v in vec.items()) + bias)
        hinge += max(0.0, 1.0 - margin)
    value = 0.5 * lam * sum(float(w) * float(w) for w in weights) + hinge / len(vectors)
    last = history[-1]
    if abs(value - last) > rtol * max(1.0, abs(last)):
        return [f"SVM objective {value!r} != last history value {last!r}"]
    return []


def greedy_is_argmax(logits, emitted: list[int], eos: int, max_words: int, tol=1e-9) -> list[str]:
    """Greedy output equals the argmax path of a teacher-forced pass.

    `logits` (T, V) come from feeding <sos> + emitted; the argmax at each
    position must be the next emitted word, and <eos> after the last one
    unless the word cap stopped decoding. A near-tie within `tol` passes.
    """
    expected = list(emitted) + ([eos] if len(emitted) < max_words else [])
    if len(logits) < len(expected):
        return [f"teacher-forced pass has {len(logits)} positions for {len(expected)} words"]
    for t, want in enumerate(expected):
        row = logits[t]
        best = max(range(len(row)), key=lambda j: row[j])
        if best != want and row[best] - row[want] > tol:
            return [f"position {t}: greedy emitted {want}, argmax is {best}"]
    return []


def loss_below_uniform(name: str, loss: float, vocab_size: int) -> list[str]:
    bound = math.log(vocab_size)
    if not loss < bound:
        return [f"{name} final loss {loss:.4f} not below ln|V| = {bound:.4f}"]
    return []


def digests_agree(reference: dict, other: dict, what: str) -> list[str]:
    diff = sorted(k for k in set(reference) | set(other) if reference.get(k) != other.get(k))
    return [f"{what}: artifacts differ: {', '.join(diff)}"] if diff else []
