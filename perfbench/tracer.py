"""Span tracing of the ``satd_forge`` layers from outside the package.

``Tracer.install`` replaces each listed function or method with a wrapper
that records a span (name, start, end, parent) and, optionally, updates
counters from the call's arguments and result. A function is replaced in
every ``satd_forge`` module that binds it, because several modules import
names directly (``cli`` binds ``mine_file``, ``detector`` binds
``pad_batch``). Spans stay in memory until ``write``; ``uninstall`` puts
the originals back. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

PACKAGE = "satd_forge"


def _count_lex(counts, args, kwargs, result, pre):
    counts["java_miner.lex_java.mb"] += len(args[0].encode("utf-8")) / 1e6


def _pre_diagnostics(args, kwargs):
    diags = kwargs.get("diagnostics", args[2] if len(args) > 2 else None)
    return diags, len(diags) if diags is not None else 0


def _count_extract(counts, args, kwargs, result, pre):
    counts["java_miner.fragments"] += len(result)
    diags, before = pre
    if diags is not None:
        counts["java_miner.skipped_candidates"] += len(diags) - before


def _count_link(counts, args, kwargs, result, pre):
    counts["java_miner.multi_comment_drops"] += len(args[1]) - len(result)


def _count_sbt(counts, args, kwargs, result, pre):
    counts["ast_sbt.sbt_tokens"] += len(result)


def _count_pad(counts, args, kwargs, result, pre):
    mask = result[1]
    counts["_pad_real"] += float(mask.sum())
    counts["_pad_total"] += mask.size


def _count_lstm(counts, args, kwargs, result, pre):
    mask = args[2] if len(args) > 2 else kwargs["mask"]
    counts["tensor_core.lstm_cells"] += mask.size
    counts["_lstm_real"] += float(mask.sum())


def _count_predict(counts, args, kwargs, result, pre):
    counts["detector.predict.calls"] += 1


def _count_decode(counts, args, kwargs, result, pre):
    max_words = args[4] if len(args) > 4 else kwargs["max_words"]
    stopped = len(result) < max_words
    counts["generator.decode_steps"] += len(result) + stopped
    counts["_decode_calls"] += 1
    counts["_decode_eos"] += stopped


# (defining module, attribute path, counter, pre-call hook)
TARGETS = [
    ("cli", "main", None, None),
    ("java_miner", "lex_java", _count_lex, None),
    ("java_miner", "extract_outermost_ifs", _count_extract, _pre_diagnostics),
    ("java_miner", "link_comments", _count_link, None),
    ("java_miner", "label_comment", None, None),
    ("java_miner", "build_dataset", None, None),
    ("java_miner", "write_jsonl", None, None),
    ("java_miner", "read_jsonl", None, None),
    ("ast_sbt", "parse_if_statement", None, None),
    ("ast_sbt", "sbt_serialize", _count_sbt, None),
    ("textpipe", "normalize_comment", None, None),
    ("_porter", "porter_stem", None, None),
    ("textpipe", "build_vocabulary", None, None),
    ("textpipe", "pad_batch", _count_pad, None),
    ("tensor_core", "Embedding.forward", None, None),
    ("tensor_core", "Embedding.backward", None, None),
    ("tensor_core", "LstmLayer.forward", _count_lstm, None),
    ("tensor_core", "LstmLayer.backward", None, None),
    ("tensor_core", "pool_forward", None, None),
    ("tensor_core", "pool_backward", None, None),
    ("tensor_core", "Dense.forward", None, None),
    ("tensor_core", "Dense.backward", None, None),
    ("tensor_core", "bce_loss", None, None),
    ("tensor_core", "masked_cross_entropy", None, None),
    ("tensor_core", "Adam.step", None, None),
    ("tensor_core", "RmsProp.step", None, None),
    ("vsm", "bow_counts", None, None),
    ("vsm", "fit_tfidf", None, None),
    ("vsm", "transform", None, None),
    ("detector", "train_dl_detector", None, None),
    ("detector", "train_mnb", None, None),
    ("detector", "train_linear_svm", None, None),
    ("detector", "predict", _count_predict, None),
    ("generator", "Attention.forward", None, None),
    ("generator", "Attention.backward", None, None),
    ("generator", "Seq2SeqNetwork.decode_greedy", _count_decode, None),
    ("generator", "train_generator", None, None),
    ("pretrainer", "train_next_token_lm", None, None),
    ("evalkit", "prf1", None, None),
    ("evalkit", "run_cv", None, None),
    ("checkpoint", "save_checkpoint", None, None),
    ("checkpoint", "load_checkpoint", None, None),
]

COUNT_METRICS = [
    ("java_miner.lex_java.mb", "MB"),
    ("java_miner.fragments", "count"),
    ("java_miner.skipped_candidates", "count"),
    ("java_miner.multi_comment_drops", "count"),
    ("ast_sbt.sbt_tokens", "count"),
    ("textpipe.pad_real_fraction", "ratio"),
    ("tensor_core.lstm_cells", "count"),
    ("tensor_core.lstm_real_fraction", "ratio"),
    ("detector.predict.calls", "count"),
    ("generator.decode_steps", "count"),
    ("generator.decode_eos_fraction", "ratio"),
]


def resolve(package: str, module_name: str, path: str):
    """The function or the method (as stored on its class) at `path`, or
    None once a refactor has moved it."""
    try:
        module = importlib.import_module(f"{package}.{module_name}")
        if "." in path:
            cls_name, attr = path.split(".")
            return vars(getattr(module, cls_name))[attr]
        return getattr(module, path)
    except (ImportError, AttributeError, KeyError):
        return None


def replace(package: str, module_name: str, path: str, new) -> list[tuple]:
    """Bind `new` wherever the original is bound; returns the undo list."""
    module = importlib.import_module(f"{package}.{module_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        owners = [(getattr(module, cls_name), attr)]
    else:
        original = getattr(module, path)
        owners = [
            (m, attr)
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
            for attr, value in list(vars(m).items())
            if value is original
        ]
    undo = []
    for owner, attr in owners:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)
    return undo


def restore(undo: list[tuple]):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)
    undo.clear()


def span_name(module: str, path: str) -> str:
    return f"{module.lstrip('_')}.{path}"  # metric names start with a letter


def metric_units() -> dict[str, str]:
    """Every per-layer metric ``Tracer.layer_metrics`` reports, with its unit."""
    units = {f"{span_name(m, p)}.s": "s" for m, p, _, _ in TARGETS}
    units.update(COUNT_METRICS)
    units["trace.spans"] = "count"
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []
        self.active = True  # off while the operations kept as failures run

    def _wrap(self, name, fn, count, pre):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            state = pre(args, kwargs) if pre is not None else None
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                count(counts, args, kwargs, result, state)
            return result

        return traced

    def install(self):
        for module_name, path, count, pre in self.targets:
            original = resolve(PACKAGE, module_name, path)
            if original is None:  # its metrics read 0
                continue
            wrapped = self._wrap(span_name(module_name, path), original, count, pre)
            self._undo += replace(PACKAGE, module_name, path, wrapped)

    def uninstall(self):
        restore(self._undo)

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time covered by its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[k]
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Self time of every target plus the counters, for one round."""
        selfs = self.self_times()
        out = {f"{span_name(m, p)}.s": selfs.get(span_name(m, p), 0.0) for m, p, _, _ in self.targets}
        c = self.counts
        derived = {
            "textpipe.pad_real_fraction": _ratio(c["_pad_real"], c["_pad_total"]),
            "tensor_core.lstm_real_fraction": _ratio(c["_lstm_real"], c["tensor_core.lstm_cells"]),
            "generator.decode_eos_fraction": _ratio(c["_decode_eos"], c["_decode_calls"]),
        }
        for name, _ in COUNT_METRICS:
            out[name] = derived[name] if name in derived else c.get(name, 0.0)
        out["trace.spans"] = float(len(self.spans))
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
