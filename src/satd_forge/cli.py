"""Command-line surface wiring the pipeline end to end.

Exit codes: 0 success, 1 usage, 2 data error (and running out of
memory), 3 training failure, 130 interrupted (Ctrl-C).
`mine` runs one worker process per CPU it may run on, or SATD_THREADS
workers when that is set and not empty, with at least MIN_FILES_PER_WORKER
files each; one worker mines in process. The CPUs it may run on are its
affinity mask, capped by its cgroup's CPU quota where one is set. The
corpus bytes do not depend on the worker count. All randomness flows from
the explicit --seed flags and every artifact records the producing config.

Only the mining side (java_miner, textpipe) loads with this module, so
mine, label and dataset start without numpy. The commands and recipes
that train, load or evaluate models import detector, generator,
pretrainer and evalkit in their own bodies.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

from . import __version__
from .atomic import atomic_write
from .errors import DataError, JavaLexError, SatdForgeError, TrainingError
from .java_miner import (
    JsonlRows,
    build_dataset,
    join_jsonl,
    label_comment,
    mine_file,
    rows_at,
    write_jsonl,
    write_rows,
)
from .textpipe import TokenStore, as_column, normalize_comment

DETECT_TASKS = ("detect-code", "detect-comment")
ALL_TASKS = DETECT_TASKS + ("generate",)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- dataset plumbing ------------------------------------------------------


def _read_task(path, task: str, projects: bool = False) -> TokenStore:
    """The task's items from the corpus file at `path`, read into a store
    in one pass: every row's SBT or comment words for a detector task, each
    commented SATD row's SBT and framed comment for generation; with
    `projects`, each row's project too."""
    if task == "generate":
        store = TokenStore.read(path, pairs=True)
        if not len(store):
            raise DataError("no SATD pairs available for generation")
        return store
    return TokenStore.read(path, code=task == "detect-code", comment=task == "detect-comment", projects=projects)


def _task_labels(store: TokenStore, task: str) -> tuple[list, bool]:
    """(labels, stratified) of a task's items: a detector task labels each
    item SATD (True) or not and splits them stratified; generation labels
    every pair 0 and splits them unstratified."""
    if task == "generate":
        return [0] * len(store), False
    return store.satd.tolist(), True


def _task_items(store: TokenStore, task: str):
    """A detector task's items: the SBT or the comment words of each row."""
    return store.code if task == "detect-code" else store.comment


def _vocab_kind(task: str) -> str:
    return "code" if task == "detect-code" else "comment"


def _predict_all(model, column) -> list[tuple[float, bool]]:
    """`predict_many` over the non-empty rows of a TokenColumn; an empty
    one scores (0.0, False): no tokens carry no admission."""
    from .detector import predict_many

    results = [(0.0, False)] * len(column)
    kept = [j for j, n in enumerate(column.lengths().tolist()) if n]
    for j, result in zip(kept, predict_many(model, column.select(kept))):
        results[j] = result
    return results


def _check_setting(task: str, hp_dict: dict):
    """The checked setting of a task's `--hp` dict, which its recipes and
    trainers read: a GeneratorHp for generation, the type the `model` names
    for a detector task. DataError for a key outside that kind, or for any
    value training would reject."""
    if task == "generate":
        from .generator import GeneratorHp

        return GeneratorHp.parse(hp_dict)
    from .detector import check_detector_setting

    return check_detector_setting(hp_dict)


def make_detector_recipe(task: str, setting, seed: int, store: TokenStore):
    """An evalkit.run_trials recipe over the store's task items: fit a
    checked detector setting on the training rows, score precision/recall/F1
    on the held-out rows."""
    from . import evalkit
    from .detector import fit_detector

    kind = _vocab_kind(task)
    column = _task_items(store, task)

    def recipe(train_ids, test_ids, index):
        model = fit_detector(setting, column.select(train_ids), store.satd[train_ids], seed + 1000 * index, kind)
        preds = [positive for _, positive in _predict_all(model, column.select(test_ids))]
        return evalkit.prf1(preds, store.satd[test_ids]).as_dict()

    return recipe


def make_generator_recipe(hp, seed: int, store: TokenStore):
    from . import evalkit
    from .generator import generate_comments, train_generator

    def recipe(train_ids, test_ids, index):
        model = train_generator(store.select(train_ids), hp, seed + 1000 * index)
        test = store.select(test_ids)
        hyps = generate_comments(model, test.code)
        references = [framed[1:-1] for framed in test.comment]
        return evalkit.mean_bleu(zip(hyps, references))

    return recipe


def _make_recipe(task: str, setting, seed: int, store: TokenStore):
    if task == "generate":
        return make_generator_recipe(setting, seed, store)
    return make_detector_recipe(task, setting, seed, store)


def _expand_grid(grid: dict) -> list[dict]:
    fixed = {k: v for k, v in grid.items() if not isinstance(v, list)}
    swept = {k: v for k, v in grid.items() if isinstance(v, list)}
    if not swept:
        return [dict(fixed)]
    keys = sorted(swept)
    combos = []
    for values in itertools.product(*(swept[k] for k in keys)):
        combo = dict(fixed)
        combo.update(dict(zip(keys, values)))
        combos.append(combo)
    return combos


def _read_utf8(path) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def _read_json(path) -> dict:
    try:
        value = json.loads(_read_utf8(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise DataError(f"{path}: expected a JSON object, found {type(value).__name__}")
    return value


# -- subcommands -----------------------------------------------------------


# `mine` gives each worker at least this many files, so small trees mine in
# process. Starting a two-worker pool costs about 60 ms, as much as mining
# 20 files of the benchmark's tree in process; on 2 CPUs a fresh `mine` of
# 24 of its files took 1.26x as long through the pool, and of 48 files 0.88x
MIN_FILES_PER_WORKER = 32


def _mine_one(path, root):
    """(records, diagnostics) of one file; a file that cannot be read or
    lexed gives no records and one diagnostic."""
    diagnostics: list[str] = []
    rel = path.relative_to(root)
    project = rel.parts[0] if len(rel.parts) > 1 else root.name
    try:
        records = mine_file(path, root=root, project=project, diagnostics=diagnostics)
    except JavaLexError as exc:
        # one unlexable or undecodable file must not abort a corpus-scale run
        return [], [f"skipped {rel}: {exc}"]
    except UnicodeDecodeError as exc:
        return [], [f"skipped {rel}: not UTF-8 ({exc.reason} at byte {exc.start})"]
    except OSError as exc:  # a dangling link, a directory named *.java, no read permission
        return [], [f"skipped {rel}: unreadable ({exc.strerror or exc})"]
    return records, [f"{rel}: {d}" for d in diagnostics]


def _mine_chunk(job) -> tuple[int, list[str]]:
    """Mine a job's files in order, writing their rows to the job's spool
    file; (pair count, diagnostics). Only these cross the process pool, so
    no process holds more than one file's records."""
    files, root, spool = job
    pairs, diagnostics = 0, []
    with open(spool, "w", encoding="utf-8") as out:
        for path in files:
            records, diags = _mine_one(path, root)
            write_rows(out, records)
            pairs += len(records)
            diagnostics.extend(diags)
    return pairs, diagnostics


def _quota_cpus(root: str) -> int | None:
    """The CPUs the CPU quota of this process's cgroup allows, rounded up, or
    None without a readable quota. The cgroup is named in root/proc/self/cgroup;
    its cpu.max (v2) or cpu.cfs_quota_us over cpu.cfs_period_us (v1) is read
    under root/sys/fs/cgroup, at the hierarchy's root where the cgroup's own
    path is missing, as inside a container."""
    base = Path(root, "sys", "fs", "cgroup")
    try:
        lines = Path(root, "proc", "self", "cgroup").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError):
        return None
    for controllers, path in (g for g in (line.split(":", 2)[1:] for line in lines) if len(g) == 2):
        if controllers and "cpu" not in controllers.split(","):
            continue
        names = ["cpu.cfs_quota_us", "cpu.cfs_period_us"] if controllers else ["cpu.max"]
        for where in (base / controllers / path.lstrip("/"), base / controllers):  # v2 lists no controllers
            try:
                quota, period = " ".join((where / name).read_text(encoding="utf-8") for name in names).split()
                return None if quota in ("max", "-1") else max(1, math.ceil(int(quota) / int(period)))
            except (OSError, ValueError, ZeroDivisionError):
                continue
    return None


def _mining_workers() -> int:
    """SATD_THREADS when set and not empty, else the number of CPUs this
    process may run on (its CPU affinity), capped by its cgroup's CPU quota
    where one is set."""
    threads = os.environ.get("SATD_THREADS", "")
    if threads:
        try:
            return int(threads)
        except ValueError:
            raise DataError(f"SATD_THREADS must be an integer, got {threads!r}") from None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, _quota_cpus("/") or cpus)


def _spool_dir(out: str, command: str):
    """A temporary directory for `command`'s spool files beside `out`, on
    its disk rather than a RAM-backed /tmp."""
    # imported here: only the commands that spool make a temporary directory
    import tempfile

    return tempfile.TemporaryDirectory(prefix=f".{command}-spool-", dir=os.path.dirname(os.path.realpath(out)))


def cmd_mine(args) -> int:
    root = Path(args.src_dir)
    if not root.is_dir():
        raise DataError(f"not a directory: {root}")
    files = sorted(root.rglob("*.java"))
    workers = max(1, min(_mining_workers(), len(files) // MIN_FILES_PER_WORKER))
    # one contiguous run of files per worker
    bounds = [len(files) * i // workers for i in range(workers + 1)]
    with _spool_dir(args.out, "mine") as spool_dir:
        jobs = [(files[a:b], root, os.path.join(spool_dir, f"{i}.jsonl"))
                for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]
        if workers > 1:
            # imported here: the pool loads multiprocessing, which no other command needs
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_mine_chunk, jobs))
        else:
            results = [_mine_chunk(job) for job in jobs]
        pairs = sum(n for n, _ in results)
        meta = {
            "command": "mine",
            "src_dir": str(root),
            "files": len(files),
            "pairs": pairs,
            "diagnostics": [d for _, diags in results for d in diags],
        }
        join_jsonl(args.out, meta, [spool for _, _, spool in jobs])
    print(f"mined {pairs} pairs from {len(files)} files -> {args.out}")
    return 0


def cmd_label(args) -> int:
    """Label each commented row as it is read. A row whose label changes is
    re-serialized; every other row is copied as read. The rows go to a spool
    beside the output, which `join_jsonl` puts behind the `_meta` line, so
    one row is held at a time."""
    out = args.out or args.corpus
    rows = JsonlRows(args.corpus)
    n_labeled = 0
    counts: dict[str, int] = {}
    with _spool_dir(out, "label") as spool_dir:
        spool = os.path.join(spool_dir, "rows.jsonl")
        with open(spool, "wb") as f:
            for r, line in rows:
                if r.comment_raw is not None:
                    n_labeled += 1
                    label = label_comment(r.comment_raw)
                    if label != r.label:
                        r.label = label
                        line = (r.to_json() + "\n").encode("utf-8")
                f.write(line)
                counts[r.label] = counts.get(r.label, 0) + 1
        join_jsonl(out, {**rows.meta, "command": "label"}, [spool])
    print(f"labeled {n_labeled} commented pairs -> {out} {json.dumps(counts, sort_keys=True)}")
    return 0


def cmd_dataset(args) -> int:
    # the kept rows are copied after the shuffle from the file the pass read, through its
    # handle, so an output or another command that replaces the input changes nothing
    with open(args.corpus, "rb") as corpus:
        if not corpus.seekable():
            raise DataError(f"{args.corpus}: dataset copies its rows back from its input, "
                            "which must be a regular file, not a pipe")
        dataset = build_dataset(JsonlRows(args.corpus, corpus), seed=args.seed, balance=args.balance)
        meta = {
            "command": "dataset",
            "seed": args.seed,
            "balance": args.balance,
            "provenance": dataset.provenance,
        }
        write_jsonl(args.out, rows_at(corpus, dataset.pairs), meta)
        print(f"dataset: {dataset.provenance} -> {args.out}")
        if args.pool_out:
            pool_meta = {"command": "dataset", "role": "pretraining-pool", "seed": args.seed}
            write_jsonl(args.pool_out, rows_at(corpus, dataset.leftover_pool), pool_meta)
            print(f"pool: {len(dataset.leftover_pool)} leftover NonSATD -> {args.pool_out}")
    return 0


def cmd_tune(args) -> int:
    from . import evalkit

    store = _read_task(args.data, args.task)
    grid = _read_json(args.grid)
    settings = _expand_grid(grid)
    # every setting is checked before the first trial trains
    checked = [_check_setting(args.task, setting) for setting in settings]
    config = {
        "command": "tune",
        "task": args.task,
        "seed": args.seed,
        "fraction": args.fraction,
        "grid": grid,
    }
    labels, stratified = _task_labels(store, args.task)
    tuning_ids, remainder_ids = evalkit.tuning_split(
        labels, fraction=args.fraction, stratified=stratified, seed=args.seed
    )
    trials = [(_make_recipe(args.task, setting, args.seed, store), 0, tuning_ids) for setting in checked]
    scores = evalkit.run_trials(len(store), trials)
    rows = [{**setting, **row} for setting, row in zip(settings, scores)]
    if args.task == "generate":
        rows = evalkit.sort_result_rows(rows, primary="bleu_4", tiebreak="bleu_1")
        nominated = rows[:1]
    else:
        rows = evalkit.sort_result_rows(rows)
        by_pool: dict[str, list[dict]] = {}
        for row in rows:
            by_pool.setdefault(str(row.get("pooling", "-")), []).append(row)
        nominated = evalkit.sort_result_rows([row for pod in by_pool.values() for row in pod[:3]])
    payload = {"config": config, "rows": rows, "nominated": nominated}
    with atomic_write(args.out) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True))
    print(f"tuned {len(settings)} settings -> {args.out}")
    if args.remainder_out:
        # the rows behind the remainder's items, copied as read in file order
        spans = sorted(map(tuple, store.spans[remainder_ids].tolist()))
        meta = {"command": "tune", "role": "remainder", "task": args.task, "seed": args.seed,
                "fraction": args.fraction}
        with open(args.data, "rb") as data:
            write_jsonl(args.remainder_out, rows_at(data, spans), meta)
        print(f"remainder: {len(spans)} rows -> {args.remainder_out}")
    return 0


def cmd_cv(args) -> int:
    from . import evalkit

    store = _read_task(args.data, args.task)
    hp_dict = _read_json(args.hp)
    setting = _check_setting(args.task, hp_dict)
    config = {
        "command": "cv",
        "task": args.task,
        "seed": args.seed,
        "k": args.k,
        "hp": hp_dict,
    }
    labels, stratified = _task_labels(store, args.task)
    plan = evalkit.stratified_folds(labels, k=args.k, stratified=stratified, seed=args.seed)
    result = evalkit.run_cv(_make_recipe(args.task, setting, args.seed, store), plan)
    if args.task == "generate":
        scores = ["bleu_1", "bleu_2", "bleu_3", "bleu_4"]
    else:
        scores = ["precision", "recall", "f1"]
    rows = list(result.per_fold) + [{**result.mean, "fold": "mean"}]
    evalkit.write_report(args.report, rows, folds=plan, config=config, columns=["fold", "test_size", *scores],
                         title=f"{args.task} {args.k}-fold cross validation")
    print(f"cv mean: {json.dumps(result.mean, sort_keys=True)} -> {args.report}")
    return 0


def cmd_pretrain(args) -> int:
    from .detector import DlHp
    from .pretrainer import save_lm, train_next_token_lm

    sequences = TokenStore.read(args.pool, code=True).code
    hp = DlHp.parse(_read_json(args.hp) if args.hp else {})
    model = train_next_token_lm(sequences, hp, args.seed)
    save_lm(model, args.out)
    print(f"pretrained LM on {len(sequences)} sequences, loss {model.final_loss:.4f} -> {args.out}")
    return 0


def cmd_train(args) -> int:
    from .detector import fit_detector, save_detector
    from .generator import save_generator, train_generator
    from .pretrainer import detector_start, load_lm

    store = _read_task(args.data, args.task)
    setting = _check_setting(args.task, _read_json(args.hp) if args.hp else {})
    if args.task == "generate" and args.init:
        raise DataError("a pre-trained language model cannot initialize the generator")
    if args.task == "generate":
        model = train_generator(store, setting, args.seed)
        save_generator(model, args.out)
        print(f"generator trained on {len(store)} pairs, loss {model.final_loss:.4f} -> {args.out}")
        return 0
    start = detector_start(load_lm(args.init), args.mode.replace("-", "_")) if args.init else {}
    items = _task_items(store, args.task)
    model = fit_detector(setting, items, store.satd, args.seed, _vocab_kind(args.task), **start)
    save_detector(model, args.out)
    print(f"{model.kind} detector trained on {len(items)} sequences -> {args.out}")
    return 0


def _input_sequences(path, kind: str, check) -> tuple[list[str], list[list[str]]]:
    """The non-blank lines of `path` and their token sequences. A line that
    does not convert, or whose non-empty sequence `check` rejects, raises
    DataError naming `path:line:`."""
    lines, sequences = [], []
    for lineno, line in enumerate(_read_utf8(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            seq = _line_to_sequence(line, kind)
            if seq:
                check(len(seq))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        lines.append(line)
        sequences.append(seq)
    return lines, sequences


def _line_to_sequence(line: str, kind: str) -> list[str]:
    if kind == "comment":
        return normalize_comment(line)
    from .ast_sbt import parse_if_statement, sbt_serialize
    from .java_miner import lex_java

    return sbt_serialize(parse_if_statement(lex_java(line)))


def cmd_detect(args) -> int:
    from .detector import check_detector_input, load_detector

    model = load_detector(args.model)
    kind = args.kind or model.vocab.kind
    lines, sequences = _input_sequences(args.input, kind, partial(check_detector_input, model))
    results = _predict_all(model, as_column(sequences))
    for line, (prob, positive) in zip(lines, results):
        verdict = "SATD" if positive else "NonSATD"
        print(f"{prob:.6f}\t{verdict}\t{line}")
    return 0


def cmd_generate(args) -> int:
    from .generator import check_generator_input, generate_comments, load_generator

    model = load_generator(args.model)
    _, sequences = _input_sequences(args.input, "code", partial(check_generator_input, model))
    for words in generate_comments(model, sequences):
        print("// " + " ".join(words))
    return 0


def cmd_xproject(args) -> int:
    from . import evalkit

    store = _read_task(args.data, args.task, projects=True)
    hp_dict = _read_json(args.hp) if args.hp else {}
    setting = _check_setting(args.task, hp_dict)
    recipe = make_detector_recipe(args.task, setting, args.seed, store)
    rows, mean = evalkit.cross_project_rounds(store.projects, recipe)
    config = {"command": "xproject", "task": args.task, "seed": args.seed, "hp": hp_dict}
    table_rows = rows + [{"project": "average", **mean}]
    evalkit.write_report(
        args.report,
        table_rows,
        config=config,
        columns=["project", "test_size", "precision", "recall", "f1"],
        title=f"{args.task} leave-one-project-out",
    )
    print(f"{len(rows)} rounds, average {json.dumps(mean, sort_keys=True)} -> {args.report}")
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="satd-forge", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("mine", help="mine a directory tree of .java files")
    p.add_argument("src_dir")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("label", help="apply keyword labels to a mined corpus")
    p.add_argument("corpus")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("dataset", help="dedup, filter, shuffle, balance")
    p.add_argument("corpus")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--balance", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--pool-out", default=None)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("tune", help="grid search on the stratified tuning split")
    p.add_argument("data")
    p.add_argument("--task", choices=ALL_TASKS, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fraction", type=float, default=0.10)
    p.add_argument("--out", required=True)
    p.add_argument("--remainder-out", default=None,
                   help="write the rows outside the tuning split here, for cv")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("cv", help="k-fold cross validation")
    p.add_argument("data")
    p.add_argument("--task", choices=ALL_TASKS, required=True)
    p.add_argument("--hp", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("pretrain", help="next-token LM over a code pool")
    p.add_argument("pool")
    p.add_argument("--hp", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train", help="train one model on a dataset")
    p.add_argument("data")
    p.add_argument("--task", choices=ALL_TASKS, required=True)
    p.add_argument("--hp", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--init", default=None, help="pre-trained LM checkpoint")
    p.add_argument("--mode", choices=["end2end", "embedding-only"], default="end2end")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="classify code or comments from a file")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=["code", "comment"], default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("generate", help="generate comments for code lines")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("xproject", help="leave-one-project-out validation")
    p.add_argument("data")
    p.add_argument("--task", choices=DETECT_TASKS, default="detect-comment")
    p.add_argument("--hp", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_xproject)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "func", None):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except TrainingError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return 3
    except (SatdForgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the allocation that failed; a bare MemoryError has none
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
