"""Record the benchmark's end-to-end metrics in `BENCH_perfbench.json`.

Runs `perfbench/run.py` unchanged and untraced, one subprocess per run,
for each workload and seed, and keeps the JSON object each run prints
last. With
`--against TREE` (another checkout of the repository, for instance the
parent commit's) it runs alternating pairs: each seed runs on both trees,
the tree that goes first alternating from seed to seed, so a machine that
changes speed during the record weighs on both sides alike.

    python3 scripts/bench_record.py --workloads generate --seeds 1-10 --seconds 16 \\
        --against ../parent --out BENCH_perfbench.json

The record holds each tree's git revision and whether its tree is dirty;
the machine (CPU count and affinity, Python and numpy versions, and the
BLAS thread settings the runs get); every run's seed, tree, `correct`,
`attempted` and `failed`; and, per workload, metric and tree, the raw
values in seed order, their median and their quartiles. It asserts no
times: comparing two records, or two trees in one, is the reader's.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("mine", "detect", "generate")
# run.py pins these to 1 itself before numpy loads; the runs get them set anyway
BLAS_THREADS = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def seed_list(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git(tree: Path, *args) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def describe(tree: Path) -> dict:
    status = git(tree, "status", "--porcelain", "--untracked-files=no")
    return {"revision": git(tree, "rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def machine() -> dict:
    import numpy

    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(affinity) if affinity is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object one untraced `run.py` run prints last."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, env={**os.environ, **BLAS_THREADS})
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} in {tree} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def record(trees: dict[str, Path], workloads, seeds, seconds: float, log=print) -> dict:
    result = {
        "trees": {name: describe(tree) for name, tree in trees.items()},
        "machine": machine(),
        "settings": {"seeds": seeds, "seconds": seconds},
        "workloads": {},
    }
    names = list(trees)
    for workload in workloads:
        runs, metrics = [], {}
        for k, seed in enumerate(seeds):
            for name in names if k % 2 == 0 else names[::-1]:
                out = run_once(trees[name], workload, seed, seconds)
                runs.append({"tree": name, "seed": seed,
                             **{key: out[key] for key in ("correct", "attempted", "failed")}})
                for metric, value in out["metrics"].items():
                    entry = metrics.setdefault(metric, {"unit": value["unit"], "by_seed": {n: {} for n in names}})
                    entry["by_seed"][name][seed] = value["value"]
                log(f"{workload} seed {seed} {name}: " + " ".join(
                    f"{metric}={value['value']:.4g}" for metric, value in out["metrics"].items()))
        result["workloads"][workload] = {"runs": runs, "metrics": {
            metric: {"unit": entry["unit"],
                     **{n: summary([by_seed[s] for s in seeds]) for n, by_seed in entry["by_seed"].items()}}
            for metric, entry in metrics.items()
        }}
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS), help="comma-separated (default: all three)")
    p.add_argument("--seeds", default="1-3", help="e.g. 1-3 or 1,4,9 (default: 1-3)")
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--against", type=Path, help="another checkout, run in alternating pairs")
    p.add_argument("--out", type=Path, default=ROOT / "BENCH_perfbench.json")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(WORKLOADS))
    if unknown:
        p.error(f"unknown workload(s): {', '.join(unknown)}")
    trees = {"this": ROOT}
    if args.against is not None:
        if not (args.against / "perfbench" / "run.py").is_file():
            p.error(f"{args.against} holds no perfbench/run.py")
        trees["against"] = args.against.resolve()
    result = record(trees, workloads, seed_list(args.seeds), args.seconds, log=lambda line: print(line, file=sys.stderr))
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
