"""Benchmark of the satd-forge pipeline, driven through ``satd_forge.cli.main``.

    python3 perfbench/run.py --workload mine|detect|generate --seed N \
        --seconds S --trace 0|1

Run it from the repository root. Each run makes its inputs from the seed
under ``.perfbench/<workload>/``, runs one round of the workload's CLI
operations and checks every output, then runs timed rounds until
``--seconds`` have passed. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: on a 2-core machine OpenBLAS's
# default pool doubles CPU time and widens the spread without a speed-up.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SATD_THREADS", None)  # mining keeps its default single worker

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = "satd_forge"
OUT = Path(".perfbench")
SETUP_SAMPLES = 7
# Timings are wall seconds rescaled by `Probe`: shared machines change speed
# in bursts (1.0-1.6x from one second to the next on the 2-core machine the
# reference figures come from), and the probe slows with the workload.
PROBE_INTERVAL = 0.05
PROBE_SECONDS = 0.0016  # the probe task's usual CPU time there


class Probe:
    """A background thread that runs a fixed task every PROBE_INTERVAL and
    records the task's own CPU time. The task mixes dictionary updates and
    small matrix products, the two kinds of work the pipeline does, and never
    calls the package, so a faster program still shows as fewer seconds.
    Thread CPU time leaves out waiting for the interpreter lock but not a
    slower core, so the mean over an operation's span measures how fast the
    machine ran meanwhile."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.random((8, 16))
        self.w = rng.random((16, 64))
        self.words = [f"w{i}" for i in range(200)]
        self.samples: list[tuple[float, float]] = []  # (end time, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="perfbench-probe", daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _task(self):
        np, x, w = self.np, self.x, self.w
        for _ in range(20):
            counts: dict = {}
            for word in self.words:
                counts[word] = counts.get(word, 0) + len(word)
        for _ in range(150):
            z = x @ w
            z = np.tanh(z[:, :16]) * z[:, 16:32]

    def _loop(self):
        while not self._stop.wait(PROBE_INTERVAL):
            start = time.thread_time()
            self._task()
            self.samples.append((time.perf_counter(), time.thread_time() - start))

    def rescale(self, start: float, end: float) -> float:
        """Wall seconds from `start` to `end` at the probe's usual speed."""
        window = [s for t, s in self.samples if start <= t <= end]
        if len(window) < 3:  # a short span: the samples nearest its middle
            mid = 0.5 * (start + end)
            window = [s for _, s in sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[:3]]
        return (end - start) * PROBE_SECONDS / statistics.fmean(window)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["mine", "detect", "generate"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def setup_seconds(src: Path, probe: Probe) -> float:
    """Median (rescaled) time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {PACKAGE}.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(probe.rescale(start, time.perf_counter()))
    return statistics.median(samples)


def capture_first(targets) -> tuple[dict, list]:
    """Keep (args, kwargs, result) of the first call of each target."""
    import tracer

    captured: dict = {}
    undo: list = []

    def keeper(name, fn):
        def keep(*args, **kwargs):
            result = fn(*args, **kwargs)
            captured.setdefault(name, (args, kwargs, result))
            return result
        return keep

    for module, attr in targets:
        original = tracer.resolve(PACKAGE, module, attr)
        if original is not None:  # a missing target leaves its check without data
            undo += tracer.replace(PACKAGE, module, attr, keeper(f"{module}.{attr}", original))
    return captured, undo


def run_op(cli, op, work: Path, trace=None):
    """One CLI call. Returns (exit code or None, error text or None, start, end)."""
    sink = work / op.stdout if op.stdout else os.devnull
    with open(sink, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        if trace is not None:
            trace.active = not op.kept_failing
        start = time.perf_counter()
        try:
            code, error = cli.main(op.argv), None
        except Exception as exc:  # a raised fault is the operation's outcome
            code, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
        end = time.perf_counter()
    if trace is not None:
        trace.active = True
    return code, error, start, end


def run_round(cli, wl, probe: Probe, trace=None):
    """All operations once. Returns (rescaled seconds per timed op, failed
    count, problems)."""
    times, failed, problems = {}, 0, []
    for op in wl.ops:
        code, error, start, end = run_op(cli, op, wl.work, trace)
        if op.kept_failing:
            failed += error is not None  # it succeeds once it returns an exit code
            continue
        times[op.name] = probe.rescale(start, end)
        if code != 0:
            failed += 1
            problems.append(f"{op.name}: {error or f'exit code {code}'}")
    return times, failed, problems


def digests(wl) -> dict[str, str]:
    return {name: hashlib.sha256((wl.work / name).read_bytes()).hexdigest() for name in wl.artifacts}


def code_hash(src: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(list((src / PACKAGE).glob("*.py")) + list(HERE.glob("*.py"))):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def rerun_digests(name: str, seed: int, src: Path, found: dict) -> list[str]:
    """Compare with the artifacts an earlier run of the same code and seed wrote."""
    import checks

    store = OUT / "digests" / f"{name}-{seed}-{code_hash(src)}.json"
    if store.exists():
        return checks.digests_agree(json.loads(store.read_text()), found, "rerun with the same seed")
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(found, sort_keys=True))
    return []


def measure(args, src: Path, probe: Probe) -> tuple[dict, list[str]]:
    """One benchmark run; returns (result object, problems found)."""
    import checks
    import tracer
    from workloads import PHASE_RATES, WORKLOADS

    setup_s = setup_seconds(src.resolve(), probe)
    import satd_forge.cli as cli

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](seed=args.seed, work=work)
    wl.prepare()

    # round 1: capture what the checks need, verify every output
    captured, undo = capture_first(wl.captures)
    try:
        first, failed, problems = run_round(cli, wl, probe)
    finally:
        tracer.restore(undo)
    rounds = 1
    log = [{"round": 1, "traced": False, "seconds": first}]
    reference = {}
    if not problems:
        reference = digests(wl)
        try:
            problems += wl.check(captured)
        except Exception:  # report a check that cannot run, and keep measuring
            problems.append("a check could not run:\n" + traceback.format_exc())
        problems += rerun_digests(args.workload, args.seed, src, reference)
    del captured

    def timed_rounds(trace=None, seconds=args.seconds):
        """Whole rounds, started until `seconds` have passed (at least one)."""
        nonlocal rounds, failed
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            if trace is not None:
                trace.reset()
            times, f, p = run_round(cli, wl, probe, trace)
            rounds += 1
            failed += f
            problems.extend(p)
            problems.extend(checks.digests_agree(reference, digests(wl), f"round {rounds}"))
            runs.append((times, trace.layer_metrics() if trace is not None else None))
            log.append({"round": rounds, "traced": trace is not None, "seconds": times})
        return runs

    if args.trace:
        (base_times, _), = timed_rounds(seconds=0)
        trace = tracer.Tracer()
        trace.install()
        try:
            traced = timed_rounds(trace)
        finally:
            trace.uninstall()
        trace.write(work / "trace.jsonl")
        metrics = {
            name: (statistics.fmean(layer[name] for _, layer in traced), unit)
            for name, unit in tracer.metric_units().items()
        }
        base = sum(base_times.values())
        overhead = statistics.median(sum(t.values()) for t, _ in traced) / base - 1.0
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        rates = wl.phase_rates(base_times)
        for name, unit, _ in PHASE_RATES:
            metrics[name] = (rates.get(name, 0.0), unit)
    else:
        runs = timed_rounds()
        metrics = {
            "setup_s": (setup_s, "s"),
            "pipeline_s": (statistics.median(sum(t.values()) for t, _ in runs), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    (work / "rounds.json").write_text(json.dumps(log, indent=1))
    result = {
        "correct": not problems,
        "attempted": rounds * len(wl.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path("src")
    if not (src / PACKAGE / "cli.py").is_file():
        print(f"perfbench: no {src / PACKAGE} here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    with Probe() as probe:
        result, problems = measure(args, src, probe)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
