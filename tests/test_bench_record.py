"""`scripts/bench_record.py` writes the record's schema.

One short run (one workload, one seed, half a second of timed rounds)
through the unchanged benchmark; no time is asserted.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def test_seed_lists():
    assert bench_record.seed_list("1-3") == [1, 2, 3]
    assert bench_record.seed_list("2,5-6,9") == [2, 5, 6, 9]


def test_summary_is_the_median_and_the_inclusive_quartiles():
    assert bench_record.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == {
        "values": [4.0, 1.0, 3.0, 2.0, 5.0], "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert bench_record.summary([7.0]) == {"values": [7.0], "median": 7.0, "q1": 7.0, "q3": 7.0}


def test_unknown_workload_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--workloads", "mine,train", "--out", str(tmp_path / "b.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "b.json").exists()


def test_one_run_writes_the_schema(tmp_path):
    out = tmp_path / "BENCH_perfbench.json"
    assert bench_record.main(["--workloads", "mine", "--seeds", "1", "--seconds", "0.5", "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record) == {"trees", "machine", "settings", "workloads"}
    assert list(record["trees"]) == ["this"]
    tree = record["trees"]["this"]
    assert set(tree) == {"revision", "dirty"}
    assert tree["revision"] is None or len(tree["revision"]) == 40
    assert tree["dirty"] in (None, True, False)
    machine = record["machine"]
    assert set(machine) == {"cpu_count", "affinity", "cpu_quota", "python", "numpy", "blas_threads"}
    assert machine["cpu_quota"] is None or machine["cpu_quota"] >= 1
    assert machine["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert record["settings"] == {"seeds": [1], "seconds": 0.5}
    assert list(record["workloads"]) == ["mine"]
    mine = record["workloads"]["mine"]
    assert len(mine["runs"]) == 1
    run = mine["runs"][0]
    assert (run["tree"], run["seed"], run["hash_seed"], run["correct"], run["failed"]) == ("this", 1, "1", True, 0)
    assert run["attempted"] > 0
    assert {"setup_s", "pipeline_s", "peak_rss_mb"} <= set(mine["metrics"])
    for metric in mine["metrics"].values():
        assert set(metric) == {"unit", "this"}
        values = metric["this"]["values"]
        assert len(values) == 1 and math.isfinite(values[0])
        assert metric["this"]["median"] == metric["this"]["q1"] == metric["this"]["q3"] == values[0]


def test_a_run_hashes_with_its_seed(monkeypatch):
    seen = {}

    class Done:
        returncode, stdout, stderr = 0, '{"correct": true}\n', ""

    def fake_run(argv, cwd, capture_output, text, env):
        seen.update(env)
        return Done()

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    assert bench_record.run_once(Path("."), "mine", 7, 0.5) == {"correct": True}
    assert seen["PYTHONHASHSEED"] == "7"
    assert seen["OPENBLAS_NUM_THREADS"] == "1"
