import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from satd_forge import cli, detector, generator, pretrainer
from satd_forge.ast_sbt import _MAX_NESTING
from satd_forge.cli import main
from satd_forge.errors import DataError

FIXTURES = Path(__file__).parent / "fixtures" / "java"
# a checkpoint of each kind, by the kind its header records
CHECKPOINTS = {
    "dl": FIXTURES.parent / "networks" / "dl.ckpt",
    "lm": FIXTURES.parent / "networks" / "lm.ckpt",
    "generator": FIXTURES.parent / "networks" / "generator.ckpt",
    "svm": FIXTURES.parent / "linear" / "svm_tfidf.ckpt",
}


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def corpus(tmp_path):
    out = tmp_path / "corpus.jsonl"
    assert run("mine", str(FIXTURES), "--out", str(out)) == 0
    assert run("label", str(out)) == 0
    return out


@pytest.fixture()
def pool_tree(tmp_path):
    """The fixtures copied into six projects, with an unlexable and a
    Latin-1 file: 74 files, enough for two mining workers."""
    tree = tmp_path / "tree"
    for p in range(6):
        shutil.copytree(FIXTURES, tree / f"p{p}")
    (tree / "p2" / "Bad.java").write_text("class B { /* never closed\n")
    (tree / "p4" / "Cafe.java").write_bytes("class C { // caf\u00e9\n }\n".encode("latin-1"))
    return tree


@pytest.fixture()
def pool_spy(monkeypatch):
    """The worker count of every process pool started while the test runs."""
    from concurrent.futures import ProcessPoolExecutor

    started = []

    class Spy(ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return started


def read_rows(path):
    rows = []
    for line in Path(path).read_text().splitlines():
        obj = json.loads(line)
        if "_meta" not in obj:
            rows.append(obj)
    return rows


def tune_with_remainder(tmp_path, monkeypatch, data, task, grid):
    """(tuning rows, remainder rows, the rows behind the task's items) of
    one `tune --remainder-out` over `data`: the tuning rows are the ones its
    trials score, read back from the input."""
    from satd_forge import evalkit

    scored = []
    real_run_trials = evalkit.run_trials

    def spy(n_items, trials):
        scored.extend(test_ids for _, _, test_ids in trials)
        return real_run_trials(n_items, trials)

    monkeypatch.setattr(evalkit, "run_trials", spy)
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    remainder = tmp_path / "remainder.jsonl"
    assert run("tune", str(data), "--task", task, "--grid", str(tmp_path / "grid.json"), "--seed", "3",
               "--out", str(tmp_path / "t.json"), "--remainder-out", str(remainder)) == 0
    lines = [line for line in Path(data).read_bytes().splitlines(keepends=True) if b'"_meta"' not in line]
    item_lines = [line for line in lines
                  if task != "generate" or (json.loads(line)["label"] == "SATD" and json.loads(line)["comment_words"])]
    assert all(ids == scored[0] for ids in scored)
    tuning = [item_lines[i] for i in scored[0]]
    out = remainder.read_bytes().splitlines(keepends=True)
    assert json.loads(out[0])["_meta"] == {"command": "tune", "role": "remainder", "task": task, "seed": 3,
                                           "fraction": 0.1}
    return tuning, out[1:], item_lines


def assert_partition(tuning, remainder, item_lines):
    """The tuning rows and the remainder rows split the items' rows, and the
    remainder holds its rows as read, in file order."""
    assert tuning and remainder
    assert sorted(tuning + remainder) == sorted(item_lines)
    assert remainder == [line for line in item_lines if line not in tuning]


class TestMineAndLabel:
    def test_golden_pair_count(self, corpus):
        rows = read_rows(corpus)
        assert len(rows) == 10
        labels = sorted(r["label"] for r in rows)
        assert labels.count("SATD") == 5
        assert labels.count("NonSATD") == 1
        assert labels.count("Excluded") == 1
        assert labels.count("Unlabeled") == 3

    def test_meta_line_records_config(self, corpus):
        first = json.loads(corpus.read_text().splitlines()[0])
        assert "_meta" in first
        assert first["_meta"]["files"] == 12

    def test_missing_directory_is_data_error(self, tmp_path):
        assert run("mine", str(tmp_path / "nope"), "--out", str(tmp_path / "x.jsonl")) == 2

    def test_unlexable_file_skipped_with_diagnostic(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "Good.java").write_text("class G { void m() { if (a) { f(); } } }\n")
        (src / "Bad.java").write_text("class B { /* never closed\n")
        out = tmp_path / "c.jsonl"
        assert run("mine", str(src), "--out", str(out)) == 0
        assert len(read_rows(out)) == 1
        meta = json.loads(out.read_text().splitlines()[0])["_meta"]
        assert any("Bad.java" in d for d in meta["diagnostics"])

    def test_parallel_mining_matches_serial(self, pool_tree, tmp_path, monkeypatch, pool_spy):
        # one worker mines in process; two and the default take the pool, and every count
        # writes the same bytes, diagnostics in file order included
        outs = []
        for threads in ("1", "2", None):
            if threads is None:
                monkeypatch.delenv("SATD_THREADS", raising=False)
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
                monkeypatch.setattr(cli, "_quota_cpus", lambda root: None)  # whatever the host's cgroup says
            else:
                monkeypatch.setenv("SATD_THREADS", threads)
            outs.append(tmp_path / f"c{threads}.jsonl")
            assert run("mine", str(pool_tree), "--out", str(outs[-1])) == 0
        assert pool_spy == [2, 2]
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        meta = json.loads(outs[0].read_text().splitlines()[0])["_meta"]
        assert meta["files"] == 74 and meta["pairs"] == 60
        assert [d.split(":")[0] for d in meta["diagnostics"]] == [
            "skipped p2/Bad.java", "skipped p4/Cafe.java"]

    def test_small_trees_mine_in_process(self, tmp_path, monkeypatch, pool_spy):
        # 12 files are fewer than two workers' worth: the pool would cost more than it saves
        monkeypatch.setenv("SATD_THREADS", "8")
        assert run("mine", str(FIXTURES), "--out", str(tmp_path / "c.jsonl")) == 0
        assert pool_spy == []

    def test_worker_count_is_capped_by_files(self, pool_tree, tmp_path, monkeypatch, pool_spy):
        # 74 files give at most two workers of MIN_FILES_PER_WORKER files each
        monkeypatch.setenv("SATD_THREADS", "16")
        assert run("mine", str(pool_tree), "--out", str(tmp_path / "c.jsonl")) == 0
        assert pool_spy == [74 // cli.MIN_FILES_PER_WORKER] == [2]

    def test_default_worker_count_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("SATD_THREADS", raising=False)
        monkeypatch.setattr(cli, "_quota_cpus", lambda root: None)  # whatever the host's cgroup says
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert cli._mining_workers() == 3
        # where the affinity call does not exist, every CPU counts; an unknown count is one
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert cli._mining_workers() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._mining_workers() == 1
        monkeypatch.setenv("SATD_THREADS", "")
        assert cli._mining_workers() == 1

    def test_default_worker_count_is_capped_by_the_cpu_quota(self, monkeypatch):
        monkeypatch.delenv("SATD_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        seen = []
        monkeypatch.setattr(cli, "_quota_cpus", lambda root: seen.append(root) or 2)
        assert cli._mining_workers() == 2
        assert seen == ["/"]
        monkeypatch.setattr(cli, "_quota_cpus", lambda root: 100)
        assert cli._mining_workers() == 64
        # SATD_THREADS still wins
        monkeypatch.setenv("SATD_THREADS", "5")
        assert cli._mining_workers() == 5

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_spool_files_are_removed(self, pool_tree, tmp_path, monkeypatch, threads):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setenv("SATD_THREADS", threads)
        assert run("mine", str(pool_tree), "--out", str(out_dir / "c.jsonl")) == 0
        assert sorted(os.listdir(out_dir)) == ["c.jsonl"]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_spool_files_are_removed_when_mining_fails(self, pool_tree, tmp_path, monkeypatch, capsys,
                                                       threads, pool_spy):
        real = cli.mine_file

        def fail_on_one_file(path, *args, **kwargs):
            if path.name == "Nested.java" and path.parent.name == "p3":
                raise DataError("planted failure")
            return real(path, *args, **kwargs)

        # forked workers inherit the patched module
        monkeypatch.setattr(cli, "mine_file", fail_on_one_file)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setenv("SATD_THREADS", threads)
        assert run("mine", str(pool_tree), "--out", str(out_dir / "c.jsonl")) == 2
        assert capsys.readouterr().err == "error: planted failure\n"
        assert pool_spy == ([2] if threads == "2" else [])
        assert os.listdir(out_dir) == []

    @pytest.mark.parametrize("threads", ["abc", "2.5"])
    def test_malformed_thread_count_is_data_error(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("SATD_THREADS", threads)
        assert run("mine", str(FIXTURES), "--out", str(tmp_path / "c.jsonl")) == 2
        assert capsys.readouterr().err == f"error: SATD_THREADS must be an integer, got {threads!r}\n"
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_counts_up_to_one_are_accepted(self, tmp_path, monkeypatch, threads):
        serial, other = tmp_path / "s.jsonl", tmp_path / "o.jsonl"
        assert run("mine", str(FIXTURES), "--out", str(serial)) == 0
        monkeypatch.setenv("SATD_THREADS", threads)
        assert run("mine", str(FIXTURES), "--out", str(other)) == 0
        assert read_rows(serial) == read_rows(other)

    def test_importing_the_cli_loads_no_process_pool(self):
        # only `mine` on a tree large enough for two workers uses the pool; no other command pays for loading it
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, satd_forge.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_importing_the_cli_loads_no_numpy(self):
        # the CLI loads textpipe, the token store's module, which imports numpy only in the bodies that need it
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, satd_forge.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"

    def test_mining_commands_load_no_model_stack(self, tmp_path):
        # mine, label and dataset start without numpy; the model commands import what they run
        src = str(Path(__file__).parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        model_stack = ["numpy"] + [f"satd_forge.{name}" for name in
                                   ("tensor_core", "detector", "generator", "pretrainer", "checkpoint", "vsm", "evalkit")]
        corpus, data = str(tmp_path / "c.jsonl"), str(tmp_path / "d.jsonl")
        code = "\n".join([
            "import sys",
            "from satd_forge import cli",
            f"assert cli.main(['mine', {str(FIXTURES)!r}, '--out', {corpus!r}]) == 0",
            f"assert cli.main(['label', {corpus!r}]) == 0",
            f"assert cli.main(['dataset', {corpus!r}, '--seed', '1', '--out', {data!r}]) == 0",
            f"print([name for name in {model_stack!r} if name in sys.modules])",
        ])
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "[]"
        assert read_rows(data)


def well_formed_sbt(tokens):
    """One tree: `( label` opens and `) label` closes the same label."""
    stack, roots = [], 0
    for bracket, label in zip(tokens[::2], tokens[1::2]):
        if bracket == "(":
            roots += not stack
            stack.append(label)
        elif not stack or stack.pop() != label:
            return False
    return len(tokens) % 4 == 0 and not stack and roots == 1


class TestMiningIsolation:
    @pytest.mark.parametrize(
        "body",
        ["if (" + "(" * 100 + "a" + ")" * 100 + ") { f(); }", "if (a) " * 400 + "f();"],
        ids=["deep-parens", "deep-if"],
    )
    def test_deep_nesting_mines_one_pair(self, tmp_path, body):
        src = tmp_path / "src"
        src.mkdir()
        (src / "Deep.java").write_text("class D { void m() { " + body + " } }\n")
        out = tmp_path / "c.jsonl"
        assert run("mine", str(src), "--out", str(out)) == 0
        rows = read_rows(out)
        assert [r["code_text"] for r in rows] == [body]
        assert well_formed_sbt(rows[0]["sbt_tokens"])
        meta = json.loads(out.read_text().splitlines()[0])["_meta"]
        assert meta["diagnostics"] == [
            f"Deep.java: truncated if-statement at line 1, column 22: nested deeper than {_MAX_NESTING} levels"
        ]

    def test_undecodable_file_skipped_with_diagnostic(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "Good.java").write_text("class G { void m() { if (a) { f(); } } }\n")
        (src / "Cafe.java").write_bytes("class L { void m() { // caf\xe9\n if (a) { f(); } } }\n".encode("latin-1"))
        out = tmp_path / "c.jsonl"
        assert run("mine", str(src), "--out", str(out)) == 0
        assert [r["path"] for r in read_rows(out)] == ["Good.java"]
        meta = json.loads(out.read_text().splitlines()[0])["_meta"]
        assert meta["diagnostics"] == ["skipped Cafe.java: not UTF-8 (invalid continuation byte at byte 27)"]

    def test_unreadable_path_skipped_with_diagnostic(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        (src / "Good.java").write_text("class G { void m() { if (a) { f(); } } }\n")
        (src / "Broken.java").symlink_to(src / "Missing.java")
        out = tmp_path / "c.jsonl"
        assert run("mine", str(src), "--out", str(out)) == 0
        assert [r["path"] for r in read_rows(out)] == ["Good.java"]
        meta = json.loads(out.read_text().splitlines()[0])["_meta"]
        assert meta["files"] == 2
        assert meta["diagnostics"] == ["skipped Broken.java: unreadable (No such file or directory)"]


class TestDatasetCommand:
    def test_dataset_and_rerun_byte_identical(self, corpus, tmp_path):
        d1, d2 = tmp_path / "d1.jsonl", tmp_path / "d2.jsonl"
        assert run("dataset", str(corpus), "--seed", "11", "--balance", "--out", str(d1)) == 0
        assert run("dataset", str(corpus), "--seed", "11", "--balance", "--out", str(d2)) == 0
        assert d1.read_bytes() == d2.read_bytes()
        rows = read_rows(d1)
        labels = [r["label"] for r in rows]
        assert labels.count("SATD") == labels.count("NonSATD") + 4  # 5 SATD, 1 NonSATD

    def test_pool_out(self, corpus, tmp_path):
        pool = tmp_path / "pool.jsonl"
        out = tmp_path / "d.jsonl"
        assert run("dataset", str(corpus), "--seed", "1", "--balance", "--out", str(out),
                   "--pool-out", str(pool)) == 0
        assert pool.exists()


def synthetic_corpus_file(path, n=60, n_projects=3):
    """Balanced JSONL dataset with planted marker tokens."""
    import numpy as np

    rng = np.random.default_rng(5)
    rows = []
    for i in range(n):
        positive = i % 2 == 0
        length = int(rng.integers(5, 9))
        code = [f"tok{j}" for j in rng.integers(0, 20, length)]
        words = ["plain", "words", f"w{rng.integers(0, 9)}"]
        if positive:
            code.insert(int(rng.integers(0, len(code) + 1)), "hackmark")
            code.insert(int(rng.integers(0, len(code) + 1)), "fixmark")
            words = ["todo", "fix", "the", f"thing{i % 7}", f"w{i % 5}"]
        rows.append(
            {
                "project": f"proj{i % n_projects}",
                "path": f"proj{i % n_projects}/F{i}.java",
                "span": [0, 1],
                "column": 1,
                "code_text": "if(x){}",
                "sbt_tokens": code,
                "comment_raw": "// " + " ".join(words),
                "comment_words": words,
                "label": "SATD" if positive else "NonSATD",
            }
        )
    with open(path, "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
    return path


class TestTrainDetectPipeline:
    def test_traditional_train_and_detect(self, tmp_path, capsys):
        data = synthetic_corpus_file(tmp_path / "data.jsonl")
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": "mnb", "features": "bow"}))
        model = tmp_path / "m.ckpt"
        assert run("train", str(data), "--task", "detect-comment", "--hp", str(hp),
                   "--seed", "3", "--out", str(model)) == 0
        inputs = tmp_path / "lines.txt"
        inputs.write_text("// todo fix the thing0 w0\n// plain words w1\n")
        capsys.readouterr()
        assert run("detect", "--model", str(model), "--input", str(inputs)) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t")[1] == "SATD"
        assert lines[1].split("\t")[1] == "NonSATD"

    def test_dl_train_detect_code(self, tmp_path, capsys):
        data = synthetic_corpus_file(tmp_path / "data.jsonl")
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": "dl", "latent": 8, "layers": 1,
                                  "batch_size": 16, "pooling": "max", "epochs": 20,
                                  "learning_rate": 0.002}))
        model = tmp_path / "m.ckpt"
        assert run("train", str(data), "--task", "detect-code", "--hp", str(hp),
                   "--seed", "3", "--out", str(model)) == 0
        assert model.exists()
        # detect on raw Java lines: lexed, parsed, serialized, classified
        inputs = tmp_path / "code.txt"
        inputs.write_text("if (a > 0) { fire(); }\n")
        capsys.readouterr()
        assert run("detect", "--model", str(model), "--input", str(inputs)) == 0
        line = capsys.readouterr().out.strip()
        assert line.split("\t")[1] in ("SATD", "NonSATD")

    def test_cv_reports(self, tmp_path):
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=40)
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": "mnb"}))
        report = tmp_path / "rep"
        assert run("cv", str(data), "--task", "detect-comment", "--hp", str(hp),
                   "--k", "10", "--seed", "2", "--report", str(report)) == 0
        metrics = json.loads((report / "metrics.json").read_text())
        fold_rows = [r for r in metrics["rows"] if r["fold"] != "mean"]
        assert len(fold_rows) == 10
        assert (report / "folds.json").exists()
        assert (report / "table.txt").exists()

    def test_cv_rerun_identical_reports(self, tmp_path):
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=30)
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": "svm", "features": "tfidf"}))
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        for rep in (r1, r2):
            assert run("cv", str(data), "--task", "detect-comment", "--hp", str(hp),
                       "--k", "5", "--seed", "4", "--report", str(rep)) == 0
        assert (r1 / "metrics.json").read_bytes() == (r2 / "metrics.json").read_bytes()
        assert (r1 / "folds.json").read_bytes() == (r2 / "folds.json").read_bytes()

    def test_tune_nominates_per_pooling(self, tmp_path):
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=40)
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"model": "dl", "latent": [8], "layers": [1],
                                    "batch_size": [16], "pooling": ["last", "max"],
                                    "epochs": 5}))
        out = tmp_path / "tuning.json"
        assert run("tune", str(data), "--task", "detect-code", "--grid", str(grid),
                   "--seed", "1", "--out", str(out)) == 0
        tuning = json.loads(out.read_text())
        assert len(tuning["rows"]) == 2
        assert tuning["config"]["seed"] == 1
        f1s = [r["f1"] for r in tuning["rows"]]
        assert f1s == sorted(f1s, reverse=True)

    def test_tune_remainder_partitions_the_input(self, tmp_path, monkeypatch):
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=40)
        tuning, remainder, item_lines = tune_with_remainder(tmp_path, monkeypatch, data, "detect-code",
                                                            {"model": "mnb"})
        assert len(item_lines) == 40 and len(tuning) == 4
        assert_partition(tuning, remainder, item_lines)

    def test_xproject_rounds(self, tmp_path):
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=45, n_projects=3)
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": "mnb"}))
        report = tmp_path / "xp"
        assert run("xproject", str(data), "--task", "detect-comment", "--hp", str(hp),
                   "--seed", "0", "--report", str(report)) == 0
        metrics = json.loads((report / "metrics.json").read_text())
        project_rows = [r for r in metrics["rows"] if r["project"] != "average"]
        assert len(project_rows) == 3


class TestPretrainFlow:
    def test_pretrain_then_init(self, tmp_path):
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=40)
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": "dl", "latent": 8, "layers": 1,
                                  "batch_size": 8, "epochs": 3}))
        lm = tmp_path / "lm.ckpt"
        assert run("pretrain", str(data), "--hp", str(hp), "--seed", "1",
                   "--out", str(lm)) == 0
        model = tmp_path / "m.ckpt"
        assert run("train", str(data), "--task", "detect-code", "--hp", str(hp),
                   "--seed", "2", "--out", str(model), "--init", str(lm),
                   "--mode", "end2end") == 0
        svm_hp = tmp_path / "svm.json"
        svm_hp.write_text(json.dumps({"model": "svm"}))
        emb_model = tmp_path / "emb.ckpt"
        assert run("train", str(data), "--task", "detect-code", "--hp", str(svm_hp),
                   "--seed", "2", "--out", str(emb_model), "--init", str(lm),
                   "--mode", "embedding-only") == 0
        from satd_forge.detector import load_detector

        assert load_detector(emb_model).kind == "pretrained_embed_svm"


class TestGenerateFlow:
    def test_train_and_generate(self, tmp_path, capsys):
        rows = []
        for i in range(8):
            rows.append(
                {
                    "project": "p",
                    "path": f"F{i}.java",
                    "span": [0, 1],
                    "column": 1,
                    "code_text": f"if (v{i} > 0) {{ f{i}(); }}",
                    "sbt_tokens": ["(", "If", "(", f"Name:v{i}", ")", f"Name:v{i}", ")", "If"],
                    "comment_raw": "// todo",
                    "comment_words": ["todo", f"word{i}", "now"],
                    "label": "SATD",
                }
            )
        data = tmp_path / "gen.jsonl"
        with open(data, "w") as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"latent": 16, "layers": 1, "batch_size": 8,
                                  "epochs": 60, "learning_rate": 0.002}))
        model = tmp_path / "g.ckpt"
        assert run("train", str(data), "--task", "generate", "--hp", str(hp),
                   "--seed", "1", "--out", str(model)) == 0
        inputs = tmp_path / "in.txt"
        inputs.write_text("if (v0 > 0) { f0(); }\n")
        capsys.readouterr()
        assert run("generate", "--model", str(model), "--input", str(inputs)) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("// ")


class TestGeneratorProtocol:
    @pytest.fixture()
    def gen_data(self, tmp_path):
        rows = []
        for i in range(10):
            rows.append(
                {
                    "project": "p",
                    "path": f"F{i}.java",
                    "span": [0, 1],
                    "column": 1,
                    "code_text": f"if (v{i} > 0) {{ f{i}(); }}",
                    "sbt_tokens": ["(", "If", "(", f"Name:v{i}", ")", f"Name:v{i}", ")", "If"],
                    "comment_raw": "// todo",
                    "comment_words": ["todo", f"word{i}", "now"],
                    "label": "SATD",
                }
            )
        data = tmp_path / "gen.jsonl"
        with open(data, "w") as f:
            for r in rows:
                f.write(json.dumps(r) + "\n")
        return data

    def test_tune_generate_sorts_by_bleu4(self, tmp_path, gen_data):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"latent": [8, 16], "layers": [1],
                                    "batch_size": [8], "epochs": 10}))
        out = tmp_path / "tuning.json"
        assert run("tune", str(gen_data), "--task", "generate", "--grid", str(grid),
                   "--seed", "2", "--out", str(out)) == 0
        tuning = json.loads(out.read_text())
        assert len(tuning["rows"]) == 2
        assert len(tuning["nominated"]) == 1
        bleus = [r["bleu_4"] for r in tuning["rows"]]
        assert bleus == sorted(bleus, reverse=True)

    def test_tune_remainder_holds_generation_rows_only(self, tmp_path, monkeypatch, gen_data):
        # rows generation does not train on: NonSATD, and SATD without comment words
        rows = [json.loads(line) for line in gen_data.read_text().splitlines()]
        others = [{**rows[0], "label": "NonSATD"}, {**rows[1], "comment_words": []}]
        with open(gen_data, "a") as f:
            for r in others:
                f.write(json.dumps(r) + "\n")
        tuning, remainder, item_lines = tune_with_remainder(
            tmp_path, monkeypatch, gen_data, "generate", {"latent": 4, "layers": 1, "batch_size": 8, "epochs": 1})
        assert len(item_lines) == 10 and len(tuning) == 1
        assert_partition(tuning, remainder, item_lines)

    def test_cv_generate_reports_bleu(self, tmp_path, gen_data):
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"latent": 8, "layers": 1, "batch_size": 8,
                                  "epochs": 5}))
        report = tmp_path / "rep"
        assert run("cv", str(gen_data), "--task", "generate", "--hp", str(hp),
                   "--k", "5", "--seed", "3", "--report", str(report)) == 0
        metrics = json.loads((report / "metrics.json").read_text())
        fold_rows = [r for r in metrics["rows"] if r["fold"] != "mean"]
        assert len(fold_rows) == 5
        assert all("bleu_4" in r for r in fold_rows)
        folds = json.loads((report / "folds.json").read_text())
        assert folds["stratified"] is False


class TestExitCodes:
    def test_usage_error(self):
        assert run("mine") == 1

    def test_detect_takes_no_kind(self, tmp_path):
        # the model's header records its vocabulary's kind, which is the input's
        model, lines = CHECKPOINTS["dl"], tmp_path / "in.txt"
        lines.write_text("// TODO: fix\n")
        assert run("detect", "--model", str(model), "--input", str(lines), "--kind", "comment") == 1

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_missing_file_data_error(self, tmp_path):
        assert run("label", str(tmp_path / "missing.jsonl")) == 2

    def test_no_args_prints_help(self):
        assert run() == 1

    def test_empty_positive_class_data_error(self, tmp_path):
        row = {
            "project": "p", "path": "f", "span": [0, 1], "column": 1,
            "code_text": "", "sbt_tokens": ["a"], "comment_raw": "// x",
            "comment_words": ["x"], "label": "NonSATD",
        }
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps(row) + "\n")
        assert run("dataset", str(corpus), "--seed", "1",
                   "--out", str(tmp_path / "d.jsonl")) == 2

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 2.46 GiB for an array with shape (128, 322, 8000) and data type float64"),
         "error: out of memory: Unable to allocate 2.46 GiB for an array with shape (128, 322, 8000) "
         "and data type float64\n"),
        (MemoryError(), "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_exit_2_without_a_traceback(self, monkeypatch, capsys, error, message):
        def exhausted(args):
            raise error

        monkeypatch.setattr(cli, "cmd_label", exhausted)
        assert run("label", "corpus.jsonl") == 2
        assert capsys.readouterr() == ("", message)


    def test_ctrl_c_exits_130_without_a_traceback(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_label", interrupted)
        assert run("label", "corpus.jsonl") == 130
        assert capsys.readouterr() == ("", "interrupted\n")


def cgroup_tree(root, cgroup_lines, files):
    """A fake file system under `root`: /proc/self/cgroup holding
    `cgroup_lines`, and each of `files` (path under /sys/fs/cgroup -> text)."""
    proc = root / "proc" / "self"
    proc.mkdir(parents=True)
    (proc / "cgroup").write_text("".join(line + "\n" for line in cgroup_lines))
    for rel, text in files.items():
        path = root / "sys" / "fs" / "cgroup" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(root)


class TestCpuQuota:
    V1 = ["3:cpuset:/", "2:cpu,cpuacct:/job", "1:memory:/job", "0::/job"]

    @pytest.mark.parametrize("cpu_max, cpus", [
        ("200000 100000\n", 2),
        ("150000 100000\n", 2),  # a part of a CPU counts as one
        ("50000 100000\n", 1),
        ("6400000 100000\n", 64),
        ("max 100000\n", None),
    ])
    def test_cgroup_v2_cpu_max(self, tmp_path, cpu_max, cpus):
        root = cgroup_tree(tmp_path, ["0::/user.slice/job"], {"user.slice/job/cpu.max": cpu_max})
        assert cli._quota_cpus(root) == cpus

    @pytest.mark.parametrize("quota, period, cpus", [
        ("250000", "100000", 3),
        ("100000", "100000", 1),
        ("-1", "100000", None),
    ])
    def test_cgroup_v1_cfs_quota(self, tmp_path, quota, period, cpus):
        root = cgroup_tree(tmp_path, self.V1, {"cpu,cpuacct/job/cpu.cfs_quota_us": quota + "\n",
                                               "cpu,cpuacct/job/cpu.cfs_period_us": period + "\n",
                                               "memory/job/memory.limit_in_bytes": "1000\n"})
        assert cli._quota_cpus(root) == cpus

    def test_a_container_reads_its_cgroup_at_the_mount(self, tmp_path):
        # the host's path of the cgroup does not exist in the container, whose mount shows the cgroup itself
        root = cgroup_tree(tmp_path, ["1:cpu:/docker/0123abcd"], {"cpu/cpu.cfs_quota_us": "200000\n",
                                                                  "cpu/cpu.cfs_period_us": "100000\n"})
        assert cli._quota_cpus(root) == 2
        root = cgroup_tree(tmp_path / "v2", ["0::/docker/0123abcd"], {"cpu.max": "300000 100000\n"})
        assert cli._quota_cpus(root) == 3

    @pytest.mark.parametrize("cgroup_lines, files", [
        ([], {}),  # no cgroup at all
        (["0::/job"], {}),  # v2 without the cpu controller: no cpu.max
        (["0::/job"], {"job/cpu.max": "lots 100000\n"}),
        (["0::/job"], {"job/cpu.max": "200000 0\n"}),
        (["0::/job"], {"job/cpu.max": "200000\n"}),
        (["1:cpu:/job"], {"cpu/job/cpu.cfs_quota_us": "200000\n"}),  # no period
        (["garbage"], {"cpu.max": "200000 100000\n"}),
        (["1:memory:/job"], {"memory/job/cpu.cfs_quota_us": "200000\n",
                             "memory/job/cpu.cfs_period_us": "100000\n"}),
    ])
    def test_no_readable_quota_is_none(self, tmp_path, cgroup_lines, files):
        assert cli._quota_cpus(cgroup_tree(tmp_path, cgroup_lines, files)) is None

    def test_no_proc_file_is_none(self, tmp_path):
        assert cli._quota_cpus(str(tmp_path)) is None


class TestBadInputs:
    def test_label_row_without_path(self, tmp_path, capsys):
        row = {"project": "p", "span": [0, 1], "column": 1, "code_text": "", "sbt_tokens": ["a"],
               "comment_raw": "// x", "comment_words": ["x"], "label": "Unlabeled"}
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps(row) + "\n")
        assert run("label", str(corpus)) == 2
        err = capsys.readouterr().err
        assert f"{corpus}:1" in err and "path" in err

    # a field of the wrong type is a malformed row (exit 2), not a traceback in
    # the command that first uses it
    GOOD_ROW = {"project": "p", "path": "A.java", "span": [0, 1], "column": 1, "code_text": "if (a) f();",
                "sbt_tokens": ["(If", ")If"], "comment_raw": "// todo", "comment_words": ["todo"], "label": "SATD"}

    @pytest.mark.parametrize("command,field,value", [
        ("label", "comment_raw", 5),
        ("dataset", "comment_words", [["todo"]]),
        ("dataset", "sbt_tokens", [1, 2]),
        # or of the right type, out of range
        ("dataset", "label", "Maybe"),
        ("label", "span", [0, 1, 2]),
        ("dataset", "span", [-1, 3]),
        ("label", "column", 0),
    ])
    def test_field_of_the_wrong_type_is_a_malformed_row(self, tmp_path, capsys, command, field, value):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"_meta": {}}) + "\n" + json.dumps({**self.GOOD_ROW, field: value}) + "\n")
        extra = ["--seed", "1", "--out", str(tmp_path / "d.jsonl")] if command == "dataset" else []
        assert run(command, str(corpus), *extra) == 2
        err = capsys.readouterr().err
        assert f"{corpus}:2: malformed row: {field} " in err
        assert not (tmp_path / "d.jsonl").exists()

    # the training commands keep only the fields they read, after every field passed its check
    @pytest.mark.parametrize("argv,field,value", [
        (["train", "--task", "detect-comment", "--out", "m.ckpt"], "sbt_tokens", [1, 2]),
        (["pretrain", "--out", "m.ckpt"], "comment_words", [["todo"]]),
        (["xproject", "--task", "detect-code", "--report", "rep"], "project", 5),
        (["tune", "--task", "generate", "--grid", "g.json", "--out", "t.json"], "span", ["0"]),
        (["train", "--task", "detect-code", "--out", "m.ckpt"], "label", "Maybe"),
    ])
    def test_training_commands_check_every_field(self, tmp_path, capsys, monkeypatch, argv, field, value):
        monkeypatch.chdir(tmp_path)
        corpus = tmp_path / "c.jsonl"
        rows = [{"_meta": {}}, self.GOOD_ROW, {**self.GOOD_ROW, field: value}]
        corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
        (tmp_path / "g.json").write_text("{}")
        assert run(argv[0], str(corpus), *argv[1:]) == 2
        assert f"{corpus}:3: malformed row: {field} " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "g.json"]

    def test_row_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        row = json.dumps({**self.GOOD_ROW, "code_text": "caf\u00e9"}, ensure_ascii=False)
        corpus.write_bytes(row.encode("latin-1") + b"\n")
        assert run("label", str(corpus)) == 2
        assert f"{corpus}:1: not UTF-8" in capsys.readouterr().err
        assert corpus.read_bytes() == row.encode("latin-1") + b"\n"

    def test_meta_that_is_not_an_object_is_a_malformed_row(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps(self.GOOD_ROW) + "\n" + json.dumps({"_meta": 5}) + "\n")
        assert run("label", str(corpus)) == 2
        assert f"{corpus}:2: malformed row: _meta " in capsys.readouterr().err

    def test_truncated_row_names_its_line(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(json.dumps({"_meta": {}}) + "\n" + '{"project": "p", "pa\n')
        assert run("label", str(corpus)) == 2
        assert f"{corpus}:2" in capsys.readouterr().err

    @pytest.fixture()
    def lm_and_data(self, tmp_path):
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=16)
        hp = tmp_path / "lm.json"
        hp.write_text(json.dumps({"latent": 4, "layers": 1, "batch_size": 8, "epochs": 1}))
        lm = tmp_path / "lm.ckpt"
        assert run("pretrain", str(data), "--hp", str(hp), "--seed", "1", "--out", str(lm)) == 0
        return lm, data

    @pytest.mark.parametrize("model,mode", [("mnb", "end2end"), ("mnb", "embedding-only"), ("svm", "end2end")])
    def test_init_with_model_that_cannot_use_it(self, tmp_path, capsys, lm_and_data, model, mode):
        lm, data = lm_and_data
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": model}))
        out = tmp_path / "m.ckpt"
        assert run("train", str(data), "--task", "detect-code", "--hp", str(hp), "--seed", "2",
                   "--out", str(out), "--init", str(lm), "--mode", mode) == 2
        assert not out.exists()
        assert model in capsys.readouterr().err

    def test_init_with_generator(self, tmp_path, capsys, lm_and_data):
        lm, data = lm_and_data
        out = tmp_path / "g.ckpt"
        assert run("train", str(data), "--task", "generate", "--seed", "2", "--out", str(out),
                   "--init", str(lm)) == 2
        assert not out.exists()
        assert "generator" in capsys.readouterr().err

    def test_init_tfidf_svm_from_the_embedding(self, tmp_path, capsys, monkeypatch, lm_and_data):
        # an svm that starts from the embedding reads averaged embeddings, never TF-IDF weights
        lm, data = lm_and_data
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": "svm", "features": "tfidf"}))
        monkeypatch.setattr(detector, "train_linear_svm", lambda *a, **k: pytest.fail("the svm trained"))
        out = tmp_path / "m.ckpt"
        assert run("train", str(data), "--task", "detect-code", "--hp", str(hp), "--out", str(out),
                   "--init", str(lm), "--mode", "embedding-only") == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: hyper-parameter features 'tfidf' does not apply")

    @pytest.mark.parametrize("command,kind", [
        ("generate", "dl"), ("generate", "lm"), ("detect", "generator"), ("detect", "lm"),
        ("train", "dl"), ("train", "svm"), ("train", "generator"),
    ])
    def test_checkpoint_of_another_kind(self, tmp_path, capsys, monkeypatch, command, kind):
        # each loader reads the header's kind first, and the message names the file and that kind
        monkeypatch.chdir(tmp_path)
        model = CHECKPOINTS[kind]
        if command == "train":
            synthetic_corpus_file(tmp_path / "data.jsonl", n=16)
            argv = ["train", "data.jsonl", "--task", "detect-code", "--out", "m.ckpt", "--init", str(model)]
        else:
            (tmp_path / "data.jsonl").write_text("if (a) { f(); }\n")
            argv = [command, "--model", str(model), "--input", "data.jsonl"]
        before = (tmp_path / "data.jsonl").read_bytes()
        assert run(*argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {model}: checkpoint of kind {kind!r}, expected ")
        assert [p.name for p in tmp_path.iterdir()] == ["data.jsonl"]
        assert (tmp_path / "data.jsonl").read_bytes() == before


class TestMalformedInputLines:
    """A line that is not a whole if-statement is a data error (exit 2), and
    no verdict or comment is printed for the lines before it."""

    @pytest.fixture(scope="class")
    def models(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("models")
        data = synthetic_corpus_file(tmp / "data.jsonl", n=16)
        mnb_hp, gen_hp = tmp / "mnb.json", tmp / "gen.json"
        mnb_hp.write_text(json.dumps({"model": "mnb"}))
        gen_hp.write_text(json.dumps({"latent": 4, "layers": 1, "batch_size": 8, "epochs": 1}))
        models = {"detect": tmp / "mnb.ckpt", "generate": tmp / "gen.ckpt"}
        assert run("train", str(data), "--task", "detect-code", "--hp", str(mnb_hp),
                   "--out", str(models["detect"])) == 0
        assert run("train", str(data), "--task", "generate", "--hp", str(gen_hp),
                   "--out", str(models["generate"])) == 0
        return models

    @pytest.mark.parametrize("line", ["if (a b", "if (a", "if"])
    @pytest.mark.parametrize("command", ["detect", "generate"])
    def test_exit_2_without_output(self, tmp_path, capsys, models, command, line):
        inputs = tmp_path / "in.txt"
        inputs.write_text("if (x > 0) { f(); }\n" + line + "\n")
        capsys.readouterr()
        assert run(command, "--model", str(models[command]), "--input", str(inputs)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {inputs}:2: unparsable if-statement")

    @pytest.mark.parametrize("line,message", [
        ('if (s == "abc) x();', "unterminated string literal at line 1, column 10"),
        ("not java (", "fragment does not start with `if`"),
    ])
    @pytest.mark.parametrize("command", ["detect", "generate"])
    def test_error_names_the_input_line(self, tmp_path, capsys, models, command, line, message):
        # blank lines count: the failing line is the file's fourth
        inputs = tmp_path / "in.txt"
        inputs.write_text("if (x > 0) { f(); }\n\n  \n" + line + "\nif (y) g();\n")
        capsys.readouterr()
        assert run(command, "--model", str(models[command]), "--input", str(inputs)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {inputs}:4: {message}\n"

    def test_line_over_the_code_cap_names_its_line(self, tmp_path, capsys, models):
        inputs = tmp_path / "in.txt"
        inputs.write_text("if (x > 0) { f(); }\nif (a) f(" + ", ".join(["a"] * 600) + ");\n")
        capsys.readouterr()
        assert run("generate", "--model", str(models["generate"]), "--input", str(inputs)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {inputs}:2: input of length ")
        assert err.endswith(" exceeds cap 1500\n")


class TestBadOptionFiles:
    @pytest.mark.parametrize("command,flag,extra", [
        ("tune", "--grid", ["--task", "detect-comment", "--out", "t.json"]),
        ("cv", "--hp", ["--task", "detect-comment", "--report", "rep"]),
        ("train", "--hp", ["--task", "detect-comment", "--out", "m.ckpt"]),
    ])
    def test_json_that_is_not_an_object(self, tmp_path, capsys, monkeypatch, command, flag, extra):
        monkeypatch.chdir(tmp_path)
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=16)
        (tmp_path / "hp.json").write_text("[1, 2]")
        assert run(command, str(data), flag, "hp.json", *extra) == 2
        assert "hp.json: expected a JSON object, found list" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "hp.json"]

    def test_report_path_that_is_a_file(self, tmp_path, capsys):
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=16)
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": "mnb"}))
        report = tmp_path / "report"
        report.write_text("taken")
        assert run("cv", str(data), "--task", "detect-comment", "--hp", str(hp), "--k", "2",
                   "--report", str(report)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert report.read_text() == "taken"


class TestNonUtf8Files:
    """A file that is not UTF-8 is a data error (exit 2) naming the path and
    the first bad byte, and nothing is printed or written."""

    def test_latin1_detect_input(self, tmp_path, capsys):
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=16)
        hp = tmp_path / "hp.json"
        hp.write_text(json.dumps({"model": "mnb"}))
        model = tmp_path / "m.ckpt"
        assert run("train", str(data), "--task", "detect-comment", "--hp", str(hp), "--out", str(model)) == 0
        inputs = tmp_path / "lines.txt"
        raw = "// todo fix\n// caf\xe9 hack\n".encode("latin-1")
        inputs.write_bytes(raw)
        capsys.readouterr()
        assert run("detect", "--model", str(model), "--input", str(inputs)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {inputs}: not UTF-8 (invalid continuation byte at byte {raw.index(0xE9)})\n"

    def test_latin1_hp_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=16)
        raw = '{"model": "mnb", "note": "caf\xe9"}'.encode("latin-1")
        (tmp_path / "hp.json").write_bytes(raw)
        assert run("cv", str(data), "--task", "detect-comment", "--hp", "hp.json", "--report", "rep") == 2
        assert capsys.readouterr().err == f"error: hp.json: not UTF-8 (invalid continuation byte at byte {raw.index(0xE9)})\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "hp.json"]


DL_KEYS = "model, latent, layers, batch_size, pooling, epochs, learning_rate, dropout, seq_cap, threshold"
GENERATOR_KEYS = "latent, layers, batch_size, epochs, learning_rate, dropout, code_cap, comment_cap"
NO_KIND = [[], {}, None, 3, "knn", {"model": "dl"}]  # `model` values that name no kind


class TestBadHyperParameters:
    """A malformed network or SVM hyper-parameter, or one outside its
    model's kind, is a data error (exit 2) naming it, raised before any
    training, so nothing is written."""

    @pytest.mark.parametrize("command,extra,hp,name", [
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "batch_size": 0}, "batch_size"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "latent": 0}, "latent"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "latent": 1, "layers": 3, "epochs": 1},
         "latent"),
        ("train", ["--task", "generate", "--out", "m.ckpt"], {"latent": 0}, "latent"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "latent": "4"}, "latent"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "batch_size": 8.5}, "batch_size"),
        ("pretrain", ["--out", "lm.ckpt"], {"batch_size": 0}, "batch_size"),
        ("cv", ["--task", "detect-code", "--report", "rep"], {"model": "svm", "lam": 0}, "lam"),
        ("cv", ["--task", "detect-code", "--report", "rep"], {"model": "svm", "epochs": "3"}, "epochs"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "epochs": -1}, "epochs"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "dropout": "0.2"}, "dropout"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "seq_cap": "1500"}, "seq_cap"),
        ("train", ["--task", "generate", "--out", "m.ckpt"], {"code_cap": "10"}, "code_cap"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "dropout": -0.5}, "dropout"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "threshold": "0.5"}, "threshold"),
        # sizes numpy cannot allocate, and a layer count past a C ssize_t
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "latent": 2**62}, "latent"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "latent": 2**63}, "latent"),
        ("train", ["--task", "generate", "--out", "m.ckpt"], {"latent": 2, "layers": 2**63}, "layers"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "svm", "features": "tfidff"}, "features"),
        ("cv", ["--task", "detect-code", "--report", "rep"], {"model": "mnb", "features": "tfidff"}, "features"),
        ("xproject", ["--task", "detect-code", "--report", "rep"], {"model": "svm", "features": "tfidff"},
         "features"),
        # naive Bayes and the SVM apply no threshold, so a setting that names one is refused
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "mnb", "threshold": 0.99}, "threshold"),
        ("cv", ["--task", "detect-comment", "--report", "rep"], {"model": "svm", "threshold": 0.5}, "threshold"),
    ])
    def test_exit_2_and_nothing_written(self, tmp_path, capsys, monkeypatch, command, extra, hp, name):
        monkeypatch.chdir(tmp_path)
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=16)
        (tmp_path / "hp.json").write_text(json.dumps(hp))
        assert run(command, str(data), "--hp", "hp.json", *extra) == 2
        assert capsys.readouterr().err.startswith(f"error: hyper-parameter {name} must be ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "hp.json"]

    @pytest.mark.parametrize("command,option,extra", [
        ("train", "--hp", ["--task", "detect-code", "--out", "m.ckpt"]),
        ("cv", "--hp", ["--task", "detect-code", "--report", "rep"]),
        ("tune", "--grid", ["--task", "detect-code", "--out", "t.json"]),
        ("xproject", "--hp", ["--task", "detect-code", "--report", "rep"]),
    ])
    def test_unknown_pooling_exits_2_before_training(self, tmp_path, capsys, monkeypatch, command, option, extra):
        def trained(*args, **kwargs):
            raise AssertionError("a detector was trained")

        monkeypatch.setattr(detector, "train_dl_detector", trained)
        monkeypatch.chdir(tmp_path)
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=16)
        (tmp_path / "hp.json").write_text(json.dumps({"model": "dl", "pooling": "avg"}))
        assert run(command, str(data), option, "hp.json", *extra) == 2
        assert capsys.readouterr().err == (
            "error: hyper-parameter pooling must be one of 'last', 'mean', 'max', got 'avg'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "hp.json"]

    # `trainer` lists the trainers a setting of the grid would call
    @pytest.mark.parametrize("task,grid,trainer,error", [
        ("detect-code", {"model": "dl", "latent": 4, "batch_size": 2, "epochs": 1, "pooling": ["max", "zz"]},
         [(detector, "train_dl_detector")], "hyper-parameter pooling must be one of 'last', 'mean', 'max', got 'zz'"),
        ("detect-comment", {"model": ["mnb", "svm", "knn"]}, [(detector, "train_mnb"), (detector, "train_linear_svm")],
         "unknown model type: 'knn'"),
        ("generate", {"latent": [4, 0], "batch_size": 2, "epochs": 1}, [(generator, "train_generator")],
         "hyper-parameter latent must be an integer >= 1, got 0"),
        ("detect-comment", {"model": "svm", "lam": [0.1, -1]}, [(detector, "train_linear_svm")],
         "hyper-parameter lam must be a finite number > 0, got -1"),
        ("detect-comment", {"model": "mnb", "alpha": [1.0, 0]}, [(detector, "train_mnb")],
         "hyper-parameter alpha must be a finite number > 0, got 0"),
        ("detect-comment", {"model": "mnb", "features": ["bow", "tfidff"]}, [(detector, "train_mnb")],
         "hyper-parameter features must be one of 'bow', 'tfidf', got 'tfidff'"),
        ("detect-comment", {"model": ["dl", "mnb"], "threshold": 0.9, "latent": 4, "batch_size": 2, "epochs": 1},
         [(detector, "train_dl_detector"), (detector, "train_mnb")],
         "hyper-parameters threshold, latent, batch_size, epochs must be left out for model 'mnb', "
         "which takes model, features, alpha"),
        ("detect-code", {"model": "svm", "threshold": [0.3, 0.7]}, [(detector, "train_linear_svm")],
         "hyper-parameter threshold must be left out for model 'svm', which takes model, features, lam, epochs"),
        # every setting of a sweep over a key naive Bayes does not read would train the same model
        ("detect-code", {"model": "mnb", "latent": [4, 8]}, [(detector, "train_mnb")],
         "hyper-parameter latent must be left out for model 'mnb', which takes model, features, alpha"),
        ("generate", {"latent": 4, "epochs": 1, "pooling": ["max", "mean"]}, [(generator, "train_generator")],
         f"hyper-parameter pooling must be left out for the generator, which takes {GENERATOR_KEYS}"),
        ("detect-code", {"model": "dl", "latent": 4, "batch_size": 2, "epochs": 1, "layers": [1, 4]},
         [(detector, "train_dl_detector")], "hyper-parameter layers must be 1, 2 or 3, got 4"),
    ])
    def test_tune_checks_every_setting_before_the_first_trial(self, tmp_path, capsys, monkeypatch,
                                                              task, grid, trainer, error):
        def trained(*args, **kwargs):
            raise AssertionError("a model was trained")

        for patched in trainer:
            monkeypatch.setattr(*patched, trained)
        monkeypatch.chdir(tmp_path)
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=16)
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        assert run("tune", str(data), "--task", task, "--grid", "grid.json", "--out", "t.json") == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "grid.json"]

    # each of these trained with the defaults and exited 0: the misspelled or foreign keys were
    # dropped, or recorded in the report's config and the checkpoint's header
    @pytest.mark.parametrize("command,extra,hp,error", [
        ("cv", ["--task", "detect-code", "--report", "rep"],
         {"model": "dl", "latent": 4, "batch_size": 4, "epochs": 1, "learnig_rate": 0.5},
         f"hyper-parameter learnig_rate must be left out for model 'dl', which takes {DL_KEYS}"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": "dl", "latnet": 8, "epochs": 1},
         f"hyper-parameter latnet must be left out for model 'dl', which takes {DL_KEYS}"),
        ("pretrain", ["--out", "lm.ckpt"], {"model": "mnb", "latnet": 8, "lam": -3, "epochs": 1},
         f"hyper-parameters latnet, lam must be left out for model 'dl', which takes {DL_KEYS}"),
        ("pretrain", ["--out", "lm.ckpt"], {"model": "mnb", "latent": 4, "epochs": 1},
         "hyper-parameter model must be 'dl', got 'mnb'"),
        ("train", ["--task", "detect-code", "--out", "m.ckpt"],
         {"model": "mnb", "latent": 64, "pooling": "avg", "epochs": 7},
         "hyper-parameters latent, pooling, epochs must be left out for model 'mnb', which takes model, features, "
         "alpha"),
        ("xproject", ["--task", "detect-code", "--report", "rep"], {"model": "svm", "alpha": 0.5},
         "hyper-parameter alpha must be left out for model 'svm', which takes model, features, lam, epochs"),
        ("train", ["--task", "generate", "--out", "m.ckpt"], {"model": "dl", "alpha": 1.0, "pooling": "max"},
         f"hyper-parameters model, alpha, pooling must be left out for the generator, which takes {GENERATOR_KEYS}"),
        # a `model` of any JSON type that names no kind: a detector command looks it up among the kinds
        *[("train", ["--task", "detect-code", "--out", "m.ckpt"], {"model": model}, f"unknown model type: {model!r}")
          for model in NO_KIND],
        *[("cv", ["--task", "detect-comment", "--report", "rep"], {"model": model}, f"unknown model type: {model!r}")
          for model in NO_KIND],
        *[("pretrain", ["--out", "lm.ckpt"], {"model": model, "latent": 4, "epochs": 1},
           f"hyper-parameter model must be 'dl', got {model!r}") for model in NO_KIND],
    ])
    def test_key_outside_its_kind_exits_2_before_training(self, tmp_path, capsys, monkeypatch, command, extra, hp,
                                                          error):
        def trained(*args, **kwargs):
            raise AssertionError("a model was trained")

        for name in ("train_dl_detector", "train_mnb", "train_linear_svm"):
            monkeypatch.setattr(detector, name, trained)
        monkeypatch.setattr(generator, "train_generator", trained)
        monkeypatch.setattr(pretrainer, "train_next_token_lm", trained)
        monkeypatch.chdir(tmp_path)
        data = synthetic_corpus_file(tmp_path / "data.jsonl", n=16)
        (tmp_path / "hp.json").write_text(json.dumps(hp))
        assert run(command, str(data), "--hp", "hp.json", *extra) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "hp.json"]
