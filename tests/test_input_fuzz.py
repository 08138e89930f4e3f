"""Mutated inputs through every command that reads them.

Corpus rows: one field mutated in every other row of a small dataset (a
missing or mistyped span, column, token list, comment or label, a lone
surrogate, a NUL), through `label`, `dataset`, every kind of `train`,
`pretrain`, `cv`, `xproject` and `tune --remainder-out`. Java: a tree of
72 fixture files (enough for two mining workers of MIN_FILES_PER_WORKER
files each), every file's bytes mutated, through `mine` at one and two
workers.

Each run must end in exit code 0, 2 or 3 with a one-line message, never
in an exception (a traceback), and `mine` must exit the same way and
write the same bytes at both worker counts.
"""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satd_forge import cli
from satd_forge.cli import main
from test_cli import FIXTURES, synthetic_corpus_file

MISSING = object()
# name -> (field, the value every other row gets, or MISSING to drop the field)
MUTATIONS = {
    "span missing": ("span", MISSING),
    "span reversed": ("span", [3, 1]),
    "span text": ("span", "0:1"),
    "span of three": ("span", [0, 1, 2]),
    "column negative": ("column", -1),
    "column text": ("column", "1"),
    "column null": ("column", None),
    "sbt_tokens empty": ("sbt_tokens", []),
    "sbt_tokens not text": ("sbt_tokens", [1, None]),
    "sbt_tokens one string": ("sbt_tokens", "tok1 tok2"),
    "sbt_tokens surrogate and NUL": ("sbt_tokens", ["tok\x00", "\udfff", "fixmark"]),
    "comment_raw empty": ("comment_raw", ""),
    "comment_raw number": ("comment_raw", 7),
    "comment_raw surrogate": ("comment_raw", "// todo \ud800 fix the thing"),
    "comment_raw NUL": ("comment_raw", "// hack\x00 around it"),
    "label unknown": ("label", "Maybe"),
    "label missing": ("label", MISSING),
}
TINY = {"latent": 2, "layers": 1, "batch_size": 4, "epochs": 1}
SETTINGS = {"tiny": TINY, "mnb": {"model": "mnb"}, "svm": {"model": "svm", "epochs": 1},
            "grid": {"model": "mnb", "alpha": [0.5, 1.0]}}
# name -> argv after the input file; {name} is the path of that setting's file, {out} a path to write
COMMANDS = {
    "label": ["--out", "{out}"],
    "dataset": ["--seed", "1", "--out", "{out}"],
    "dataset --balance": ["--seed", "1", "--balance", "--out", "{out}", "--pool-out", "{out}.pool"],
    "train dl": ["--task", "detect-code", "--hp", "{tiny}", "--out", "{out}"],
    "train mnb": ["--task", "detect-comment", "--hp", "{mnb}", "--out", "{out}"],
    "train svm": ["--task", "detect-code", "--hp", "{svm}", "--out", "{out}"],
    "train generate": ["--task", "generate", "--hp", "{tiny}", "--out", "{out}"],
    "pretrain": ["--hp", "{tiny}", "--out", "{out}"],
    "cv": ["--task", "detect-comment", "--hp", "{mnb}", "--k", "2", "--report", "{out}"],
    "xproject": ["--task", "detect-code", "--hp", "{mnb}", "--report", "{out}"],
    "tune --remainder-out": ["--task", "detect-comment", "--grid", "{grid}", "--fraction", "0.5",
                             "--out", "{out}", "--remainder-out", "{out}.rest"],
}


def run_quietly(argv) -> tuple[int, str]:
    """(exit code, standard error) of one in-process run; an exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code:
        assert err.startswith(("error: ", "training failure: ")) and err.count("\n") == 1, err


@pytest.fixture(scope="module")
def base_rows(tmp_path_factory):
    path = synthetic_corpus_file(tmp_path_factory.mktemp("rows") / "data.jsonl", n=12)
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


@pytest.fixture(scope="module")
def setting_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("settings")
    for name, setting in SETTINGS.items():
        (root / f"{name}.json").write_text(json.dumps(setting))
    return {name: str(root / f"{name}.json") for name in SETTINGS}


def run_rows(tmp_path, rows, setting_files, command) -> tuple[int, str]:
    data = tmp_path / "data.jsonl"
    with open(data, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")  # a lone surrogate is written as its \u escape
    argv = [command.split(" ")[0], str(data)]
    argv += [arg.format(out=tmp_path / "out", **setting_files) for arg in COMMANDS[command]]
    return run_quietly(argv)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_unmutated_rows_exit_0(tmp_path, base_rows, setting_files, command):
    assert run_rows(tmp_path, base_rows, setting_files, command) == (0, "")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutated_rows_exit_with_a_code(tmp_path, base_rows, setting_files, mutation, command):
    field, value = MUTATIONS[mutation]
    rows = []
    for k, row in enumerate(base_rows):
        row = dict(row)
        if k % 2:
            if value is MISSING:
                del row[field]
            else:
                row[field] = value
        rows.append(row)
    assert_clean_exit(*run_rows(tmp_path, rows, setting_files, command))


def mutate(data: bytes, rng: np.random.Generator) -> bytes:
    """Flipped bytes, a cut, nothing, or an insert: a NUL, bytes that are
    not UTF-8, an unclosed comment or string, or deep nesting."""
    at = int(rng.integers(0, len(data) + 1))
    kind = int(rng.integers(0, 8))
    if kind == 0:
        out = bytearray(data)
        for k in rng.integers(0, len(out), size=3):
            out[k] ^= int(rng.integers(1, 256))
        return bytes(out)
    if kind == 1:
        return data[:at]
    if kind == 2:
        return data
    insert = [b"\x00", b"\xff\xfe\xc3", b"/* ", b'"', b"if (a) { " * 400][kind - 3]
    return data[:at] + insert + data[at:]


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mutated_java_mines_the_same_at_one_and_two_workers(tmp_path_factory, module_env, seed):
    rng = np.random.default_rng(seed)
    tree = tmp_path_factory.mktemp("tree")
    for p in range(6):
        for source in sorted(FIXTURES.glob("*.java")):
            target = tree / f"p{p}" / source.name
            target.parent.mkdir(exist_ok=True)
            target.write_bytes(mutate(source.read_bytes(), rng))
    assert len(list(tree.rglob("*.java"))) >= 2 * cli.MIN_FILES_PER_WORKER
    results = []
    for threads in ("1", "2"):
        module_env.setenv("SATD_THREADS", threads)
        out = tree.parent / f"{tree.name}-{threads}.jsonl"
        code, err = run_quietly(["mine", str(tree), "--out", str(out)])
        assert_clean_exit(code, err)
        results.append((code, err, out.read_bytes() if out.exists() else None))
    assert results[0] == results[1]
    shutil.rmtree(tree)


@pytest.fixture(scope="module")
def module_env():
    with pytest.MonkeyPatch.context() as patch:
        yield patch
