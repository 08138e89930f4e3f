"""`textpipe.TokenStore` and `TokenColumn`: what one pass over a corpus
file keeps, and what it costs in memory."""

import json
import random
import tracemalloc

import numpy as np
import pytest

from satd_forge.errors import DataError
from satd_forge.java_miner import JsonlRows, rows_at
from satd_forge.textpipe import EOS, SOS, TokenStore, as_column


def row(j, code, words, label, project="p"):
    return {"project": project, "path": f"F{j}.java", "span": [0, 1], "column": 1, "code_text": "if (x) { f(); }",
            "sbt_tokens": code, "comment_raw": "// c" if words else None, "comment_words": words, "label": label}


def write(path, rows, meta_after=None):
    lines = [json.dumps({"_meta": {"command": "test"}})]
    for j, r in enumerate(rows):
        lines.append(json.dumps(r))
        if j == meta_after:
            lines += ["", json.dumps({"_meta": {}})]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def lines_at(path, spans):
    """The lines a store's spans pick from the file at `path`, as 1-based line numbers."""
    lines = path.read_bytes().splitlines(keepends=True)
    with open(path, "rb") as f:
        return [lines.index(line) + 1 for line in rows_at(f, spans.tolist())]


@pytest.fixture()
def small(tmp_path):
    rows = [
        row(0, ["a", "b"], ["todo"], "SATD", "p1"),
        row(1, ["b"], [], "SATD", "p2"),
        row(2, [], ["fix", "it"], "NonSATD", "p1"),
        row(3, ["c", "a"], ["hack"], "SATD", "p3"),
        row(4, ["a"], ["x"], "Excluded", "p2"),
    ]
    return write(tmp_path / "c.jsonl", rows, meta_after=1)


def test_detector_store_keeps_every_row(small):
    store = TokenStore.read(small, code=True, projects=True)
    assert list(store.code) == [["a", "b"], ["b"], [], ["c", "a"], ["a"]]
    assert store.comment is None
    assert store.satd.tolist() == [True, True, False, True, False]
    assert store.projects == ["p1", "p2", "p1", "p3", "p2"]
    assert lines_at(small, store.spans) == [2, 3, 6, 7, 8]  # past the blank and the second _meta line
    assert store.code.ids.dtype == np.intc


def test_pairs_keep_the_commented_satd_rows_framed(small):
    store = TokenStore.read(small, pairs=True)
    assert list(store.code) == [["a", "b"], ["c", "a"]]
    assert list(store.comment) == [[SOS, "todo", EOS], [SOS, "hack", EOS]]
    assert lines_at(small, store.spans) == [2, 7]
    chosen = store.select(np.array([1]))
    assert list(chosen.code) == [["c", "a"]] and list(chosen.comment) == [[SOS, "hack", EOS]]
    assert lines_at(small, chosen.spans) == [7]


def test_store_shares_one_string_per_project(small):
    projects = TokenStore.read(small, comment=True, projects=True).projects
    assert projects[0] is projects[2]


def test_a_malformed_row_names_its_line_whatever_the_task_reads(tmp_path):
    bad = {**row(1, ["a"], ["w"], "SATD"), "code_text": 5}
    path = write(tmp_path / "c.jsonl", [row(0, ["a"], ["w"], "SATD"), bad])
    with pytest.raises(DataError, match=rf"^{tmp_path / 'c.jsonl'}:3: malformed row: code_text "):
        TokenStore.read(path, comment=True)


def test_column_select_encode_rows_and_flat():
    column = as_column([["a", "b"], [], ["c", "a", "d"]])
    assert column.words == ["a", "b", "c", "d"]
    assert column.lengths().tolist() == [2, 0, 3]
    chosen = column.select([2, 0])
    assert list(chosen) == [["c", "a", "d"], ["a", "b"]]
    assert chosen.flat().tolist() == [2, 0, 3, 0, 1]
    rows = chosen.encode_rows(np.arange(10, 14), [0, 1])
    assert [r.tolist() for r in rows] == [[12, 10, 13], [10, 11]]
    assert as_column(column) is column
    assert len(as_column([])) == 0
    with pytest.raises(DataError, match="sequence of length 3 exceeds cap 2"):
        column.check_cap(2)


def test_loading_costs_at_most_eight_bytes_a_token(tmp_path):
    # the list path held about 65 bytes a token: a Python list of decoded strings per row
    rng = random.Random(0)
    alphabet = [f"(Name:n{i}" for i in range(64)]
    rows = [row(j, [rng.choice(alphabet) for _ in range(rng.randint(20, 100))], [], "NonSATD") for j in range(2000)]
    path = write(tmp_path / "pool.jsonl", rows)
    tokens = sum(len(r["sbt_tokens"]) for r in rows)
    for _ in JsonlRows(path):  # warm the decoder's caches
        pass
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = TokenStore.read(path, code=True)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(store) == 2000
    assert peak <= 8 * tokens + 64 * 1024, peak / tokens
