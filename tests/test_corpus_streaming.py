"""`label` and `dataset` stream the corpus and copy the rows they do not
change as read. On every corpus the package writes, their bytes equal
those of the frozen list-based commands in `corpus_reference`; a row
written by something else is copied verbatim unless its label changes;
and `label` holds one row at a time."""

import contextlib
import json
import os
import shutil
import tempfile
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus_reference as reference
from satd_forge.cli import main
from satd_forge.java_miner import CODE_CAP, COMMENT_CAP, EXCLUDED, NON_SATD, SATD, UNLABELED

FIXTURES = Path(__file__).parent / "fixtures" / "java"


def run(*argv):
    return main([str(a) for a in argv])


def new_and_reference(work: Path, corpus: Path, seed: int, balance: bool) -> dict[str, tuple[bytes, bytes]]:
    """(new bytes, reference bytes) of each file `label` and then `dataset`
    write from `corpus`; the dataset files are missing when both sides find
    no positive class."""
    assert run("label", corpus, "--out", work / "label-new.jsonl") == 0
    reference.label(corpus, work / "label-ref.jsonl")
    outputs = {"label": ("label-new.jsonl", "label-ref.jsonl")}
    labeled = work / "label-ref.jsonl"
    flags = ["--balance"] if balance else []
    try:
        reference.dataset(labeled, seed, balance, work / "data-ref.jsonl", work / "pool-ref.jsonl")
    except ValueError:
        assert run("dataset", labeled, "--seed", seed, *flags, "--out", work / "data-new.jsonl") == 2
    else:
        assert run("dataset", labeled, "--seed", seed, *flags, "--out", work / "data-new.jsonl",
                   "--pool-out", work / "pool-new.jsonl") == 0
        outputs["data"] = ("data-new.jsonl", "data-ref.jsonl")
        outputs["pool"] = ("pool-new.jsonl", "pool-ref.jsonl")
    return {k: ((work / a).read_bytes(), (work / b).read_bytes()) for k, (a, b) in outputs.items()}


@pytest.mark.parametrize("seed,balance", [(1, True), (7, False)])
def test_mined_fixtures_match_the_reference(tmp_path, seed, balance):
    # three copies of the fixtures: every SATD/NonSATD pair has two duplicates
    tree = tmp_path / "tree"
    for p in range(3):
        shutil.copytree(FIXTURES, tree / f"p{p}")
    corpus = tmp_path / "corpus.jsonl"
    assert run("mine", tree, "--out", corpus) == 0
    outputs = new_and_reference(tmp_path, corpus, seed, balance)
    assert set(outputs) == {"label", "data", "pool"}
    for name, (new, ref) in outputs.items():
        assert new == ref, name


COMMENTS = [None, "// TODO: remove this hack", "// returns the sum", "/* */", "// should not happen",
            "/* FIXME later */", "// café über alles"]
# "", "a", "b", "a\0" and "\0b" make lists whose NUL joins are alike
TOKENS = ["(IfStatement", ")IfStatement", "Name:a", "Call:f", "Literal:\"x\"", "é", "", "a", "b", "a\0", "\0b"]
WORDS = ["todo", "return", "sum", "hack", "café", "word", "", "a", "b", "a\0", "\0b"]


def _token_list(alphabet, cap):
    # short lists from a small alphabet repeat often, so dedup has work; a
    # few run one past the cap
    return st.one_of(
        st.lists(st.sampled_from(alphabet), max_size=4),
        st.sampled_from(alphabet).map(lambda t: [t] * (cap + 1)),
    )


rows_strategy = st.fixed_dictionaries({
    "project": st.sampled_from(["p0", "p1"]),
    "path": st.sampled_from(["A.java", "b/B.java"]),
    "span": st.tuples(st.integers(0, 50), st.integers(0, 50)).map(list),
    "column": st.integers(1, 9),
    "code_text": st.text(max_size=6),
    "sbt_tokens": _token_list(TOKENS, CODE_CAP),
    "comment_raw": st.sampled_from(COMMENTS),
    "comment_words": _token_list(WORDS, COMMENT_CAP),
    "label": st.sampled_from([SATD, NON_SATD, EXCLUDED, UNLABELED]),
})


@st.composite
def corpora(draw):
    """(file bytes, seed, balance): rows the package's way, some repeated,
    and a `_meta` line anywhere or nowhere."""
    rows = draw(st.lists(rows_strategy, min_size=1, max_size=10))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    rows += [rows[i] for i in repeats]
    rows = draw(st.permutations(rows))
    lines = [json.dumps({k: r[k] for k in reference.FIELDS}) for r in rows]
    meta_at = draw(st.one_of(st.none(), st.integers(0, len(lines))))
    if meta_at is not None:
        lines.insert(meta_at, json.dumps({"_meta": {"command": "mine", "files": len(rows)}}))
    text = "".join(line + "\n" for line in lines)
    return text.encode("utf-8"), draw(st.integers(0, 2**31 - 1)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(corpora())
def test_generated_corpora_match_the_reference(corpus_case):
    data, seed, balance = corpus_case
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        corpus = work / "corpus.jsonl"
        corpus.write_bytes(data)
        for name, (new, ref) in new_and_reference(work, corpus, seed, balance).items():
            assert new == ref, name
        # the generated rows carry any label, so dataset also runs on them unlabeled
        try:
            reference.dataset(corpus, seed, balance, work / "raw-ref.jsonl", work / "raw-pool-ref.jsonl")
        except ValueError:
            assert run("dataset", corpus, "--seed", seed, "--out", work / "raw-new.jsonl") == 2
        else:
            assert run("dataset", corpus, "--seed", seed, *(["--balance"] if balance else []),
                       "--out", work / "raw-new.jsonl", "--pool-out", work / "raw-pool-new.jsonl") == 0
            assert (work / "raw-new.jsonl").read_bytes() == (work / "raw-ref.jsonl").read_bytes()
            assert (work / "raw-pool-new.jsonl").read_bytes() == (work / "raw-pool-ref.jsonl").read_bytes()


FOREIGN = {"project": "p", "path": "A.java", "span": [0, 9], "column": 1, "code_text": "if (a) f();",
           "sbt_tokens": ["(If", ")If"], "comment_raw": "// TODO: later", "comment_words": ["todo", "later"]}


def rows_of(path: Path) -> list[bytes]:
    return [line for line in path.read_bytes().splitlines(keepends=True) if b'"_meta"' not in line]


class TestForeignRows:
    """Rows the package did not write: other spacing, an extra key, no
    newline at the end of the file."""

    def test_a_row_label_leaves_unchanged_is_copied_verbatim(self, tmp_path):
        row = {**FOREIGN, "label": SATD, "reviewer": "ana"}
        line = json.dumps(row, indent=None, separators=(" , ", " : ")).encode() + b"\n"
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(line)
        assert run("label", corpus, "--out", tmp_path / "l.jsonl") == 0
        assert rows_of(tmp_path / "l.jsonl") == [line]

    def test_a_row_whose_label_changes_comes_out_canonical(self, tmp_path):
        row = {**FOREIGN, "label": UNLABELED, "reviewer": "ana"}
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(json.dumps(row, separators=(",", ":")).encode() + b"\n")
        assert run("label", corpus, "--out", tmp_path / "l.jsonl") == 0
        canonical = json.dumps({**{k: v for k, v in row.items() if k != "reviewer"}, "label": SATD})
        assert rows_of(tmp_path / "l.jsonl") == [canonical.encode() + b"\n"]

    def test_dataset_copies_its_rows_verbatim(self, tmp_path):
        line = json.dumps({**FOREIGN, "label": SATD, "reviewer": "ana"}, separators=(",", ":")).encode()
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(line)  # no line break at the end
        assert run("dataset", corpus, "--seed", 1, "--out", tmp_path / "d.jsonl") == 0
        assert rows_of(tmp_path / "d.jsonl") == [line + b"\n"]

    def test_dataset_finds_its_rows_past_blank_lines_and_over_its_own_input(self, tmp_path):
        rows = [json.dumps({**FOREIGN, "sbt_tokens": [f"t{i}"], "label": SATD if i % 3 == 0 else NON_SATD}).encode()
                for i in range(9)]
        data = b"\n  \n".join(rows)  # a blank line between rows, no line break after the last
        corpus, apart = tmp_path / "c.jsonl", tmp_path / "apart.jsonl"
        corpus.write_bytes(data)
        apart.write_bytes(data)
        assert run("dataset", apart, "--seed", 2, "--balance", "--out", tmp_path / "d.jsonl",
                   "--pool-out", tmp_path / "p.jsonl") == 0
        assert sorted(rows_of(tmp_path / "d.jsonl") + rows_of(tmp_path / "p.jsonl")) == sorted(r + b"\n" for r in rows)
        # the pool is copied from the input as read, after the dataset has replaced it
        assert run("dataset", corpus, "--seed", 2, "--balance", "--out", corpus,
                   "--pool-out", tmp_path / "p2.jsonl") == 0
        assert corpus.read_bytes() == (tmp_path / "d.jsonl").read_bytes()
        assert (tmp_path / "p2.jsonl").read_bytes() == (tmp_path / "p.jsonl").read_bytes()


class TestDatasetInput:
    """`dataset` copies its kept rows after the shuffle from the file it
    read, through the same handle."""

    @staticmethod
    def corpus(path: Path) -> Path:
        rows = [json.dumps({**FOREIGN, "sbt_tokens": [f"t{i}"], "label": SATD if i % 2 else NON_SATD})
                for i in range(8)]
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_a_path_replaced_after_the_pass_changes_nothing(self, tmp_path, monkeypatch):
        import satd_forge.cli as cli

        corpus, apart = self.corpus(tmp_path / "c.jsonl"), self.corpus(tmp_path / "apart.jsonl")
        assert run("dataset", apart, "--seed", 3, "--balance", "--out", tmp_path / "d.jsonl",
                   "--pool-out", tmp_path / "p.jsonl") == 0
        build = cli.build_dataset

        def replaced_after_the_pass(*args, **kwargs):
            dataset = build(*args, **kwargs)
            # as `label` in place replaces the file, with rows of other lengths
            (tmp_path / "new.jsonl").write_text(json.dumps({**FOREIGN, "label": EXCLUDED}) + "\n")
            (tmp_path / "new.jsonl").replace(corpus)
            return dataset

        monkeypatch.setattr(cli, "build_dataset", replaced_after_the_pass)
        assert run("dataset", corpus, "--seed", 3, "--balance", "--out", tmp_path / "d2.jsonl",
                   "--pool-out", tmp_path / "p2.jsonl") == 0
        assert (tmp_path / "d2.jsonl").read_bytes() == (tmp_path / "d.jsonl").read_bytes()
        assert (tmp_path / "p2.jsonl").read_bytes() == (tmp_path / "p.jsonl").read_bytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_exits_2_before_the_pass(self, tmp_path, capsys):
        rows = self.corpus(tmp_path / "c.jsonl").read_bytes()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def feed():
            with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as f:
                f.write(rows)

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            assert run("dataset", fifo, "--seed", 3, "--out", tmp_path / "d.jsonl") == 2
        finally:
            writer.join()
        assert capsys.readouterr().err == (
            f"error: {fifo}: dataset copies its rows back from its input, which must be a regular file, not a pipe\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "fifo"]


def test_a_label_that_fails_leaves_the_corpus_and_no_spool(tmp_path):
    corpus = tmp_path / "c.jsonl"
    good = json.dumps({**FOREIGN, "label": UNLABELED})
    corpus.write_text(good + "\n" + good + "\n" + '{"project": 5}\n')
    before = corpus.read_bytes()
    assert run("label", corpus) == 2
    assert corpus.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


def label_peak(tmp_path: Path, n_rows: int) -> int:
    """tracemalloc's peak, in bytes, of `label` over a corpus of `n_rows`
    commented rows of about 1 kB each, all of which it re-labels."""
    corpus = tmp_path / f"c{n_rows}.jsonl"
    with open(corpus, "w", encoding="utf-8") as f:
        f.write(json.dumps({"_meta": {"command": "mine"}}) + "\n")
        for i in range(n_rows):
            row = {**FOREIGN, "path": f"F{i}.java", "sbt_tokens": [f"Name:v{i % 97}"] * 80, "label": UNLABELED}
            f.write(json.dumps(row) + "\n")
    run("label", corpus, "--out", tmp_path / "warm.jsonl")  # imports and caches outside the trace
    tracemalloc.start()
    try:
        assert run("label", corpus, "--out", tmp_path / f"l{n_rows}.jsonl") == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_label_holds_one_row_at_a_time(tmp_path):
    small, large = label_peak(tmp_path, 200), label_peak(tmp_path, 2000)
    # the list-based label peaked about 10 MB higher at 2,000 rows than at 200
    assert large - small < 64 * 1024, (small, large)
