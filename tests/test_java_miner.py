import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satd_forge.errors import DataError, JavaLexError
from satd_forge.java_miner import (
    EXCLUDED,
    EXCLUSION_KEYWORDS,
    NON_SATD,
    SATD,
    SATD_KEYWORDS,
    UNLABELED,
    build_dataset,
    extract_outermost_ifs,
    join_jsonl,
    label_comment,
    lex_java,
    link_comments,
    mine_file,
    JsonlRows,
    PairRecord,
    rows_at,
    write_jsonl,
    write_rows,
)

FIXTURES = Path(__file__).parent / "fixtures" / "java"


def sig(tokens):
    return [t for t in tokens if t.kind not in ("whitespace", "line_comment", "block_comment")]


class TestLexer:
    def test_simple_if_columns(self):
        tokens = sig(lex_java("if (a) {}"))
        assert [t.lexeme for t in tokens] == ["if", "(", "a", ")", "{", "}"]
        assert [t.column for t in tokens] == [1, 4, 5, 6, 8, 9]

    def test_empty_input(self):
        assert list(lex_java("")) == []

    def test_leading_line_comment(self):
        tokens = list(lex_java("// todo x\nif(a){}"))
        assert tokens[0].kind == "line_comment"
        assert tokens[0].lexeme == "// todo x"
        assert tokens[0].line == 1
        assert tokens[0].column == 1

    def test_block_comment_position(self):
        tokens = lex_java("x;\n  /* note\n spans */ y;")
        block = [t for t in tokens if t.kind == "block_comment"][0]
        assert block.line == 2
        assert block.column == 3
        assert block.lexeme == "/* note\n spans */"

    def test_unterminated_block_comment(self):
        with pytest.raises(JavaLexError):
            lex_java("int a; /* oops")

    def test_unterminated_string(self):
        with pytest.raises(JavaLexError):
            lex_java('String s = "oops;\n')

    def test_string_with_escapes(self):
        tokens = sig(lex_java(r'if (s.equals("a\"b")) {}'))
        literals = [t for t in tokens if t.kind == "literal"]
        assert literals[0].lexeme == r'"a\"b"'

    def test_keywords_vs_identifiers(self):
        tokens = sig(lex_java("ifx if gift"))
        assert [t.kind for t in tokens] == ["identifier", "keyword", "identifier"]

    @given(st.text(alphabet=st.characters(codec="utf-8"), max_size=300))
    @settings(max_examples=300)
    def test_lossless_or_lex_error(self, source):
        try:
            tokens = lex_java(source)
        except JavaLexError:
            return
        assert "".join(t.lexeme for t in tokens) == source

    def test_lossless_on_fixtures(self):
        for path in sorted(FIXTURES.glob("*.java")):
            source = path.read_text()
            assert "".join(t.lexeme for t in lex_java(source)) == source


class TestExtraction:
    def test_nested_if_yields_outer_only(self):
        frags = extract_outermost_ifs(lex_java("class A { void m() { if(a){ if(b){} } } }"))
        assert len(frags) == 1
        assert frags[0].text.startswith("if(a)")

    def test_chain_is_single_fragment(self):
        frags = extract_outermost_ifs(lex_java("if(a){} else if(b){} else {}"))
        assert len(frags) == 1
        assert frags[0].text == "if(a){} else if(b){} else {}"

    def test_no_if_no_fragments(self):
        assert extract_outermost_ifs(lex_java("class A { int x = 3; }")) == []

    def test_unbalanced_candidate_skipped_with_diagnostic(self):
        diags = []
        source = "void m() { if (a { broken } void n() { if (b) { ok(); } }"
        frags = extract_outermost_ifs(lex_java(source), diagnostics=diags)
        assert len(diags) >= 1
        assert any(f.text == "if (b) { ok(); }" for f in frags)

    def test_spans_never_strictly_nest(self):
        source = Path(FIXTURES / "Nested.java").read_text()
        frags = extract_outermost_ifs(lex_java(source))
        for f1 in frags:
            for f2 in frags:
                if f1 is f2:
                    continue
                s1, e1 = f1.source_span
                s2, e2 = f2.source_span
                assert not (s1 < s2 and e2 < e1)

    def test_deep_chain_extracts_without_recursion(self):
        chain = "if (a) " * 5000 + "do f(); while (b); else g();"
        diags = []
        frags = extract_outermost_ifs(lex_java(f"class D {{ void m() {{ {chain} }} }}"), diagnostics=diags)
        assert diags == []
        assert [f.text for f in frags] == [chain]

    def test_unbraced_branches(self):
        frags = extract_outermost_ifs(lex_java("if (a) x(); else if (b) y(); else z();"))
        assert len(frags) == 1
        assert frags[0].text.endswith("z();")

    def test_dangling_statement_keywords(self):
        source = "if (a) while (b) { poll(); } stop();"
        frags = extract_outermost_ifs(lex_java(source))
        assert len(frags) == 1
        assert frags[0].text == "if (a) while (b) { poll(); }"

    def test_labeled_statement_ends_fragment(self):
        source = "if (a) label: { jump(); }\nint[] arr = {1, 2};"
        frags = extract_outermost_ifs(lex_java(source))
        assert len(frags) == 1
        assert frags[0].text == "if (a) label: { jump(); }"

    def test_spans_are_utf8_byte_offsets_past_non_ascii_text(self):
        source = (
            '// café λ\nclass C { String s = "é"; void m() {\n'
            '  if (a) { f("λλ"); }\n  /* naïve */ g(\'λ\');\n'
            '  if (b) { h("é"); } else { k(); }\n}}\n'
        )
        tokens = lex_java(source)
        frags = extract_outermost_ifs(tokens)
        assert [f.text for f in frags] == ['if (a) { f("λλ"); }', 'if (b) { h("é"); } else { k(); }']
        for frag in frags:
            a = tokens.starts[frag.token_span[0]]
            b = a + len(frag.text)
            assert source[a:b] == frag.text
            assert frag.source_span == (len(source[:a].encode()), len(source[:b].encode()))


class TestLinking:
    def link(self, source):
        tokens = lex_java(source)
        return link_comments(tokens, extract_outermost_ifs(tokens))

    def test_same_column_links(self):
        pairs = self.link("x=1;\n// hack\nif(a){}")
        assert len(pairs) == 1
        assert pairs[0][1] == "// hack"

    def test_off_column_does_not_link(self):
        pairs = self.link("x=1;\n  // hack\nif(a){}")
        assert len(pairs) == 1
        assert pairs[0][1] is None

    def test_two_stacked_comments_drop_fragment(self):
        pairs = self.link("// one\n// two\nif(a){}")
        assert pairs == []

    def test_blank_line_does_not_break_linkage(self):
        pairs = self.link("// hack\n\nif(a){}")
        assert pairs[0][1] == "// hack"

    def test_intervening_token_breaks_linkage(self):
        pairs = self.link("// hack\nint b;\nif(a){}")
        assert pairs[0][1] is None

    def test_deterministic(self):
        source = "// hack\nif(a){}\nif(b){}"
        assert self.link(source) == self.link(source)


class TestLabeling:
    def test_satd_beats_exclusion(self):
        assert label_comment("TODO fix this later") == SATD

    def test_plain_comment_is_non_satd(self):
        assert label_comment("returns the larger value") == NON_SATD

    def test_exclusion_keyword(self):
        assert label_comment("this should be refactored") == EXCLUDED

    def test_empty_comment_excluded(self):
        assert label_comment("//") == EXCLUDED

    def test_prefix_matching_on_stems(self):
        assert label_comment("// an inefficient loop") == EXCLUDED
        assert label_comment("// probably wrong") == EXCLUDED
        assert label_comment("// workarounds everywhere") == SATD

    def test_keyword_lists_sizes(self):
        assert len(SATD_KEYWORDS) == 14
        assert len(EXCLUSION_KEYWORDS) == 22

    @given(st.sampled_from(SATD_KEYWORDS))
    def test_every_satd_keyword_fires(self, keyword):
        assert label_comment(f"// {keyword} something") == SATD

    @given(st.sampled_from(EXCLUSION_KEYWORDS))
    def test_every_exclusion_keyword_fires(self, keyword):
        assert label_comment(f"// {keyword} something") == EXCLUDED

    def test_every_commented_pair_gets_exactly_one_label(self):
        for text in ("// todo x", "// should x", "// plain words", "//"):
            assert label_comment(text) in (SATD, NON_SATD, EXCLUDED)


def make_record(code_tokens, comment_words, label, project="p", path="f.java"):
    return PairRecord(
        project=project,
        path=path,
        span=(0, 1),
        column=1,
        code_text="if(x){}",
        sbt_tokens=list(code_tokens),
        comment_raw="// c",
        comment_words=list(comment_words),
        label=label,
    )


def as_rows(records):
    """(record, line) pairs, as `JsonlRows` reads a file the package wrote."""
    return [(r, (r.to_json() + "\n").encode("utf-8")) for r in records]


def labels_of(lines):
    return [json.loads(line)["label"] for line in lines]


def corpus_rows(tmp_path, records):
    """The records written to a corpus file, read back as `JsonlRows`."""
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, [line for _, line in as_rows(records)], {})
    return JsonlRows(path)


def lines_of(rows, spans):
    """The rows a dataset's spans pick from the file `rows` read."""
    with open(rows.path, "rb") as f:
        return list(rows_at(f, spans))


class TestBuildDataset:
    def test_balancing(self, tmp_path):
        records = [make_record([f"s{i}"], ["w"], SATD) for i in range(10)]
        records += [make_record([f"n{i}"], ["w"], NON_SATD) for i in range(100)]
        rows = corpus_rows(tmp_path, records)
        dataset = build_dataset(rows, seed=3, balance=True)
        labels = labels_of(lines_of(rows, dataset.pairs))
        assert labels.count(SATD) == 10
        assert labels.count(NON_SATD) == 10
        assert labels_of(lines_of(rows, dataset.leftover_pool)) == [NON_SATD] * 90

    def test_dedup(self, tmp_path):
        records = [make_record(["x"], ["w"], SATD), make_record(["x"], ["w"], SATD)]
        records.append(make_record(["y"], ["w"], NON_SATD))
        dataset = build_dataset(corpus_rows(tmp_path, records), seed=0)
        assert len(dataset.pairs) == 2

    def test_dedup_tells_apart_lists_that_join_alike(self, tmp_path):
        # joined by NUL, each pair below gives one string; the dedup key must still differ
        pairs = [(["a\0", "b"], ["a", "\0b"]), ([], [""]), (["a", "b"], ["a\0b"])]
        records = [make_record(code, ["w"], SATD) for pair in pairs for code in pair]
        records += [make_record(["c"], words, SATD) for pair in pairs for words in pair]
        dataset = build_dataset(corpus_rows(tmp_path, records), seed=0)
        assert dataset.provenance["after_dedup"] == len(records) == 12

    def test_determinism(self, tmp_path):
        records = [make_record([f"s{i}"], ["w"], SATD) for i in range(5)]
        records += [make_record([f"n{i}"], ["w"], NON_SATD) for i in range(5)]
        rows = corpus_rows(tmp_path, records)
        a = build_dataset(rows, seed=11)
        b = build_dataset(rows, seed=11)
        assert a.pairs == b.pairs

    def test_length_filter(self, tmp_path):
        long_code = make_record(["t"] * 1501, ["w"], NON_SATD)
        long_comment = make_record(["u"], ["w"] * 151, NON_SATD)
        keeper = make_record(["v"], ["w"], SATD)
        dataset = build_dataset(corpus_rows(tmp_path, [long_code, long_comment, keeper]), seed=0)
        assert len(dataset.pairs) == 1

    def test_empty_positive_class(self, tmp_path):
        records = [make_record([f"n{i}"], ["w"], NON_SATD) for i in range(4)]
        with pytest.raises(DataError, match="empty positive class"):
            build_dataset(corpus_rows(tmp_path, records), seed=0)

    def test_rows_are_read_once_in_order(self, tmp_path):
        records = [make_record([f"s{i}"], ["w"], SATD) for i in range(3)]
        seen = []

        class Recorded(JsonlRows):
            def __iter__(self):
                for r, line in super().__iter__():
                    seen.append(r.sbt_tokens[0])
                    yield r, line

        rows = Recorded(corpus_rows(tmp_path, records).path)
        dataset = build_dataset(rows, seed=0)
        assert seen == ["s0", "s1", "s2"]
        assert sorted(lines_of(rows, dataset.pairs)) == sorted(line for _, line in as_rows(records))


class TestGoldenFixtures:
    def test_mined_pairs_match_golden(self):
        golden = json.loads((FIXTURES.parent / "golden_pairs.json").read_text())
        rows = []
        for path in sorted(FIXTURES.glob("*.java")):
            for r in mine_file(path, FIXTURES, ""):
                rows.append(
                    {
                        "path": r.path,
                        "column": r.column,
                        "comment_raw": r.comment_raw,
                        # as `label` labels a mined corpus
                        "label": UNLABELED if r.comment_raw is None else label_comment(r.comment_raw),
                    }
                )
        assert rows == golden


class TestWriteJsonl:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        rows = [PairRecord("p", f"F{k}.java", (0, 1), 1, "if(a){}", ["if"], None, [], "Unlabeled") for k in range(3)]
        lines = [line for _, line in as_rows(rows)]
        write_jsonl(path, lines, {"n": 3})
        before = path.read_bytes()

        def fail_on_third_row():
            yield from lines[:2]
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError, match="disk full"):
            write_jsonl(path, fail_on_third_row(), {"n": 3})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]
        assert [r.path for r, _ in JsonlRows(path)] == ["F0.java", "F1.java", "F2.java"]

    def test_joined_parts_match_one_write_and_are_deleted(self, tmp_path):
        rows = [PairRecord("p", f"F{k}.java", (0, 1), 1, "if(a){}", ["if"], None, [], "Unlabeled") for k in range(5)]
        whole = tmp_path / "whole.jsonl"
        write_jsonl(whole, [line for _, line in as_rows(rows)], {"n": 5})
        parts = []
        for i, chunk in enumerate((rows[:2], [], rows[2:])):
            parts.append(tmp_path / f"{i}.part")
            with open(parts[-1], "w", encoding="utf-8") as f:
                write_rows(f, chunk)
        joined = tmp_path / "joined.jsonl"
        join_jsonl(joined, {"n": 5}, parts)
        assert joined.read_bytes() == whole.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["joined.jsonl", "whole.jsonl"]
