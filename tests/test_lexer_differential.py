"""The master-regex `lex_java` against the frozen character-at-a-time
lexer in `lexer_reference`: the same tokens (kind, lexeme, line, column)
and the same `JavaLexError` (message, line, column) on every input."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexer_reference import reference_lex_java
from satd_forge.errors import JavaLexError
from satd_forge.java_miner import JToken, lex_java

FIXTURES = Path(__file__).parent / "fixtures" / "java"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# pieces that sit on the boundaries between the lexer's rules
SOUP = (
    '"""', "/*", "*/", "//", "\\\n", "\\", '"', "'", ">>>=", ">>>", ">>", "->", "::",
    "...", "..", ".", "1e+5", "1E-", "0x1F", "0x1p-3", "1_000L", ".5", "5",
    "\r", "\n", "\r\n", " ", "\t", "\f", "\v",
    "é", "λ", "²", "½", "٣", "\xa0", "\u2028", "\x85",
    "if", "else", "while", "do", "true", "null", "x", "e", "p", "_", "$", "a1",
    "(", ")", "{", "}", "[", "]", ";", ",", "@", ":", "?", "=", "+", "-", "*", "/",
    "<", ">", "!", "&&", "||", "#", "`", "\x00",
)


def outcome(lex, source):
    try:
        return list(lex(source))
    except JavaLexError as exc:
        return ("error", str(exc), exc.line, exc.column)


def assert_same(source):
    assert outcome(lex_java, source) == outcome(reference_lex_java, source)


@given(st.lists(st.sampled_from(SOUP), max_size=40).map("".join))
@settings(max_examples=1000, deadline=None)
def test_java_token_soup(source):
    assert_same(source)


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=200))
@settings(max_examples=1000, deadline=None)
def test_arbitrary_utf8_text(source):
    assert_same(source)


def test_fixtures():
    for path in sorted(FIXTURES.glob("*.java")):
        assert_same(path.read_text(encoding="utf-8"))


def test_generated_mine_tree(tmp_path):
    sys.path.insert(0, str(PERFBENCH))
    try:
        from gen import java_tree
    finally:
        sys.path.remove(str(PERFBENCH))
    java_tree(tmp_path, seed=1, projects=2, files_per_project=10)
    paths = sorted(tmp_path.rglob("*.java"))
    assert len(paths) == 20
    for path in paths:
        assert_same(path.read_text(encoding="utf-8"))


class TestTraps:
    def test_unterminated_block_comment_is_not_a_slash(self):
        with pytest.raises(JavaLexError) as exc:
            lex_java("a /* b\n c")
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            "unterminated block comment at line 1, column 3", 1, 3)

    def test_unterminated_text_block_is_not_an_empty_string(self):
        with pytest.raises(JavaLexError) as exc:
            lex_java('x\n  """ abc "" ')
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            "unterminated text block at line 2, column 3", 2, 3)

    def test_escaped_newline_in_string_advances_the_line(self):
        tokens = list(lex_java('s = "a\\\nb"; c'))
        assert tokens[-3:] == [
            JToken("punctuation", ";", 2, 3),
            JToken("whitespace", " ", 2, 4),
            JToken("identifier", "c", 2, 5),
        ]
        assert_same('s = "a\\\nb"; c')


@pytest.mark.parametrize(
    "source, kinds",
    [
        ("x²", ["identifier"]),  # isalnum continues an identifier
        ("²x", ["literal"]),  # isdigit starts a number, though `\d` does not match it
        ("½", ["operator"]),  # numeric, but neither isdigit nor isalpha
        ("٣.5", ["literal"]),
        (".²", ["literal"]),
        (".é", ["punctuation", "identifier"]),
        ("éa", ["identifier"]),
        ("\xa0", ["operator"]),
    ],
)
def test_non_ascii_starts(source, kinds):
    assert [t.kind for t in lex_java(source)] == kinds
    assert_same(source)
