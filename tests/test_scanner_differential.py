"""The scan `lex_java` returns, which mining reads without building
tokens, against the frozen character-at-a-time lexer in
`lexer_reference`: the same significant tokens and comments (trivia left
out, start offsets included), the same line and column for each of them
from `JavaScan.position`, and the same `JavaLexError` (message, line,
column) on every input."""

from hypothesis import given, settings
from hypothesis import strategies as st

from lexer_reference import reference_lex_java
from satd_forge.errors import JavaLexError
from satd_forge.java_miner import END, lex_java

# non-ASCII identifier and digit starts, `.` before a non-ASCII character,
# carriage returns, text blocks and the openers of unterminated literals
SOUP = (
    "é", "λx", "x²", "²", "٣", "½", "\xa0", ".é", ".²", ".٣", "é.λ",
    "\r", "\r\n", "\n", " ", "\t",
    '"""', '""" a\r\n b """', '"a"', "'c'", '"', "'", "/*", "*/", "/* é */", "// é\r",
    "\\", "\\\n", "1", "1e+5", ".5", "0x1F", "if", "else", "x", "_", "$",
    "(", ")", "{", "}", ";", ".", "::", "->", ">>>=", "+", "-", "/",
)


def reference(source):
    """(significant tokens, comments, positions) from the reference lexer,
    in the scan's layout, or its error."""
    try:
        tokens = reference_lex_java(source)
    except JavaLexError as exc:
        return ("error", str(exc), exc.line, exc.column)
    significant, comments, token_positions, comment_positions = [], [], [], []
    offset = 0
    for t in tokens:
        if t.kind in ("line_comment", "block_comment"):
            comments.append((len(significant), offset, t.lexeme))
            comment_positions.append((t.line, t.column))
        elif t.kind != "whitespace":
            significant.append((t.kind, t.lexeme, offset))
            token_positions.append((t.line, t.column))
        offset += len(t.lexeme)
    return significant, comments, token_positions + comment_positions


def scanned(source):
    try:
        scan = lex_java(source)
    except JavaLexError as exc:
        return ("error", str(exc), exc.line, exc.column)
    assert (scan.kinds[-1], scan.lexemes[-1], scan.starts[-1]) == (END, END, len(source))
    significant = list(zip(scan.kinds, scan.lexemes, scan.starts))[:-1]
    starts = scan.starts[:-1] + [start for _, start, _ in scan.comments]
    return significant, scan.comments, [scan.position(start) for start in starts]


@given(st.lists(st.sampled_from(SOUP), max_size=40).map("".join))
@settings(max_examples=1000, deadline=None)
def test_scan_matches_the_reference_lexer(source):
    assert scanned(source) == reference(source)


@given(st.text(alphabet=st.characters(codec="utf-8"), max_size=200))
@settings(max_examples=500, deadline=None)
def test_scan_matches_the_reference_lexer_on_any_text(source):
    assert scanned(source) == reference(source)


def test_unterminated_literal_after_carriage_returns():
    source = 'a\r\n\rb "c\n'
    assert scanned(source) == reference(source) == ("error", "unterminated string literal at line 2, column 4", 2, 4)
