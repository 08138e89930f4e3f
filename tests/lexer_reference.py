"""A frozen character-at-a-time Java lexer: the oracle for `java_miner.lex_java`.

It walks the source one character at a time, tries every operator with
`str.startswith`, and classifies characters with `str.isdigit`,
`str.isalpha` and `str.isalnum`. Its tokens and its errors are the
contract the master-regex lexer keeps.
"""

from satd_forge.errors import JavaLexError
from satd_forge.java_miner import JAVA_KEYWORDS, JToken

_OPERATORS = sorted(
    [
        ">>>=", ">>>", ">>=", "<<=", "...", "->", "::", "==", "!=", "<=",
        ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=",
        "|=", "^=", "<<", ">>", "+", "-", "*", "/", "%", "=", "<", ">",
        "!", "&", "|", "^", "~", "?",
    ],
    key=len,
    reverse=True,
)

_PUNCTUATION = "(){}[];,.@:"


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_$"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def reference_lex_java(source: str) -> list[JToken]:
    """Lossless tokenization: concatenating lexemes reproduces the input."""
    tokens: list[JToken] = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def emit(kind: str, end: int, start_line: int, start_col: int):
        nonlocal i, line, col
        lexeme = source[i:end]
        tokens.append(JToken(kind, lexeme, start_line, start_col))
        newlines = lexeme.count("\n")
        if newlines:
            line = start_line + newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col = start_col + len(lexeme)
        i = end

    while i < n:
        ch = source[i]
        sl, sc = line, col
        if ch in " \t\r\n\f\v":
            j = i + 1
            while j < n and source[j] in " \t\r\n\f\v":
                j += 1
            emit("whitespace", j, sl, sc)
        elif source.startswith("//", i):
            j = source.find("\n", i)
            emit("line_comment", n if j < 0 else j, sl, sc)
        elif source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise JavaLexError("unterminated block comment", sl, sc)
            emit("block_comment", j + 2, sl, sc)
        elif source.startswith('"""', i):
            j = source.find('"""', i + 3)
            if j < 0:
                raise JavaLexError("unterminated text block", sl, sc)
            emit("literal", j + 3, sl, sc)
        elif ch == '"' or ch == "'":
            j = i + 1
            while j < n:
                c = source[j]
                if c == "\\" and j + 1 < n:
                    j += 2
                    continue
                if c == ch:
                    j += 1
                    break
                if c == "\n":
                    j = -1
                    break
                j += 1
            else:
                j = -1
            if j < 0:
                what = "string literal" if ch == '"' else "character literal"
                raise JavaLexError(f"unterminated {what}", sl, sc)
            emit("literal", j, sl, sc)
        elif ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n:
                c = source[j]
                if c.isalnum() or c in "._":
                    j += 1
                elif c in "+-" and source[j - 1] in "eEpP":
                    j += 1
                else:
                    break
            emit("literal", j, sl, sc)
        elif _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident_part(source[j]):
                j += 1
            word = source[i:j]
            if word in JAVA_KEYWORDS:
                kind = "keyword"
            elif word in ("true", "false", "null"):
                kind = "literal"
            else:
                kind = "identifier"
            emit(kind, j, sl, sc)
        else:
            for op in _OPERATORS:
                if source.startswith(op, i):
                    emit("operator", i + len(op), sl, sc)
                    break
            else:
                kind = "punctuation" if ch in _PUNCTUATION else "operator"
                emit(kind, i + 1, sl, sc)
    return tokens
