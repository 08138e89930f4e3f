"""Mining of Java sources: one scan per file, outermost if-statement
extraction, comment linking, SATD keyword labeling, and deterministic
dataset assembly.

`lex_java` makes one regex pass over a file and keeps its significant
tokens as parallel kind/lexeme/offset lists and its comments; lines and
columns are computed only where a column or a message needs them.
Iterating a scan yields the lossless JToken stream, whose lexemes join to
the source.

Extraction does not parse full Java; it recognizes if/else-if/else chains
with one iterative statement grammar (`statement_end`) over the scan's
lists, which the SBT parser in `ast_sbt` shares.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
from bisect import bisect_left
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from heapq import merge
from operator import index, itemgetter
from pathlib import Path

from .atomic import atomic_write
from .errors import DataError, JavaLexError
from .textpipe import normalize_comment, strip_comment_delimiters

# labels
SATD = "SATD"
NON_SATD = "NonSATD"
EXCLUDED = "Excluded"
UNLABELED = "Unlabeled"
LABELS = (SATD, NON_SATD, EXCLUDED, UNLABELED)

SATD_KEYWORDS = (
    "todo", "fixme", "hack", "workaround", "yuck", "ugly", "stupid",
    "nuke", "kludge", "retarded", "barf", "crap", "silly", "kaboom",
)

EXCLUSION_KEYWORDS = (
    "implement", "fix", "ineffici", "xxx", "broken", "ill", "should",
    "need", "here", "better", "why", "method", "could", "work", "probabl",
    "not", "move", "more", "make", "code", "but", "author",
)

ALL_KEYWORDS = SATD_KEYWORDS + EXCLUSION_KEYWORDS

JAVA_KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

# longest first so the alternation picks up compound operators
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

# what follows a number's or an identifier's first character; `\w` is
# exactly str.isalnum() plus "_"
_NUMBER_REST = re.compile(r"(?:[\w.]|(?<=[eEpP])[+-])*")
_IDENT_REST = re.compile(r"[\w$]*")

# One match is the whitespace before a token plus the token: one named
# group per token kind, tried in order, and `end` for the whitespace at
# the end of the source. The unterminated `/*` and `"""` come before the
# string and operator alternatives that would take their first
# characters. ASCII starts are matched here; a non-ASCII start (or a `.`
# before one) is `other`, which `lex_java` classifies with
# str.isdigit/str.isalpha.
_MASTER = re.compile(
    r"[ \t\r\n\f\v]*(?:"
    + "|".join(
        f"(?P<{group}>{pattern})"
        for group, pattern in (
            ("line_comment", r"//[^\n]*"),
            ("block_comment", r"/\*.*?\*/"),
            ("text_block", r'""".*?"""'),
            ("unterminated", r'/\*|"""'),
            ("string", r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"|' + r"'[^'\\\n]*(?:\\.[^'\\\n]*)*'"),
            ("unterminated_quote", r"[\"']"),
            ("number", r"(?:[0-9]|\.[0-9])" + _NUMBER_REST.pattern),
            ("word", r"[A-Za-z_$]" + _IDENT_REST.pattern),
            ("operator", "|".join(map(re.escape, _OPERATORS))),
            ("punctuation", r"[(){}\[\];,@:]|\.(?![^\x00-\x7f])"),
            ("other", r"."),
            ("end", r"\Z"),
        )
    )
    + ")",
    re.DOTALL,
)

_GROUP_KINDS = {
    "text_block": "literal", "string": "literal", "number": "literal",
    "operator": "operator", "punctuation": "punctuation",
}
# A lexeme that spells a keyword is always of kind keyword, so the grammar
# and the parser test keywords by lexeme alone.
_WORD_KINDS = dict.fromkeys(JAVA_KEYWORDS, "keyword") | dict.fromkeys(("true", "false", "null"), "literal")
_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"""': "unterminated text block",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}
_NEWLINE = re.compile("\n")

# the kind and lexeme after the last significant token: no token has
# it, so no grammar rule or parser test matches it
END = ""


@dataclass(slots=True)
class JToken:
    kind: str  # keyword|identifier|literal|operator|punctuation|line_comment|block_comment|whitespace
    lexeme: str
    line: int
    column: int  # 1-based character position in line


class JavaScan:
    """One source's tokens, as `lex_java` scans them.

    The significant tokens are parallel lists (kind, lexeme, start
    offset), closed by an END entry whose start is len(source); the
    comments are (index of the next significant token, start offset,
    lexeme), in order; whitespace is what lies between them. Lines and
    columns are computed on demand from the source's newline offsets."""

    def __init__(self, source: str):
        self.source = source
        self.kinds: list[str] = []
        self.lexemes: list[str] = []
        self.starts: list[int] = []
        self.comments: list[tuple[int, int, str]] = []

    @cached_property
    def newlines(self) -> list[int]:
        """Offsets of the source's newlines."""
        return [m.start() for m in _NEWLINE.finditer(self.source)]

    def position(self, offset: int) -> tuple[int, int]:
        """1-based line and column of the character at `offset`."""
        newlines = self.newlines
        k = bisect_left(newlines, offset)  # newlines before `offset`
        return k + 1, offset - (newlines[k - 1] if k else -1)

    def __iter__(self):
        """The tokens and comments, in order, one JToken at a time, with
        the whitespace between them: their lexemes join to the source."""
        source, position = self.source, self.position
        comments = (
            (start, "line_comment" if lexeme.startswith("//") else "block_comment", lexeme)
            for _, start, lexeme in self.comments
        )
        pos = 0
        for start, kind, lexeme in merge(zip(self.starts, self.kinds, self.lexemes), comments):
            if start > pos:
                yield JToken("whitespace", source[pos:start], *position(pos))
            if kind == END:
                return
            yield JToken(kind, lexeme, *position(start))
            pos = start + len(lexeme)


def lex_java(source: str) -> JavaScan:
    """Lossless tokenization in one pass of `_MASTER` over `source`: the
    significant tokens and the comments, made into JToken objects only
    when the scan is iterated. An unterminated comment, text block or
    literal raises JavaLexError at its first character."""
    scan = JavaScan(source)
    kinds, lexemes, starts, comments = scan.kinds, scan.lexemes, scan.starts, scan.comments
    match = _MASTER.match
    pos = 0
    while True:
        m = match(source, pos)
        group = m.lastgroup
        lexeme = m[group]
        pos = m.end()
        kind = _GROUP_KINDS.get(group)
        if kind is None:
            if group == "word":
                kind = _WORD_KINDS.get(lexeme, "identifier")
            elif group == "line_comment" or group == "block_comment":
                comments.append((len(lexemes), pos - len(lexeme), lexeme))
                continue
            elif group == "other":
                start = pos - 1  # `other` is one character
                if lexeme.isdigit() or (lexeme == "." and source[pos].isdigit()):
                    kind, pos = "literal", _NUMBER_REST.match(source, pos).end()
                elif lexeme.isalpha():
                    kind, pos = "identifier", _IDENT_REST.match(source, pos).end()
                else:
                    kind = "punctuation" if lexeme in _PUNCTUATION else "operator"
                lexeme = source[start:pos]
            elif group == "end":
                break
            else:
                raise JavaLexError(_UNTERMINATED[lexeme], *scan.position(pos - len(lexeme)))
        kinds.append(kind)
        lexemes.append(lexeme)
        starts.append(pos - len(lexeme))
    kinds.append(END)
    lexemes.append(END)
    starts.append(len(source))
    return scan


@dataclass
class IfFragment:
    source_span: tuple[int, int]  # byte offsets into the UTF-8 encoding
    column: int  # column of the `if` keyword
    text: str
    # the fragment's significant tokens in the file's scan, from its `if`:
    # inclusive start, exclusive end
    token_span: tuple[int, int]


class StatementError(Exception):
    """A candidate the statement grammar rejects; the message says where,
    and `at` is the index of the token where the scan stopped."""

    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.at = at


_OPEN = {"(": ")", "{": "}", "[": "]"}
_CLOSE = (")", "}", "]")
_LOOP_KEYWORDS = ("for", "while", "switch", "synchronized")

# The statement grammar reads a JavaScan's significant tokens from index
# `i`; the END entry (or the one a caller puts in its place) ends them.


def _line(scan: JavaScan, i: int) -> int:
    return scan.position(scan.starts[i])[0]


def skip_labels(scan: JavaScan, i: int) -> int:
    """Index past the `label:` prefixes that start at token `i`."""
    kinds, lexemes = scan.kinds, scan.lexemes
    while kinds[i] == "identifier" and lexemes[i + 1] == ":":
        i += 2
    return i


def bracket_end(scan: JavaScan, i: int, opener: str) -> int:
    """Index past the `opener` at token `i` and its balanced contents."""
    lexemes = scan.lexemes
    t = lexemes[i]
    if t != opener:
        if t == END:
            raise StatementError("unexpected end of token stream", i)
        raise StatementError(f"expected {opener!r}, found {t!r} at line {_line(scan, i)}", i)
    stack = [_OPEN[opener]]
    while stack:
        i += 1
        t = lexemes[i]
        if t in _OPEN:
            stack.append(_OPEN[t])
        elif t in _CLOSE:
            if t != stack.pop():
                raise StatementError(f"mismatched {t!r} at line {_line(scan, i)}", i)
        elif t == END:
            raise StatementError("unexpected end of token stream", i)
    return i + 1


def simple_end(scan: JavaScan, i: int) -> int:
    """Index past the `;` that ends a statement at bracket depth zero; a `}`
    there, a mismatched closer or the end of the tokens raises at that
    index."""
    lexemes = scan.lexemes
    stack: list[str] = []
    while True:
        t = lexemes[i]
        if not stack:
            if t == ";":
                return i + 1
            if t == "}":
                raise StatementError(f"statement runs into enclosing block at line {_line(scan, i)}", i)
        if t in _OPEN:
            stack.append(_OPEN[t])
        elif t in _CLOSE:
            if not stack or t != stack.pop():
                raise StatementError(f"mismatched {t!r} at line {_line(scan, i)}", i)
        elif t == END:
            raise StatementError("unterminated statement", i)
        i += 1


def _try_end(scan: JavaScan, i: int) -> int:
    """Index past the try statement whose `try` is token `i`."""
    lexemes = scan.lexemes
    i += 1
    if lexemes[i] == "(":
        i = bracket_end(scan, i, "(")
    i = bracket_end(scan, i, "{")
    while lexemes[i] == "catch":
        i = bracket_end(scan, bracket_end(scan, i + 1, "("), "{")
    if lexemes[i] == "finally":
        i = bracket_end(scan, i + 1, "{")
    return i


def statement_end(scan: JavaScan, i: int) -> int:
    """Index past the statement that starts at token `i`.

    The one statement grammar, shared by extraction and parsing, over
    significant tokens: if/else chains, loops, do/while, try and labels
    are followed; blocks and simple statements are bracket-balanced
    spans. Iterative: `pending` holds the `if` and `do` statements whose
    body is being scanned, innermost last, so a dangling `else` binds to
    the nearest `if`. Raises StatementError at the first violation.
    """
    lexemes = scan.lexemes
    pending: list[str] = []
    while True:
        i = skip_labels(scan, i)
        t = lexemes[i]
        if t == "if":
            i = bracket_end(scan, i + 1, "(")
            pending.append("if")
            continue
        if t in _LOOP_KEYWORDS:
            i += 1
            if lexemes[i] == "(":
                i = bracket_end(scan, i, "(")
            continue
        if t == "do":
            pending.append("do")
            i += 1
            continue
        if t == "{":
            i = bracket_end(scan, i, "{")
        elif t == "try":
            i = _try_end(scan, i)
        elif t == END:
            raise StatementError("statement expected, found end of stream", i)
        else:
            i = simple_end(scan, i)
        # the innermost statement is complete; so are the pending ones it ends
        while pending:
            if pending.pop() == "do":
                if lexemes[i] != "while":
                    raise StatementError("do without while", i)
                i = bracket_end(scan, i + 1, "(")
                if lexemes[i] != ";":
                    raise StatementError("do-while missing semicolon", i)
                i += 1
            elif lexemes[i] == "else":
                i += 1
                break  # scan the else branch; an `else if` pends its own `if`
        else:
            return i


def extract_outermost_ifs(scan: JavaScan, diagnostics: list[str] | None = None) -> list[IfFragment]:
    """Maximal if/else-if/else chains not nested in another if-statement.

    Candidates the statement grammar rejects are skipped with a
    diagnostic; the rest of the file is still mined.
    """
    source, lexemes, starts = scan.source, scan.lexemes, scan.starts
    fragments: list[IfFragment] = []
    done, done_bytes = 0, 0  # source[:done] encodes to done_bytes UTF-8 bytes
    pos = 0
    while True:
        try:
            pos = lexemes.index("if", pos)
        except ValueError:
            return fragments
        try:
            end = statement_end(scan, pos)
        except StatementError as exc:
            if diagnostics is not None:
                line, column = scan.position(starts[pos])
                diagnostics.append(f"skipped if-statement at line {line}, column {column}: {exc}")
            pos += 1
            continue
        first, last = starts[pos], starts[end - 1] + len(lexemes[end - 1])
        text = source[first:last]
        start = done_bytes + len(source[done:first].encode("utf-8"))
        done, done_bytes = last, start + len(text.encode("utf-8"))
        fragments.append(
            IfFragment(
                source_span=(start, done_bytes),
                column=scan.position(first)[1],
                text=text,
                token_span=(pos, end),
            )
        )
        pos = end


def link_comments(scan: JavaScan, fragments: list[IfFragment]) -> list[tuple[IfFragment, str | None]]:
    """(fragment, comment) for each fragment: the single comment that sits
    between the `if` and its previous significant token at the same
    column.

    Fragments with several qualifying comments are dropped; fragments with
    none are kept with None.
    """
    comments = scan.comments
    pairs: list[tuple[IfFragment, str | None]] = []
    for frag in fragments:
        k = frag.token_span[0]
        j = bisect_left(comments, k, key=itemgetter(0))
        qualifying = []
        while j < len(comments) and comments[j][0] == k:
            _, start, lexeme = comments[j]
            if scan.position(start)[1] == frag.column:
                qualifying.append(lexeme)
            j += 1
        if len(qualifying) > 1:
            continue
        pairs.append((frag, qualifying[0] if qualifying else None))
    return pairs


def label_comment(comment: str) -> str:
    """SATD / NonSATD / Excluded by case-insensitive keyword prefix match
    over whitespace-split tokens of the comment body."""
    words = strip_comment_delimiters(comment).lower().split()
    if not words:
        return EXCLUDED
    for w in words:
        if w.startswith(SATD_KEYWORDS):
            return SATD
    for w in words:
        if w.startswith(ALL_KEYWORDS):
            return EXCLUDED
    return NON_SATD


@dataclass
class PairRecord:
    """One JSON-lines corpus row."""

    project: str
    path: str
    span: tuple[int, int]
    column: int
    code_text: str
    sbt_tokens: list[str]
    comment_raw: str | None
    comment_words: list[str]
    label: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "project": self.project,
                "path": self.path,
                "span": list(self.span),
                "column": self.column,
                "code_text": self.code_text,
                "sbt_tokens": self.sbt_tokens,
                "comment_raw": self.comment_raw,
                "comment_words": self.comment_words,
                "label": self.label,
            }
        )

    @classmethod
    def from_dict(cls, obj: dict) -> "PairRecord":
        """The record a parsed row holds. A missing field raises KeyError; a
        field of the wrong type or out of range (a label outside `LABELS`, a
        span that is not two non-negative integers, a column below 1) raises
        ValueError naming it. A span whose end comes before its start passes.
        The lists are checked in C (str.join, operator.index), not by a
        Python loop per item."""
        if type(obj) is not dict:
            raise ValueError("a row is a JSON object")
        r = cls(
            project=obj["project"],
            path=obj["path"],
            span=obj["span"],
            column=obj["column"],
            code_text=obj["code_text"],
            sbt_tokens=obj["sbt_tokens"],
            comment_raw=obj.get("comment_raw"),
            comment_words=obj["comment_words"],
            label=obj["label"],
        )
        if type(r.project) is not str:
            raise ValueError("project is not a string")
        if type(r.path) is not str:
            raise ValueError("path is not a string")
        if type(r.span) is not list:
            raise ValueError("span is not a list of integers")
        try:
            r.span = tuple(map(index, r.span))
        except TypeError:
            raise ValueError("span is not a list of integers") from None
        if len(r.span) != 2 or min(r.span) < 0:
            raise ValueError("span is not two non-negative integers")
        if type(r.column) is not int:
            raise ValueError("column is not an integer")
        if r.column < 1:
            raise ValueError("column is below 1")
        if type(r.code_text) is not str:
            raise ValueError("code_text is not a string")
        if not _is_string_list(r.sbt_tokens):
            raise ValueError("sbt_tokens is not a list of strings")
        if r.comment_raw is not None and type(r.comment_raw) is not str:
            raise ValueError("comment_raw is neither a string nor null")
        if not _is_string_list(r.comment_words):
            raise ValueError("comment_words is not a list of strings")
        if type(r.label) is not str:
            raise ValueError("label is not a string")
        if r.label not in LABELS:
            raise ValueError(f"label {r.label!r} is not one of {', '.join(LABELS)}")
        return r


def _is_string_list(value) -> bool:
    """Whether `value` is a list of strings; str.join checks the items
    without a Python loop."""
    if type(value) is not list:
        return False
    try:
        "".join(value)
    except TypeError:
        return False
    return True


def mine_source(
    source: str,
    project: str = "",
    path: str = "",
    diagnostics: list[str] | None = None,
) -> list[PairRecord]:
    """Scan, extract, link, and serialize one Java compilation unit into
    Unlabeled records (`label_comment` labels them)."""
    from .ast_sbt import parse_if_statement, sbt_serialize

    scan = lex_java(source)
    records = []
    for frag, comment in link_comments(scan, extract_outermost_ifs(scan, diagnostics=diagnostics)):
        tree = parse_if_statement(scan, diagnostics, frag.token_span)
        records.append(
            PairRecord(
                project=project,
                path=path,
                span=frag.source_span,
                column=frag.column,
                code_text=frag.text,
                sbt_tokens=sbt_serialize(tree),
                comment_raw=comment,
                comment_words=normalize_comment(comment) if comment else [],
                label=UNLABELED,
            )
        )
    return records


def mine_file(path: Path, root: Path, project: str, diagnostics: list[str] | None = None) -> list[PairRecord]:
    """`mine_source` over the file at `path`, whose records name it relative to `root`."""
    source = path.read_text(encoding="utf-8")
    return mine_source(source, project, str(path.relative_to(root)), diagnostics)


# the longest observation a dataset keeps: SBT tokens and comment words
CODE_CAP = 1500
COMMENT_CAP = 150


@dataclass
class Dataset:
    # the (byte offset, length) of each kept row in the input, in shuffled order
    pairs: list[tuple[int, int]]
    provenance: dict
    # those of the NonSATD rows dropped by balancing; reusable for pre-training
    leftover_pool: list[tuple[int, int]]


def _dedup_key(tokens: list[str]):
    """An exact stand-in for `tuple(tokens)` in a dedup set that takes one
    string, not one object per token: the tokens joined by NUL. The join
    splits back into the tokens unless the list is empty or a token holds a
    NUL; such a list keeps its tuple, which never equals a string."""
    joined = "\0".join(tokens)
    return joined if joined.count("\0") == len(tokens) - 1 else tuple(tokens)


def build_dataset(rows: JsonlRows, seed: int, balance: bool = False) -> Dataset:
    """Deduplicate, drop observations longer than CODE_CAP SBT tokens or
    COMMENT_CAP comment words, shuffle (Mersenne Twister), and optionally
    downsample NonSATD to the SATD count.

    `rows` is read once, in order. A SATD/NonSATD row leaves its dedup key
    behind if it is the first with that key, and its label and place in the
    file if it is also kept; neither the records nor the lines are held.
    `rows_at` copies the kept rows from the file afterwards."""
    n_input = 0
    seen = set()
    kept: list[tuple[bool, int, int]] = []  # (SATD?, offset, length) of each kept row
    for r, line in rows:
        if r.label != SATD and r.label != NON_SATD:
            continue
        n_input += 1
        key = (_dedup_key(r.sbt_tokens), _dedup_key(r.comment_words))
        if key in seen:
            continue
        seen.add(key)
        if len(r.sbt_tokens) <= CODE_CAP and len(r.comment_words) <= COMMENT_CAP:
            kept.append((r.label == SATD, rows.offset, len(line)))
    n_dedup = len(seen)
    n_length = len(kept)

    n_satd = sum(satd for satd, _, _ in kept)
    if n_satd == 0:
        raise DataError("empty positive class")

    rng = random.Random(seed)
    rng.shuffle(kept)

    leftover: list[tuple[int, int]] = []
    if balance:
        result = []
        non_satd_kept = 0
        for satd, offset, length in kept:
            if not satd:
                if non_satd_kept >= n_satd:
                    leftover.append((offset, length))
                    continue
                non_satd_kept += 1
            result.append((offset, length))
    else:
        result = [(offset, length) for _, offset, length in kept]

    provenance = {
        "input_labeled": n_input,
        "after_dedup": n_dedup,
        "after_length_filter": n_length,
        "satd": n_satd,
        "final": len(result),
        "balanced": bool(balance),
        "code_cap": CODE_CAP,
        "comment_cap": COMMENT_CAP,
    }
    return Dataset(pairs=result, provenance=provenance, leftover_pool=leftover)


# A corpus file is JSONL: an optional `{"_meta": ...}` line, then one row per
# record, each ending in "\n". `PairRecord.to_json` writes a row; the
# functions below are the only writers of the file. A command that does not
# change a row copies its line as read, so a row is re-serialized only when
# it changes.


def _meta_line(meta: dict) -> bytes:
    return (json.dumps({"_meta": meta}) + "\n").encode("utf-8")


def write_rows(f, records) -> None:
    """Write each record's row to `f`, a file open for text."""
    for r in records:
        f.write(r.to_json() + "\n")


def write_jsonl(path, lines, meta: dict):
    """Write the `_meta` line and then `lines`, rows as `JsonlRows` reads
    them, to `path` in one atomic write. `lines` may be an iterator: it is
    read one line at a time."""
    with atomic_write(path, binary=True) as f:
        f.write(_meta_line(meta))
        f.writelines(lines)


def join_jsonl(path, meta: dict, parts) -> None:
    """Write the `_meta` line and then the rows of each part file, in order,
    to `path` in one atomic write. Each part holds rows as `write_rows`
    writes or `JsonlRows` reads them, and is deleted once copied, so the
    parts and the output together take the corpus's size on disk plus at
    most one part."""
    with atomic_write(path, binary=True) as f:
        f.write(_meta_line(meta))
        for part in parts:
            with open(part, "rb") as src:
                shutil.copyfileobj(src, f)
            os.remove(part)


class JsonlRows:
    """The rows of the corpus file at `path`, read one at a time; from
    `file`, when given, which is `path` just opened for binary reading and
    which iterating leaves open.

    Iterating yields (record, line) for each row, where `line` is the row's
    bytes as read, line break included (one is added to a last line that
    lacks it), and `offset` is the byte offset of its start. `meta` holds
    the object of the last `_meta` line read so far; that line may sit
    anywhere in the file. Blank lines are skipped. A row that is not UTF-8,
    not JSON, or lacks a field or has one of the wrong type raises
    DataError naming `path:line`."""

    def __init__(self, path, file=None):
        self.path = path
        self.file = file
        self.meta: dict = {}
        self.offset = 0

    def __iter__(self):
        path = self.path
        end = 0
        with open(path, "rb") if self.file is None else nullcontext(self.file) as f:
            for lineno, line in enumerate(f, start=1):
                start, end = end, end + len(line)
                if line.isspace():
                    continue
                try:
                    obj = json.loads(line.decode("utf-8"))
                    if type(obj) is dict and "_meta" in obj:
                        if type(obj["_meta"]) is not dict:
                            raise ValueError("_meta is not a JSON object")
                        self.meta = obj["_meta"]
                        continue
                    record = PairRecord.from_dict(obj)
                except UnicodeDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
                except json.JSONDecodeError as exc:
                    raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
                except KeyError as exc:
                    raise DataError(f"{path}:{lineno}: row lacks field {exc}") from exc
                except (TypeError, ValueError) as exc:
                    raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
                if not line.endswith(b"\n"):
                    line += b"\n"
                self.offset = start
                yield record, line


def rows_at(f, spans):
    """The rows of `f`, a file open for binary reading, at each (offset,
    length) of `spans`, in that order and as `JsonlRows` yields them: the
    length counts the line break it adds to a last line that lacks one.
    DataError if the file no longer holds a row that long there."""
    fd = f.fileno()
    for offset, length in spans:
        line = os.pread(fd, length, offset)
        if not line.endswith(b"\n"):
            line += b"\n"
        if len(line) != length:
            raise DataError(f"{f.name}: changed while it was read")
        yield line
