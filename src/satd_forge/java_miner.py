"""Mining of Java sources: lossless lexing, outermost if-statement
extraction, comment linking, SATD keyword labeling, and deterministic
dataset assembly.

Extraction does not parse full Java; it recognizes if/else-if/else chains
with one iterative statement grammar (`statement_end`), which the SBT
parser in `ast_sbt` shares.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from .atomic import atomic_write
from .errors import DataError, JavaLexError
from .textpipe import normalize_comment, strip_comment_delimiters

# labels
SATD = "SATD"
NON_SATD = "NonSATD"
EXCLUDED = "Excluded"
UNLABELED = "Unlabeled"

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

_COMMENT_KINDS = ("line_comment", "block_comment")
_SKIP_KINDS = ("whitespace",) + _COMMENT_KINDS

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

# One alternative per token kind, tried in order. The unterminated `/*`
# and `"""` come before the string and operator alternatives that would
# take their first characters. ASCII starts are matched here; a non-ASCII
# start (or a `.` before one) is `other`, which `lex_java` classifies with
# str.isdigit/str.isalpha.
_MASTER = re.compile(
    "|".join(
        f"(?P<{group}>{pattern})"
        for group, pattern in (
            ("whitespace", r"[ \t\r\n\f\v]+"),
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
        )
    ),
    re.DOTALL,
)

_GROUP_KINDS = {
    "whitespace": "whitespace", "line_comment": "line_comment", "block_comment": "block_comment",
    "text_block": "literal", "string": "literal", "number": "literal",
    "operator": "operator", "punctuation": "punctuation",
}
_MULTILINE_GROUPS = frozenset(("whitespace", "block_comment", "text_block", "string"))
_WORD_KINDS = dict.fromkeys(JAVA_KEYWORDS, "keyword") | dict.fromkeys(("true", "false", "null"), "literal")
_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"""': "unterminated text block",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}


@dataclass
class JToken:
    kind: str  # keyword|identifier|literal|operator|punctuation|line_comment|block_comment|whitespace
    lexeme: str
    line: int
    column: int  # 1-based character position in line


def lex_java(source: str) -> list[JToken]:
    """Lossless tokenization: concatenating lexemes reproduces the input."""
    tokens: list[JToken] = []
    append = tokens.append
    match = _MASTER.match
    pos, n = 0, len(source)
    line, line_start = 1, 0  # line_start: index of the current line's first character
    while pos < n:
        m = match(source, pos)
        group = m.lastgroup
        end = m.end()
        kind = _GROUP_KINDS.get(group)
        if kind is None:
            if group == "word":
                kind = _WORD_KINDS.get(m.group(), "identifier")
            elif group == "other":
                ch = source[pos]
                if ch.isdigit() or (ch == "." and source[end].isdigit()):
                    kind, end = "literal", _NUMBER_REST.match(source, end).end()
                elif ch.isalpha():
                    kind, end = "identifier", _IDENT_REST.match(source, end).end()
                else:
                    kind = "punctuation" if ch in _PUNCTUATION else "operator"
            else:
                raise JavaLexError(_UNTERMINATED[m.group()], line, pos - line_start + 1)
        append(JToken(kind, source[pos:end], line, pos - line_start + 1))
        if group in _MULTILINE_GROUPS:
            newlines = source.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, end) + 1
        pos = end
    return tokens


@dataclass
class IfFragment:
    source_span: tuple[int, int]  # byte offsets into the UTF-8 encoding
    column: int  # column of the `if` keyword
    text: str
    project_id: str = ""
    # token indices into the full lexed stream, used for linking/parsing
    if_token_index: int = -1
    token_span: tuple[int, int] = (-1, -1)  # inclusive start, exclusive end


class StatementError(Exception):
    """A candidate the statement grammar rejects; the message says where,
    and `at` is the index of the token where the scan stopped."""

    def __init__(self, message: str, at: int):
        super().__init__(message)
        self.at = at


_OPEN = {"(": ")", "{": "}", "[": "]"}
_CLOSE = (")", "}", "]")
_LOOP_KEYWORDS = ("for", "while", "switch", "synchronized")


def _is_kw(toks: list[JToken], i: int, word: str) -> bool:
    return i < len(toks) and toks[i].kind == "keyword" and toks[i].lexeme == word


def skip_labels(toks: list[JToken], i: int) -> int:
    """Index past the `label:` prefixes that start at `toks[i]`."""
    while i + 1 < len(toks) and toks[i].kind == "identifier" and toks[i + 1].lexeme == ":":
        i += 2
    return i


def bracket_end(toks: list[JToken], i: int, opener: str) -> int:
    """Index past the `opener` at `toks[i]` and its balanced contents."""
    if i >= len(toks):
        raise StatementError("unexpected end of token stream", i)
    if toks[i].lexeme != opener:
        raise StatementError(f"expected {opener!r}, found {toks[i].lexeme!r} at line {toks[i].line}", i)
    stack = [_OPEN[opener]]
    while stack:
        i += 1
        if i >= len(toks):
            raise StatementError("unexpected end of token stream", i)
        t = toks[i]
        if t.lexeme in _OPEN:
            stack.append(_OPEN[t.lexeme])
        elif t.lexeme in _CLOSE and t.lexeme != stack.pop():
            raise StatementError(f"mismatched {t.lexeme!r} at line {t.line}", i)
    return i + 1


def simple_end(toks: list[JToken], i: int) -> int:
    """Index past the `;` that ends a statement at bracket depth zero; a `}`
    there, a mismatched closer or the end of `toks` raises at that index."""
    stack: list[str] = []
    while i < len(toks):
        t = toks[i]
        if not stack and t.lexeme == ";":
            return i + 1
        if not stack and t.lexeme == "}":
            raise StatementError(f"statement runs into enclosing block at line {t.line}", i)
        if t.lexeme in _OPEN:
            stack.append(_OPEN[t.lexeme])
        elif t.lexeme in _CLOSE and (not stack or t.lexeme != stack.pop()):
            raise StatementError(f"mismatched {t.lexeme!r} at line {t.line}", i)
        i += 1
    raise StatementError("unterminated statement", i)


def _try_end(toks: list[JToken], i: int) -> int:
    """Index past the try statement whose `try` is `toks[i]`."""
    i += 1
    if i < len(toks) and toks[i].lexeme == "(":
        i = bracket_end(toks, i, "(")
    i = bracket_end(toks, i, "{")
    while _is_kw(toks, i, "catch"):
        i = bracket_end(toks, bracket_end(toks, i + 1, "("), "{")
    if _is_kw(toks, i, "finally"):
        i = bracket_end(toks, i + 1, "{")
    return i


def statement_end(toks: list[JToken], i: int) -> int:
    """Index past the statement that starts at `toks[i]`.

    The one statement grammar, shared by extraction and parsing, over
    significant tokens: if/else chains, loops, do/while, try and labels
    are followed; blocks and simple statements are bracket-balanced
    spans. Iterative: `pending` holds the `if` and `do` statements whose
    body is being scanned, innermost last, so a dangling `else` binds to
    the nearest `if`. Raises StatementError at the first violation.
    """
    pending: list[str] = []
    while True:
        i = skip_labels(toks, i)
        if i >= len(toks):
            raise StatementError("statement expected, found end of stream", i)
        t = toks[i]
        word = t.lexeme if t.kind == "keyword" else None
        if word == "if":
            i = bracket_end(toks, i + 1, "(")
            pending.append("if")
            continue
        if word in _LOOP_KEYWORDS:
            i += 1
            if i < len(toks) and toks[i].lexeme == "(":
                i = bracket_end(toks, i, "(")
            continue
        if word == "do":
            pending.append("do")
            i += 1
            continue
        if t.lexeme == "{":
            i = bracket_end(toks, i, "{")
        elif word == "try":
            i = _try_end(toks, i)
        else:
            i = simple_end(toks, i)
        # the innermost statement is complete; so are the pending ones it ends
        while pending:
            if pending.pop() == "do":
                if not _is_kw(toks, i, "while"):
                    raise StatementError("do without while", i)
                i = bracket_end(toks, i + 1, "(")
                if not (i < len(toks) and toks[i].lexeme == ";"):
                    raise StatementError("do-while missing semicolon", i)
                i += 1
            elif _is_kw(toks, i, "else"):
                i += 1
                break  # scan the else branch; an `else if` pends its own `if`
        else:
            return i


def extract_outermost_ifs(
    tokens: list[JToken],
    project_id: str = "",
    diagnostics: list[str] | None = None,
) -> list[IfFragment]:
    """Maximal if/else-if/else chains not nested in another if-statement.

    Candidates the statement grammar rejects are skipped with a
    diagnostic; the rest of the file is still mined.
    """
    sig = [k for k, t in enumerate(tokens) if t.kind not in _SKIP_KINDS]
    toks = [tokens[k] for k in sig]
    fragments: list[IfFragment] = []
    done, done_bytes = 0, 0  # tokens[:done] encode to done_bytes UTF-8 bytes
    pos = 0
    while pos < len(toks):
        tok = toks[pos]
        if not (tok.kind == "keyword" and tok.lexeme == "if"):
            pos += 1
            continue
        try:
            end = statement_end(toks, pos)
        except StatementError as exc:
            if diagnostics is not None:
                diagnostics.append(f"skipped if-statement at line {tok.line}, column {tok.column}: {exc}")
            pos += 1
            continue
        first, last = sig[pos], sig[end - 1]
        text = "".join([t.lexeme for t in tokens[first : last + 1]])
        start = done_bytes + len("".join([t.lexeme for t in tokens[done:first]]).encode("utf-8"))
        done, done_bytes = last + 1, start + len(text.encode("utf-8"))
        fragments.append(
            IfFragment(
                source_span=(start, done_bytes),
                column=tok.column,
                text=text,
                project_id=project_id,
                if_token_index=first,
                token_span=(first, last + 1),
            )
        )
        pos = end
    return fragments


@dataclass
class CodeCommentPair:
    fragment: IfFragment
    comment: str | None
    label: str
    project_id: str = ""


def link_comments(tokens: list[JToken], fragments: list[IfFragment]) -> list[CodeCommentPair]:
    """Attach to each fragment the single comment that sits between the `if`
    and its previous non-comment token at the same column.

    Fragments with several qualifying comments are dropped; fragments with
    none are kept without a comment.
    """
    pairs: list[CodeCommentPair] = []
    for frag in fragments:
        candidates = []
        j = frag.if_token_index - 1
        while j >= 0 and tokens[j].kind in _SKIP_KINDS:
            if tokens[j].kind in _COMMENT_KINDS:
                candidates.append(tokens[j])
            j -= 1
        qualifying = [c for c in candidates if c.column == frag.column]
        if len(qualifying) > 1:
            continue
        comment = qualifying[0].lexeme if qualifying else None
        pairs.append(
            CodeCommentPair(
                fragment=frag,
                comment=comment,
                label=UNLABELED,
                project_id=frag.project_id,
            )
        )
    return pairs


def label_comment(comment: str) -> str:
    """SATD / NonSATD / Excluded by case-insensitive keyword prefix match
    over whitespace-split tokens of the comment body."""
    words = strip_comment_delimiters(comment).lower().split()
    if not words:
        return EXCLUDED
    for w in words:
        if any(w.startswith(k) for k in SATD_KEYWORDS):
            return SATD
    for w in words:
        if any(w.startswith(k) for k in ALL_KEYWORDS):
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
        return cls(
            project=obj["project"],
            path=obj["path"],
            span=tuple(obj["span"]),
            column=obj["column"],
            code_text=obj["code_text"],
            sbt_tokens=list(obj["sbt_tokens"]),
            comment_raw=obj.get("comment_raw"),
            comment_words=list(obj["comment_words"]),
            label=obj["label"],
        )


def mine_source(
    source: str,
    project: str = "",
    path: str = "",
    apply_labels: bool = False,
    diagnostics: list[str] | None = None,
) -> list[PairRecord]:
    """Lex, extract, link, and serialize one Java compilation unit."""
    from .ast_sbt import parse_if_statement, sbt_serialize

    tokens = lex_java(source)
    fragments = extract_outermost_ifs(tokens, project_id=project, diagnostics=diagnostics)
    pairs = link_comments(tokens, fragments)
    records = []
    for pair in pairs:
        frag = pair.fragment
        start, end = frag.token_span
        tree = parse_if_statement(tokens[start:end], diagnostics)
        label = UNLABELED
        if apply_labels and pair.comment is not None:
            label = label_comment(pair.comment)
        records.append(
            PairRecord(
                project=project,
                path=path,
                span=frag.source_span,
                column=frag.column,
                code_text=frag.text,
                sbt_tokens=sbt_serialize(tree),
                comment_raw=pair.comment,
                comment_words=normalize_comment(pair.comment) if pair.comment else [],
                label=label,
            )
        )
    return records


def mine_file(path: Path, root: Path | None = None, project: str = "", **kw) -> list[PairRecord]:
    source = Path(path).read_text(encoding="utf-8")
    rel = str(Path(path).relative_to(root)) if root else str(path)
    return mine_source(source, project=project or (rel.split("/")[0] if "/" in rel else ""), path=rel, **kw)


@dataclass
class Dataset:
    pairs: list[PairRecord]
    shuffle_seed: int
    provenance: dict = field(default_factory=dict)
    # NonSATD records dropped by balancing; reusable for pre-training
    leftover_pool: list[PairRecord] = field(default_factory=list)


def build_dataset(
    records: list[PairRecord],
    seed: int,
    balance: bool = False,
    code_cap: int = 1500,
    comment_cap: int = 150,
) -> Dataset:
    """Deduplicate, drop overlong observations, shuffle (Mersenne Twister),
    and optionally downsample NonSATD to the SATD count."""
    labeled = [r for r in records if r.label in (SATD, NON_SATD)]
    n_input = len(labeled)

    seen = set()
    deduped = []
    for r in labeled:
        key = (tuple(r.sbt_tokens), tuple(r.comment_words))
        if key in seen:
            continue
        seen.add(key)
        deduped.append(r)
    n_dedup = len(deduped)

    kept = [
        r
        for r in deduped
        if len(r.sbt_tokens) <= code_cap and len(r.comment_words) <= comment_cap
    ]
    n_length = len(kept)

    n_satd = sum(1 for r in kept if r.label == SATD)
    if n_satd == 0:
        raise DataError("empty positive class")

    rng = random.Random(seed)
    shuffled = list(kept)
    rng.shuffle(shuffled)

    leftover: list[PairRecord] = []
    if balance:
        result = []
        non_satd_kept = 0
        for r in shuffled:
            if r.label == NON_SATD:
                if non_satd_kept >= n_satd:
                    leftover.append(r)
                    continue
                non_satd_kept += 1
            result.append(r)
    else:
        result = shuffled

    provenance = {
        "input_labeled": n_input,
        "after_dedup": n_dedup,
        "after_length_filter": n_length,
        "satd": n_satd,
        "final": len(result),
        "balanced": bool(balance),
        "code_cap": code_cap,
        "comment_cap": comment_cap,
    }
    return Dataset(pairs=result, shuffle_seed=seed, provenance=provenance, leftover_pool=leftover)


def write_jsonl(path, records: list[PairRecord], meta: dict | None = None):
    with atomic_write(path) as f:
        if meta is not None:
            f.write(json.dumps({"_meta": meta}) + "\n")
        for r in records:
            f.write(r.to_json() + "\n")


def read_jsonl(path) -> tuple[list[PairRecord], dict]:
    """Records and the `_meta` line; a malformed row raises DataError
    naming `path:line`."""
    records = []
    meta: dict = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if "_meta" in obj:
                    meta = obj["_meta"]
                    continue
                records.append(PairRecord.from_dict(obj))
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: row lacks field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: malformed row: {exc}") from exc
    return records, meta
