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
from dataclasses import dataclass, field
from pathlib import Path

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

# longest first so greedy matching picks up compound operators
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


@dataclass
class JToken:
    kind: str  # keyword|identifier|literal|operator|punctuation|line_comment|block_comment|whitespace
    lexeme: str
    line: int
    column: int  # 1-based character position in line


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch in "_$"


def _is_ident_part(ch: str) -> bool:
    return ch.isalnum() or ch in "_$"


def lex_java(source: str) -> list[JToken]:
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
    """A candidate the statement grammar rejects; the message says where."""


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
        raise StatementError("unexpected end of token stream")
    if toks[i].lexeme != opener:
        raise StatementError(f"expected {opener!r}, found {toks[i].lexeme!r} at line {toks[i].line}")
    stack = [_OPEN[opener]]
    while stack:
        i += 1
        if i >= len(toks):
            raise StatementError("unexpected end of token stream")
        t = toks[i]
        if t.lexeme in _OPEN:
            stack.append(_OPEN[t.lexeme])
        elif t.lexeme in _CLOSE and t.lexeme != stack.pop():
            raise StatementError(f"mismatched {t.lexeme!r} at line {t.line}")
    return i + 1


def _simple_end(toks: list[JToken], i: int) -> int:
    """Index past the `;` that ends a statement at bracket depth zero."""
    stack: list[str] = []
    while i < len(toks):
        t = toks[i]
        if not stack and t.lexeme == ";":
            return i + 1
        if not stack and t.lexeme == "}":
            raise StatementError(f"statement runs into enclosing block at line {t.line}")
        if t.lexeme in _OPEN:
            stack.append(_OPEN[t.lexeme])
        elif t.lexeme in _CLOSE and (not stack or t.lexeme != stack.pop()):
            raise StatementError(f"mismatched {t.lexeme!r} at line {t.line}")
        i += 1
    raise StatementError("unterminated statement")


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
            raise StatementError("statement expected, found end of stream")
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
            i = _simple_end(toks, i)
        # the innermost statement is complete; so are the pending ones it ends
        while pending:
            if pending.pop() == "do":
                if not _is_kw(toks, i, "while"):
                    raise StatementError("do without while")
                i = bracket_end(toks, i + 1, "(")
                if not (i < len(toks) and toks[i].lexeme == ";"):
                    raise StatementError("do-while missing semicolon")
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
    # cumulative byte offsets of every token start
    byte_offsets = [0] * (len(tokens) + 1)
    for k, t in enumerate(tokens):
        byte_offsets[k + 1] = byte_offsets[k] + len(t.lexeme.encode("utf-8"))

    fragments: list[IfFragment] = []
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
        fragments.append(
            IfFragment(
                source_span=(byte_offsets[first], byte_offsets[last + 1]),
                column=tok.column,
                text="".join(t.lexeme for t in tokens[first : last + 1]),
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
    with open(path, "w", encoding="utf-8") as f:
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
