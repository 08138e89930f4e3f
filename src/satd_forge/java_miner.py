"""Mining of Java sources: lossless lexing, outermost if-statement
extraction, comment linking, SATD keyword labeling, and deterministic
dataset assembly.

Extraction does not parse full Java; it recognizes if/else-if/else chains
with a bracket-balanced statement consumer, which is all the pipeline
consumes downstream.
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


class _ExtractError(Exception):
    pass


class _Walker:
    """Cursor over the significant (non-whitespace, non-comment) tokens."""

    def __init__(self, tokens: list[JToken], sig: list[int], pos: int):
        self.tokens = tokens
        self.sig = sig
        self.pos = pos

    def peek(self, offset: int = 0) -> JToken | None:
        if self.pos + offset >= len(self.sig):
            return None
        return self.tokens[self.sig[self.pos + offset]]

    def is_kw(self, word: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "keyword" and t.lexeme == word

    def is_lex(self, lexeme: str) -> bool:
        t = self.peek()
        return t is not None and t.lexeme == lexeme

    def advance(self) -> JToken:
        t = self.peek()
        if t is None:
            raise _ExtractError("unexpected end of token stream")
        self.pos += 1
        return t

    def consume_bracketed(self, open_lex: str):
        t = self.advance()
        if t.lexeme != open_lex:
            raise _ExtractError(f"expected {open_lex!r}, found {t.lexeme!r} at line {t.line}")
        close_of = {"(": ")", "{": "}", "[": "]"}
        stack = [close_of[open_lex]]
        while stack:
            t = self.advance()
            if t.lexeme in close_of:
                stack.append(close_of[t.lexeme])
            elif t.lexeme in (")", "}", "]"):
                if t.lexeme != stack.pop():
                    raise _ExtractError(f"mismatched {t.lexeme!r} at line {t.line}")

    def consume_statement(self):
        # strip `label:` prefixes so the labeled statement ends correctly
        while True:
            t = self.peek()
            nxt = self.peek(1)
            if (
                t is not None
                and t.kind == "identifier"
                and nxt is not None
                and nxt.lexeme == ":"
            ):
                self.advance()
                self.advance()
                continue
            break
        if t is None:
            raise _ExtractError("statement expected, found end of stream")
        if t.lexeme == "{":
            self.consume_bracketed("{")
            return
        if t.kind == "keyword":
            word = t.lexeme
            if word == "if":
                self.consume_if_chain()
                return
            if word in ("for", "while", "switch", "synchronized"):
                self.advance()
                if self.is_lex("("):
                    self.consume_bracketed("(")
                self.consume_statement()
                return
            if word == "do":
                self.advance()
                self.consume_statement()
                if not self.is_kw("while"):
                    raise _ExtractError("do without while")
                self.advance()
                self.consume_bracketed("(")
                if not self.is_lex(";"):
                    raise _ExtractError("do-while missing semicolon")
                self.advance()
                return
            if word == "try":
                self.advance()
                if self.is_lex("("):
                    self.consume_bracketed("(")
                self.consume_bracketed("{")
                while self.is_kw("catch"):
                    self.advance()
                    self.consume_bracketed("(")
                    self.consume_bracketed("{")
                if self.is_kw("finally"):
                    self.advance()
                    self.consume_bracketed("{")
                return
        # simple statement: scan to a `;` at bracket depth zero
        close_of = {"(": ")", "{": "}", "[": "]"}
        stack: list[str] = []
        while True:
            t = self.peek()
            if t is None:
                raise _ExtractError("unterminated statement")
            if not stack and t.lexeme == ";":
                self.advance()
                return
            if not stack and t.lexeme == "}":
                raise _ExtractError(f"statement runs into enclosing block at line {t.line}")
            if t.lexeme in close_of:
                stack.append(close_of[t.lexeme])
            elif t.lexeme in (")", "}", "]"):
                if not stack or t.lexeme != stack.pop():
                    raise _ExtractError(f"mismatched {t.lexeme!r} at line {t.line}")
            self.advance()

    def consume_if_chain(self):
        t = self.advance()
        if not (t.kind == "keyword" and t.lexeme == "if"):
            raise _ExtractError("expected `if`")
        self.consume_bracketed("(")
        self.consume_statement()
        while self.is_kw("else"):
            self.advance()
            if self.is_kw("if"):
                self.advance()
                self.consume_bracketed("(")
                self.consume_statement()
            else:
                self.consume_statement()
                break


def extract_outermost_ifs(
    tokens: list[JToken],
    project_id: str = "",
    diagnostics: list[str] | None = None,
) -> list[IfFragment]:
    """Maximal if/else-if/else chains not nested in another if-statement.

    Candidates with unbalanced brackets are skipped with a diagnostic; the
    rest of the file is still mined.
    """
    sig = [k for k, t in enumerate(tokens) if t.kind not in _SKIP_KINDS]
    # cumulative char/byte offsets of every token start
    char_offsets = [0] * (len(tokens) + 1)
    byte_offsets = [0] * (len(tokens) + 1)
    for k, t in enumerate(tokens):
        char_offsets[k + 1] = char_offsets[k] + len(t.lexeme)
        byte_offsets[k + 1] = byte_offsets[k] + len(t.lexeme.encode("utf-8"))

    fragments: list[IfFragment] = []
    pos = 0
    while pos < len(sig):
        tok = tokens[sig[pos]]
        if tok.kind == "keyword" and tok.lexeme == "if":
            walker = _Walker(tokens, sig, pos)
            try:
                walker.consume_if_chain()
            except _ExtractError as exc:
                if diagnostics is not None:
                    diagnostics.append(
                        f"skipped if-statement at line {tok.line}, column {tok.column}: {exc}"
                    )
                pos += 1
                continue
            first = sig[pos]
            last = sig[walker.pos - 1]
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
            pos = walker.pos
        else:
            pos += 1
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
        tree = parse_if_statement(tokens[start:end])
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
