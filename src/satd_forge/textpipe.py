"""Comment text pipeline: normalization, sentence framing, the token store
the training commands read, vocabularies, index encoding/decoding, and
batch padding.

Mining loads this module, so numpy is imported only in the bodies that
train or pad."""

from __future__ import annotations

import functools
import string
import warnings
from array import array
from dataclasses import dataclass, field

from ._porter import porter_stem
from .errors import DataError

UNKN_PAD = "<UNKN/PAD>"
SOS = "<sos>"
EOS = "<eos>"

CODE_RESERVED = (UNKN_PAD,)
COMMENT_RESERVED = (UNKN_PAD, SOS, EOS)
RESERVED = {"code": CODE_RESERVED, "comment": COMMENT_RESERVED}

_PUNCT_TO_SPACE = str.maketrans({c: " " for c in string.punctuation})


def strip_comment_delimiters(raw: str) -> str:
    """Remove `//` or `/* */` markers, leaving the comment body."""
    s = raw.strip()
    if s.startswith("//"):
        return s[2:]
    if s.startswith("/*"):
        s = s[2:]
        if s.endswith("*/"):
            s = s[:-2]
        return s
    return s


@functools.cache
def stem_word(word: str) -> str:
    # iterated to a fixed point so that normalizing normalized text is a no-op;
    # cached because comments repeat a small vocabulary
    for _ in range(10):
        stemmed = porter_stem(word)
        if stemmed == word:
            return word
        word = stemmed
    return word


def normalize_comment(raw: str) -> list[str]:
    """Lowercase, drop punctuation, discard tokens with digits or
    non-ASCII characters, and stem what survives."""
    text = strip_comment_delimiters(raw).lower().translate(_PUNCT_TO_SPACE)
    words = []
    for tok in text.split():
        if tok.isascii() and tok.isalpha():
            words.append(stem_word(tok))
    return words


def frame_comment(words: list[str]) -> list[str]:
    return [SOS] + list(words) + [EOS]


@dataclass
class Vocabulary:
    """Bidirectional word/index map with reserved tokens at fixed indices."""

    words: list[str]
    kind: str  # "code" | "comment"
    index_of: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self.index_of:
            self.index_of = {w: i for i, w in enumerate(self.words)}

    @property
    def size(self) -> int:
        return len(self.words)

    def encode(self, tokens) -> list[int]:
        get = self.index_of.get
        return [get(t, 0) for t in tokens]

    def decode(self, indices) -> list[str]:
        out = []
        for i in indices:
            i = int(i)
            if i < 0 or i >= len(self.words):
                raise DataError(f"index {i} out of range for vocabulary of size {len(self.words)}")
            out.append(self.words[i])
        return out


# rows a vocabulary fit reads at a time: it holds their ids and the new
# words among them, not a sorted copy of the whole corpus
FIT_BLOCK_ROWS = 1024


def build_vocabulary(sequences, kind: str) -> Vocabulary:
    """Reserved tokens first, then the distinct tokens of `sequences` (a
    TokenColumn, or token lists) in first-appearance order, row by row.

    Must be fitted on training data only; unseen tokens encode to index 0.
    The first appearances are found in blocks of rows: in each, the ids not
    yet seen, ordered by their first position (`np.unique`).
    """
    import numpy as np

    if kind not in RESERVED:
        raise ValueError(f"unknown vocabulary kind: {kind!r}")
    reserved = RESERVED[kind]
    column = as_column(sequences)
    seen = np.zeros(len(column.words), dtype=bool)
    order = []
    n_tokens = 0
    for lo in range(0, len(column), FIT_BLOCK_ROWS):
        ids = column.select(slice(lo, lo + FIT_BLOCK_ROWS)).flat()
        n_tokens += len(ids)
        fresh = ids[~seen[ids]]
        if len(fresh):
            new, first = np.unique(fresh, return_index=True)
            order += new[np.argsort(first)].tolist()
            seen[new] = True
    if n_tokens == 0:
        warnings.warn(f"building {kind} vocabulary from an empty corpus", stacklevel=2)
    words = list(reserved) + [w for w in map(column.words.__getitem__, order) if w not in reserved]
    return Vocabulary(words=words, kind=kind)


def pad_batch(index_lists, cap: int):
    """Right-pad sequences (lists or arrays of indices) with index 0 up to
    the batch maximum length.

    Returns (matrix, mask); mask is 1.0 at real positions. Sequences longer
    than `cap` should have been dropped upstream, so they are an error here.
    """
    import numpy as np

    lengths = np.fromiter(map(len, index_lists), dtype=np.int64, count=len(index_lists))
    over = np.flatnonzero(lengths > cap)
    if len(over):
        raise DataError(f"sequence of length {lengths[over[0]]} exceeds cap {cap}")
    real = np.arange(lengths.max(initial=0)) < lengths[:, None]
    matrix = np.zeros(real.shape, dtype=np.int64)
    if len(index_lists):
        matrix[real] = np.concatenate(index_lists)
    return matrix, real.astype(np.float64)


def length_sorted_chunks(lengths, size: int) -> list[list[int]]:
    """Indices of sequences of `lengths`, longest first (ties keep their
    order), cut into chunks of `size`: batches that need little padding."""
    order = sorted(range(len(lengths)), key=lambda j: -lengths[j])
    return [order[k : k + size] for k in range(0, len(order), size)]


class TokenColumn:
    """Token sequences as corpus-level ids: row r holds the tokens
    `words[i]` for i in `ids[starts[r]:ends[r]]`. Iterating yields each
    row's tokens as a list, so a column reads like the token lists it
    replaces; `select` picks rows without copying a token."""

    def __init__(self, ids, starts, ends, words: list[str]):
        self.ids = ids  # int32
        self.starts = starts  # int64, one per row
        self.ends = ends
        self.words = words

    def __len__(self) -> int:
        return len(self.starts)

    def __iter__(self):
        words = self.words
        for s, e in zip(self.starts.tolist(), self.ends.tolist()):
            yield [words[i] for i in self.ids[s:e].tolist()]

    def lengths(self):
        return self.ends - self.starts

    def select(self, rows) -> "TokenColumn":
        """The rows at `rows` (indices or a slice), in that order."""
        return TokenColumn(self.ids, self.starts[rows], self.ends[rows], self.words)

    def flat(self):
        """The ids of every row, in row order, as one array."""
        import numpy as np

        lengths = self.lengths()
        before = np.cumsum(lengths) - lengths  # where each row starts in the result
        return self.ids[np.repeat(self.starts - before, lengths) + np.arange(int(lengths.sum()))]

    def lookup(self, vocab: "Vocabulary", missing: int = 0):
        """The vocabulary index of each corpus id; `missing` where the
        vocabulary lacks the word."""
        import numpy as np

        get = vocab.index_of.get
        return np.fromiter((get(w, missing) for w in self.words), dtype=np.int32, count=len(self.words))

    def check_cap(self, cap: int) -> None:
        """DataError naming the first row longer than `cap` tokens."""
        lengths = self.lengths()
        for n in lengths[lengths > cap][:1].tolist():
            raise DataError(f"sequence of length {n} exceeds cap {cap}")

    def encode_rows(self, lut, chunk, head: int = 0, tail: int = 0) -> list:
        """The vocabulary indices (`lut`, a `lookup`) of the rows at
        `chunk`, each without its first `head` and last `tail` tokens: what
        `pad_batch` pads. Only the rows of one batch are encoded at a time."""
        ids = self.ids
        return [lut[ids[s + head : e - tail]] for s, e in zip(self.starts[chunk].tolist(), self.ends[chunk].tolist())]


class _WordIds(dict):
    """Word -> id; a word takes the next id at its first lookup, so a row's
    known words are looked up in C (`map`) and only new ones run Python."""

    def __missing__(self, word: str) -> int:
        self[word] = n = len(self)
        return n


class _ColumnBuilder:
    """Appends token lists to a TokenColumn under construction."""

    def __init__(self):
        self.index = _WordIds()
        self.ids = array("i")
        self.ends = array("q")

    def append(self, tokens) -> None:
        self.ids.extend(map(self.index.__getitem__, tokens))
        self.ends.append(len(self.ids))

    def column(self) -> TokenColumn:
        import numpy as np

        ends = np.frombuffer(self.ends, dtype=np.int64)
        starts = np.zeros_like(ends)
        starts[1:] = ends[:-1]
        return TokenColumn(np.frombuffer(self.ids, dtype=np.intc), starts, ends, list(self.index))


def as_column(sequences) -> TokenColumn:
    """A TokenColumn as it is; token lists (the lines `detect` and
    `generate` read, and tests) as a TokenColumn."""
    if isinstance(sequences, TokenColumn):
        return sequences
    builder = _ColumnBuilder()
    for seq in sequences:
        builder.append(seq)
    return builder.column()


@dataclass
class TokenStore:
    """The rows of a corpus file that a training command reads: their SBT
    tokens (`code`) and comment words (`comment`) as TokenColumns, where
    the command reads them, whether each row is SATD, each row's project
    where asked for, and each row's (byte offset, length) in the file, as
    `java_miner.rows_at` reads them back."""

    code: TokenColumn | None
    comment: TokenColumn | None
    satd: object  # bool array
    projects: list[str] | None
    spans: object  # (rows, 2) int64 array

    @classmethod
    def read(cls, path, code: bool = False, comment: bool = False, pairs: bool = False,
             projects: bool = False) -> "TokenStore":
        """One pass of `JsonlRows` over the corpus file at `path`. Every row
        passes the record checks and is dropped once its fields are taken,
        so the store holds 4 bytes per token, about 33 per row and one copy
        of each distinct word. With `pairs`, only the commented SATD rows are
        kept, each with its SBT and its framed comment, as generation
        trains on them."""
        import numpy as np

        from .java_miner import SATD, JsonlRows

        code_rows = _ColumnBuilder() if code or pairs else None
        comment_rows = _ColumnBuilder() if comment or pairs else None
        satd, spans = bytearray(), array("q")
        names: dict[str, str] = {}  # one string per project
        project_of: list[str] | None = [] if projects else None
        rows = JsonlRows(path)
        for record, line in rows:
            is_satd = record.label == SATD
            if pairs and not (is_satd and record.comment_words):
                continue
            if code_rows is not None:
                code_rows.append(record.sbt_tokens)
            if comment_rows is not None:
                comment_rows.append(frame_comment(record.comment_words) if pairs else record.comment_words)
            satd.append(is_satd)
            spans.extend((rows.offset, len(line)))
            if project_of is not None:
                project_of.append(names.setdefault(record.project, record.project))
        return cls(
            code=code_rows.column() if code_rows is not None else None,
            comment=comment_rows.column() if comment_rows is not None else None,
            satd=np.frombuffer(satd, dtype=bool),
            projects=project_of,
            spans=np.frombuffer(spans, dtype=np.int64).reshape(-1, 2),
        )

    @classmethod
    def from_pairs(cls, pairs) -> "TokenStore":
        """(sbt_tokens, framed_comment) lists, as tests pass them, as a store."""
        import numpy as np

        code_rows, comment_rows = _ColumnBuilder(), _ColumnBuilder()
        for code, framed in pairs:
            code_rows.append(code)
            comment_rows.append(framed)
        n = len(code_rows.ends)
        return cls(code_rows.column(), comment_rows.column(), np.ones(n, dtype=bool), None,
                   np.zeros((n, 2), dtype=np.int64))

    def __len__(self) -> int:
        return len(self.satd)

    def select(self, rows) -> "TokenStore":
        """The rows at `rows`, in that order."""
        return TokenStore(
            code=self.code.select(rows) if self.code is not None else None,
            comment=self.comment.select(rows) if self.comment is not None else None,
            satd=self.satd[rows],
            projects=[self.projects[i] for i in rows] if self.projects is not None else None,
            spans=self.spans[rows],
        )
