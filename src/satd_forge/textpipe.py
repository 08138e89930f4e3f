"""Comment text pipeline: normalization, sentence framing, vocabularies,
index encoding/decoding, and batch padding."""

from __future__ import annotations

import functools
import string
import warnings
from dataclasses import dataclass, field

from ._porter import porter_stem
from .errors import DataError

UNKN_PAD = "<UNKN/PAD>"
SOS = "<sos>"
EOS = "<eos>"

CODE_RESERVED = (UNKN_PAD,)
COMMENT_RESERVED = (UNKN_PAD, SOS, EOS)

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


def build_vocabulary(corpus, kind: str) -> Vocabulary:
    """Reserved tokens first, then distinct corpus tokens in first-appearance order.

    Must be fitted on training data only; unseen tokens encode to index 0.
    """
    if kind == "code":
        words = list(CODE_RESERVED)
    elif kind == "comment":
        words = list(COMMENT_RESERVED)
    else:
        raise ValueError(f"unknown vocabulary kind: {kind!r}")
    seen = set(words)
    n_tokens = 0
    for seq in corpus:
        for tok in seq:
            n_tokens += 1
            if tok not in seen:
                seen.add(tok)
                words.append(tok)
    if n_tokens == 0:
        warnings.warn(f"building {kind} vocabulary from an empty corpus", stacklevel=2)
    return Vocabulary(words=words, kind=kind)


def pad_batch(index_lists, cap: int):
    """Right-pad sequences with index 0 up to the batch maximum length.

    Returns (matrix, mask); mask is 1.0 at real positions. Sequences longer
    than `cap` should have been dropped upstream, so they are an error here.
    """
    import numpy as np  # here, not at the top: mining loads this module and never pads

    for seq in index_lists:
        if len(seq) > cap:
            raise DataError(f"sequence of length {len(seq)} exceeds cap {cap}")
    batch = len(index_lists)
    width = max((len(s) for s in index_lists), default=0)
    matrix = np.zeros((batch, width), dtype=np.int64)
    mask = np.zeros((batch, width), dtype=np.float64)
    for r, seq in enumerate(index_lists):
        matrix[r, : len(seq)] = seq
        mask[r, : len(seq)] = 1.0
    return matrix, mask


def length_sorted_chunks(sequences, size: int) -> list[list[int]]:
    """Indices of `sequences`, longest first (ties keep their order), cut
    into chunks of `size`: batches that need little padding."""
    order = sorted(range(len(sequences)), key=lambda j: -len(sequences[j]))
    return [order[k : k + size] for k in range(0, len(order), size)]
