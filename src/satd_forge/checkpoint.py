"""Model checkpoint container.

Layout: 6-byte magic "SATDF1", a little-endian uint32 header length, a
JSON header (hyper-parameters, vocabularies, seed, declared block order),
then the parameter blocks as little-endian float32 in that order.

Every model is written and read through its `named_params()`: the block
names, their order and their shapes are the model's own. A loader checks
the header's kind first (`load_checkpoint`'s `kinds`), then the fields
that inference reads, and compares the blocks with the shapes the header
implies, before it builds a network; each fault is a CheckpointError
naming the file and the field or block.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .atomic import atomic_write
from .errors import CheckpointError, DataError, check_count, check_sizes
from .textpipe import CODE_RESERVED, COMMENT_RESERVED, Vocabulary

MAGIC = b"SATDF1"


class _Section(dict):
    """A header or block table whose missing entries raise CheckpointError."""

    def __init__(self, items, where: str):
        super().__init__(items)
        self.where = where

    def __missing__(self, key):
        raise CheckpointError(f"{self.where} {key!r} is missing")


def save_checkpoint(path, kind: str, header: dict, blocks: list[tuple[str, np.ndarray]]):
    header = dict(header)
    header["kind"] = kind
    header["format_version"] = 1
    header["blocks"] = [{"name": name, "shape": list(arr.shape)} for name, arr in blocks]
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path, binary=True) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", len(payload)))
        f.write(payload)
        for _, arr in blocks:
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def save_network(path, kind: str, header: dict, network):
    save_checkpoint(path, kind, header, [(name, param) for name, (param, _) in network.named_params().items()])


def _check_fits(count: int, available: int, path, what: str) -> None:
    if count > available:
        raise CheckpointError(f"{path}: truncated {what} ({max(available, 0)} of {count} bytes)")


def _read_exactly(f, count: int, path, what: str) -> bytes:
    raw = f.read(count)
    _check_fits(count, len(raw), path, what)
    return raw


def load_checkpoint(path, kinds=None) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (header, blocks); block arrays come back as float64.

    With `kinds`, a header whose `kind` is not one of them raises
    CheckpointError naming the path and the kind the file holds, before
    any block is read. Looking up a header field or a block the file
    lacks raises CheckpointError naming the path. So does a block holding
    a NaN or an infinity, and a header declaring more bytes than the file
    holds.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
        (header_len,) = struct.unpack("<I", _read_exactly(f, 4, path, "header length"))
        _check_fits(header_len, size - f.tell(), path, "header")
        raw_header = _read_exactly(f, header_len, path, "header")
        try:
            header = json.loads(raw_header.decode("utf-8"))
            specs = [(str(spec["name"]), spec["shape"]) for spec in header.get("blocks", [])]
        except (UnicodeDecodeError, json.JSONDecodeError, AttributeError, KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: corrupt checkpoint header: {exc!r}") from exc
        header = _Section(header, f"{path}: header field")
        kind = header["kind"] if kinds else None
        if kinds and (not isinstance(kind, str) or kind not in kinds):
            raise CheckpointError(f"{path}: checkpoint of kind {kind!r}, expected {' or '.join(map(repr, kinds))}")
        end = f.tell()
        for name, shape in specs:
            if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
                raise CheckpointError(f"{path}: block {name!r} declares shape {shape!r}, not a list of integers >= 0")
            count = 4 * math.prod(shape)
            _check_fits(count, size - end, path, f"block {name!r}")
            end += count
        blocks: dict[str, np.ndarray] = {}
        for name, shape in specs:
            raw = _read_exactly(f, 4 * math.prod(shape), path, f"block {name!r}")
            block = np.frombuffer(raw, dtype="<f4").reshape(shape)
            # checked before the cast, which warns of a signaling NaN
            if not np.isfinite(block).all():
                raise CheckpointError(f"{path}: block {name!r} holds a NaN or infinite value")
            blocks[name] = block.astype(np.float64)
    return header, _Section(blocks, f"{path}: block")


def check_shapes(shapes, blocks: dict[str, np.ndarray], source) -> None:
    """CheckpointError naming `source` and the first bad block unless each
    (name, shape) that `shapes` yields has a block of that shape."""
    for name, shape in shapes:
        block = blocks.get(name)
        if block is None:
            raise CheckpointError(f"{source}: block {name!r} is missing")
        if block.shape != shape:
            raise CheckpointError(f"{source}: block {name!r} has shape {block.shape}, expected {shape}")


def load_blocks(named: dict[str, tuple[np.ndarray, np.ndarray]], blocks: dict[str, np.ndarray], source):
    """Copy `blocks[name]` into every parameter of a `named_params()` dict.

    Nothing is copied unless every block is present with its parameter's
    shape (`check_shapes`).
    """
    check_shapes(((name, param.shape) for name, (param, _) in named.items()), blocks, source)
    for name, (param, _) in named.items():
        param[...] = blocks[name]


@contextlib.contextmanager
def header_checks(path):
    """Turn a DataError raised in the block, such as an `errors` number
    check failing on a header field, into CheckpointError naming `path`."""
    try:
        yield
    except CheckpointError:
        raise
    except DataError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def header_object(header: _Section, key: str) -> dict:
    """`header[key]`, which must be a JSON object."""
    value = header[key]
    if not isinstance(value, dict):
        raise CheckpointError(f"{header.where} {key} must be an object, got {type(value).__name__}")
    return value


def header_vocabulary(header: _Section, key: str, kind=None) -> Vocabulary:
    """The vocabulary that `header[key]` lists: strings, the reserved tokens
    of its kind first. The kind is `kind`, or else the header's vocab_kind."""
    words = header[key]
    if kind is None:
        kind = header["vocab_kind"]
    if kind not in ("code", "comment"):
        raise CheckpointError(f"{header.where} vocab_kind must be 'code' or 'comment', got {kind!r}")
    reserved = list(CODE_RESERVED if kind == "code" else COMMENT_RESERVED)
    if not isinstance(words, list) or words[: len(reserved)] != reserved or not all(isinstance(w, str) for w in words):
        raise CheckpointError(f"{header.where} {key} must be a list of strings that starts with {reserved}")
    return Vocabulary(words=words, kind=kind)


def check_network(path, header: _Section, hp, shapes, blocks: dict[str, np.ndarray]) -> None:
    """What a model's loader checks before it builds the model: the
    header's `seed` is an int >= 0, hp passes `check_sizes`, and every
    (name, shape) that `shapes` yields, the blocks that hp and the
    vocabularies imply, has a block of that shape. `shapes` is read only
    after the sizes pass, and only up to the first bad block; a shape fault
    names hp's `latent` and `layers` where its type has them."""
    with header_checks(path):
        check_count("seed", header.get("seed", 0), 0, "header field")
        check_sizes(hp, "header hyper-parameter")
        sizes = ", ".join(f"{name} {getattr(hp, name)}" for name in ("latent", "layers") if hasattr(hp, name))
        check_shapes(shapes, blocks, f"{path} (header hyper-parameters {sizes})" if sizes else path)
