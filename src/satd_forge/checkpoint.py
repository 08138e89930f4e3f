"""Model checkpoint container.

Layout: 6-byte magic "SATDF1", a little-endian uint32 header length, a
JSON header (hyper-parameters, vocabularies, seed, declared block order),
then the parameter blocks as little-endian float32 in that order.

Networks are written and read through their `named_params()`: the block
names, their order and their shapes are the network's own.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .atomic import atomic_write
from .errors import CheckpointError

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


def _read_exactly(f, count: int, path, what: str) -> bytes:
    raw = f.read(count)
    if len(raw) != count:
        raise CheckpointError(f"{path}: truncated {what} ({len(raw)} of {count} bytes)")
    return raw


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (header, blocks); block arrays come back as float64.

    Looking up a header field or a block the file lacks raises
    CheckpointError naming the path.
    """
    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
        (header_len,) = struct.unpack("<I", _read_exactly(f, 4, path, "header length"))
        raw_header = _read_exactly(f, header_len, path, "header")
        try:
            header = json.loads(raw_header.decode("utf-8"))
            specs = [(str(spec["name"]), tuple(int(n) for n in spec["shape"])) for spec in header.get("blocks", [])]
        except (UnicodeDecodeError, json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: corrupt checkpoint header: {exc!r}") from exc
        blocks: dict[str, np.ndarray] = {}
        for name, shape in specs:
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exactly(f, 4 * count, path, f"block {name!r}")
            blocks[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
    return _Section(header, f"{path}: header field"), _Section(blocks, f"{path}: block")


def load_blocks(named: dict[str, tuple[np.ndarray, np.ndarray]], blocks: dict[str, np.ndarray], source):
    """Copy `blocks[name]` into every parameter of a `named_params()` dict.

    Nothing is copied unless every block is present with its parameter's
    shape; otherwise CheckpointError names `source` and each bad block.
    """
    problems = []
    for name, (param, _) in named.items():
        block = blocks.get(name)
        if block is None:
            problems.append(f"block {name!r} is missing")
        elif block.shape != param.shape:
            problems.append(f"block {name!r} has shape {block.shape}, expected {param.shape}")
    if problems:
        raise CheckpointError(f"{source}: " + "; ".join(problems))
    for name, (param, _) in named.items():
        param[...] = blocks[name]
