"""Whole-file writes that leave either the old file or the new one."""

from __future__ import annotations

import contextlib
import os
import shutil
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Yield a file open on a temporary sibling of `path`.

    When the block ends normally the temporary file replaces `path` in one
    `os.replace`, keeping the old file's permission bits; when it raises,
    the temporary file is removed and `path` keeps its old contents. A
    symbolic link is written through, not replaced.
    """
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as f:
            yield f
        with contextlib.suppress(FileNotFoundError):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
