"""Atomic output files: write beside the target, then rename over it."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a new temporary file in ``path``'s directory for writing.

    When the block ends cleanly, ``os.replace`` puts the file at ``path`` in
    one step; when it raises, the temporary file is removed and ``path`` keeps
    what it held before. A reader never sees a half-written ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
