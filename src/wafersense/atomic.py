"""Atomic output files (write beside the target, then rename over it) and a
checked reader of the .npz files written that way."""

from __future__ import annotations

import os
import secrets
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np


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


@contextmanager
def open_npz(path, error: type[Exception], what: str):
    """The arrays of the .npz file at ``path``, read without pickles; a file that is
    not an .npz, or a reading error in the block, raises ``error`` naming it."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"PK\x03\x04":  # the start of every zip archive np.savez writes
            raise error(f"{what} {path} is not an .npz file")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as data:
                yield data
        except (ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile) as exc:
            raise error(f"{what} {path} is unreadable: {exc}") from None
