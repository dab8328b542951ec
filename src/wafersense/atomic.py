"""Atomic output files (write beside the target, then rename over it) and a
checked reader of the .npz files written that way."""

from __future__ import annotations

import io
import math
import os
import secrets
import struct
import zipfile
import zlib
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


def read_npz(path, error: type[Exception], what: str, names) -> dict[str, np.ndarray]:
    """The arrays of the .npz file at ``path``, which must be exactly ``names``, taken
    straight from one read of the file. A missing file raises FileNotFoundError; a
    file that is not an .npz, a damaged member or other names raise ``error``."""
    buf = Path(path).read_bytes()
    if not buf.startswith(b"PK\x03\x04"):  # the start of every zip archive np.savez writes
        raise error(f"{what} {path} is not an .npz file")
    fp = io.BytesIO(buf)
    try:
        with zipfile.ZipFile(fp) as archive:
            arrays = {info.filename.removesuffix(".npy"): _stored_array(buf, fp, info)
                      for info in archive.infolist()}
    except (ValueError, struct.error, zipfile.BadZipFile) as exc:
        raise error(f"{what} {path} is unreadable: {exc}") from None
    problems = [f"missing array {name!r}" for name in names if name not in arrays] + [
        f"unexpected array {name!r}" for name in arrays if name not in names]
    if problems:
        raise error(f"{what} {path} does not hold the arrays it should: " + "; ".join(problems))
    return arrays


def _stored_array(buf: bytes, fp: io.BytesIO, info: zipfile.ZipInfo) -> np.ndarray:
    """A fresh aligned copy of the array in the stored member ``info`` of ``buf`` (open
    as ``fp``), CRC-checked; numpy's header reader, with its size cap, parses it."""
    member = f"member {info.filename!r}"
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"{member} is stored compressed")
    sig, name_len, extra_len = struct.unpack_from("<4s22xHH", buf, info.header_offset)
    start = info.header_offset + 30 + name_len + extra_len
    end = start + info.file_size
    if sig != b"PK\x03\x04" or end > len(buf) or zlib.crc32(memoryview(buf)[start:end]) != info.CRC:
        raise ValueError(f"{member} fails its CRC-32 check")
    fp.seek(start)
    version = np.lib.format.read_magic(fp)
    if version not in ((1, 0), (2, 0)):
        raise ValueError(f"{member} has .npy format version {version}")
    shape, fortran_order, dtype = (np.lib.format.read_array_header_1_0 if version == (1, 0)
                                   else np.lib.format.read_array_header_2_0)(fp)
    count = math.prod(shape)
    if dtype.hasobject or fp.tell() + count * dtype.itemsize != end:
        raise ValueError(f"{member} holds objects or does not fit its header {shape} {dtype}")
    return np.frombuffer(buf, dtype, count, fp.tell()).reshape(
        shape, order="F" if fortran_order else "C").copy(order="K")
