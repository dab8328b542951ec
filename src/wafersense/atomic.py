"""Atomic output files (write beside the target, then rename over it), the CSV
writer on top of them, and a checked reader of the .npz files written that way."""

from __future__ import annotations

import csv
import math
import os
import re
import secrets
import struct
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


def write_csv(path, header, rows) -> None:
    """Write the CSV file ``path``, its ``header`` row then ``rows``, through ``atomic_open``."""
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_npz(path, error: type[Exception], what: str, names) -> dict[str, np.ndarray]:
    """The arrays of the .npz file at ``path``, which must be exactly ``names``, taken
    straight from one read of the file. A missing file raises FileNotFoundError; a
    file that is not an .npz, a damaged member or other names raise ``error``."""
    buf = Path(path).read_bytes()
    if not buf.startswith(b"PK\x03\x04"):  # the start of every zip archive np.savez writes
        raise error(f"{what} {path} is not an .npz file")
    try:
        arrays = dict(_members(buf))
    except (ValueError, struct.error) as exc:
        raise error(f"{what} {path} is unreadable: {exc}") from None
    problems = [f"missing array {name!r}" for name in names if name not in arrays] + [
        f"unexpected array {name!r}" for name in arrays if name not in names]
    if problems:
        raise error(f"{what} {path} does not hold the arrays it should: " + "; ".join(problems))
    return arrays


_END = struct.Struct("<4s4xHHIIH")          # zip end of central directory record
_ENTRY = struct.Struct("<4s6xH4xIIIHHH8xI")  # zip central directory file header
# the .npy v1.0 header np.savez writes: sorted keys, the shape's repr, spaces, a newline
_NPY_HEADER = re.compile(rb"(?s)\x93NUMPY\x01\x00..\{'descr': '([<>|][a-zA-Z]\d*)', "
                         rb"'fortran_order': (False|True), "
                         rb"'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n")


def _members(buf: bytes):
    """Yield (name without ``.npy``, array) for each member that the central directory
    of the zip archive ``buf`` lists; its end record, with no comment, ends ``buf``."""
    end = len(buf) - _END.size
    sig, on_disk, count, dir_size, offset, comment_len = _END.unpack_from(buf, end)
    if sig != b"PK\x05\x06" or comment_len or on_disk != count or offset + dir_size != end:
        raise ValueError("the file does not end with its zip directory's end record")
    for _ in range(count):
        sig, method, crc, _, size, name_len, extra_len, comment_len, header_offset = \
            _ENTRY.unpack_from(buf, offset)
        if sig != b"PK\x01\x02":
            raise ValueError("its zip directory is damaged")
        name = buf[offset + _ENTRY.size:offset + _ENTRY.size + name_len].decode()
        offset += _ENTRY.size + name_len + extra_len + comment_len
        yield name.removesuffix(".npy"), _stored_array(buf, name, method, crc, size, header_offset)


def _stored_array(buf: bytes, name: str, method: int, crc: int, size: int,
                  header_offset: int) -> np.ndarray:
    """A fresh aligned copy of the array in the stored member ``name`` of ``buf``, whose
    local header starts at ``header_offset``: CRC-checked, and refused unless its .npy
    header is the canonical v1.0 one that ``_NPY_HEADER`` matches."""
    member = f"member {name!r}"
    if method != 0:  # ZIP_STORED
        raise ValueError(f"{member} is stored compressed")
    sig, name_len, extra_len = struct.unpack_from("<4s22xHH", buf, header_offset)
    start = header_offset + 30 + name_len + extra_len
    end = start + size
    if sig != b"PK\x03\x04" or end > len(buf) or zlib.crc32(memoryview(buf)[start:end]) != crc:
        raise ValueError(f"{member} fails its CRC-32 check")
    data = start + 10 + struct.unpack_from("<H", buf, start + 8)[0]  # magic, version, length
    header = _NPY_HEADER.fullmatch(buf, start, data)
    if header is None:
        raise ValueError(f"{member} has no canonical .npy v1.0 header")
    try:
        dtype = np.dtype(header[1].decode())
    except TypeError:
        raise ValueError(f"{member} has .npy dtype {header[1]!r}") from None
    shape = tuple(int(side) for side in header[3].split(b",") if side)
    count = math.prod(shape)
    if dtype.hasobject or data + count * dtype.itemsize != end:
        raise ValueError(f"{member} holds objects or does not fit its header {shape} {dtype}")
    return np.frombuffer(buf, dtype, count, data).reshape(
        shape, order="F" if header[2] == b"True" else "C").copy(order="K")
