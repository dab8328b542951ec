"""CSV loading, wafer assembly and splitting.

The engine consumes three CSV files:

* sensor table:    processing_id, product_id, timestamp, <numeric...>, <categorical...>
* metrology table: processing_id, product_id, kqi, type, stage, equipid, prod,
                   meas_med, passfail, inspection, targ_min, targ_max
* limits table:    kqi, type, stage, lcl, ucl

Each file is streamed into columns and parsed into the tables of ``domain``.
Empty cells stay missing, never 0: NaN in numeric columns, "" in label columns.
"""

from __future__ import annotations

import csv
import io
import logging
import mmap
from collections import deque
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import compress, count, filterfalse, islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import host
from .domain import (INSPECTION_LABELS, OTHER_LABEL, PASSFAIL_LABELS, MeasurementTable,
                     SensorTable, WaferTable)

log = logging.getLogger(__name__)

METROLOGY_COLUMNS = [
    "processing_id", "product_id", "kqi", "type", "stage", "equipid",
    "prod", "meas_med", "passfail", "inspection", "targ_min", "targ_max",
]
METROLOGY_NUMBERS = ["meas_med", "targ_min", "targ_max"]
METROLOGY_LABELS = [c for c in METROLOGY_COLUMNS if c not in METROLOGY_NUMBERS]
LIMITS_COLUMNS = ["kqi", "type", "stage", "lcl", "ucl"]
LIMITS_LABELS, LIMITS_NUMBERS = LIMITS_COLUMNS[:3], LIMITS_COLUMNS[3:]
SENSOR_ID_COLUMNS = ["processing_id", "product_id", "timestamp"]
CHUNK_ROWS = 512  # rows read, deduplicated and converted at a time
# A smaller file is read in one part: forking the part reader, pickling its rows and joining
# them cost about as much as parsing 0.5 MB.
SPLIT_BYTES = 1 << 20
MONITOR_MARKER = "MON"  # default substring of the KQI label that marks a monitor row

_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class CsvTable:
    """A CSV's distinct rows as ``str`` label and float64 number columns (NaN where empty);
    bad number cells are listed, not raised, so a parse step raises only a kept row's."""

    path: Path
    columns: dict[str, np.ndarray]
    numbers: tuple[str, ...]
    bad_cells: dict[str, tuple[list, list]]  # (row, cell) pairs: not a number, not finite
    source_rows: np.ndarray                  # the file's data row of each kept row
    n_read: int
    n_duplicates: int

    def error(self, row: int, message: str) -> IngestError:
        line = _line_of(self.path, int(self.source_rows[row]))  # of kept row ``row``
        return IngestError(f"{self.path.name} line {line}: {message}")

    def check_numbers(self, names, keep=None) -> None:
        """Raise for the first bad cell of ``names``, column by column, in rows ``keep``."""
        for name in names:
            for kind, cells in zip(("not a number", "not a finite number"), self.bad_cells[name]):
                for row, cell in cells:
                    if keep is None or keep[row]:
                        raise self.error(row, f"{name}: {kind}: {cell!r}")


def _line_of(path: Path, row: int) -> int:
    """The CSV line on which data row ``row`` ends (a quoted cell may span lines)."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        deque(islice(reader, row + 2), maxlen=0)
        return reader.line_num


def load_table(path, labels: list[str], numbers: list[str] | None = None) -> CsvTable:
    """Read a CSV into ``str`` columns ``labels`` and float columns ``numbers``
    (by default every other column), ``CHUNK_ROWS`` rows at a time. Any further
    column only tells rows apart: a row whose cells all equal an earlier row's
    is dropped. Rows must have the header's width; a UTF-8 BOM is skipped.

    A file of at least SPLIT_BYTES that holds no ``"``, read by a process that may run
    on two or more cores, is read in two parts at once: a forked part reader reads the
    rows after the first line end at or past the middle byte while this process reads
    the rest, and the parts are joined in file order. Without a ``"`` every line end
    ends a row. The reader is reaped however this call ends."""
    path = Path(path)
    cut, row0 = _cut(path), 0  # row0: the data row the part being read starts at
    try:
        with _text(path, 0, cut or None, "utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty file, header row required")
            numbers = [n for n in header if n not in labels] if numbers is None else numbers
            for name in [*labels, *numbers]:
                if name not in header:
                    raise IngestError(f"missing required column {name!r}")
            if len(set(header)) < len(header):
                raise IngestError(f"{path}: a column name repeats in the header")
            with (host.forked(_read_from, path, cut, header, labels, numbers) if cut
                  else nullcontext()) as second:
                part = _read_part(reader, header, labels, numbers)
                if second:
                    row0 = part.n_read
                    try:
                        tail = second()
                    except UnicodeDecodeError:  # name the byte as a one-part read does
                        with _text(path, 0, None, "utf-8-sig") as whole:
                            deque(whole, maxlen=0)
                        raise
                    part = _join(part, tail)
    except _RaggedRow as exc:
        line = _line_of(path, row0 + exc.args[0])
        raise IngestError(f"{path}: ragged row at line {line}") from None
    except (csv.Error, UnicodeDecodeError) as exc:
        raise IngestError(f"{path}: {exc}") from None
    return CsvTable(path, part.columns, tuple(numbers), part.bad, part.sources, part.n_read,
                    part.n_read - len(part.sources))


class _Part(NamedTuple):
    """The distinct rows of part of a CSV, as CsvTable holds them; ``seen`` holds the key of
    each, in order, and ``sources`` counts data rows from the part's first."""

    columns: dict[str, np.ndarray]
    bad: dict[str, tuple[list, list]]
    seen: dict
    sources: np.ndarray
    n_read: int


class _RaggedRow(Exception):
    """Data row ``args[0]`` of a part is not as wide as the header."""


class _Span(io.RawIOBase):
    """The next ``size`` bytes of the raw file ``raw``."""

    def __init__(self, raw, size: int):
        self.raw, self.left = raw, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self.raw.readinto(memoryview(buffer)[:self.left])
        self.left -= n
        return n

    def close(self) -> None:
        self.raw.close()
        super().close()


def _text(path: Path, start: int, stop: int | None, encoding: str) -> io.TextIOWrapper:
    """Bytes ``start`` to ``stop`` (to the end if None) of ``path`` as text for ``csv``."""
    raw = open(path, "rb", buffering=0)
    raw.seek(start)
    return io.TextIOWrapper(io.BufferedReader(raw if stop is None else _Span(raw, stop - start)),
                            encoding, newline="")


def _cut(path: Path) -> int:
    """The byte a two-part read of ``path`` starts its second part at, or 0."""
    if host.cores() < 2 or path.stat().st_size < SPLIT_BYTES:
        return 0
    with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
        cut = data.find(b"\n", len(data) // 2) + 1
        return cut if 0 < cut < len(data) and data.find(b'"') < 0 else 0


def _read_from(path: Path, cut: int, header, labels, numbers) -> _Part:
    """The distinct rows of ``path`` from byte ``cut`` on: what the forked part reader reads."""
    with _text(path, cut, None, "utf-8") as fh:
        return _read_part(csv.reader(fh), header, labels, numbers)


def _read_part(reader, header: list[str], labels: list[str], numbers: list[str]) -> _Part:
    """The distinct data rows of ``reader``, ``CHUNK_ROWS`` at a time."""
    width = len(header)
    cells, memo = {name: [] for name in labels}, {}  # memo: one str per distinct label
    values, bad = {name: [] for name in numbers}, {name: ([], []) for name in numbers}
    seen, sources, n_read = {}, [], 0  # sources: the data row of each kept row
    for chunk in iter(lambda: list(islice(reader, CHUNK_ROWS)), []):
        ragged = next(compress(count(n_read), map(width.__ne__, map(len, chunk))), None)
        if ragged is not None:
            raise _RaggedRow(ragged)
        kept = _first_occurrences(chunk, width, seen)
        columns = list(zip(*map(chunk.__getitem__, kept))) or [()] * width
        columns = dict(zip(header, columns))
        for name in labels:
            cells[name].extend(map(memo.setdefault, columns[name], columns[name]))
        for name in numbers:
            values[name].append(_numbers(columns[name], len(sources), bad[name]))
        sources.extend(map(n_read.__add__, kept))
        n_read += len(chunk)
    columns = {name: np.array(c, dtype=object) for name, c in cells.items()}
    columns.update((name, np.concatenate([*v, np.empty(0)])) for name, v in values.items())
    return _Part(columns, bad, seen, np.array(sources, np.int64), n_read)


def _join(first: _Part, second: _Part) -> _Part:
    """The rows of ``first`` then those of ``second`` whose key no row of ``first`` holds,
    with the second part's rows counted on from the first's."""
    keep = ~np.fromiter(map(first.seen.__contains__, second.seen), bool, len(second.seen))
    index = np.cumsum(keep) - 1 + len(first.sources)  # the joined index of each kept row
    columns = {name: np.concatenate([column, second.columns[name][keep]])
               for name, column in first.columns.items()}
    bad = {name: tuple(cells + [(int(index[row]), cell) for row, cell in more if keep[row]]
                       for cells, more in zip(first.bad[name], second.bad[name]))
           for name in first.bad}
    sources = np.concatenate([first.sources, second.sources[keep] + first.n_read])
    return _Part(columns, bad, {}, sources, first.n_read + second.n_read)


def _first_occurrences(chunk: list[list[str]], width: int, seen: dict) -> list[int]:
    """Indices of the rows of ``chunk`` equal to no earlier row, whose keys join
    ``seen`` in row order. A key is the cells joined by NUL, exact while it holds only
    the ``width - 1`` joints as NULs; any other row is keyed by its tuple."""
    keys = list(map("\0".join, chunk))
    if sum(map(str.count, keys, repeat("\0"))) > len(keys) * (width - 1):
        keys = [k if k.count("\0") == width - 1 else tuple(r) for k, r in zip(keys, chunk)]
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    kept = sorted(map(first.__getitem__, filterfalse(seen.__contains__, first)))
    seen.update(zip(map(keys.__getitem__, kept), repeat(None)))
    return kept


def _numbers(cells, row0: int, bad: tuple[list, list]) -> np.ndarray:
    """Floats of one chunk's cells by ``float``, NaN where empty; a cell ``float``
    rejects (read as NaN) or reads non-finite goes to ``bad`` as (row0 + index, cell)."""
    as_nan = {"": "nan"}
    with suppress(ValueError):
        values = np.fromiter(map(float, map(as_nan.get, cells, cells)), np.float64, len(cells))
        if np.isfinite(values).sum() + cells.count("") == len(cells):
            return values
    for row, cell in enumerate(cells, row0):
        try:
            if cell and not np.isfinite(float(cell)):
                bad[1].append((row, cell))
        except ValueError:
            bad[0].append((row, cell))
            as_nan[cell] = "nan"
    return np.fromiter(map(float, map(as_nan.get, cells, cells)), np.float64, len(cells))


def datetime_features(wall_us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map wall-clock times, in microseconds since 1970-01-01, to (time in day,
    date in year), both in [0, 1).

    Time in day is (hour*3600 + minute*60 + second + microsecond/1e6) / 86400.
    The day-of-year denominator is fixed at 366 so leap years stay below 1.
    """
    day, us = np.divmod(wall_us, 86_400_000_000)
    seconds = us // 1_000_000 + (us % 1_000_000) / 1e6
    year_start = day.astype("datetime64[D]").astype("datetime64[Y]").astype("datetime64[D]")
    return seconds / 86400.0, (day - year_start.astype(np.int64)) / 366.0


def _parse_timestamps(table: CsvTable, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(wall-clock, UTC) microseconds since 1970-01-01 of the ISO-8601 timestamps of
    ``rows``; without an offset both are the wall clock, and a mix has no common order."""
    stamps = []
    for row, cell in zip(rows, table.columns["timestamp"][rows]):
        try:
            stamps.append(datetime.fromisoformat(cell))
        except ValueError:
            raise table.error(row, f"unparseable timestamp {cell!r}") from None
    if not any(t.tzinfo for t in stamps):
        wall = np.array([(t - _EPOCH) // _US for t in stamps], dtype=np.int64)
        return wall, wall
    if not all(t.tzinfo for t in stamps):
        raise IngestError(f"{table.path.name}: timestamps with and without a UTC offset are mixed")
    wall = np.array([(t.replace(tzinfo=None) - _EPOCH) // _US for t in stamps], dtype=np.int64)
    offset = np.array([t.utcoffset() // _US for t in stamps], dtype=np.int64)
    return wall, wall - offset


def parse_sensor_table(table: CsvTable, categorical_columns: list[str]) -> SensorTable:
    """Group sensor rows by wafer and sort each wafer's steps chronologically.

    Wafers keep the order of their first row; steps with equal timestamps keep
    file order. The table's number columns are the readings. Rows without an
    id or a timestamp are skipped, and a bad cell in one of them is no error.
    """
    col = table.columns
    present = (col["processing_id"] != "") & (col["product_id"] != "") & (col["timestamp"] != "")
    rows = np.flatnonzero(present)
    if len(rows) < len(present):
        log.warning("%d sensor rows with missing id or timestamp skipped", len(present) - len(rows))

    wall, instant = _parse_timestamps(table, rows)
    table.check_numbers(table.numbers, present)
    numeric = np.column_stack([col[n][rows] for n in table.numbers] + [*datetime_features(wall)])
    categorical = np.array([col[name][rows] for name in categorical_columns], dtype=object)
    categorical = categorical.T.reshape(len(rows), len(categorical_columns))

    keys = list(zip(col["processing_id"][rows], col["product_id"][rows]))
    index = {key: w for w, key in enumerate(dict.fromkeys(keys))}  # first-appearance order
    wafer = np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))
    order = np.lexsort((instant, wafer))
    ids = np.array(list(index), dtype=object).reshape(-1, 2)
    return SensorTable(
        processing_id=ids[:, 0], product_id=ids[:, 1],
        starts=np.concatenate([[0], np.cumsum(np.bincount(wafer, minlength=len(index)))]),
        time_us=instant[order], numeric=numeric[order], categorical=categorical[order],
        numeric_names=table.numbers, categorical_names=tuple(categorical_columns))


def _label_column(cells, labels: tuple[str, ...], empty: str) -> np.ndarray:
    """``cells``, an empty one read as ``empty`` and one not in ``labels`` as OTHER_LABEL."""
    values = {label: label if label in labels else OTHER_LABEL for label in set(cells)}
    values[""] = empty
    return np.array([values[label] for label in cells], dtype=object)


def parse_metrology_table(table: CsvTable,
                          monitor_marker: str = MONITOR_MARKER) -> MeasurementTable:
    """Parse metrology rows into a MeasurementTable.

    ``is_monitor`` is derived from the presence of ``monitor_marker`` as a
    substring of the KQI label. Rows without a usable meas_med or wafer id, or
    with an inverted targ pair, are skipped with a diagnostic; a bad targ cell
    in a row skipped for its meas_med or id is no error.
    """
    col = table.columns
    table.check_numbers(["meas_med"])
    keep = ~np.isnan(col["meas_med"]) & (col["processing_id"] != "") & (col["product_id"] != "")
    table.check_numbers(["targ_min", "targ_max"], keep)
    inverted = keep & (col["targ_min"] >= col["targ_max"])  # False where either is NaN
    keep &= ~inverted
    if not keep.all():
        log.info("parse_metrology_table: skipped %d unusable rows, %d of them with "
                 "targ_min >= targ_max", len(keep) - keep.sum(), inverted.sum())
    fields = {("mtype" if name == "type" else name): col[name][keep] for name in METROLOGY_COLUMNS}
    fields.update(passfail=_label_column(fields["passfail"], PASSFAIL_LABELS, OTHER_LABEL),
                  inspection=_label_column(fields["inspection"], INSPECTION_LABELS,
                                           INSPECTION_LABELS[0]),
                  is_monitor=np.array([monitor_marker in kqi for kqi in fields["kqi"]], dtype=bool))
    return MeasurementTable(**fields)


def parse_limits_table(table: CsvTable) -> dict[tuple[str, str, str], tuple[float, float]]:
    """Read the fallback (lcl, ucl) table keyed by (kqi, type, stage)."""
    table.check_numbers(LIMITS_NUMBERS)
    kqi, mtype, stage, lo, hi = (table.columns[name] for name in LIMITS_COLUMNS)
    valid = lo < hi
    if not valid.all():
        log.warning("%d limits rows skipped: missing or lcl >= ucl", len(valid) - valid.sum())
    return {key: (float(a), float(b)) for key, a, b, ok in
            zip(zip(kqi, mtype, stage), lo, hi, valid) if ok}


def assemble_wafers(sensor: SensorTable, measurements: MeasurementTable) -> WaferTable:
    """Attach measurements to their wafers; keep only wafers with both parts."""
    index = {key: w for w, key in enumerate(zip(sensor.processing_id, sensor.product_id))}
    wafer = np.fromiter(map(index.get, zip(measurements.processing_id, measurements.product_id),
                            repeat(-1)), np.intp, len(measurements))
    if (wafer < 0).any():
        log.info("assemble_wafers: %d measurements without sensor rows dropped",
                 (wafer < 0).sum())
    counts = np.bincount(wafer[wafer >= 0], minlength=len(sensor))
    kept = np.flatnonzero(counts)
    if len(kept) < len(sensor):
        sensor = sensor.take_wafers(kept)
    attached = np.flatnonzero(wafer >= 0)
    return WaferTable(sensor, measurements.take(attached[np.argsort(wafer[attached],
                                                                    kind="stable")]),
                      np.concatenate([[0], np.cumsum(counts[kept])]))


def split_train_val_test(n_wafers: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split wafer indices 0..n_wafers-1 7:2:1, deterministically by seed.

    Val and test sizes are floored; the remainder goes to train. Each split
    lists its wafers in shuffled order.
    """
    if not n_wafers:
        raise IngestError("split_train_val_test: no wafers to split")
    n_val = (2 * n_wafers) // 10
    n_test = n_wafers // 10
    order = np.random.default_rng(seed).permutation(n_wafers)
    n_train = n_wafers - n_val - n_test
    return order[:n_train], order[n_train : n_train + n_val], order[n_train + n_val :]
