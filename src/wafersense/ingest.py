"""Raw table loading, deduplication, wafer assembly and splitting.

The engine consumes three CSV files:

* sensor table:    processing_id, product_id, timestamp, <numeric...>, <categorical...>
* metrology table: processing_id, product_id, kqi, type, stage, equipid, prod,
                   meas_med, passfail, inspection, targ_min, targ_max
* limits table:    kqi, type, stage, lcl, ucl

Each table is parsed column by column into the tables of ``domain``. Empty
cells stay missing, never 0: NaN in numeric columns, "" in label columns.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import compress, repeat

import numpy as np

from .domain import Inspection, MeasurementTable, PassFail, SensorTable, WaferTable

log = logging.getLogger(__name__)

METROLOGY_COLUMNS = [
    "processing_id", "product_id", "kqi", "type", "stage", "equipid",
    "prod", "meas_med", "passfail", "inspection", "targ_min", "targ_max",
]
LIMITS_COLUMNS = ["kqi", "type", "stage", "lcl", "ucl"]
SENSOR_ID_COLUMNS = ["processing_id", "product_id", "timestamp"]

_EPOCH = datetime(1970, 1, 1)
_US = timedelta(microseconds=1)
_EMPTY_AS_NAN = {"": "nan"}


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class RawTable:
    """A parsed CSV: header names plus rows of cells, "" where a cell is empty."""

    column_names: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise IngestError(f"missing required column {name!r}") from None

    def columns(self, names: list[str] | None = None) -> list[tuple[str, ...]]:
        """The cells of every column, or of the named ones."""
        columns = list(zip(*self.rows)) or [()] * len(self.column_names)
        return columns if names is None else [columns[self.column_index(n)] for n in names]


def load_table(path, required_columns: list[str] | None = None) -> RawTable:
    """Load a CSV with a header row; every row must have the header's width."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = tuple(map(tuple, reader))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise IngestError(f"{path}: {exc}") from None
    if header is None:
        raise IngestError(f"{path}: empty file, header row required")
    ragged = [len(row) != len(header) for row in rows]
    if any(ragged):
        raise IngestError(f"{path}: ragged row at line {ragged.index(True) + 2}")
    table = RawTable(tuple(header), rows)
    for name in required_columns or []:
        table.column_index(name)
    return table


def dedupe(table: RawTable) -> RawTable:
    """Drop rows that are exact duplicates, keeping first occurrences in order."""
    return RawTable(table.column_names, tuple(dict.fromkeys(table.rows)))


def _first_rejected(parse, cells) -> str:
    for cell in cells:
        try:
            parse(cell)
        except ValueError:
            return cell


def _float_column(cells, name: str) -> np.ndarray:
    """Finite floats parsed with ``float``, NaN for an empty cell; inf and nan are rejected."""
    try:
        values = np.array(list(map(float, map(_EMPTY_AS_NAN.get, cells, cells))), dtype=np.float64)
    except ValueError:
        bad = _first_rejected(float, [cell for cell in cells if cell])
        raise IngestError(f"{name}: not a number: {bad!r}") from None
    for i in np.flatnonzero(np.isnan(values) | np.isinf(values)):
        if cells[i]:
            raise IngestError(f"{name}: not a finite number: {cells[i]!r}")
    return values


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


def _parse_timestamps(cells) -> tuple[np.ndarray, np.ndarray]:
    """(wall-clock, UTC) microseconds since 1970-01-01 of ISO-8601 timestamps;
    without an offset both are the wall clock, and a mix has no common order."""
    try:
        stamps = [datetime.fromisoformat(cell) for cell in cells]
    except ValueError:
        bad = _first_rejected(datetime.fromisoformat, cells)
        raise IngestError(f"unparseable timestamp {bad!r}") from None
    if not any(t.tzinfo for t in stamps):
        wall = np.array([(t - _EPOCH) // _US for t in stamps], dtype=np.int64)
        return wall, wall
    if not all(t.tzinfo for t in stamps):
        raise IngestError("timestamps with and without a UTC offset are mixed")
    wall = np.array([(t.replace(tzinfo=None) - _EPOCH) // _US for t in stamps], dtype=np.int64)
    offset = np.array([t.utcoffset() // _US for t in stamps], dtype=np.int64)
    return wall, wall - offset


def parse_sensor_table(table: RawTable, categorical_columns: list[str]) -> SensorTable:
    """Group sensor rows by wafer and sort each wafer's steps chronologically.

    Wafers keep the order of their first row; steps with equal timestamps keep
    file order. Every non-id, non-timestamp column outside
    ``categorical_columns`` is numeric. Rows without an id or a timestamp are
    skipped.
    """
    idx_proc, idx_prod, idx_ts = (table.column_index(c) for c in SENSOR_ID_COLUMNS)
    cat_idx = [table.column_index(c) for c in categorical_columns]
    special = {idx_proc, idx_prod, idx_ts, *cat_idx}
    num_idx = [i for i in range(len(table.column_names)) if i not in special]

    columns = table.columns()
    present = [bool(p and q and t) for p, q, t in
               zip(columns[idx_proc], columns[idx_prod], columns[idx_ts])]
    if not all(present):
        log.warning("%d sensor rows with missing id or timestamp skipped",
                    len(present) - sum(present))
        columns = [list(compress(col, present)) for col in columns]

    wall, instant = _parse_timestamps(columns[idx_ts])
    numeric = np.column_stack([*(_float_column(columns[i], table.column_names[i])
                                 for i in num_idx), *datetime_features(wall)])
    categorical = np.array([columns[i] for i in cat_idx], dtype=object)
    categorical = categorical.T.reshape(sum(present), len(cat_idx))

    keys = list(zip(columns[idx_proc], columns[idx_prod]))
    index = {key: w for w, key in enumerate(dict.fromkeys(keys))}  # first-appearance order
    wafer = np.fromiter(map(index.__getitem__, keys), np.intp, len(keys))
    order = np.lexsort((instant, wafer))
    ids = np.array(list(index), dtype=object).reshape(-1, 2)
    return SensorTable(
        processing_id=ids[:, 0], product_id=ids[:, 1],
        starts=np.concatenate([[0], np.cumsum(np.bincount(wafer, minlength=len(index)))]),
        time_us=instant[order], numeric=numeric[order], categorical=categorical[order],
        numeric_names=tuple(table.column_names[i] for i in num_idx),
        categorical_names=tuple(categorical_columns))


def _label_column(cells, from_label) -> np.ndarray:
    values = {label: from_label(label).value for label in set(cells)}
    return np.array([values[label] for label in cells], dtype=object)


def parse_metrology_table(table: RawTable, monitor_marker: str = "MON") -> MeasurementTable:
    """Parse metrology rows into a MeasurementTable.

    ``is_monitor`` is derived from the presence of ``monitor_marker`` as a
    substring of the KQI label. Rows without a usable meas_med or wafer id, or
    with an inverted targ pair, are skipped with a diagnostic.
    """
    col = dict(zip(METROLOGY_COLUMNS, (np.array(c, dtype=object) for c in
                                       table.columns(METROLOGY_COLUMNS))))
    meas_med = _float_column(col["meas_med"], "meas_med")
    keep = ~np.isnan(meas_med) & (col["processing_id"] != "") & (col["product_id"] != "")
    lo, hi = np.full((2, len(meas_med)), np.nan)
    lo[keep], hi[keep] = (_float_column(col[name][keep], name) for name in ("targ_min", "targ_max"))
    inverted = keep & ~(lo < hi) & ~np.isnan(lo) & ~np.isnan(hi)
    keep &= ~inverted
    if not keep.all():
        log.info("parse_metrology_table: skipped %d unusable rows, %d of them with "
                 "targ_min >= targ_max", len(keep) - keep.sum(), inverted.sum())
    fields = {("mtype" if name == "type" else name): values[keep] for name, values in col.items()}
    fields.update(meas_med=meas_med[keep], targ_min=lo[keep], targ_max=hi[keep],
                  passfail=_label_column(fields["passfail"], PassFail.from_label),
                  inspection=_label_column(fields["inspection"], Inspection.from_label),
                  is_monitor=np.array([monitor_marker in kqi for kqi in fields["kqi"]], dtype=bool))
    return MeasurementTable(**fields)


def parse_limits_table(table: RawTable) -> dict[tuple[str, str, str], tuple[float, float]]:
    """Read the fallback (lcl, ucl) table keyed by (kqi, type, stage)."""
    kqi, mtype, stage, lcl, ucl = table.columns(LIMITS_COLUMNS)
    lo, hi = _float_column(lcl, "lcl"), _float_column(ucl, "ucl")
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
