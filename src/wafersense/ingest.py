"""Raw table loading, deduplication, wafer assembly and splitting.

The engine consumes three CSV files:

* sensor table:    processing_id, product_id, timestamp, <numeric...>, <categorical...>
* metrology table: processing_id, product_id, kqi, type, stage, equipid, prod,
                   meas_med, passfail, inspection, targ_min, targ_max
* limits table:    kqi, type, stage, lcl, ucl

Empty cells are preserved as missing (None), never coerced to 0.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import datetime
from math import isfinite

import numpy as np

from .domain import (
    Inspection,
    MeasurementRecord,
    PassFail,
    SensorTimeStep,
    WaferId,
    WaferRecord,
    validate_wafer,
)

log = logging.getLogger(__name__)

METROLOGY_COLUMNS = [
    "processing_id", "product_id", "kqi", "type", "stage", "equipid",
    "prod", "meas_med", "passfail", "inspection", "targ_min", "targ_max",
]
LIMITS_COLUMNS = ["kqi", "type", "stage", "lcl", "ucl"]
SENSOR_ID_COLUMNS = ["processing_id", "product_id", "timestamp"]


class IngestError(ValueError):
    pass


@dataclass(frozen=True)
class RawTable:
    """A parsed CSV: header names plus rows of optional cells."""

    column_names: tuple[str, ...]
    rows: tuple[tuple[str | None, ...], ...]

    def column_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise IngestError(f"missing required column {name!r}") from None


def load_table(path, required_columns: list[str] | None = None) -> RawTable:
    """Load a CSV with a header row, preserving empty cells as missing."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, header row required") from None
        width = len(header)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise IngestError(f"{path}: ragged row at line {lineno}")
            rows.append(tuple(cell if cell != "" else None for cell in row))
    table = RawTable(tuple(header), tuple(rows))
    for name in required_columns or []:
        table.column_index(name)
    return table


def dedupe(table: RawTable) -> RawTable:
    """Drop rows that are exact duplicates, keeping first occurrences in order."""
    return RawTable(table.column_names, tuple(dict.fromkeys(table.rows)))


def _parse_float(cell: str | None, context: str) -> float | None:
    """A finite float, or None for a missing cell; inf and nan are rejected."""
    if cell is None:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise IngestError(f"{context}: not a number: {cell!r}") from None
    if not isfinite(value):
        raise IngestError(f"{context}: not a finite number: {cell!r}")
    return value


def parse_sensor_table(
    table: RawTable, categorical_columns: list[str]
) -> dict[WaferId, list[SensorTimeStep]]:
    """Group sensor rows by wafer id and sort each wafer's steps chronologically.

    Every non-id, non-timestamp column outside ``categorical_columns`` is
    treated as numeric.
    """
    idx_proc = table.column_index("processing_id")
    idx_prod = table.column_index("product_id")
    idx_ts = table.column_index("timestamp")
    cat_idx = [table.column_index(c) for c in categorical_columns]
    special = {idx_proc, idx_prod, idx_ts, *cat_idx}
    num_idx = [i for i in range(len(table.column_names)) if i not in special]

    steps: dict[WaferId, list[SensorTimeStep]] = {}
    for row in table.rows:
        if row[idx_proc] is None or row[idx_prod] is None or row[idx_ts] is None:
            log.warning("sensor row with missing id or timestamp skipped")
            continue
        wid = WaferId(row[idx_proc], row[idx_prod])
        try:
            ts = datetime.fromisoformat(row[idx_ts])
        except ValueError:
            raise IngestError(f"unparseable timestamp {row[idx_ts]!r}") from None
        numeric = tuple(_parse_float(row[i], table.column_names[i]) for i in num_idx)
        categorical = tuple(row[i] if row[i] is not None else "" for i in cat_idx)
        steps.setdefault(wid, []).append(
            SensorTimeStep(timestamp=ts, numeric_readings=numeric, categorical_readings=categorical)
        )
    for wid in steps:
        steps[wid].sort(key=lambda s: s.timestamp)
    return steps


def sensor_numeric_columns(table: RawTable, categorical_columns: list[str]) -> list[str]:
    special = set(SENSOR_ID_COLUMNS) | set(categorical_columns)
    return [c for c in table.column_names if c not in special]


def parse_metrology_table(table: RawTable, monitor_marker: str = "MON") -> list[MeasurementRecord]:
    """Parse metrology rows into MeasurementRecords.

    ``is_monitor`` is derived from the presence of ``monitor_marker`` as a
    substring of the KQI label. Rows without a usable meas_med, or with an
    inverted targ pair, are skipped with a diagnostic.
    """
    idx = {c: table.column_index(c) for c in METROLOGY_COLUMNS}
    records: list[MeasurementRecord] = []
    skipped = 0
    for row in table.rows:
        meas_med = _parse_float(row[idx["meas_med"]], "meas_med")
        if meas_med is None or row[idx["processing_id"]] is None or row[idx["product_id"]] is None:
            skipped += 1
            continue
        kqi = row[idx["kqi"]] or ""
        targ_min = _parse_float(row[idx["targ_min"]], "targ_min")
        targ_max = _parse_float(row[idx["targ_max"]], "targ_max")
        if targ_min is not None and targ_max is not None and not targ_min < targ_max:
            log.warning("metrology row skipped: targ_min %s >= targ_max %s", targ_min, targ_max)
            skipped += 1
            continue
        records.append(
            MeasurementRecord(
                id=WaferId(row[idx["processing_id"]], row[idx["product_id"]]),
                kqi=kqi,
                mtype=row[idx["type"]] or "",
                stage=row[idx["stage"]] or "",
                equipid=row[idx["equipid"]] or "",
                prod=row[idx["prod"]] or "",
                meas_med=meas_med,
                passfail=PassFail.from_label(row[idx["passfail"]] or ""),
                inspection=Inspection.from_label(row[idx["inspection"]] or ""),
                targ_min=targ_min,
                targ_max=targ_max,
                is_monitor=monitor_marker in kqi,
            )
        )
    if skipped:
        log.info("parse_metrology_table: skipped %d unusable rows", skipped)
    return records


def parse_limits_table(table: RawTable) -> dict[tuple[str, str, str], tuple[float, float]]:
    """Read the fallback (lcl, ucl) table keyed by (kqi, type, stage)."""
    idx = {c: table.column_index(c) for c in LIMITS_COLUMNS}
    out: dict[tuple[str, str, str], tuple[float, float]] = {}
    for row in table.rows:
        lcl = _parse_float(row[idx["lcl"]], "lcl")
        ucl = _parse_float(row[idx["ucl"]], "ucl")
        if lcl is None or ucl is None or not lcl < ucl:
            log.warning("limits row skipped: invalid pair (%s, %s)", lcl, ucl)
            continue
        key = (row[idx["kqi"]] or "", row[idx["type"]] or "", row[idx["stage"]] or "")
        out[key] = (lcl, ucl)
    return out


def assemble_wafers(
    steps_by_wafer: dict[WaferId, list[SensorTimeStep]],
    measurements: list[MeasurementRecord],
) -> list[WaferRecord]:
    """Attach measurements to their wafers; keep only wafers with both parts."""
    meas_by_wafer: dict[WaferId, list[MeasurementRecord]] = {}
    orphans = 0
    for m in measurements:
        if m.id in steps_by_wafer:
            meas_by_wafer.setdefault(m.id, []).append(m)
        else:
            orphans += 1
    if orphans:
        log.info("assemble_wafers: %d measurements without sensor rows dropped", orphans)
    wafers = []
    for wid, steps in steps_by_wafer.items():
        meas = meas_by_wafer.get(wid)
        if not meas:
            continue
        wafers.append(
            validate_wafer(WaferRecord(id=wid, steps=tuple(steps), measurements=tuple(meas)))
        )
    return wafers


def split_monitor(
    measurements: list[MeasurementRecord],
) -> tuple[list[MeasurementRecord], list[MeasurementRecord]]:
    """Partition measurements into (monitor, non_monitor)."""
    monitor = [m for m in measurements if m.is_monitor]
    non_monitor = [m for m in measurements if not m.is_monitor]
    return monitor, non_monitor


def split_train_val_test(
    wafers: list[WaferRecord], seed: int
) -> tuple[list[WaferRecord], list[WaferRecord], list[WaferRecord]]:
    """Split wafers 7:2:1 at wafer granularity, deterministically by seed.

    Val and test sizes are floored; the remainder goes to train.
    """
    if not wafers:
        raise IngestError("split_train_val_test: no wafers to split")
    n = len(wafers)
    n_val = (2 * n) // 10
    n_test = n // 10
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [wafers[i] for i in order]
    n_train = n - n_val - n_test
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_val],
        shuffled[n_train + n_val :],
    )
