"""Shared domain types for the soft-sensing engine.

Records are held as columns: a SensorTable of time steps, a MeasurementTable
of metrology rows and a WaferTable joining the two. Each table checks its
invariants on construction and is never mutated afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np


class DomainError(ValueError):
    """A domain invariant was violated."""


# The metrology file's label vocabularies; the labels after the first mark a
# fail. Any other label reads OTHER_LABEL, and an empty inspection cell NONE.
PASSFAIL_LABELS = ("PASS", "FAIL_AVG_HI", "FAIL_AVG_LOW")
INSPECTION_LABELS = ("NONE", "REWORK", "SCRAP")
OTHER_LABEL = "OTHER"
LIMIT_SOURCES = ("TARG", "LCL_UCL")  # a measurement's limits: its targ pair, or the limits file


# Appended after the raw numeric readings in every SensorTable.numeric row.
DATETIME_FEATURES = ("time_of_day", "day_of_year")


def _spans(starts: np.ndarray, which) -> np.ndarray:
    """Concatenated index ranges starts[w]:starts[w + 1], for w in ``which`` in order."""
    lo, n = starts[which], np.diff(starts)[which]
    return np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum(), dtype=np.intp)


@dataclass(frozen=True)
class SensorTable:
    """Sensor time steps, grouped by wafer and in time order within a wafer.

    Wafer w is (processing_id[w], product_id[w]) and owns rows
    starts[w]:starts[w + 1]. Missing numeric cells are NaN, missing labels "".
    """

    processing_id: np.ndarray   # (n_wafers,) str objects
    product_id: np.ndarray
    starts: np.ndarray          # (n_wafers + 1,)
    time_us: np.ndarray         # (n_rows,) microseconds since 1970-01-01, UTC if offset given
    numeric: np.ndarray         # (n_rows, len(numeric_names) + 2): readings, DATETIME_FEATURES
    categorical: np.ndarray     # (n_rows, len(categorical_names)) str objects
    numeric_names: tuple[str, ...]
    categorical_names: tuple[str, ...]

    def __post_init__(self) -> None:
        empty = np.flatnonzero(np.diff(self.starts) <= 0)
        if empty.size:
            raise DomainError(f"empty steps for wafer {self.wafer_id(empty[0])}")
        owner = np.repeat(np.arange(len(self)), np.diff(self.starts))
        back = np.flatnonzero((np.diff(self.time_us) < 0) & (np.diff(owner) == 0))
        if back.size:
            raise DomainError(f"unsorted steps for wafer {self.wafer_id(owner[back[0]])}")

    def __len__(self) -> int:
        return len(self.processing_id)

    def wafer_id(self, w) -> tuple[str, str]:
        return self.processing_id[w], self.product_id[w]

    def take_wafers(self, which: np.ndarray) -> "SensorTable":
        rows, n_steps = _spans(self.starts, which), np.diff(self.starts)[which]
        return replace(self, processing_id=self.processing_id[which],
                       product_id=self.product_id[which], starts=np.cumsum([0, *n_steps]),
                       time_us=self.time_us[rows], numeric=self.numeric[rows],
                       categorical=self.categorical[rows])


@dataclass(frozen=True)
class MeasurementTable:
    """Metrology rows as columns of str objects, floats (NaN: missing targ) and
    bools; passfail and inspection hold PASSFAIL_LABELS and INSPECTION_LABELS
    entries or OTHER_LABEL."""

    processing_id: np.ndarray
    product_id: np.ndarray
    kqi: np.ndarray
    mtype: np.ndarray
    stage: np.ndarray
    equipid: np.ndarray
    prod: np.ndarray
    meas_med: np.ndarray
    passfail: np.ndarray
    inspection: np.ndarray
    targ_min: np.ndarray
    targ_max: np.ndarray
    is_monitor: np.ndarray

    def __post_init__(self) -> None:
        lo, hi = self.targ_min, self.targ_max
        inverted = np.flatnonzero(~(lo < hi) & ~np.isnan(lo) & ~np.isnan(hi))
        if inverted.size:
            raise DomainError(f"targ_min must be < targ_max, got "
                              f"({lo[inverted[0]]}, {hi[inverted[0]]})")

    def __len__(self) -> int:
        return len(self.meas_med)

    def take(self, index) -> "MeasurementTable":
        return replace(self, **{f.name: getattr(self, f.name)[index] for f in fields(self)})

    def group_keys(self) -> list[tuple[str, str, str]]:
        return list(zip(self.kqi, self.mtype, self.stage))


@dataclass(frozen=True)
class WaferTable:
    """Wafers with both sensor steps and measurements; wafer w's measurements
    are rows meas_starts[w]:meas_starts[w + 1], in metrology-file order."""

    sensor: SensorTable
    measurements: MeasurementTable
    meas_starts: np.ndarray

    def __post_init__(self) -> None:
        meas, owner = self.measurements, self.measurement_wafers()
        wrong = np.flatnonzero((meas.processing_id != self.sensor.processing_id[owner])
                               | (meas.product_id != self.sensor.product_id[owner]))
        if wrong.size:
            i, w = wrong[0], owner[wrong[0]]
            raise DomainError(f"mismatched ids: measurement of {meas.processing_id[i]}/"
                              f"{meas.product_id[i]} attached to wafer {self.sensor.wafer_id(w)}")

    def __len__(self) -> int:
        return len(self.sensor)

    def __iter__(self):
        keys = self.measurements.group_keys()
        for w, n in enumerate(self.n_steps):
            rows = self.measurement_rows([w])
            yield WaferRecord(self, w, self.sensor.wafer_id(w), int(n),
                              tuple(MeasurementRecord(self.measurements, i, keys[i]) for i in rows))

    @property
    def n_steps(self) -> np.ndarray:
        return np.diff(self.sensor.starts)

    def step_rows(self, wafers) -> np.ndarray:
        """Sensor rows of ``wafers``, wafer by wafer in the given order."""
        return _spans(self.sensor.starts, wafers)

    def measurement_rows(self, wafers) -> np.ndarray:
        """Measurement rows of ``wafers``, wafer by wafer in the given order."""
        return _spans(self.meas_starts, wafers)

    def measurement_wafers(self) -> np.ndarray:
        """The wafer each measurement belongs to."""
        return np.repeat(np.arange(len(self)), np.diff(self.meas_starts))

    def keep_measurements(self, keep: np.ndarray) -> "WaferTable":
        counts = np.bincount(self.measurement_wafers()[keep], minlength=len(self))
        return WaferTable(self.sensor, self.measurements.take(keep),
                          np.concatenate([[0], np.cumsum(counts)]))


@dataclass(frozen=True)
class MeasurementRecord:
    """Row ``index`` of a MeasurementTable."""

    table: MeasurementTable
    index: int
    group_key: tuple[str, str, str]


@dataclass(frozen=True)
class WaferRecord:
    """Wafer ``index`` of a WaferTable."""

    table: WaferTable
    index: int
    id: tuple[str, str]
    n_steps: int
    measurements: tuple[MeasurementRecord, ...]


@dataclass(frozen=True)
class ControlLimits:
    """Resolved lower/upper control limits and their LIMIT_SOURCES entry, one
    entry per measurement; NaN limits and source "" where nothing resolved."""

    lcl: np.ndarray
    ucl: np.ndarray
    source: np.ndarray

    def __post_init__(self) -> None:
        lcl, ucl = np.atleast_1d(self.lcl, self.ucl)
        bad = np.flatnonzero(~np.isnan(lcl) & ~(lcl < ucl))
        if bad.size:
            raise DomainError(f"lcl must be < ucl, got ({lcl[bad[0]]}, {ucl[bad[0]]})")


@dataclass(frozen=True)
class ErrorRecord:
    """Relative and absolute error of one prediction, plus its group index."""

    eta: float
    epsilon: float
    group: int

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise DomainError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.eta < 0:
            raise DomainError(f"eta must be nonnegative, got {self.eta}")
        if self.group not in range(1, 7):
            raise DomainError(f"group must be in 1..6, got {self.group}")
