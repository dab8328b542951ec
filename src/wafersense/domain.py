"""Shared domain types for the soft-sensing engine.

Everything here is an immutable value object: records are validated on
construction and never mutated afterwards, so they are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum


class DomainError(ValueError):
    """A domain invariant was violated."""


class PassFail(str, Enum):
    PASS = "PASS"
    FAIL_AVG_HI = "FAIL_AVG_HI"
    FAIL_AVG_LOW = "FAIL_AVG_LOW"
    OTHER = "OTHER"

    @classmethod
    def from_label(cls, label: str) -> "PassFail":
        try:
            return cls(label)
        except ValueError:
            return cls.OTHER


class Inspection(str, Enum):
    NONE = "NONE"
    REWORK = "REWORK"
    SCRAP = "SCRAP"
    OTHER = "OTHER"

    @classmethod
    def from_label(cls, label: str) -> "Inspection":
        if label == "":
            return cls.NONE
        try:
            return cls(label)
        except ValueError:
            return cls.OTHER


class LimitSource(str, Enum):
    TARG = "TARG"
    LCL_UCL = "LCL_UCL"


@dataclass(frozen=True)
class WaferId:
    """Identifier pair that is globally unique per wafer."""

    processing_id: str
    product_id: str


@dataclass(frozen=True)
class SensorTimeStep:
    """One chronological row of sensor readings for a wafer.

    ``numeric_readings`` uses None for missing cells; missing categorical
    cells are carried as the empty string.
    """

    timestamp: datetime
    numeric_readings: tuple[float | None, ...]
    categorical_readings: tuple[str, ...]


@dataclass(frozen=True)
class MeasurementRecord:
    """One metrology row attached to a wafer."""

    id: WaferId
    kqi: str
    mtype: str
    stage: str
    equipid: str
    prod: str
    meas_med: float
    passfail: PassFail
    inspection: Inspection
    targ_min: float | None
    targ_max: float | None
    is_monitor: bool

    def __post_init__(self) -> None:
        if self.targ_min is not None and self.targ_max is not None:
            if not self.targ_min < self.targ_max:
                raise DomainError(
                    f"targ_min must be < targ_max, got ({self.targ_min}, {self.targ_max})"
                )

    @property
    def group_key(self) -> tuple[str, str, str]:
        return (self.kqi, self.mtype, self.stage)


@dataclass(frozen=True)
class WaferRecord:
    """One wafer: identity, ordered sensor time steps, attached measurements."""

    id: WaferId
    steps: tuple[SensorTimeStep, ...]
    measurements: tuple[MeasurementRecord, ...] = field(default_factory=tuple)

    @property
    def n_steps(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ControlLimits:
    """Resolved lower/upper control limits for one measurement."""

    lcl: float
    ucl: float
    source: LimitSource

    def __post_init__(self) -> None:
        if not self.lcl < self.ucl:
            raise DomainError(f"lcl must be < ucl, got ({self.lcl}, {self.ucl})")

    @property
    def width(self) -> float:
        return self.ucl - self.lcl


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


def validate_wafer(record: WaferRecord) -> WaferRecord:
    """Return ``record`` unchanged iff every WaferRecord invariant holds.

    Raises DomainError naming the violated invariant: empty steps, unsorted
    steps, or measurements whose wafer id does not match.
    """
    if len(record.steps) == 0:
        raise DomainError(f"empty steps for wafer {record.id}")
    for prev, cur in zip(record.steps, record.steps[1:]):
        if cur.timestamp < prev.timestamp:
            raise DomainError(f"unsorted steps for wafer {record.id}")
    for m in record.measurements:
        if m.id != record.id:
            raise DomainError(
                f"mismatched ids: measurement {m.id} attached to wafer {record.id}"
            )
    return record
