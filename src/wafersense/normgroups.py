"""Normalization groups: per-(KQI, TYPE, stage) target scaling constants.

Each group carries one (b1, b2) pair chosen from the control limits seen in
training; targets are mapped to (y - b1) / (b2 - b1) and predictions mapped
back with the inverse affine transform.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .domain import ControlLimits, LimitSource, MeasurementRecord

log = logging.getLogger(__name__)

GroupKey = tuple[str, str, str]

# Limit pairs narrower than this are treated as degenerate and skipped.
MIN_GROUP_WIDTH = 1e-9


@dataclass(frozen=True)
class NormalizationGroup:
    key: GroupKey
    b1: float
    b2: float

    def __post_init__(self) -> None:
        if not self.b1 < self.b2:
            raise ValueError(f"b1 must be < b2, got ({self.b1}, {self.b2})")


def resolve_control_limits(
    meas: MeasurementRecord,
    fallback: dict[GroupKey, tuple[float, float]],
) -> ControlLimits | None:
    """Resolve a measurement's control limits.

    The targ pair wins when both ends are present; otherwise the fallback
    table row for the measurement's (kqi, type, stage) is used; otherwise
    there are no limits. Unusable pairs are skipped with a diagnostic.
    """
    if meas.targ_min is not None and meas.targ_max is not None:
        if meas.targ_min < meas.targ_max:
            return ControlLimits(meas.targ_min, meas.targ_max, LimitSource.TARG)
        log.warning(
            "inverted targ pair (%s, %s) for %s ignored",
            meas.targ_min, meas.targ_max, meas.group_key,
        )
    pair = fallback.get(meas.group_key)
    if pair is not None:
        return ControlLimits(pair[0], pair[1], LimitSource.LCL_UCL)
    return None


def build_groups(
    train_measurements: list[MeasurementRecord],
    fallback: dict[GroupKey, tuple[float, float]],
) -> dict[GroupKey, NormalizationGroup]:
    """Pick (b1, b2) per (kqi, type, stage) key from training measurements.

    Among all resolved limit pairs within a key, the narrowest (smallest
    b2 - b1) wins; ties break toward the smallest b1. Keys with no
    resolvable limits are left out.
    """
    candidates: dict[GroupKey, tuple[float, float]] = {}
    for m in train_measurements:
        limits = resolve_control_limits(m, fallback)
        if limits is None:
            continue
        pair = (limits.lcl, limits.ucl)
        if pair[1] - pair[0] < MIN_GROUP_WIDTH:
            continue
        best = candidates.get(m.group_key)
        if best is None or _narrower(pair, best):
            candidates[m.group_key] = pair
    return {
        key: NormalizationGroup(key, b1, b2) for key, (b1, b2) in candidates.items()
    }


def _narrower(pair: tuple[float, float], best: tuple[float, float]) -> bool:
    width, best_width = pair[1] - pair[0], best[1] - best[0]
    if width != best_width:
        return width < best_width
    return pair[0] < best[0]


def normalize_target(y: float, g: NormalizationGroup) -> float:
    return (y - g.b1) / (g.b2 - g.b1)


def denormalize(y_tilde: float, g: NormalizationGroup) -> float:
    return y_tilde * (g.b2 - g.b1) + g.b1


def group_bounds(groups: dict[GroupKey, NormalizationGroup], kqi, mtype, stage):
    """Per-sample (b1, b2) arrays for the keys (kqi[i], mtype[i], stage[i]);
    NaN where a key has no group."""
    b1, b2 = np.full(len(kqi), np.nan), np.full(len(kqi), np.nan)
    for i, key in enumerate(zip(kqi, mtype, stage)):
        g = groups.get(key)
        if g is not None:
            b1[i], b2[i] = g.b1, g.b2
    return b1, b2


def write_groups_csv(path, groups: dict[GroupKey, NormalizationGroup]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kqi", "type", "stage", "b1", "b2"])
        for key in sorted(groups):
            g = groups[key]
            writer.writerow([key[0], key[1], key[2], repr(g.b1), repr(g.b2)])


def read_groups_csv(path) -> dict[GroupKey, NormalizationGroup]:
    groups: dict[GroupKey, NormalizationGroup] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            key = (row["kqi"], row["type"], row["stage"])
            groups[key] = NormalizationGroup(key, float(row["b1"]), float(row["b2"]))
    return groups
