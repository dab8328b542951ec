"""Normalization groups: per-(KQI, TYPE, stage) target scaling constants.

Each group carries one (b1, b2) pair chosen from the control limits seen in
training; targets are mapped to (y - b1) / (b2 - b1) and predictions mapped
back with the inverse affine transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .domain import LIMIT_SOURCES, ControlLimits, MeasurementTable

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


def lookup_pairs(table: dict[GroupKey, tuple[float, float]], keys) -> np.ndarray:
    """An (n, 2) float64 array of ``table[key]`` for n keys, NaN where a key is absent."""
    return np.array(list(map(table.get, keys, repeat((np.nan, np.nan)))),
                    dtype=np.float64).reshape(-1, 2)


def resolve_control_limits(
    measurements: MeasurementTable,
    fallback: dict[GroupKey, tuple[float, float]],
) -> ControlLimits:
    """Resolve every measurement's control limits.

    The targ pair wins when both ends are present; otherwise the fallback
    table row for the measurement's (kqi, type, stage) is used; otherwise
    there are no limits.
    """
    pairs = lookup_pairs(fallback, measurements.group_keys())
    targ = ~np.isnan(measurements.targ_min) & ~np.isnan(measurements.targ_max)
    targ_source, table_source = LIMIT_SOURCES
    source = np.where(targ, targ_source, np.where(np.isnan(pairs[:, 0]), "", table_source))
    return ControlLimits(np.where(targ, measurements.targ_min, pairs[:, 0]),
                         np.where(targ, measurements.targ_max, pairs[:, 1]), source)


def build_groups(
    train_measurements: MeasurementTable,
    fallback: dict[GroupKey, tuple[float, float]],
) -> dict[GroupKey, NormalizationGroup]:
    """Pick (b1, b2) per (kqi, type, stage) key from training measurements.

    Among all resolved limit pairs within a key, the narrowest (smallest
    b2 - b1) wins; ties break toward the smallest b1, then toward the
    earliest measurement. Keys with no resolvable limits are left out.
    """
    limits = resolve_control_limits(train_measurements, fallback)
    width = limits.ucl - limits.lcl
    usable = np.flatnonzero(width >= MIN_GROUP_WIDTH)
    keys = train_measurements.group_keys()
    codes = {key: c for c, key in enumerate(dict.fromkeys(keys))}
    key_code = np.fromiter(map(codes.__getitem__, keys), np.intp, len(keys))[usable]
    order = np.lexsort((limits.lcl[usable], width[usable], key_code))
    best = usable[order[np.diff(key_code[order], prepend=-1) != 0]]
    return {keys[i]: NormalizationGroup(keys[i], float(limits.lcl[i]), float(limits.ucl[i]))
            for i in best}


class GroupBounds(NamedTuple):
    """Per-sample (b1, b2) arrays; NaN where a sample's key has no group."""

    b1: np.ndarray
    b2: np.ndarray


def normalize_target(y, g: NormalizationGroup | GroupBounds):
    return (y - g.b1) / (g.b2 - g.b1)


def denormalize(y_tilde, g: NormalizationGroup | GroupBounds):
    return y_tilde * (g.b2 - g.b1) + g.b1


def group_bounds(groups: dict[GroupKey, NormalizationGroup], kqi, mtype, stage) -> GroupBounds:
    """The bounds of the keys (kqi[i], mtype[i], stage[i]) of three str arrays, looked
    up as Python str: hashing one numpy str_ per row costs four times as much."""
    return GroupBounds(*lookup_pairs({key: (g.b1, g.b2) for key, g in groups.items()},
                                     zip(kqi.tolist(), mtype.tolist(), stage.tolist())).T)
