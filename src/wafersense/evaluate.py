"""Evaluation: piecewise error grouping and the pass/fail tradeoff sweep.

Errors are graded into six bands, each entered via a relative-error branch
or an absolute-error branch, so near-zero truths (where relative error
blows up) still grade sensibly. Fail screening shrinks the control-limit
interval symmetrically by a fraction f and predicts fail outside it;
sweeping f trades false positives for recall.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .atomic import write_csv
from .domain import INSPECTION_LABELS, PASSFAIL_LABELS, ErrorRecord
from .nn import ModelParams, forward_batch
from .normgroups import GroupKey, NormalizationGroup, denormalize, group_bounds
from .preprocess import Bucket, unjoin

log = logging.getLogger(__name__)

# (relative, absolute) thresholds for groups 1..5; strict comparisons.
GROUP_THRESHOLDS = ((0.01, 0.1), (0.05, 0.5), (0.10, 1.0), (0.50, 5.0), (1.00, 10.0))
_ETA_LIMITS, _EPS_LIMITS = np.array(GROUP_THRESHOLDS).T

DEFAULT_F_GRID = (0.0, 0.1, 0.2, 0.3, 0.35, 0.4)


class EvaluationError(ValueError):
    pass


def error_bands(eta: np.ndarray, epsilon: np.ndarray) -> np.ndarray:
    """Band (1..6) of each error: the first of the five thresholds that its
    relative error eta or its absolute error epsilon beats, 6 if none."""
    beats = (eta[:, None] < _ETA_LIMITS) | (epsilon[:, None] < _EPS_LIMITS)  # (N, 5)
    return np.where(beats.any(axis=1), beats.argmax(axis=1) + 1, 6)


def grade_errors(y_hat, y):
    """(eta, epsilon, band) arrays of the predictions; eta is +inf where y = 0."""
    y_hat, y = np.asarray(y_hat, dtype=np.float64), np.asarray(y, dtype=np.float64)
    epsilon = np.abs(y_hat - y)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(y != 0, epsilon / np.abs(y), np.inf)
    return eta, epsilon, error_bands(eta, epsilon)


def relative_error(y_hat: float, y: float) -> ErrorRecord:
    """Absolute and relative error of one prediction; eta is +inf at y = 0."""
    return ErrorRecord(*(a.item() for a in grade_errors([y_hat], [y])))


@dataclass(frozen=True)
class GroupingReport:
    counts: tuple[int, int, int, int, int, int]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def decent_rate(self) -> float:
        """Fraction of predictions in groups 1 and 2."""
        return (self.counts[0] + self.counts[1]) / self.total

    @classmethod
    def from_counts(cls, counts) -> "GroupingReport":
        counts = tuple(int(c) for c in counts)
        if len(counts) != 6 or any(c < 0 for c in counts):
            raise EvaluationError(f"need six nonnegative counts, got {counts}")
        if sum(counts) == 0:
            raise EvaluationError("empty grouping report")
        return cls(counts)


def grouping_report(y_hat, y) -> GroupingReport:
    """Grade predictions ``y_hat`` against truths ``y`` into the six bands."""
    band = grade_errors(y_hat, y)[2]
    if band.size == 0:
        raise EvaluationError("grouping_report: no samples")
    return GroupingReport.from_counts(np.bincount(band - 1, minlength=6))


def label_fail_arrays(passfail, inspection, meas_med, lcl, ucl) -> np.ndarray:
    """True where the fail label, the inspection outcome (rework or scrap) and
    a measurement outside the control limits all agree the wafer failed."""
    fail_label = np.isin(passfail, PASSFAIL_LABELS[1:])
    inspected = np.isin(inspection, INSPECTION_LABELS[1:])
    outside = (meas_med > ucl) | (meas_med < lcl)
    return fail_label & inspected & outside


def predict_fail_arrays(y_hat, b1_star, b2_star, f: float) -> np.ndarray:
    """Fail where y_hat lies outside the open interval (b1* + f r, b2* - f r),
    r = b2* - b1*: the control limits shrunk by a fraction f at each end."""
    r = b2_star - b1_star
    return ~((b1_star + f * r < y_hat) & (y_hat < b2_star - f * r))


@dataclass(frozen=True)
class SweepRow:
    """Confusion counts of the fail screen at one f."""

    f: float
    tp: int
    fn: int
    fp: int
    tn: int

    @property
    def recall(self) -> float:
        if self.tp + self.fn == 0:
            log.warning("no positive truth labels: recall undefined")
            return float("nan")
        return self.tp / (self.tp + self.fn)

    @property
    def fpr(self) -> float:
        if self.fp + self.tn == 0:
            log.warning("no negative truth labels: false positive rate undefined")
            return float("nan")
        return self.fp / (self.fp + self.tn)


def recall_fpr_sweep(y_hat, truth_fail, b1_star, b2_star, f_values) -> list[SweepRow]:
    """Confusion counts of the shrinking-interval screen at each f, sorted by f."""
    y_hat = np.asarray(y_hat, dtype=float)
    truth = np.asarray(truth_fail, dtype=bool)
    rows = []
    for f in sorted(f_values):
        predicted = predict_fail_arrays(y_hat, np.asarray(b1_star), np.asarray(b2_star), f)
        rows.append(SweepRow(
            f=f,
            tp=int(np.sum(predicted & truth)),
            fn=int(np.sum(~predicted & truth)),
            fp=int(np.sum(predicted & ~truth)),
            tn=int(np.sum(~predicted & ~truth)),
        ))
    return rows


def predict_bucket(params: ModelParams, bucket: Bucket) -> np.ndarray:
    """Model predictions (on the model's own output scale) for one bucket."""
    cfg = params.cfg
    steps, meas = unjoin(bucket.features, bucket.n_steps, cfg.sensor_dim, cfg.meas_dim)
    return forward_batch(params, steps, meas, want_trace=False)[0]


def denormalize_bucket(preds: np.ndarray, bucket: Bucket,
                       groups: dict[GroupKey, NormalizationGroup]):
    """Map normalized-scale predictions back per sample.

    Returns (y_hat, keep mask); samples whose key has no group are masked
    out, and their y_hat is NaN.
    """
    bounds = group_bounds(groups, bucket.kqi, bucket.mtype, bucket.stage)
    return denormalize(preds, bounds), ~np.isnan(bounds.b1)


# Report files: a grouping CSV, a sweep CSV (doubling as plot data), and a
# human-readable text summary. All numeric cells use repr so that repeated
# runs with the same seed are byte-identical.

def write_grouping_csv(path, report: GroupingReport) -> None:
    write_csv(path, ["group", "count"], [*enumerate(report.counts, start=1),
                                         ["decent_rate", repr(report.decent_rate)]])


def write_sweep_csv(path, rows: list[SweepRow], with_counts: bool = True) -> None:
    width = 7 if with_counts else 3
    write_csv(path, ["f", "recall", "fpr", "tp", "fn", "fp", "tn"][:width], (
        [repr(row.f), repr(row.recall), repr(row.fpr), row.tp, row.fn, row.fp, row.tn][:width]
        for row in rows))


def format_report_text(grouping: GroupingReport | None, sweep: list[SweepRow],
                       diagnostics: dict[str, int]) -> str:
    lines = []
    if grouping is not None:
        lines.append("error grouping (groups 1..6): "
                     + "[" + ", ".join(str(c) for c in grouping.counts) + "]")
        lines.append(f"decent predictions: {grouping.counts[0] + grouping.counts[1]}"
                     f"/{grouping.total} = {100.0 * grouping.decent_rate:.2f}%")
    if sweep:
        lines.append("")
        lines.append("pass/fail sweep:")
        lines.append("      f   recall      fpr")
        for row in sweep:
            lines.append(f"  {row.f:5.2f}  {row.recall:7.4f}  {row.fpr:7.4f}")
    if diagnostics:
        lines.append("")
        for key in sorted(diagnostics):
            lines.append(f"diagnostics: {key} = {diagnostics[key]}")
    return "\n".join(lines) + "\n"
