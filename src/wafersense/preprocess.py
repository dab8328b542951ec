"""Feature pipeline: wafer tables to fixed-width numeric samples.

Stage order is fixed: degenerate-column dropping, min-max scaling, median
imputation, training-target outlier filtering, one-hot encoding,
sensor/measurement join, time-step-homogeneous bucketing (the datetime
features come with the sensor table). Every transform is fitted on the
training split only and then frozen; val/test go through the same fitted
transforms. Each stage works on whole columns: a stream's wafers have their
steps encoded once, and each bucket is one ``join`` of blocks gathered from them.

Joined samples of different step counts have different widths, so buckets
are persisted as one .npz file per (stream, split, n_steps), next to a
manifest recording the fitted parameters. The manifest's file hash binds
checkpoints to the preprocessing that produced their features.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path

import numpy as np

from .atomic import atomic_open, read_npz, write_csv
from .domain import (DATETIME_FEATURES, MeasurementRecord, MeasurementTable, SensorTable,
                     WaferRecord, WaferTable)
from .normgroups import GroupKey, NormalizationGroup, resolve_control_limits

log = logging.getLogger(__name__)

MEAS_CATEGORICAL_COLUMNS = ("kqi", "mtype", "stage", "equipid", "prod")

STREAM_REGRESSION = "reg"
STREAM_PASSFAIL = "pf"


class PreprocessError(ValueError):
    pass


def drop_degenerate_columns(columns) -> list[int]:
    """Indices of columns with at least two distinct present values.

    A column is a float array, with NaN for missing, or a label array, with
    "" for missing.
    """
    kept = []
    for idx, col in enumerate(columns):
        col = np.asarray(col)
        present = col[~np.isnan(col)] if col.dtype.kind == "f" else col[col != ""]
        if present.size and np.any(present != present[0]):
            kept.append(idx)
    return kept


@dataclass(frozen=True)
class FittedScaler:
    """Per-column min/max from the training rows; apply maps train to [0, 1]."""

    col_min: np.ndarray
    col_max: np.ndarray

    @classmethod
    def fit(cls, train: np.ndarray) -> "FittedScaler":
        col_min = np.nanmin(train, axis=0)
        col_max = np.nanmax(train, axis=0)
        if np.any(~(col_max > col_min)):
            raise PreprocessError("degenerate column reached min-max fitting")
        return cls(col_min, col_max)

    def transform(self, x: np.ndarray) -> np.ndarray:
        # no clamping: val/test values outside the train range leave [0, 1]
        return (x - self.col_min) / (self.col_max - self.col_min)


@dataclass(frozen=True)
class FittedImputer:
    """Per-column medians of the non-missing training values."""

    medians: np.ndarray

    @classmethod
    def fit(cls, train: np.ndarray) -> "FittedImputer":
        if np.any(np.all(np.isnan(train), axis=0)):
            raise PreprocessError("all-missing column reached imputation fitting")
        return cls(np.nanmedian(train, axis=0))

    def transform(self, x: np.ndarray) -> np.ndarray:
        return np.where(np.isnan(x), self.medians, x)


@dataclass(frozen=True)
class OneHotVocabulary:
    """Ordered training labels per categorical column, plus an UNKNOWN slot."""

    labels: tuple[tuple[str, ...], ...]

    @classmethod
    def fit(cls, columns) -> "OneHotVocabulary":
        return cls(tuple(tuple(sorted(set(col) - {""})) for col in columns))

    @property
    def total_width(self) -> int:
        return sum(len(labels) + 1 for labels in self.labels)

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """One-hot rows for an (n, n_columns) array of labels.

        An unseen or empty label lands in its column's UNKNOWN slot.
        """
        out = np.zeros((len(rows), self.total_width))
        offset = 0
        for j, labels in enumerate(self.labels):
            index = {label: i for i, label in enumerate(labels)}
            codes = np.fromiter(map(index.get, rows[:, j], repeat(len(labels))), np.intp, len(rows))
            out[np.arange(len(rows)), offset + codes] = 1.0
            offset += len(labels) + 1
        return out


OUTLIER_RANGE = (-1.0, 1000.0)


def filter_outlier_targets(wafers: WaferTable, train: np.ndarray) -> WaferTable:
    """Drop the measurements of the ``train`` wafers whose meas_med lies
    outside the closed outlier range; the wafers keep their steps."""
    lo, hi = OUTLIER_RANGE
    in_train, values = np.isin(wafers.measurement_wafers(), train), wafers.measurements.meas_med
    outlier = in_train & ~((lo <= values) & (values <= hi))
    if outlier.any():
        log.info("filter_outlier_targets: dropped %d of %d", outlier.sum(), in_train.sum())
    return wafers.keep_measurements(~outlier)


@dataclass(frozen=True)
class JoinedSample:
    """One (wafer, measurement) pair flattened to n_steps*S + M features."""

    wafer_id: tuple[str, str]
    n_steps: int
    features: np.ndarray
    target: float
    group_key: GroupKey


def join(steps: np.ndarray, meas: np.ndarray) -> np.ndarray:
    """(N, n_steps, S) step blocks, then (N, M) measurement rows, as (N, n_steps*S + M) rows."""
    return np.concatenate([steps.reshape(len(steps), np.prod(steps.shape[1:])), meas], axis=1)


def join_wafer(step_rows: np.ndarray, meas_row: np.ndarray, target: float,
               wafer_id: tuple[str, str], group_key: GroupKey) -> JoinedSample:
    """One sample through join, as build_buckets joins every sample."""
    return JoinedSample(wafer_id, len(step_rows), join(step_rows[None], meas_row[None])[0],
                        target, group_key)


def unjoin(features: np.ndarray, n_steps: int, s_width: int, m_width: int):
    """Inverse of join: the (..., n_steps, S) step blocks and the (..., M)
    measurement rows of a batch matrix or of a single feature row."""
    if features.shape[-1] != n_steps * s_width + m_width:
        raise PreprocessError(
            f"feature width {features.shape[-1]} != {n_steps}*{s_width}+{m_width}"
        )
    split = n_steps * s_width
    return (features[..., :split].reshape(*features.shape[:-1], n_steps, s_width),
            features[..., split:])


@dataclass(frozen=True)
class FeaturePipeline:
    """Fitted transforms mapping table rows to model-ready rows."""

    numeric_names: tuple[str, ...]        # raw numeric sensor columns, in CSV order
    kept_numeric: tuple[int, ...]         # indices into numeric_names + datetime features
    sensor_cat_names: tuple[str, ...]
    kept_sensor_cat: tuple[int, ...]
    scaler: FittedScaler
    imputer: FittedImputer
    sensor_vocab: OneHotVocabulary        # over kept sensor categorical columns
    meas_vocab: OneHotVocabulary          # over MEAS_CATEGORICAL_COLUMNS

    @property
    def s_width(self) -> int:
        return len(self.kept_numeric) + self.sensor_vocab.total_width

    @property
    def m_width(self) -> int:
        return self.meas_vocab.total_width

    def encode_step_rows(self, sensor: SensorTable, rows: np.ndarray) -> np.ndarray:
        """Sensor rows to a (len(rows), S) feature matrix."""
        numeric = sensor.numeric[np.ix_(rows, self.kept_numeric)]
        numeric = self.imputer.transform(self.scaler.transform(numeric))
        labels = sensor.categorical[np.ix_(rows, self.kept_sensor_cat)]
        return np.concatenate([numeric, self.sensor_vocab.encode(labels)], axis=1)

    def encode_measurements(self, measurements: MeasurementTable) -> np.ndarray:
        """Measurements to a (len(measurements), M) feature matrix."""
        return self.meas_vocab.encode(np.stack(
            [getattr(measurements, c) for c in MEAS_CATEGORICAL_COLUMNS], axis=1))

    def encode_steps(self, wafer: WaferRecord) -> np.ndarray:
        """One wafer's steps to an (n_steps, S) feature matrix."""
        return self.encode_step_rows(wafer.table.sensor, wafer.table.step_rows([wafer.index]))

    def encode_measurement(self, m: MeasurementRecord) -> np.ndarray:
        return self.encode_measurements(m.table.take([m.index]))[0]

    def to_manifest_dict(self) -> dict:
        return {
            "numeric_names": list(self.numeric_names),
            "kept_numeric": list(self.kept_numeric),
            "sensor_cat_names": list(self.sensor_cat_names),
            "kept_sensor_cat": list(self.kept_sensor_cat),
            "scaler_min": [float(v) for v in self.scaler.col_min],
            "scaler_max": [float(v) for v in self.scaler.col_max],
            "imputer_medians": [float(v) for v in self.imputer.medians],
            "sensor_vocab": [list(labels) for labels in self.sensor_vocab.labels],
            "meas_vocab": [list(labels) for labels in self.meas_vocab.labels],
            "s_width": self.s_width,
            "m_width": self.m_width,
        }

    @classmethod
    def from_manifest_dict(cls, d: dict) -> "FeaturePipeline":
        return cls(
            numeric_names=tuple(d["numeric_names"]),
            kept_numeric=tuple(d["kept_numeric"]),
            sensor_cat_names=tuple(d["sensor_cat_names"]),
            kept_sensor_cat=tuple(d["kept_sensor_cat"]),
            scaler=FittedScaler(np.asarray(d["scaler_min"]), np.asarray(d["scaler_max"])),
            imputer=FittedImputer(np.asarray(d["imputer_medians"])),
            sensor_vocab=OneHotVocabulary(tuple(tuple(l) for l in d["sensor_vocab"])),
            meas_vocab=OneHotVocabulary(tuple(tuple(l) for l in d["meas_vocab"])),
        )


def fit_pipeline(wafers: WaferTable, train: np.ndarray) -> FeaturePipeline:
    """Fit every transform on the ``train`` wafers.

    Their measurements should already be outlier-filtered; they feed the
    measurement one-hot vocabulary.
    """
    if not len(train):
        raise PreprocessError("cannot fit the pipeline on an empty training split")
    sensor = wafers.sensor
    rows = wafers.step_rows(train)
    numeric = sensor.numeric[rows]
    categorical = sensor.categorical[rows]

    names = sensor.numeric_names + DATETIME_FEATURES
    kept_numeric = drop_degenerate_columns(numeric.T)
    if len(kept_numeric) < len(names):
        log.info("dropping degenerate numeric columns: %s",
                 [name for j, name in enumerate(names) if j not in kept_numeric])
    if not kept_numeric:
        raise PreprocessError("every numeric column is degenerate")

    kept_cat = drop_degenerate_columns(categorical.T)
    numeric = numeric[:, kept_numeric]
    scaler = FittedScaler.fit(numeric)
    imputer = FittedImputer.fit(scaler.transform(numeric))
    sensor_vocab = OneHotVocabulary.fit(categorical.T[kept_cat])
    train_meas = wafers.measurements.take(wafers.measurement_rows(train))

    return FeaturePipeline(
        numeric_names=sensor.numeric_names,
        kept_numeric=tuple(kept_numeric),
        sensor_cat_names=sensor.categorical_names,
        kept_sensor_cat=tuple(kept_cat),
        scaler=scaler,
        imputer=imputer,
        sensor_vocab=sensor_vocab,
        meas_vocab=OneHotVocabulary.fit(getattr(train_meas, c) for c in MEAS_CATEGORICAL_COLUMNS),
    )


@dataclass
class Bucket:
    """All joined samples of one (stream, split, n_steps) combination."""

    n_steps: int
    features: np.ndarray      # (N, n_steps*S + M) float32
    target: np.ndarray        # (N,) float64
    kqi: np.ndarray
    mtype: np.ndarray
    stage: np.ndarray
    passfail: np.ndarray
    inspection: np.ndarray
    lcl: np.ndarray           # NaN where no limits resolved
    ucl: np.ndarray
    limit_source: np.ndarray  # a LIMIT_SOURCES entry, or ""
    processing_id: np.ndarray
    product_id: np.ndarray

    def __len__(self) -> int:
        return len(self.target)


def _strings(values: np.ndarray) -> np.ndarray:
    """A fixed-width str array, as wide as its longest entry."""
    return np.asarray(values.tolist(), dtype=str)


def build_buckets(
    wafers: WaferTable,
    split: np.ndarray,
    pipeline: FeaturePipeline,
    limits_table: dict[GroupKey, tuple[float, float]],
    monitor_stream: bool,
) -> dict[int, Bucket]:
    """Join wafer steps with one measurement stream and bucket by n_steps.

    Only the steps of the wafers owning the stream's measurements are encoded.
    Samples follow the wafer order of ``split`` and, within a wafer, the
    metrology file's order.
    """
    rows = wafers.measurement_rows(split)
    rows = rows[wafers.measurements.is_monitor[rows] == monitor_stream]
    meas = wafers.measurements.take(rows)
    limits = resolve_control_limits(meas, limits_table)
    owners, owner = np.unique(wafers.measurement_wafers()[rows], return_inverse=True)
    n_steps = wafers.n_steps[owners]
    first_step = np.cumsum(n_steps) - n_steps
    steps = pipeline.encode_step_rows(wafers.sensor, wafers.step_rows(owners)).astype(np.float32)
    meas_x = pipeline.encode_measurements(meas).astype(np.float32)
    out = {}
    for n in np.unique(n_steps[owner]):
        pick = np.flatnonzero(n_steps[owner] == n)
        out[int(n)] = Bucket(
            n_steps=int(n),
            features=join(steps[first_step[owner[pick], None] + np.arange(n)], meas_x[pick]),
            target=meas.meas_med[pick],
            lcl=limits.lcl[pick],
            ucl=limits.ucl[pick],
            limit_source=_strings(limits.source[pick]),
            **{key: _strings(getattr(meas, key)[pick]) for key in (
                "kqi", "mtype", "stage", "passfail", "inspection", "processing_id",
                "product_id")},
        )
    return out


BUCKET_ARRAY_KEYS = tuple(f.name for f in fields(Bucket) if f.name != "n_steps")


def bucket_filename(stream: str, split: str, n_steps: int) -> str:
    return f"{stream}_{split}_n{n_steps}.npz"


def save_bucket(path: Path, bucket: Bucket) -> None:
    with atomic_open(path, "wb") as fh:
        np.savez(fh, n_steps=np.array(bucket.n_steps),
                 **{k: getattr(bucket, k) for k in BUCKET_ARRAY_KEYS})


def load_bucket(path: Path) -> Bucket:
    data = read_npz(path, PreprocessError, "bucket file", ("n_steps",) + BUCKET_ARRAY_KEYS)
    return Bucket(n_steps=int(data.pop("n_steps")), **data)


def load_split(features_dir: Path, stream: str, split: str) -> list[Bucket]:
    """The buckets that manifest.json lists for (stream, split), by n_steps.

    Other bucket files in the directory are ignored. A listed file that is
    missing raises FileNotFoundError, an unreadable one or one with another
    row count PreprocessError.
    """
    sizes = read_manifest(features_dir)[0]["bucket_sizes"].get(f"{stream}_{split}", {})
    buckets = []
    for n in sorted(sizes, key=int):
        path = Path(features_dir) / bucket_filename(stream, split, int(n))
        bucket = load_bucket(path)
        if (bucket.n_steps, len(bucket)) != (int(n), sizes[n]):
            raise PreprocessError(f"{path} holds {len(bucket)} rows of {bucket.n_steps} steps, "
                                  f"manifest.json lists {sizes[n]} rows of {n}")
        buckets.append(bucket)
    return buckets


def write_manifest(features_dir: Path, pipeline: FeaturePipeline,
                   bucket_sizes: dict, extra: dict) -> str:
    """Write manifest.json and return its content hash."""
    manifest = pipeline.to_manifest_dict()
    manifest["bucket_sizes"] = bucket_sizes
    manifest.update(extra)
    path = Path(features_dir) / "manifest.json"
    blob = json.dumps(manifest, sort_keys=True, indent=1, allow_nan=False).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def read_manifest(features_dir: Path) -> tuple[dict, str]:
    path = Path(features_dir) / "manifest.json"
    blob = path.read_bytes()
    try:
        manifest = json.loads(blob)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise PreprocessError(f"{path} is not valid JSON: {exc}") from None
    return manifest, hashlib.sha256(blob).hexdigest()


def write_groups_csv(path, groups: dict[GroupKey, NormalizationGroup]) -> None:
    write_csv(path, ["kqi", "type", "stage", "b1", "b2"],
              ([*key, repr(g.b1), repr(g.b2)] for key, g in sorted(groups.items())))


def read_groups_csv(path) -> dict[GroupKey, NormalizationGroup]:
    """Read groups.csv; a row that is no group raises PreprocessError naming its line."""
    groups: dict[GroupKey, NormalizationGroup] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            try:
                key = (row["kqi"], row["type"], row["stage"])
                groups[key] = NormalizationGroup(key, float(row["b1"]), float(row["b2"]))
            except (KeyError, TypeError, ValueError) as exc:  # KeyError: a missing column
                raise PreprocessError(f"{path} line {reader.line_num}: {exc}") from None
    return groups
