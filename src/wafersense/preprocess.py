"""Feature pipeline: raw wafer records to fixed-width numeric samples.

Stage order is fixed: datetime featurization, degenerate-column dropping,
min-max scaling, median imputation, training-target outlier filtering,
one-hot encoding, sensor/measurement join, time-step-homogeneous
bucketing. Every transform is fitted on the training split only and then
frozen; val/test go through the same fitted transforms.

Joined samples of different step counts have different widths, so buckets
are persisted as one .npz file per (stream, split, n_steps), next to a
manifest recording the fitted parameters. The manifest's file hash binds
checkpoints to the preprocessing that produced their features.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .domain import MeasurementRecord, WaferId, WaferRecord
from .normgroups import GroupKey, resolve_control_limits

log = logging.getLogger(__name__)

UNKNOWN = "__UNKNOWN__"
MEAS_CATEGORICAL_COLUMNS = ("kqi", "mtype", "stage", "equipid", "prod")
DATETIME_FEATURES = ("time_of_day", "day_of_year")

STREAM_REGRESSION = "reg"
STREAM_PASSFAIL = "pf"
SPLITS = ("train", "val", "test")


class PreprocessError(ValueError):
    pass


def datetime_features(timestamp: datetime) -> tuple[float, float]:
    """Map a timestamp to (time in day, date in year), both in [0, 1).

    The day-of-year denominator is fixed at 366 so leap years stay below 1.
    """
    seconds = (
        timestamp.hour * 3600
        + timestamp.minute * 60
        + timestamp.second
        + timestamp.microsecond / 1e6
    )
    return seconds / 86400.0, (timestamp.timetuple().tm_yday - 1) / 366.0


def drop_degenerate_columns(columns: list[list]) -> list[int]:
    """Indices of columns that are neither all-missing nor constant.

    Missing markers: None, NaN floats, and the empty string. Non-missing
    values are compared for equality, so this works for numeric and
    categorical columns alike.
    """
    kept = []
    for idx, col in enumerate(columns):
        seen = set()
        for v in col:
            if v is None or v == "":
                continue
            if isinstance(v, float) and math.isnan(v):
                continue
            seen.add(v)
            if len(seen) > 1:
                break
        if len(seen) > 1:
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
        out = np.array(x, dtype=float)
        nan_rows, nan_cols = np.nonzero(np.isnan(out))
        out[nan_rows, nan_cols] = self.medians[nan_cols]
        return out


@dataclass(frozen=True)
class OneHotVocabulary:
    """Ordered training labels per categorical column, plus an UNKNOWN slot."""

    labels: tuple[tuple[str, ...], ...]

    @classmethod
    def fit(cls, columns: list[list[str]]) -> "OneHotVocabulary":
        return cls(tuple(tuple(sorted(set(c for c in col if c != ""))) for col in columns))

    @property
    def widths(self) -> list[int]:
        return [len(labels) + 1 for labels in self.labels]

    @property
    def total_width(self) -> int:
        return sum(self.widths)

    def encode(self, col: int, label: str) -> np.ndarray:
        labels = self.labels[col]
        vec = np.zeros(len(labels) + 1)
        try:
            vec[labels.index(label)] = 1.0
        except ValueError:
            vec[-1] = 1.0  # unseen or empty label lands in the UNKNOWN slot
        return vec

    def encode_row(self, row: list[str]) -> np.ndarray:
        return np.concatenate([self.encode(i, label) for i, label in enumerate(row)])


def one_hot(vocab: OneHotVocabulary, col: int, label: str) -> np.ndarray:
    return vocab.encode(col, label)


OUTLIER_RANGE = (-1.0, 1000.0)


def filter_outlier_targets(measurements: list[MeasurementRecord]) -> list[MeasurementRecord]:
    """Drop training measurements with meas_med outside the closed outlier range."""
    lo, hi = OUTLIER_RANGE
    kept = [m for m in measurements if lo <= m.meas_med <= hi]
    dropped = len(measurements) - len(kept)
    if dropped:
        log.info("filter_outlier_targets: dropped %d of %d", dropped, len(measurements))
    return kept


@dataclass(frozen=True)
class JoinedSample:
    """One (wafer, measurement) pair flattened to n_steps*S + M features."""

    wafer_id: WaferId
    n_steps: int
    features: np.ndarray
    target: float
    group_key: GroupKey


def join_wafer(step_rows: np.ndarray, meas_row: np.ndarray, target: float,
               wafer_id: WaferId, group_key: GroupKey) -> JoinedSample:
    """Concatenate step rows in order, then the measurement row."""
    step_rows = np.asarray(step_rows)
    meas_row = np.asarray(meas_row)
    if step_rows.ndim != 2:
        raise PreprocessError(f"step rows must be 2-d, got shape {step_rows.shape}")
    if meas_row.ndim != 1:
        raise PreprocessError(f"measurement row must be 1-d, got shape {meas_row.shape}")
    features = np.concatenate([step_rows.reshape(-1), meas_row])
    return JoinedSample(
        wafer_id=wafer_id,
        n_steps=step_rows.shape[0],
        features=features,
        target=target,
        group_key=group_key,
    )


def unjoin(features: np.ndarray, n_steps: int, s_width: int, m_width: int):
    """Inverse of join_wafer: recover the (n_steps, S) block and the M vector.

    Accepts a single feature row or a batch matrix.
    """
    if features.shape[-1] != n_steps * s_width + m_width:
        raise PreprocessError(
            f"feature width {features.shape[-1]} != {n_steps}*{s_width}+{m_width}"
        )
    split = n_steps * s_width
    if features.ndim == 2:
        return features[:, :split].reshape(-1, n_steps, s_width), features[:, split:]
    return features[:split].reshape(n_steps, s_width), features[split:]


def bucket_batches(samples, batch_size: int, seed: int):
    """Batch samples so every batch is homogeneous in n_steps.

    Within each bucket the order is shuffled deterministically by seed;
    the final partial batch of each bucket is retained. Buckets are
    visited in ascending n_steps order.
    """
    if batch_size < 1:
        raise PreprocessError("batch_size must be >= 1")
    buckets: dict[int, list] = {}
    for sample in samples:
        buckets.setdefault(sample.n_steps, []).append(sample)
    rng = np.random.default_rng(seed)
    batches = []
    for n in sorted(buckets):
        group = buckets[n]
        order = rng.permutation(len(group))
        shuffled = [group[i] for i in order]
        for start in range(0, len(shuffled), batch_size):
            batches.append(shuffled[start : start + batch_size])
    return batches


@dataclass(frozen=True)
class FeaturePipeline:
    """Fitted transforms mapping records to model-ready rows."""

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

    def step_numeric_matrix(self, wafer: WaferRecord) -> np.ndarray:
        """Raw numeric step values plus datetime features, missing as NaN."""
        rows = []
        for step in wafer.steps:
            tod, doy = datetime_features(step.timestamp)
            vals = [v if v is not None else np.nan for v in step.numeric_readings]
            rows.append(vals + [tod, doy])
        return np.asarray(rows, dtype=float)

    def encode_steps(self, wafer: WaferRecord) -> np.ndarray:
        """Wafer steps to an (n_steps, S) feature matrix."""
        numeric = self.step_numeric_matrix(wafer)[:, self.kept_numeric]
        numeric = self.imputer.transform(self.scaler.transform(numeric))
        if not self.kept_sensor_cat:
            return numeric
        cat_rows = []
        for step in wafer.steps:
            row = [step.categorical_readings[i] for i in self.kept_sensor_cat]
            cat_rows.append(self.sensor_vocab.encode_row(row))
        return np.concatenate([numeric, np.asarray(cat_rows)], axis=1)

    def encode_measurement(self, m: MeasurementRecord) -> np.ndarray:
        return self.meas_vocab.encode_row([m.kqi, m.mtype, m.stage, m.equipid, m.prod])

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


def fit_pipeline(
    train_wafers: list[WaferRecord],
    train_measurements: list[MeasurementRecord],
    numeric_names: list[str],
    sensor_cat_names: list[str],
) -> FeaturePipeline:
    """Fit every transform on the training split.

    ``train_measurements`` should already be outlier-filtered; it feeds the
    measurement one-hot vocabulary.
    """
    if not train_wafers:
        raise PreprocessError("cannot fit the pipeline on an empty training split")
    numeric_rows = []
    cat_columns: list[list[str]] = [[] for _ in sensor_cat_names]
    for wafer in train_wafers:
        for step in wafer.steps:
            tod, doy = datetime_features(step.timestamp)
            vals = [v if v is not None else np.nan for v in step.numeric_readings]
            numeric_rows.append(vals + [tod, doy])
            for i, label in enumerate(step.categorical_readings):
                cat_columns[i].append(label)
    numeric = np.asarray(numeric_rows, dtype=float)

    all_numeric_names = list(numeric_names) + list(DATETIME_FEATURES)
    kept_numeric = drop_degenerate_columns([list(numeric[:, j]) for j in range(numeric.shape[1])])
    dropped = sorted(set(range(numeric.shape[1])) - set(kept_numeric))
    if dropped:
        log.info("dropping degenerate numeric columns: %s",
                 [all_numeric_names[j] for j in dropped])
    if not kept_numeric:
        raise PreprocessError("every numeric column is degenerate")

    kept_cat = drop_degenerate_columns(cat_columns)
    scaler = FittedScaler.fit(numeric[:, kept_numeric])
    imputer = FittedImputer.fit(scaler.transform(numeric[:, kept_numeric]))
    sensor_vocab = OneHotVocabulary.fit([cat_columns[i] for i in kept_cat])

    meas_columns = [[getattr(m, c) for m in train_measurements] for c in MEAS_CATEGORICAL_COLUMNS]
    meas_vocab = OneHotVocabulary.fit(meas_columns)

    return FeaturePipeline(
        numeric_names=tuple(numeric_names),
        kept_numeric=tuple(kept_numeric),
        sensor_cat_names=tuple(sensor_cat_names),
        kept_sensor_cat=tuple(kept_cat),
        scaler=scaler,
        imputer=imputer,
        sensor_vocab=sensor_vocab,
        meas_vocab=meas_vocab,
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
    limit_source: np.ndarray  # "TARG" | "LCL_UCL" | ""
    processing_id: np.ndarray
    product_id: np.ndarray

    def __len__(self) -> int:
        return len(self.target)


def build_buckets(
    wafers: list[WaferRecord],
    pipeline: FeaturePipeline,
    limits_table: dict[GroupKey, tuple[float, float]],
    monitor_stream: bool,
) -> dict[int, Bucket]:
    """Join wafer steps with one measurement stream and bucket by n_steps."""
    rows: dict[int, dict[str, list]] = {}
    for wafer in wafers:
        measurements = [m for m in wafer.measurements if m.is_monitor == monitor_stream]
        if not measurements:
            continue
        step_rows = pipeline.encode_steps(wafer)
        n = step_rows.shape[0]
        acc = rows.setdefault(n, {k: [] for k in (
            "features", "target", "kqi", "mtype", "stage", "passfail", "inspection",
            "lcl", "ucl", "limit_source", "processing_id", "product_id")})
        for m in measurements:
            sample = join_wafer(step_rows, pipeline.encode_measurement(m), m.meas_med,
                                wafer.id, m.group_key)
            limits = resolve_control_limits(m, limits_table)
            acc["features"].append(sample.features.astype(np.float32))
            acc["target"].append(m.meas_med)
            acc["kqi"].append(m.kqi)
            acc["mtype"].append(m.mtype)
            acc["stage"].append(m.stage)
            acc["passfail"].append(m.passfail.value)
            acc["inspection"].append(m.inspection.value)
            acc["lcl"].append(limits.lcl if limits else np.nan)
            acc["ucl"].append(limits.ucl if limits else np.nan)
            acc["limit_source"].append(limits.source.value if limits else "")
            acc["processing_id"].append(wafer.id.processing_id)
            acc["product_id"].append(wafer.id.product_id)
    out = {}
    for n in sorted(rows):
        acc = rows[n]
        out[n] = Bucket(
            n_steps=n,
            features=np.asarray(acc["features"], dtype=np.float32),
            target=np.asarray(acc["target"], dtype=np.float64),
            kqi=np.asarray(acc["kqi"]),
            mtype=np.asarray(acc["mtype"]),
            stage=np.asarray(acc["stage"]),
            passfail=np.asarray(acc["passfail"]),
            inspection=np.asarray(acc["inspection"]),
            lcl=np.asarray(acc["lcl"], dtype=np.float64),
            ucl=np.asarray(acc["ucl"], dtype=np.float64),
            limit_source=np.asarray(acc["limit_source"]),
            processing_id=np.asarray(acc["processing_id"]),
            product_id=np.asarray(acc["product_id"]),
        )
    return out


BUCKET_ARRAY_KEYS = (
    "features", "target", "kqi", "mtype", "stage", "passfail", "inspection",
    "lcl", "ucl", "limit_source", "processing_id", "product_id",
)


def bucket_filename(stream: str, split: str, n_steps: int) -> str:
    return f"{stream}_{split}_n{n_steps}.npz"


def save_bucket(path: Path, bucket: Bucket) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, n_steps=np.array(bucket.n_steps),
                 **{k: getattr(bucket, k) for k in BUCKET_ARRAY_KEYS})


def load_bucket(path: Path) -> Bucket:
    with np.load(path, allow_pickle=False) as data:
        return Bucket(n_steps=int(data["n_steps"]),
                      **{k: data[k] for k in BUCKET_ARRAY_KEYS})


def load_split(features_dir: Path, stream: str, split: str) -> list[Bucket]:
    """The buckets that manifest.json lists for (stream, split), by n_steps.

    Other bucket files in the directory are ignored. A listed file that is
    missing raises FileNotFoundError, one with another row count
    PreprocessError.
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
    path.write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


def read_manifest(features_dir: Path) -> tuple[dict, str]:
    blob = (Path(features_dir) / "manifest.json").read_bytes()
    return json.loads(blob), hashlib.sha256(blob).hexdigest()
