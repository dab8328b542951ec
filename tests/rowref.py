"""Row-object reference for the columnar ingest and preprocess path.

These are the per-row loops the package ran before it went columnar: every
sensor row becomes a SensorTimeStep, every metrology row a MeasurementRecord
and every wafer a WaferRecord, and each cell is parsed, encoded and joined
one at a time. The equivalence tests run both paths on the same CSV files
and require equal buckets, manifests and groups. The fitted-transform
classes (FittedScaler, FittedImputer) are shared with the package, as their
arithmetic did not change.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime
from math import isfinite

import numpy as np

from wafersense.ingest import METROLOGY_COLUMNS, LIMITS_COLUMNS, SENSOR_ID_COLUMNS, IngestError
from wafersense.normgroups import MIN_GROUP_WIDTH, NormalizationGroup
from wafersense.preprocess import (
    BUCKET_ARRAY_KEYS,
    MEAS_CATEGORICAL_COLUMNS,
    OUTLIER_RANGE,
    STREAM_PASSFAIL,
    STREAM_REGRESSION,
    Bucket,
    FittedImputer,
    FittedScaler,
    bucket_filename,
)

DATETIME_FEATURES = ("time_of_day", "day_of_year")


def passfail_label(cell):
    return cell if cell in ("PASS", "FAIL_AVG_HI", "FAIL_AVG_LOW") else "OTHER"


def inspection_label(cell):
    if not cell:
        return "NONE"
    return cell if cell in ("NONE", "REWORK", "SCRAP") else "OTHER"


@dataclass(frozen=True)
class WaferId:
    processing_id: str
    product_id: str


@dataclass(frozen=True)
class SensorTimeStep:
    timestamp: datetime
    numeric_readings: tuple
    categorical_readings: tuple


@dataclass(frozen=True)
class MeasurementRecord:
    id: WaferId
    kqi: str
    mtype: str
    stage: str
    equipid: str
    prod: str
    meas_med: float
    passfail: str
    inspection: str
    targ_min: float | None
    targ_max: float | None
    is_monitor: bool

    @property
    def group_key(self):
        return (self.kqi, self.mtype, self.stage)


@dataclass(frozen=True)
class WaferRecord:
    id: WaferId
    steps: tuple
    measurements: tuple = field(default_factory=tuple)


# ingest


def load_table(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise IngestError(f"{path}: ragged row at line {lineno}")
            rows.append(tuple(cell if cell != "" else None for cell in row))
    return list(header), list(dict.fromkeys(rows))


def _parse_float(cell, context):
    if cell is None:
        return None
    try:
        value = float(cell)
    except ValueError:
        raise IngestError(f"{context}: not a number: {cell!r}") from None
    if not isfinite(value):
        raise IngestError(f"{context}: not a finite number: {cell!r}")
    return value


def parse_sensor_table(names, rows, categorical_columns):
    idx_proc, idx_prod, idx_ts = (names.index(c) for c in SENSOR_ID_COLUMNS)
    cat_idx = [names.index(c) for c in categorical_columns]
    special = {idx_proc, idx_prod, idx_ts, *cat_idx}
    num_idx = [i for i in range(len(names)) if i not in special]
    steps = {}
    for row in rows:
        if row[idx_proc] is None or row[idx_prod] is None or row[idx_ts] is None:
            continue
        wid = WaferId(row[idx_proc], row[idx_prod])
        try:
            ts = datetime.fromisoformat(row[idx_ts])
        except ValueError:
            raise IngestError(f"unparseable timestamp {row[idx_ts]!r}") from None
        numeric = tuple(_parse_float(row[i], names[i]) for i in num_idx)
        categorical = tuple(row[i] if row[i] is not None else "" for i in cat_idx)
        steps.setdefault(wid, []).append(SensorTimeStep(ts, numeric, categorical))
    for wid in steps:
        steps[wid].sort(key=lambda s: s.timestamp)
    return steps, [names[i] for i in num_idx]


def parse_metrology_table(names, rows, monitor_marker):
    idx = {c: names.index(c) for c in METROLOGY_COLUMNS}
    records = []
    for row in rows:
        meas_med = _parse_float(row[idx["meas_med"]], "meas_med")
        if meas_med is None or row[idx["processing_id"]] is None or row[idx["product_id"]] is None:
            continue
        kqi = row[idx["kqi"]] or ""
        targ_min = _parse_float(row[idx["targ_min"]], "targ_min")
        targ_max = _parse_float(row[idx["targ_max"]], "targ_max")
        if targ_min is not None and targ_max is not None and not targ_min < targ_max:
            continue
        records.append(MeasurementRecord(
            id=WaferId(row[idx["processing_id"]], row[idx["product_id"]]),
            kqi=kqi, mtype=row[idx["type"]] or "", stage=row[idx["stage"]] or "",
            equipid=row[idx["equipid"]] or "", prod=row[idx["prod"]] or "",
            meas_med=meas_med, passfail=passfail_label(row[idx["passfail"]]),
            inspection=inspection_label(row[idx["inspection"]]),
            targ_min=targ_min, targ_max=targ_max, is_monitor=monitor_marker in kqi))
    return records


def parse_limits_table(names, rows):
    idx = {c: names.index(c) for c in LIMITS_COLUMNS}
    out = {}
    for row in rows:
        lcl = _parse_float(row[idx["lcl"]], "lcl")
        ucl = _parse_float(row[idx["ucl"]], "ucl")
        if lcl is None or ucl is None or not lcl < ucl:
            continue
        out[(row[idx["kqi"]] or "", row[idx["type"]] or "", row[idx["stage"]] or "")] = (lcl, ucl)
    return out


def assemble_wafers(steps_by_wafer, measurements):
    meas_by_wafer = {}
    for m in measurements:
        if m.id in steps_by_wafer:
            meas_by_wafer.setdefault(m.id, []).append(m)
    return [WaferRecord(wid, tuple(steps), tuple(meas_by_wafer[wid]))
            for wid, steps in steps_by_wafer.items() if meas_by_wafer.get(wid)]


def split_train_val_test(wafers, seed):
    n = len(wafers)
    n_val, n_test = (2 * n) // 10, n // 10
    order = np.random.default_rng(seed).permutation(n)
    shuffled = [wafers[i] for i in order]
    n_train = n - n_val - n_test
    return shuffled[:n_train], shuffled[n_train:n_train + n_val], shuffled[n_train + n_val:]


# preprocess


def datetime_features(timestamp):
    seconds = (timestamp.hour * 3600 + timestamp.minute * 60 + timestamp.second
               + timestamp.microsecond / 1e6)
    return seconds / 86400.0, (timestamp.timetuple().tm_yday - 1) / 366.0


def step_numeric_matrix(steps):
    rows = []
    for step in steps:
        tod, doy = datetime_features(step.timestamp)
        rows.append([v if v is not None else np.nan for v in step.numeric_readings] + [tod, doy])
    return np.asarray(rows, dtype=float)


def drop_degenerate_columns(columns):
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


class OneHotVocabulary:
    def __init__(self, columns):
        self.labels = tuple(tuple(sorted(set(c for c in col if c != ""))) for col in columns)

    def encode(self, col, label):
        labels = self.labels[col]
        vec = np.zeros(len(labels) + 1)
        try:
            vec[labels.index(label)] = 1.0
        except ValueError:
            vec[-1] = 1.0
        return vec

    def encode_row(self, row):
        return np.concatenate([self.encode(i, label) for i, label in enumerate(row)])

    @property
    def total_width(self):
        return sum(len(labels) + 1 for labels in self.labels)


@dataclass
class Pipeline:
    numeric_names: list
    kept_numeric: list
    sensor_cat_names: list
    kept_sensor_cat: list
    scaler: FittedScaler
    imputer: FittedImputer
    sensor_vocab: OneHotVocabulary
    meas_vocab: OneHotVocabulary

    def encode_steps(self, wafer):
        numeric = step_numeric_matrix(wafer.steps)[:, self.kept_numeric]
        numeric = self.imputer.transform(self.scaler.transform(numeric))
        if not self.kept_sensor_cat:
            return numeric
        cat_rows = [self.sensor_vocab.encode_row([step.categorical_readings[i]
                                                  for i in self.kept_sensor_cat])
                    for step in wafer.steps]
        return np.concatenate([numeric, np.asarray(cat_rows)], axis=1)

    def encode_measurement(self, m):
        return self.meas_vocab.encode_row([m.kqi, m.mtype, m.stage, m.equipid, m.prod])

    def manifest_dict(self):
        s_width = len(self.kept_numeric) + self.sensor_vocab.total_width
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
            "s_width": s_width,
            "m_width": self.meas_vocab.total_width,
        }


def fit_pipeline(train_wafers, train_measurements, numeric_names, sensor_cat_names):
    steps = [step for wafer in train_wafers for step in wafer.steps]
    numeric = step_numeric_matrix(steps)
    cat_columns = [[step.categorical_readings[i] for step in steps]
                   for i in range(len(sensor_cat_names))]
    kept_numeric = drop_degenerate_columns([list(numeric[:, j]) for j in range(numeric.shape[1])])
    if not kept_numeric:
        raise ValueError("every numeric column is degenerate")
    kept_cat = drop_degenerate_columns(cat_columns)
    scaler = FittedScaler.fit(numeric[:, kept_numeric])
    imputer = FittedImputer.fit(scaler.transform(numeric[:, kept_numeric]))
    meas_columns = [[getattr(m, c) for m in train_measurements] for c in MEAS_CATEGORICAL_COLUMNS]
    return Pipeline(numeric_names, kept_numeric, sensor_cat_names, kept_cat, scaler, imputer,
                    OneHotVocabulary([cat_columns[i] for i in kept_cat]),
                    OneHotVocabulary(meas_columns))


def resolve_control_limits(meas, fallback):
    """(lcl, ucl, source) or None."""
    if meas.targ_min is not None and meas.targ_max is not None:
        return meas.targ_min, meas.targ_max, "TARG"
    pair = fallback.get(meas.group_key)
    if pair is not None:
        return pair[0], pair[1], "LCL_UCL"
    return None


def build_groups(train_measurements, fallback):
    candidates = {}
    for m in train_measurements:
        limits = resolve_control_limits(m, fallback)
        if limits is None:
            continue
        pair = limits[:2]
        if pair[1] - pair[0] < MIN_GROUP_WIDTH:
            continue
        best = candidates.get(m.group_key)
        if best is None or _narrower(pair, best):
            candidates[m.group_key] = pair
    return {key: NormalizationGroup(key, b1, b2) for key, (b1, b2) in candidates.items()}


def _narrower(pair, best):
    width, best_width = pair[1] - pair[0], best[1] - best[0]
    if width != best_width:
        return width < best_width
    return pair[0] < best[0]


def build_buckets(wafers, pipeline, limits_table, monitor_stream):
    rows = {}
    for wafer in wafers:
        measurements = [m for m in wafer.measurements if m.is_monitor == monitor_stream]
        if not measurements:
            continue
        step_rows = pipeline.encode_steps(wafer)
        acc = rows.setdefault(step_rows.shape[0], {k: [] for k in BUCKET_ARRAY_KEYS})
        for m in measurements:
            features = np.concatenate([step_rows.reshape(-1), pipeline.encode_measurement(m)])
            limits = resolve_control_limits(m, limits_table)
            acc["features"].append(features.astype(np.float32))
            acc["target"].append(m.meas_med)
            acc["kqi"].append(m.kqi)
            acc["mtype"].append(m.mtype)
            acc["stage"].append(m.stage)
            acc["passfail"].append(m.passfail)
            acc["inspection"].append(m.inspection)
            acc["lcl"].append(limits[0] if limits else np.nan)
            acc["ucl"].append(limits[1] if limits else np.nan)
            acc["limit_source"].append(limits[2] if limits else "")
            acc["processing_id"].append(wafer.id.processing_id)
            acc["product_id"].append(wafer.id.product_id)
    out = {}
    for n in sorted(rows):
        acc = rows[n]
        out[n] = Bucket(n_steps=n, **{
            k: np.asarray(acc[k], dtype={"features": np.float32, "target": np.float64,
                                         "lcl": np.float64, "ucl": np.float64}.get(k))
            for k in BUCKET_ARRAY_KEYS})
    return out


def reference_preprocess(data_dir, cat_cols, monitor_marker="MON", seed=0,
                         train_on_monitor=False):
    """The features directory's contents as the row path builds them:
    ({bucket file name: Bucket}, manifest dict without its extra keys, groups)."""
    sensor_names, sensor_rows = load_table(data_dir / "sensor.csv")
    meas_names, meas_rows = load_table(data_dir / "metrology.csv")
    steps, numeric_cols = parse_sensor_table(sensor_names, sensor_rows, cat_cols)
    measurements = parse_metrology_table(meas_names, meas_rows, monitor_marker)
    limits = parse_limits_table(*load_table(data_dir / "limits.csv"))
    wafers = assemble_wafers(steps, measurements)
    train_w, val_w, test_w = split_train_val_test(wafers, seed)
    lo, hi = OUTLIER_RANGE
    train_w = [WaferRecord(w.id, w.steps, tuple(m for m in w.measurements
                                                if lo <= m.meas_med <= hi)) for w in train_w]
    train_meas = [m for w in train_w for m in w.measurements]
    pipeline = fit_pipeline(train_w, train_meas, numeric_cols, cat_cols)
    groups = build_groups(train_meas, limits)
    buckets, sizes = {}, {}
    for split, wafer_list in (("train", train_w), ("val", val_w), ("test", test_w)):
        for stream, monitor_stream in ((STREAM_REGRESSION, train_on_monitor),
                                       (STREAM_PASSFAIL, not train_on_monitor)):
            built = build_buckets(wafer_list, pipeline, limits, monitor_stream)
            for n, bucket in built.items():
                buckets[bucket_filename(stream, split, n)] = bucket
            sizes[f"{stream}_{split}"] = {str(n): len(b) for n, b in built.items()}
    manifest = pipeline.manifest_dict()
    manifest["bucket_sizes"] = sizes
    return buckets, manifest, groups
