"""Synthetic sensor/metrology generator with a documented ground truth.

Mechanism (all coefficients land in the ground-truth manifest):

* Wafers are generated in processing batches sharing a processing_id; the
  first wafer of each batch is the monitor wafer, the rest are product
  wafers whose sensor readings are the monitor's plus small jitter.
* Each wafer's sensor signal is z = (v_1 + ... + v_{n-1} + 2*v_n) / (n+1),
  where v_t = w . numerics_t + per-label offsets of the categorical cells.
  Weighting the last step double makes step order matter, so a sequence
  encoder is actually exercised.
* Each (kqi, type, stage) group g has an affine map: the clean value of a
  batch is slope_g * z_monitor + intercept_g. The slope is calibrated from
  the empirical spread of z so that about ``fail_rate`` of batch values
  land outside the group's control limits, which sit at +/- 3*noise_sd
  around the group's clean mean.
* meas_med = clean value + gaussian noise (one draw per batch and group);
  every wafer in the batch carries the same value, mirroring how product
  wafers inherit the monitor wafer's measurement. Monitor rows carry a
  MON-marked KQI label.
* passfail comes from the clean value against the group limits, so with
  noise_sd = 0 the labels are exactly consistent with the limits.
* A configurable fraction of numeric sensor cells is blanked and a
  fraction of rows is duplicated verbatim, to exercise imputation and
  deduplication. IDs and timestamps are never blanked.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from . import host
from .atomic import atomic_open
from .domain import INSPECTION_LABELS, OTHER_LABEL, PASSFAIL_LABELS
from .ingest import LIMITS_COLUMNS, METROLOGY_COLUMNS, MONITOR_MARKER, SENSOR_ID_COLUMNS

DEFAULT_STEP_WEIGHTS = {1: 0.1, 2: 0.35, 3: 0.35, 4: 0.1, 5: 0.1}

SENSOR_JITTER_SD = 0.1         # product wafers deviate this much from the monitor
CAT_OFFSET_RANGE = 0.5
NUMERIC_RANGE = (0.0, 10.0)
FALLBACK_HALF_WIDTH = 1.0      # control-limit half width when noise_sd = 0
INSPECTED_FAIL_RATE = 0.9      # fail rows that actually get REWORK/SCRAP
# Fewer batches are made in one process: below this the fork, the second process's repeat of
# the first half's draws and the copy cost about what making half the lines elsewhere saves.
# Measured, 2 cores: two processes took 1.5x one's time at 25 batches, 0.76-1.23x at 30-120
# and 0.73-0.80x from 160 batches on.
SPLIT_BATCHES = 100

_PASS, _FAIL_HI, _FAIL_LOW = PASSFAIL_LABELS
_NOT_INSPECTED, _REWORK, _SCRAP = INSPECTION_LABELS


@dataclass(frozen=True)
class SynthConfig:
    n_wafers: int
    seed: int = 0
    step_weights: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_STEP_WEIGHTS))
    n_numeric_sensors: int = 24
    n_sensor_categoricals: int = 2
    sensor_cat_vocab: int = 5
    n_kqi: int = 3
    n_type: int = 2
    n_stage: int = 2
    n_equip: int = 4
    n_prod: int = 3
    wafers_per_batch: int = 4
    measurements_per_wafer: int = 3
    noise_sd: float = 0.2
    fail_rate: float = 0.02
    missing_cell_rate: float = 0.02
    duplicate_row_rate: float = 0.01
    targ_rate: float = 0.5
    group_offset_lo: float = 1.0
    group_offset_hi: float = 3.0

    def __post_init__(self) -> None:
        if self.n_wafers < 1:
            raise ValueError("n_wafers must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        for name in ("wafers_per_batch", "sensor_cat_vocab", "n_kqi", "n_type", "n_stage",
                     "n_equip", "n_prod"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("n_numeric_sensors", "n_sensor_categoricals"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        n_combos = self.n_kqi * self.n_type * self.n_stage
        if not 1 <= self.measurements_per_wafer <= n_combos:  # 0 would give no samples
            raise ValueError(f"measurements_per_wafer must be in [1, n_kqi*n_type*n_stage "
                             f"= {n_combos}]")
        if not set(self.step_weights) <= {1, 2, 3, 4, 5}:
            raise ValueError("step counts must lie in 1..5")
        if any(w < 0 for w in self.step_weights.values()):
            raise ValueError("step weights must be nonnegative")
        if abs(sum(self.step_weights.values()) - 1.0) > 1e-9:
            raise ValueError("step weights must sum to 1")
        if not 0.0 <= self.fail_rate < 0.5:
            raise ValueError("fail_rate must be in [0, 0.5)")
        for name in ("missing_cell_rate", "duplicate_row_rate", "targ_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if not 0.0 <= self.noise_sd < math.inf:
            raise ValueError("noise_sd must be finite and >= 0")
        if not -math.inf < self.group_offset_lo <= self.group_offset_hi < math.inf:
            raise ValueError("group_offset_lo and group_offset_hi must be finite, lo <= hi")

    @property
    def numeric_columns(self) -> list[str]:
        return [f"sensor_{i:02d}" for i in range(self.n_numeric_sensors)]

    @property
    def categorical_columns(self) -> list[str]:
        return categorical_column_names(self.n_sensor_categoricals)


def categorical_column_names(n: int) -> list[str]:
    return [f"cat_{i:02d}" for i in range(n)]


def step_value(numerics: np.ndarray, cat_labels: list[int],
               weights: np.ndarray, cat_offsets: np.ndarray) -> float:
    """Per-step scalar: weighted numerics plus categorical label offsets."""
    v = float(np.dot(weights, numerics))
    for col, label in enumerate(cat_labels):
        v += float(cat_offsets[col, label])
    return v


def wafer_signal(step_values: list[float]) -> float:
    """Order-sensitive aggregate: the last step is weighted double."""
    return (sum(step_values) + step_values[-1]) / (len(step_values) + 1)


@dataclass
class SynthResult:
    sensor_path: Path
    metrology_path: Path
    limits_path: Path
    manifest_path: Path
    n_sensor_rows: int
    n_metrology_rows: int
    n_limit_rows: int
    n_sensor_duplicates: int      # rows written twice in a row, verbatim
    n_metrology_duplicates: int


def _fmt(x: float) -> str:
    return repr(float(x))


def _monitor_kqi(kqi: str) -> str:
    """The label of ``kqi`` on a monitor row: ingest's default marker after "KQI-"."""
    return kqi.replace("KQI-", f"KQI-{MONITOR_MARKER}-")


def generate(cfg: SynthConfig, out_dir) -> SynthResult:
    """Write sensor.csv, metrology.csv, limits.csv and truth_manifest.json.

    Rows are written batch by batch as they are made, beside their targets;
    the four files replace what ``out_dir`` held only once all are complete.
    On two or more cores a dataset of SPLIT_BATCHES batches or more is made in
    two processes (_write_batches), with the bytes of one.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)

    combos = [
        (f"KQI-{k + 1}", f"TYPE-{t + 1}", f"STG-{s + 1}")
        for k in range(cfg.n_kqi)
        for t in range(cfg.n_type)
        for s in range(cfg.n_stage)
    ]
    # Centers are drawn per (type, stage) and shared across KQIs: those two
    # labels appear identically in the monitor and non-monitor streams, so a
    # model trained on one stream can still place the other stream's rows.
    lo, hi = cfg.group_offset_lo, cfg.group_offset_hi
    ts_centers = {
        (f"TYPE-{t + 1}", f"STG-{s + 1}"): float(rng.uniform(lo, hi))
        for t in range(cfg.n_type)
        for s in range(cfg.n_stage)
    }
    group_centers = {combo: ts_centers[(combo[1], combo[2])] for combo in combos}
    weights = rng.uniform(-1.0, 1.0, size=cfg.n_numeric_sensors)
    cat_offsets = rng.uniform(
        -CAT_OFFSET_RANGE, CAT_OFFSET_RANGE,
        size=(cfg.n_sensor_categoricals, cfg.sensor_cat_vocab),
    )

    step_counts = sorted(cfg.step_weights)
    step_probs = np.array([cfg.step_weights[n] for n in step_counts], dtype=float)
    step_probs = step_probs / step_probs.sum()
    base_time = datetime(2022, 1, 1, 0, 0, 0)

    # Phase 1: batches of wafers with sensor readings, and the monitor wafer's signal.
    batches = []
    wafers_left = cfg.n_wafers
    b = 0
    while wafers_left > 0:
        size = min(cfg.wafers_per_batch, wafers_left)
        wafers_left -= size
        n_steps = int(rng.choice(step_counts, p=step_probs))
        monitor_numeric = rng.uniform(*NUMERIC_RANGE, size=(n_steps, cfg.n_numeric_sensors))
        cat_labels = rng.integers(0, cfg.sensor_cat_vocab,
                                  size=(n_steps, cfg.n_sensor_categoricals))
        signal = wafer_signal([step_value(monitor_numeric[t], list(cat_labels[t]), weights,
                                          cat_offsets) for t in range(n_steps)])
        numeric = np.empty((size, n_steps, cfg.n_numeric_sensors))
        numeric[0] = monitor_numeric
        for i in range(1, size):
            numeric[i] = monitor_numeric + rng.normal(
                0.0, SENSOR_JITTER_SD, size=monitor_numeric.shape)
        combo_pick = rng.choice(len(combos), size=cfg.measurements_per_wafer, replace=False)
        batches.append({
            "processing_id": f"P{b:06d}",
            "start": base_time + timedelta(minutes=197 * b),
            "signal": signal,
            "numeric": numeric,        # (wafers, steps, numeric columns); wafer 0 the monitor
            "cat_labels": cat_labels,  # (steps, categorical columns), shared by the wafers
            "combos": [combos[j] for j in sorted(combo_pick)],
            "equip": f"EQ-{int(rng.integers(cfg.n_equip)) + 1}",
        })
        b += 1

    # Phase 2: calibrate each group's affine map so that about fail_rate of
    # batch values land outside limits at +/- half_width around the center.
    half_width = 3.0 * cfg.noise_sd if cfg.noise_sd > 0 else FALLBACK_HALF_WIDTH
    group_signals: dict[tuple, list[float]] = {}
    for batch in batches:
        z = batch["signal"]
        for combo in batch["combos"]:
            group_signals.setdefault(combo, []).append(z)
    group_maps = {}
    for combo in combos:
        zs = np.array(group_signals.get(combo, [0.0]))
        center = group_centers[combo]
        z_mean = float(zs.mean())
        spread = float(np.quantile(np.abs(zs - z_mean), 1.0 - cfg.fail_rate))
        slope = half_width / max(spread, 1e-9)
        group_maps[combo] = {
            "slope": slope,
            "intercept": center - slope * z_mean,
            "lcl": center - half_width,
            "ucl": center + half_width,
        }

    sensor_path = out_dir / "sensor.csv"
    metrology_path = out_dir / "metrology.csv"
    limits_path = out_dir / "limits.csv"
    manifest_path = out_dir / "truth_manifest.json"
    sensor_header = SENSOR_ID_COLUMNS + cfg.numeric_columns + cfg.categorical_columns
    labelled = [(label, combo) for combo in combos for label in (combo[0], _monitor_kqi(combo[0]))]
    limit_rows = [[label, combo[1], combo[2], _fmt(group_maps[combo]["lcl"]),
                   _fmt(group_maps[combo]["ucl"])] for label, combo in labelled]
    manifest = {
        "mechanism": (
            "meas_med = slope*z + intercept + N(0, noise_sd), with z the "
            "monitor wafer's (v_1+...+v_{n-1}+2*v_n)/(n+1) and "
            "v_t = weights . numerics_t + cat_offsets; every wafer in a "
            "processing batch inherits the monitor value; passfail is derived "
            "from the noiseless value against the group limits"
        ),
        "sensor_weights": [float(v) for v in weights],
        "cat_offsets": {
            cfg.categorical_columns[c]: {
                f"CAT{c}-L{l}": float(cat_offsets[c, l])
                for l in range(cfg.sensor_cat_vocab)
            }
            for c in range(cfg.n_sensor_categoricals)
        },
        "noise_sd": cfg.noise_sd,
        "half_width": half_width,
        "groups": {
            "|".join((label, combo[1], combo[2])): {
                key: group_maps[combo][key] for key in ("slope", "intercept", "lcl", "ucl")
            }
            for label, combo in labelled
        },
        "config": {
            "n_wafers": cfg.n_wafers,
            "seed": cfg.seed,
            "fail_rate": cfg.fail_rate,
            "wafers_per_batch": cfg.wafers_per_batch,
        },
    }

    # Phase 3: measurement values, labels and CSV rows, written batch by
    # batch. Every file appears at its path only once all four are complete.
    with (atomic_open(sensor_path, "w", newline="", encoding="utf-8") as sensor_fh,
          atomic_open(metrology_path, "w", newline="", encoding="utf-8") as metrology_fh,
          atomic_open(limits_path, "w", newline="", encoding="utf-8") as limits_fh,
          atomic_open(manifest_path, "w", encoding="utf-8") as manifest_fh):
        sensor_fh.write(_csv_line(sensor_header))
        metrology_fh.write(_csv_line(METROLOGY_COLUMNS))
        counts = _write_batches(batches, group_maps, rng, cfg, sensor_fh, metrology_fh,
                                out_dir)
        limits_fh.write(_csv_line(LIMITS_COLUMNS))
        limits_fh.writelines(map(_csv_line, limit_rows))
        manifest_fh.write(json.dumps(manifest, sort_keys=True, indent=1))

    return SynthResult(
        sensor_path=sensor_path,
        metrology_path=metrology_path,
        limits_path=limits_path,
        manifest_path=manifest_path,
        n_sensor_rows=int(counts[0]),
        n_metrology_rows=int(counts[1]),
        n_limit_rows=len(limit_rows),
        n_sensor_duplicates=int(counts[2]),
        n_metrology_duplicates=int(counts[3]),
    )


def _write_batches(batches: list[dict], group_maps: dict, rng: np.random.Generator,
                   cfg: SynthConfig, sensor_fh, metrology_fh, out_dir: Path) -> np.ndarray:
    """Write the lines of every batch to the two open CSV files; returns the sensor and
    metrology line counts and their duplicate counts.

    On two or more cores, from SPLIT_BATCHES batches on, a forked process makes the
    lines of the second half into unnamed temporary files beside the CSVs while this
    process writes the first half's; they are copied on once both are done.
    """
    if len(batches) < SPLIT_BATCHES or host.cores() < 2:
        return _write_rows(batches, 0, len(batches), group_maps, rng, cfg, sensor_fh,
                           metrology_fh)
    half = (len(batches) + 1) // 2
    with (tempfile.TemporaryFile("w+", newline="", encoding="utf-8", dir=out_dir) as sensor_tail,
          tempfile.TemporaryFile("w+", newline="", encoding="utf-8", dir=out_dir) as metrology_tail,
          host.forked(_write_rows, batches, half, len(batches), group_maps, rng, cfg,
                      sensor_tail, metrology_tail) as tail_counts):
        counts = _write_rows(batches, 0, half, group_maps, rng, cfg, sensor_fh, metrology_fh)
        counts += tail_counts()
        for tail, fh in ((sensor_tail, sensor_fh), (metrology_tail, metrology_fh)):
            tail.seek(0)
            shutil.copyfileobj(tail.buffer, fh.buffer)
    return counts


def _write_rows(batches: list[dict], start: int, stop: int, group_maps: dict,
                rng: np.random.Generator, cfg: SynthConfig, sensor_fh,
                metrology_fh) -> np.ndarray:
    """Write the lines of ``batches[start:stop]`` to the two text files and flush them,
    after making and dropping the draws of the batches before ``start`` to bring ``rng``
    to the state the first of them starts from; returns the counts _write_batches returns.
    """
    for batch in batches[:start]:
        _batch_draws(batch, group_maps, rng, cfg)
    labels = [[f"CAT{c}-L{l}" for l in range(cfg.sensor_cat_vocab)]
              for c in range(cfg.n_sensor_categoricals)]
    limits = {combo: (_fmt(gmap["lcl"]), _fmt(gmap["ucl"])) for combo, gmap in group_maps.items()}
    counts = np.zeros(4, dtype=np.int64)  # sensor lines, metrology lines, their duplicates
    for batch in batches[start:stop]:
        draws = _batch_draws(batch, group_maps, rng, cfg)
        sensor_lines, metrology_lines, duplicates = _batch_lines(batch, draws, labels, limits,
                                                                 cfg)
        sensor_fh.writelines(sensor_lines)
        metrology_fh.writelines(metrology_lines)
        counts += (len(sensor_lines), len(metrology_lines), *duplicates)
    # a forked writer leaves through os._exit, which flushes nothing, and _write_batches
    # copies the second half's bytes in after the text written here
    sensor_fh.flush()
    metrology_fh.flush()
    return counts


def _batch_draws(batch: dict, group_maps: dict, rng: np.random.Generator,
                 cfg: SynthConfig) -> tuple[list, list[int], np.ndarray, list[list]]:
    """One batch's random draws, in the order of one scalar call per cell: the noise of
    each measured combo, then per wafer the product, each step's missing-cell draws and
    its duplicate draw, then per measurement the inspection, target and duplicate draws.

    Returns per combo the measured value and pass/fail label, per wafer the product
    number, the (wafers, steps, numeric + 1) missing-cell and duplicate draws, and per
    wafer the (inspection, has target, duplicated) of each measurement.
    """
    z = batch["signal"]
    measured = []
    for combo in batch["combos"]:
        gmap = group_maps[combo]
        clean = gmap["slope"] * z + gmap["intercept"]
        noise = float(rng.normal(0.0, cfg.noise_sd)) if cfg.noise_sd > 0 else 0.0
        measured.append((clean + noise, _FAIL_HI if clean > gmap["ucl"] else
                         _FAIL_LOW if clean < gmap["lcl"] else _PASS))
    n_wafers, n_steps, n = batch["numeric"].shape
    masks = np.empty((n_wafers, n_steps, n + 1))
    prods, outcomes, random = [], [], rng.random
    for w in range(n_wafers):
        prods.append(int(rng.integers(cfg.n_prod)))
        random(out=masks[w])
        wafer_outcomes = []
        for _, passfail in measured:
            if passfail == _PASS:
                inspection = OTHER_LABEL if random() < 0.02 else _NOT_INSPECTED
            elif random() < INSPECTED_FAIL_RATE:
                inspection = _REWORK if random() < 0.5 else _SCRAP
            else:
                inspection = _NOT_INSPECTED
            has_targ = random() < cfg.targ_rate
            wafer_outcomes.append((inspection, has_targ, random() < cfg.duplicate_row_rate))
        outcomes.append(wafer_outcomes)
    return measured, prods, masks, outcomes


def _batch_lines(batch: dict, draws: tuple, labels: list[list[str]],
                 limits: dict[tuple, tuple[str, str]],
                 cfg: SynthConfig) -> tuple[list[str], list[str], tuple[int, int]]:
    """One batch's sensor and metrology CSV lines from its _batch_draws, and how many of
    each are verbatim duplicates of the line before them. ``labels[c][l]`` is the cell of
    label ``l`` of categorical column ``c``; ``limits`` holds each combo's (lcl, ucl) cells.
    """
    measured, prods, masks, outcomes = draws
    pid = batch["processing_id"]
    n = cfg.n_numeric_sensors
    cells = list(map(repr, batch["numeric"].ravel().tolist()))
    for i in np.flatnonzero(masks[..., :n] < cfg.missing_cell_rate).tolist():
        cells[i] = ""
    duplicated = (masks[..., n] < cfg.duplicate_row_rate).tolist()
    step_labels = [[labels[c][l] for c, l in enumerate(step)]
                   for step in batch["cat_labels"].tolist()]
    per_combo = [(kqi, _monitor_kqi(kqi), mtype, stage, _fmt(value), passfail,
                  *limits[(kqi, mtype, stage)])
                 for (kqi, mtype, stage), (value, passfail) in zip(batch["combos"], measured)]
    sensor_lines: list[str] = []
    metrology_lines: list[str] = []
    n_sensor_dups = n_metrology_dups = 0
    k = 0  # the first cell of the step being written
    for w, (prod, wafer_dups, wafer_outcomes) in enumerate(zip(prods, duplicated, outcomes)):
        product_id = f"W{pid[1:]}-{w}"
        for t, (dup, cats) in enumerate(zip(wafer_dups, step_labels)):
            ts = batch["start"] + timedelta(minutes=13 * t, seconds=3 * w)
            line = _csv_line([pid, product_id, ts.isoformat(), *cells[k:k + n], *cats])
            k += n
            sensor_lines.append(line)
            if dup:
                sensor_lines.append(line)
                n_sensor_dups += 1
        prod = f"PROD-{prod + 1}"
        for (kqi, kqi_mon, mtype, stage, value, passfail, lcl, ucl), \
                (inspection, has_targ, dup) in zip(per_combo, wafer_outcomes):
            line = _csv_line([pid, product_id, kqi if w > 0 else kqi_mon, mtype, stage,
                              batch["equip"], prod, value, passfail, inspection,
                              lcl if has_targ else "", ucl if has_targ else ""])
            metrology_lines.append(line)
            if dup:
                metrology_lines.append(line)
                n_metrology_dups += 1
    return sensor_lines, metrology_lines, (n_sensor_dups, n_metrology_dups)


def _csv_line(cells: list[str]) -> str:
    """``csv.writer``'s bytes for a row of two or more cells, none of which
    holds a comma, a quote or a line break: no cell needs quoting."""
    return ",".join(cells) + "\r\n"
