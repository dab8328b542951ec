"""Row-list reference for the streamed synthetic generator.

This is the generator as it was before it streamed its rows: phase 3 holds
every sensor and metrology row as a Python list of cells, draws each cell's
missing mask with its own ``rng.random()`` call, formats each number with its
own ``repr`` and writes the tables through ``csv.writer`` at the end. The
equivalence test runs both generators on the same config and requires
byte-equal files.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from wafersense.synthgen import (
    CAT_OFFSET_RANGE,
    FALLBACK_HALF_WIDTH,
    INSPECTED_FAIL_RATE,
    NUMERIC_RANGE,
    SENSOR_JITTER_SD,
    SynthConfig,
    step_value,
    wafer_signal,
)


def _fmt(x: float) -> str:
    return repr(float(x))


def generate(cfg: SynthConfig, out_dir) -> None:
    """Write sensor.csv, metrology.csv, limits.csv and truth_manifest.json."""
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

    # Phase 1: batches of wafers with sensor readings and signals.
    batches = []
    wafers_left = cfg.n_wafers
    b = 0
    while wafers_left > 0:
        size = min(cfg.wafers_per_batch, wafers_left)
        wafers_left -= size
        n_steps = int(rng.choice(step_counts, p=step_probs))
        batch_start = base_time + timedelta(minutes=197 * b)
        monitor_numeric = rng.uniform(*NUMERIC_RANGE, size=(n_steps, cfg.n_numeric_sensors))
        cat_labels = rng.integers(0, cfg.sensor_cat_vocab,
                                  size=(n_steps, cfg.n_sensor_categoricals))
        wafers = []
        for i in range(size):
            if i == 0:
                numeric = monitor_numeric
            else:
                numeric = monitor_numeric + rng.normal(
                    0.0, SENSOR_JITTER_SD, size=monitor_numeric.shape)
            timestamps = [
                batch_start + timedelta(minutes=13 * t, seconds=3 * i)
                for t in range(n_steps)
            ]
            values = [
                step_value(numeric[t], list(cat_labels[t]), weights, cat_offsets)
                for t in range(n_steps)
            ]
            wafers.append({
                "product_id": f"W{b:06d}-{i}",
                "numeric": numeric,
                "cat_labels": cat_labels,
                "timestamps": timestamps,
                "signal": wafer_signal(values),
            })
        combo_pick = rng.choice(len(combos), size=cfg.measurements_per_wafer, replace=False)
        batches.append({
            "processing_id": f"P{b:06d}",
            "wafers": wafers,
            "combos": [combos[j] for j in sorted(combo_pick)],
            "equip": f"EQ-{int(rng.integers(cfg.n_equip)) + 1}",
        })
        b += 1

    # Phase 2: calibrate each group's affine map so that about fail_rate of
    # batch values land outside limits at +/- half_width around the center.
    half_width = 3.0 * cfg.noise_sd if cfg.noise_sd > 0 else FALLBACK_HALF_WIDTH
    group_signals: dict[tuple, list[float]] = {}
    for batch in batches:
        z = batch["wafers"][0]["signal"]
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

    # Phase 3: measurement values, labels, and CSV rows.
    sensor_rows = []
    metrology_rows = []
    for batch in batches:
        z = batch["wafers"][0]["signal"]
        per_combo = {}
        for combo in batch["combos"]:
            gmap = group_maps[combo]
            clean = gmap["slope"] * z + gmap["intercept"]
            noise = float(rng.normal(0.0, cfg.noise_sd)) if cfg.noise_sd > 0 else 0.0
            if clean > gmap["ucl"]:
                passfail = "FAIL_AVG_HI"
            elif clean < gmap["lcl"]:
                passfail = "FAIL_AVG_LOW"
            else:
                passfail = "PASS"
            per_combo[combo] = (clean + noise, passfail, gmap)
        for w_idx, wafer in enumerate(batch["wafers"]):
            prod = f"PROD-{int(rng.integers(cfg.n_prod)) + 1}"
            for t, ts in enumerate(wafer["timestamps"]):
                cells = [batch["processing_id"], wafer["product_id"], ts.isoformat()]
                for v in wafer["numeric"][t]:
                    cells.append("" if rng.random() < cfg.missing_cell_rate else _fmt(v))
                for col in range(cfg.n_sensor_categoricals):
                    cells.append(f"CAT{col}-L{int(wafer['cat_labels'][t, col])}")
                sensor_rows.append(cells)
                if rng.random() < cfg.duplicate_row_rate:
                    sensor_rows.append(list(cells))
            for combo, (value, passfail, gmap) in per_combo.items():
                kqi_label = combo[0] if w_idx > 0 else combo[0].replace("KQI-", "KQI-MON-")
                if passfail == "PASS":
                    inspection = "OTHER" if rng.random() < 0.02 else "NONE"
                else:
                    if rng.random() < INSPECTED_FAIL_RATE:
                        inspection = "REWORK" if rng.random() < 0.5 else "SCRAP"
                    else:
                        inspection = "NONE"
                has_targ = rng.random() < cfg.targ_rate
                cells = [
                    batch["processing_id"], wafer["product_id"], kqi_label,
                    combo[1], combo[2], batch["equip"], prod, _fmt(value),
                    passfail, inspection,
                    _fmt(gmap["lcl"]) if has_targ else "",
                    _fmt(gmap["ucl"]) if has_targ else "",
                ]
                metrology_rows.append(cells)
                if rng.random() < cfg.duplicate_row_rate:
                    metrology_rows.append(list(cells))

    sensor_path = out_dir / "sensor.csv"
    metrology_path = out_dir / "metrology.csv"
    limits_path = out_dir / "limits.csv"
    manifest_path = out_dir / "truth_manifest.json"

    sensor_header = ["processing_id", "product_id", "timestamp"]
    sensor_header += cfg.numeric_columns + cfg.categorical_columns
    _write_csv(sensor_path, sensor_header, sensor_rows)

    metrology_header = ["processing_id", "product_id", "kqi", "type", "stage",
                        "equipid", "prod", "meas_med", "passfail", "inspection",
                        "targ_min", "targ_max"]
    _write_csv(metrology_path, metrology_header, metrology_rows)

    limit_rows = []
    for combo in combos:
        gmap = group_maps[combo]
        for kqi_label in (combo[0], combo[0].replace("KQI-", "KQI-MON-")):
            limit_rows.append([kqi_label, combo[1], combo[2],
                               _fmt(gmap["lcl"]), _fmt(gmap["ucl"])])
    _write_csv(limits_path, ["kqi", "type", "stage", "lcl", "ucl"], limit_rows)

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
        "groups": {},
        "config": {
            "n_wafers": cfg.n_wafers,
            "seed": cfg.seed,
            "fail_rate": cfg.fail_rate,
            "wafers_per_batch": cfg.wafers_per_batch,
        },
    }
    for combo in combos:
        gmap = group_maps[combo]
        for kqi_label in (combo[0], combo[0].replace("KQI-", "KQI-MON-")):
            manifest["groups"]["|".join((kqi_label, combo[1], combo[2]))] = {
                "slope": gmap["slope"],
                "intercept": gmap["intercept"],
                "lcl": gmap["lcl"],
                "ucl": gmap["ucl"],
            }
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=1),
                             encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
