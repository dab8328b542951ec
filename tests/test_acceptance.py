"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 6 trains the
small model on a 5000-wafer synthetic dataset and takes a few minutes; the
rest are near-instant.
"""

import csv
import json
import time
from collections import defaultdict

import numpy as np
import pytest

from wafersense import ingest, preprocess
from wafersense.cli import RunConfig
from wafersense.evaluate import (
    DEFAULT_F_GRID,
    GroupingReport,
    recall_fpr_sweep,
    relative_error,
)
from wafersense.nn import ArchConfig, backward, forward, init_params, param_count
from wafersense.normgroups import NormalizationGroup, denormalize, normalize_target
from wafersense.train import RELossConfig, re_loss

from conftest import run_cli, write_config


def ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_parameter_count_oracle():
    small = param_count(ArchConfig.small(sensor_dim=267, meas_dim=552))
    large = param_count(ArchConfig.large(sensor_dim=267, meas_dim=552))
    assert small == 406_273
    assert large == 16_095_233
    assert abs(small - 0.4e6) / 0.4e6 < 0.05
    assert abs(large - 16e6) / 16e6 < 0.05
    ok(1, f"small={small} (~0.4M), large={large} (~16M)")


def test_criterion_2_gradient_correctness():
    h = 1e-5
    worst = 0.0
    cfg = ArchConfig(sensor_dim=6, meas_dim=3, d=4, mlp_hidden=5)
    for seed in range(10):
        n = [1, 2, 3][seed % 3]
        params = init_params(cfg, seed=seed, dtype=np.float64)
        rng = np.random.default_rng(500 + seed)
        for _, arr in params.arrays():
            arr += rng.normal(0.0, 0.1, size=arr.shape)
        steps = rng.normal(size=(n, 6))
        meas = rng.normal(size=3)
        _, trace = forward(params, steps, meas)
        grads = backward(params, trace, 1.0)
        for name, arr in params.arrays():
            flat = arr.reshape(-1)
            gflat = getattr(grads, name).reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up, _ = forward(params, steps, meas)
                flat[k] = orig - h
                down, _ = forward(params, steps, meas)
                flat[k] = orig
                fd = (up - down) / (2.0 * h)
                worst = max(worst, abs(fd - gflat[k]) / max(abs(fd), abs(gflat[k]), 1e-8))
    assert worst < 1e-4
    ok(2, f"max relative gradient error {worst:.2e} < 1e-4 over 10 configs")


def test_criterion_3_loss_identities():
    rng = np.random.default_rng(0)
    c = 10.0
    ys = rng.uniform(-200, 200, 10_000)
    y_hats = rng.uniform(-200, 200, 10_000)
    for y, y_hat in zip(ys, y_hats):
        loss = re_loss(y_hat, y, RELossConfig(c=c))
        record = relative_error(y_hat, y)
        if abs(y) >= c:
            assert loss == record.eta
        else:
            assert loss == record.epsilon / c
    worst = 0.0
    for _ in range(10_000):
        b1 = rng.uniform(-100, 100)
        g = NormalizationGroup(("K", "T", "S"), b1, b1 + rng.uniform(1e-3, 1e3))
        y = rng.uniform(-1e5, 1e5)
        back = denormalize(normalize_target(y, g), g)
        worst = max(worst, abs(back - y) / max(1.0, abs(y)))
    assert worst <= 1e-9
    ok(3, f"re_loss piecewise identity on 10k pairs; round trip error {worst:.1e} <= 1e-9")


def test_criterion_4_grouping_partition_and_published_arithmetic():
    rng = np.random.default_rng(1)
    for n in (1, 10, 1000):
        counts = [0] * 6
        for _ in range(n):
            counts[relative_error(rng.normal(0, 30), rng.normal(0, 30)).group - 1] += 1
        assert sum(counts) == n
    report = GroupingReport.from_counts([2554, 2859, 257, 68, 10, 1])
    assert report.total == 5749
    assert report.decent_rate == 5413 / 5749
    assert round(100 * report.decent_rate, 2) == 94.16
    ok(4, "groups partition every sample; published row gives 5413/5749 = 94.16%")


def test_criterion_5_sweep_monotonicity():
    rng = np.random.default_rng(2)
    for trial in range(200):
        n = int(rng.integers(5, 200))
        y_hat = rng.normal(5, rng.uniform(0.5, 8), n)
        truth = rng.random(n) < rng.uniform(0.05, 0.5)
        lcl = rng.uniform(-3, 3, n)
        ucl = lcl + rng.uniform(0.5, 12, n)
        rows = recall_fpr_sweep(y_hat, truth, lcl, ucl, DEFAULT_F_GRID)
        recalls = [r.recall for r in rows]
        fprs = [r.fpr for r in rows]
        for a, b in zip(recalls, recalls[1:]):
            if not (np.isnan(a) or np.isnan(b)):
                assert a <= b
        for a, b in zip(fprs, fprs[1:]):
            if not (np.isnan(a) or np.isnan(b)):
                assert a <= b
    assert [r.f for r in rows] == [0.0, 0.1, 0.2, 0.3, 0.35, 0.4]
    ok(5, "recall and FPR non-decreasing over f grid {0,0.1,0.2,0.3,0.35,0.4} "
          "on 200 random prediction sets")


FULL_CONFIG = """\
[synth]
n_wafers = 5000
seed = 7

[train]
max_epochs = 60
patience = 10
seed = 1
"""


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """The criterion-6 pipeline: 5000 wafers, LSTM-small, RE loss."""
    root = tmp_path_factory.mktemp("full_run")
    cfg = write_config(root, FULL_CONFIG)
    started = time.monotonic()
    assert run_cli("generate", "--config", cfg, "--out", root / "data") == 0
    assert run_cli("preprocess", "--config", cfg, "--data", root / "data",
                   "--out", root / "features") == 0
    assert run_cli("train", "--config", cfg, "--features", root / "features",
                   "--out", root / "model.npz") == 0
    assert run_cli("evaluate", "--config", cfg, "--checkpoint", root / "model.npz",
                   "--features", root / "features", "--out", root / "reports") == 0
    elapsed = time.monotonic() - started
    return {"root": root, "elapsed": elapsed}


def test_criterion_6_end_to_end_learnability(full_run):
    root = full_run["root"]
    rows = list(csv.reader(open(root / "reports" / "grouping.csv")))
    counts = [int(r[1]) for r in rows[1:7]]
    decent_rate = float(rows[7][1])
    assert decent_rate >= 0.90
    history = list(csv.DictReader(open(root / "model_history.csv")))
    best_val = min(float(r["val_loss"]) for r in history)
    assert best_val < 0.05
    assert full_run["elapsed"] < 900
    ok(6, f"decent rate {100 * decent_rate:.2f}% >= 90% on held-out test "
          f"(groups {counts}, best val loss {best_val:.4f}, "
          f"{full_run['elapsed']:.0f}s < 900s)")


def test_criterion_7_loss_comparison_protocol(tiny_run, tmp_path):
    features = tiny_run["features"]
    grouping_rows = {}
    for loss in ("re", "nl1"):
        model = tmp_path / f"model_{loss}.npz"
        reports = tmp_path / f"reports_{loss}"
        assert run_cli("train", "--config", tiny_run["config"], "--features", features,
                       "--out", model, "--loss", loss) == 0
        assert run_cli("evaluate", "--config", tiny_run["config"], "--checkpoint", model,
                       "--features", features, "--out", reports) == 0
        rows = list(csv.reader(open(reports / "grouping.csv")))
        counts = [int(r[1]) for r in rows[1:7]]
        assert len(counts) == 6 and sum(counts) > 0
        grouping_rows[loss] = counts
    assert set(grouping_rows) == {"re", "nl1"}
    ok(7, f"RE row {grouping_rows['re']} and NL1 row {grouping_rows['nl1']} "
          "emitted from the same synthetic data")


def test_criterion_8_join_width_law(tiny_run):
    cfg_obj = RunConfig.load(tiny_run["config"])
    manifest = json.loads((tiny_run["features"] / "manifest.json").read_text())
    pipeline = preprocess.FeaturePipeline.from_manifest_dict(manifest)
    s, m = manifest["s_width"], manifest["m_width"]

    cat_cols = cfg_obj.sensor_categorical_columns()
    sensor_raw = ingest.load_table(tiny_run["data"] / "sensor.csv",
                                   ingest.SENSOR_ID_COLUMNS + cat_cols)
    metrology_raw = ingest.load_table(tiny_run["data"] / "metrology.csv",
                                      ingest.METROLOGY_LABELS, ingest.METROLOGY_NUMBERS)
    wafers = ingest.assemble_wafers(
        ingest.parse_sensor_table(sensor_raw, cat_cols),
        ingest.parse_metrology_table(metrology_raw))

    seen = defaultdict(int)
    for wafer in wafers:
        step_rows = pipeline.encode_steps(wafer)
        meas_row = pipeline.encode_measurement(wafer.measurements[0])
        sample = preprocess.join_wafer(step_rows, meas_row, 0.0, wafer.id,
                                       wafer.measurements[0].group_key)
        n = wafer.n_steps
        assert sample.features.shape == (n * s + m,)
        oracle = []
        for row in step_rows.tolist():
            oracle.extend(row)
        oracle.extend(meas_row.tolist())
        assert sample.features.tolist() == oracle
        seen[n] += 1
    assert set(seen) == {1, 2, 3, 4, 5}
    ok(8, f"width = n_steps*{s}+{m} and matches the concatenation oracle for "
          f"{sum(seen.values())} wafers across n_steps 1..5")


DET_CONFIG = """\
[synth]
n_wafers = 160
seed = 13
fail_rate = 0.05

[train]
max_epochs = 2
patience = 10
seed = 5
"""

REPORT_FILES = ("reports/report.txt", "reports/grouping.csv", "reports/sweep.csv",
                "reports/plot_recall_fpr.csv", "model_history.csv")


def test_criterion_9_determinism(tmp_path):
    digests = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        cfg = write_config(root, DET_CONFIG)
        assert run_cli("generate", "--config", cfg, "--out", root / "data") == 0
        assert run_cli("preprocess", "--config", cfg, "--data", root / "data",
                       "--out", root / "features") == 0
        assert run_cli("train", "--config", cfg, "--features", root / "features",
                       "--out", root / "model.npz") == 0
        assert run_cli("evaluate", "--config", cfg, "--checkpoint", root / "model.npz",
                       "--features", root / "features", "--out", root / "reports") == 0
        digests.append({name: (root / name).read_bytes() for name in REPORT_FILES})
    assert digests[0] == digests[1]
    ok(9, "two generate->preprocess->train->evaluate runs produced "
          "byte-identical reports")
