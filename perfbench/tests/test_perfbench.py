"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every workload runs end to end at a tiny size through the same checks as
the full-size run, and each check is shown to fail on a corrupted output.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
import workloads
from wafersense import cli, evaluate, nn, preprocess

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_passes_every_check(workload):
    out = bench("--workload", workload, "--seed", 3, "--seconds", 0.5, "--tiny", "--trace", 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= workloads.WORKLOADS[workload].min_rounds
    assert out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", ["train_c6", "score_nl1"])
def test_traced_run_reports_every_per_layer_metric(workload):
    out = bench("--workload", workload, "--seed", 4, "--seconds", 0.5, "--tiny", "--trace", 1)
    assert out["correct"] is True
    assert out["attempted"] % 2 == 0  # untraced and traced rounds in pairs
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units("per_layer")
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["nn.forward_batch.calls"] > 0 and m["blas.threads"] >= 1
    if workload == "train_c6":
        assert m["train.epochs"] == workloads.TINY.c6_epochs
        assert m["train.steps"] > 0 and m["train.adam_step.ms.later"] > 0
    else:
        assert m["evaluate.rows_graded"] > 0 and m["train.steps"] == 0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "prep_20k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""


# corrupted outputs

@pytest.fixture(scope="module")
def scored(tmp_path_factory):
    """Tiny data, features, an NL1 checkpoint and its reports."""
    root = tmp_path_factory.mktemp("scored")
    cfg = workloads.write_config(root / "run.cfg", workloads.TINY, 400, 5, 1, 2)
    for argv in (["generate", "--config", cfg, "--out", root / "data"],
                 ["preprocess", "--config", cfg, "--data", root / "data",
                  "--out", root / "features"],
                 ["train", "--config", cfg, "--features", root / "features",
                  "--out", root / "model.npz", "--loss", "nl1"],
                 ["evaluate", "--config", cfg, "--checkpoint", root / "model.npz",
                  "--features", root / "features", "--out", root / "reports"]):
        assert cli.main([str(a) for a in argv]) == 0
    return root


@pytest.fixture
def copy(scored, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(scored, dst)
    return dst


def predictor(root):
    s, m = checks.widths(checks.read_manifest(root / "features"))
    return workloads.model_predictor(__import__("wafersense"), root / "model.npz", s, m)


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def rewrite_bucket(path, edit):
    b = checks.load_bucket(path)
    edit(b)
    with open(path, "wb") as fh:
        np.savez(fh, **b)


def first_bucket(root, stream="reg", split="train"):
    return checks.bucket_paths(root / "features", stream, split)[0]


def test_scores_pass_on_program_output(scored):
    graded = checks.check_scores(scored / "features", scored / "reports", predictor(scored),
                                 normalized=True)
    assert graded > 0


def test_band_count_off_by_one_fails(copy):
    def edit(rows):
        rows[1][1] = str(int(rows[1][1]) + 1)
    rewrite_csv(copy / "reports" / "grouping.csv", edit)
    with pytest.raises(checks.CheckFailed, match="grouping.csv"):
        checks.check_scores(copy / "features", copy / "reports", predictor(copy), True)


def test_recall_falling_with_f_fails(copy):
    def edit(rows):
        rows[-1][1] = "-1.0"
    rewrite_csv(copy / "reports" / "sweep.csv", edit)
    with pytest.raises(checks.CheckFailed, match="recall falls"):
        checks.check_scores(copy / "features", copy / "reports", predictor(copy), True)


def test_confusion_total_off_fails(copy):
    def edit(rows):
        rows[2][6] = str(int(rows[2][6]) + 1)
    rewrite_csv(copy / "reports" / "sweep.csv", edit)
    with pytest.raises(checks.CheckFailed, match=r"tp\+fn\+fp\+tn"):
        checks.check_scores(copy / "features", copy / "reports", predictor(copy), True)


def test_true_fail_labels_disagreeing_fails(copy):
    def edit(b):
        b["passfail"] = np.full_like(b["passfail"], "FAIL_AVG_HI")
        b["inspection"] = np.full_like(b["inspection"], "SCRAP")
        b["target"] = b["ucl"] + 1.0
    for path in checks.bucket_paths(copy / "features", "pf", "test"):
        rewrite_bucket(path, edit)
    with pytest.raises(checks.CheckFailed, match=r"tp\+fn"):
        checks.check_scores(copy / "features", copy / "reports", predictor(copy), True)


def test_non_finite_prediction_fails(copy):
    with pytest.raises(checks.CheckFailed, match="non-finite prediction"):
        checks.check_scores(copy / "features", copy / "reports",
                            lambda n, b: np.full(len(b["target"]), np.nan), True)


def test_feature_checks_pass_on_program_output(scored):
    checks.check_features(scored / "data", scored / "features")
    checks.check_manifest_rows(scored / "features", preprocess.load_split)


def test_bucket_row_of_wrong_width_fails(copy):
    def edit(b):
        b["features"] = np.concatenate([b["features"], b["features"][:, :1]], axis=1)
    rewrite_bucket(first_bucket(copy), edit)
    with pytest.raises(checks.CheckFailed, match="wide"):
        checks.check_features(copy / "data", copy / "features")


def test_scaled_feature_out_of_range_fails(copy):
    def edit(b):
        b["features"][0, 0] = 1.5
    rewrite_bucket(first_bucket(copy), edit)
    with pytest.raises(checks.CheckFailed, match=r"\[0, 1\]"):
        checks.check_features(copy / "data", copy / "features")


def test_one_hot_block_with_two_ones_fails(copy):
    def edit(b):
        b["features"][0, -1] = 1.0
        b["features"][0, -2] = 1.0
    rewrite_bucket(first_bucket(copy), edit)
    with pytest.raises(checks.CheckFailed, match="one-hot"):
        checks.check_features(copy / "data", copy / "features")


def test_wafer_missing_from_buckets_fails(copy):
    with open(copy / "data" / "sensor.csv", newline="") as fh:
        header = next(csv.reader(fh))
    with open(copy / "data" / "sensor.csv", "a", newline="") as fh:
        row = {c: "" for c in header}
        row.update(processing_id="EXTRA", product_id="EXTRA", timestamp="2024-01-01T00:00:00")
        csv.writer(fh).writerow([row[c] for c in header])
    with open(copy / "data" / "metrology.csv", newline="") as fh:
        header = next(csv.reader(fh))
    with open(copy / "data" / "metrology.csv", "a", newline="") as fh:
        row = {c: "" for c in header}
        row.update(processing_id="EXTRA", product_id="EXTRA", meas_med="1.0")
        csv.writer(fh).writerow([row[c] for c in header])
    with pytest.raises(checks.CheckFailed, match="wafers"):
        checks.check_features(copy / "data", copy / "features")


def test_stale_bucket_file_fails(copy):
    stale = copy / "features" / preprocess.bucket_filename("reg", "train", 9)
    shutil.copy(first_bucket(copy), stale)
    with pytest.raises(checks.CheckFailed, match="reg_train"):
        checks.check_manifest_rows(copy / "features", preprocess.load_split)


def test_param_count_matches_closed_form_and_catches_a_missing_row(copy):
    s, m = checks.widths(checks.read_manifest(copy / "features"))
    checks.check_param_count(copy / "model.npz", s, m, 128, 256)
    with np.load(copy / "model.npz") as data:
        arrays = {k: data[k] for k in data.files}
    arrays["mlp1_b"] = arrays["mlp1_b"][:-1]
    with open(copy / "model.npz", "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(checks.CheckFailed, match="closed form"):
        checks.check_param_count(copy / "model.npz", s, m, 128, 256)


def test_closed_form_matches_program_presets():
    for preset, (d, h) in workloads.PRESETS.items():
        arch = nn.ArchConfig.preset(preset, 38, 22)
        assert checks.closed_form_param_count(38, 22, d, h) == nn.param_count(arch)
    assert checks.closed_form_param_count(38, 22, 128, 256) == 241281


def test_non_finite_loss_in_history_fails(copy):
    path = copy / "model_history.csv"
    checks.check_history(path, 1)

    def edit(rows):
        rows[1][2] = "nan"
    rewrite_csv(path, edit)
    with pytest.raises(checks.CheckFailed, match="val_loss"):
        checks.check_history(path, 1)


def test_decent_rate_below_bound_fails(scored):
    shift = lambda n, b: b["target"] + 50.0  # every prediction off by 50: band 6
    with pytest.raises(checks.CheckFailed, match="decent rate"):
        checks.check_decent_rate(scored / "features", shift, 0.9)
    exact = lambda n, b: b["target"]
    assert checks.check_decent_rate(scored / "features", exact, 0.9) == 1.0


def test_grade_bands_agrees_with_program_scalar_grading():
    rng = np.random.default_rng(0)
    y = rng.normal(0, 5, 4000)
    y[:50] = 0.0
    y_hat = y + rng.normal(0, 1, 4000) * rng.choice([0.01, 0.3, 3, 30], 4000)
    want = np.bincount([evaluate.relative_error(a, b).group - 1 for a, b in zip(y_hat, y)],
                       minlength=6)
    assert checks.grade_bands(y_hat, y).tolist() == want.tolist()


def test_differing_rounds_fail():
    checks.check_identical([{"a": "1"}, {"a": "1"}], "x")
    with pytest.raises(checks.CheckFailed, match="round 2"):
        checks.check_identical([{"a": "1"}, {"a": "2"}], "x")


def test_ledger_catches_different_outputs_for_same_inputs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "LEDGER", tmp_path / "ledger.json")
    run.ledger_check({"k": 1}, {"checkpoint": "aa"})
    run.ledger_check({"k": 1}, {"checkpoint": "aa"})
    run.ledger_check({"k": 2}, {"checkpoint": "bb"})
    with pytest.raises(checks.CheckFailed, match="earlier run"):
        run.ledger_check({"k": 1}, {"checkpoint": "bb"})


# tracer

def test_removed_function_is_reported_missing(monkeypatch):
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (
        ("wafersense.train", "no_such_function", "train.no_such_function"),))
    t = tracer.Tracer()
    t.install()
    try:
        assert "wafersense.train.no_such_function" in t.missing
    finally:
        t.uninstall()
    assert not hasattr(cli.fit, "__wrapped__")


def test_subnormal_count_reads_any_layout():
    tiny = np.finfo(np.float32).tiny
    m = np.array([0.0, tiny / 4, -tiny / 8, 1.0, tiny], dtype=np.float32)

    class Flat:
        pass
    flat = Flat()
    flat.m = m
    assert tracer.count_subnormal_m(flat) == 2
    assert tracer.count_subnormal_m({"m": {"a": m, "b": [m[:2]]}}) == 3
    assert tracer.count_subnormal_m(object()) is None


def test_spans_nest_and_self_time_excludes_children(scored):
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(["evaluate", "--config", str(scored / "run.cfg"),
                         "--checkpoint", str(scored / "model.npz"),
                         "--features", str(scored / "features"),
                         "--out", str(scored / "reports_traced")]) == 0
    finally:
        t.uninstall()
    names = {s.name for s in t.spans}
    assert {"cli.evaluate", "evaluate.predict_bucket", "nn.forward_batch",
            "nn.load_checkpoint"} <= names
    by_id = {s.id: s for s in t.spans}
    for s in t.spans:
        if s.name == "nn.forward_batch":
            assert by_id[s.parent].name == "evaluate.predict_bucket"
    own = t.self_times()
    assert all(o >= -1e-9 for o in own)
    top = next(s for s in t.spans if s.name == "cli.evaluate")
    assert own[top.id] < top.end - top.start
    layers, not_reached = t.layer_metrics(1)
    assert layers["evaluate.rows_graded"] > 0
    assert "train.steps" in not_reached
