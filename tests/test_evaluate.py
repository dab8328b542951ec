import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wafersense.cli import ConfigError, RunConfig
from wafersense.domain import ControlLimits, DomainError
from wafersense.evaluate import (
    DEFAULT_F_GRID,
    GROUP_THRESHOLDS,
    EvaluationError,
    GroupingReport,
    SweepRow,
    error_bands,
    grade_errors,
    grouping_report,
    label_fail_arrays,
    predict_bucket,
    predict_fail_arrays,
    recall_fpr_sweep,
    relative_error,
    write_grouping_csv,
    write_sweep_csv,
)
from wafersense.nn import ArchConfig, forward_batch, init_params
from wafersense.preprocess import BUCKET_ARRAY_KEYS, Bucket

LIMITS = ControlLimits(lcl=0.0, ucl=10.0, source="LCL_UCL")


class TestRelativeError:
    def test_perfect(self):
        e = relative_error(5.0, 5.0)
        assert (e.eta, e.epsilon) == (0.0, 0.0)

    def test_basic(self):
        e = relative_error(11.0, 10.0)
        assert e.eta == pytest.approx(0.1)
        assert e.epsilon == pytest.approx(1.0)

    def test_zero_truth_gives_infinite_eta(self):
        e = relative_error(0.2, 0.0)
        assert math.isinf(e.eta)
        assert e.epsilon == pytest.approx(0.2)


def band(eta: float, epsilon: float) -> int:
    return error_bands(np.array([eta]), np.array([epsilon])).item()


class TestAssignGroup:
    def test_relative_branch(self):
        assert band(eta=0.004, epsilon=2.0) == 1

    def test_absolute_branch_at_zero_truth(self):
        assert band(eta=float("inf"), epsilon=0.05) == 1

    def test_group5(self):
        assert band(eta=0.6, epsilon=7.0) == 5

    def test_group6(self):
        assert band(eta=1.5, epsilon=20.0) == 6

    def test_thresholds_are_strict(self):
        # exactly at the group-1 thresholds: both comparisons fail, lands in 2
        assert band(eta=0.01, epsilon=0.1) == 2

    @given(st.floats(0, 3), st.floats(0, 30))
    def test_exactly_one_group(self, eta, epsilon):
        assert band(eta, epsilon) in range(1, 7)

    @given(st.floats(0, 3), st.floats(0, 30), st.floats(0, 30))
    def test_smaller_epsilon_never_worsens_group(self, eta, e1, e2):
        lo, hi = sorted([e1, e2])
        assert band(eta, lo) <= band(eta, hi)

    def test_rows_graded_like_one_at_a_time(self):
        rng = np.random.default_rng(3)
        y_hat, y = rng.normal(0, 30, 300), rng.normal(0, 30, 300)
        y[:5] = 0.0
        eta, epsilon, bands = grade_errors(y_hat, y)
        assert np.isinf(eta[:5]).all()
        for i in range(300):
            e = relative_error(y_hat[i], y[i])
            assert (e.eta, e.epsilon, e.group) == (eta[i], epsilon[i], bands[i])
            assert e.group == next((k for k, (rel, ab) in enumerate(GROUP_THRESHOLDS, 1)
                                    if e.eta < rel or e.epsilon < ab), 6)


class TestGroupingReport:
    def test_all_perfect(self):
        report = grouping_report([3.0] * 7, [3.0] * 7)
        assert report.counts == (7, 0, 0, 0, 0, 0)
        assert report.decent_rate == 1.0

    def test_one_sample_per_group(self):
        y_hat = [
            100.0,   # group 1
            104.0,   # group 2: eta 4%
            107.0,   # group 3: eta 7%
            120.0,   # group 4: eta 20%
            170.0,   # group 5: eta 70%
            300.0,   # group 6
        ]
        report = grouping_report(y_hat, [100.0] * 6)
        assert report.counts == (1, 1, 1, 1, 1, 1)
        assert report.decent_rate == pytest.approx(1 / 3)

    def test_partition_sums_to_total(self):
        rng = np.random.default_rng(0)
        report = grouping_report(rng.normal(0, 50, 500), rng.normal(0, 50, 500))
        assert report.total == 500

    def test_published_re_row_arithmetic(self):
        report = GroupingReport.from_counts([2554, 2859, 257, 68, 10, 1])
        assert report.total == 5749
        assert report.decent_rate == 5413 / 5749
        assert round(100 * report.decent_rate, 2) == 94.16

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            grouping_report([], [])


def label_fail(passfail: str, inspection: str, value: float) -> bool:
    return label_fail_arrays(np.array([passfail]), np.array([inspection]),
                             np.array([value]), LIMITS.lcl, LIMITS.ucl).item()


class TestLabelFailWafer:
    def test_all_three_conditions_met(self):
        assert label_fail("FAIL_AVG_HI", "REWORK", 12.0) is True

    def test_missing_inspection_blocks(self):
        assert label_fail("FAIL_AVG_HI", "NONE", 12.0) is False

    def test_pass_label_blocks_even_with_scrap(self):
        assert label_fail("PASS", "SCRAP", 5.0) is False

    def test_inside_limits_blocks(self):
        assert label_fail("FAIL_AVG_LOW", "SCRAP", 5.0) is False

    def test_below_lcl_counts(self):
        assert label_fail("FAIL_AVG_LOW", "SCRAP", -2.0) is True


def predict_fail(y_hat: float, b1_star: float, b2_star: float, f: float) -> bool:
    return predict_fail_arrays(np.array([y_hat]), b1_star, b2_star, f).item()


class TestPredictFail:
    def test_boundary_is_fail_at_f_zero(self):
        assert predict_fail(10.0, 0.0, 10.0, f=0.0) is True

    def test_center_passes_at_f_035(self):
        # interval shrinks to (3.5, 6.5)
        assert predict_fail(5.0, 0.0, 10.0, f=0.35) is False

    def test_shrunken_boundary_is_fail(self):
        assert predict_fail(3.5, 0.0, 10.0, f=0.35) is True

    def test_f_zero_reduces_to_outside_control_limits(self):
        rng = np.random.default_rng(0)
        y = rng.uniform(-5, 15, 200)
        got = predict_fail_arrays(y, np.zeros(200), np.full(200, 10.0), 0.0)
        assert np.array_equal(got, (y <= 0.0) | (y >= 10.0))

    def test_invalid_predicates_rejected(self):
        # b1* < b2* holds for every resolved limit pair, f in [0, 0.5) for every f grid
        with pytest.raises(DomainError):
            ControlLimits(5.0, 5.0, "LCL_UCL")
        with pytest.raises(ConfigError):
            RunConfig().f_grid("0.1,0.5")


class TestSweep:
    def test_all_predicted_fail(self):
        y = np.array([100.0, 100.0, 100.0, 100.0])
        truth = np.array([True, True, False, False])
        rows = recall_fpr_sweep(y, truth, np.zeros(4), np.full(4, 10.0), [0.0])
        assert rows[0].recall == 1.0
        assert rows[0].fpr == 1.0

    def test_confusion_arithmetic(self):
        # tp=2 fn=2 fp=1 tn=7 -> recall 0.5, fpr 0.125
        y = np.array([12.0, 12.0, 5.0, 5.0, -1.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0])
        truth = np.array([True] * 4 + [False] * 8)
        rows = recall_fpr_sweep(y, truth, np.zeros(12), np.full(12, 10.0), [0.0])
        assert (rows[0].tp, rows[0].fn, rows[0].fp, rows[0].tn) == (2, 2, 1, 7)
        assert rows[0].recall == 0.5
        assert rows[0].fpr == 0.125

    def test_monotone_over_default_grid(self):
        rng = np.random.default_rng(42)
        n = 400
        y = rng.normal(5, 4, n)
        truth = rng.random(n) < 0.1
        rows = recall_fpr_sweep(y, truth, np.zeros(n), np.full(n, 10.0),
                                DEFAULT_F_GRID)
        recalls = [r.recall for r in rows]
        fprs = [r.fpr for r in rows]
        assert recalls == sorted(recalls)
        assert fprs == sorted(fprs)

    @given(st.integers(0, 1000))
    def test_monotone_for_any_prediction_set(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        y = rng.normal(5, 6, n)
        truth = rng.random(n) < 0.3
        lcl = rng.uniform(-2, 2, n)
        rows = recall_fpr_sweep(y, truth, lcl, lcl + rng.uniform(1, 10, n),
                                DEFAULT_F_GRID)
        for a, b in zip(rows, rows[1:]):
            if not (math.isnan(a.recall) or math.isnan(b.recall)):
                assert a.recall <= b.recall
            assert a.fpr <= b.fpr

    def test_no_positives_yields_nan_recall_with_warning(self, caplog):
        y = np.array([5.0, 5.0])
        rows = recall_fpr_sweep(y, np.array([False, False]),
                                np.zeros(2), np.full(2, 10.0), [0.0])
        with caplog.at_level("WARNING"):
            assert math.isnan(rows[0].recall)
        assert "recall undefined" in caplog.text

    def test_rows_sorted_by_f(self):
        y = np.array([5.0])
        rows = recall_fpr_sweep(y, np.array([True]), np.zeros(1), np.ones(1),
                                [0.3, 0.0, 0.2])
        assert [r.f for r in rows] == [0.0, 0.2, 0.3]


class TestDenormalizeBucket:
    def test_missing_group_masks_sample(self):
        from wafersense.evaluate import denormalize_bucket
        from wafersense.normgroups import NormalizationGroup
        from wafersense.preprocess import Bucket

        bucket = Bucket(
            n_steps=1,
            features=np.zeros((2, 3), dtype=np.float32),
            target=np.array([1.0, 2.0]),
            kqi=np.array(["K", "UNSEEN"]),
            mtype=np.array(["T", "T"]),
            stage=np.array(["S", "S"]),
            passfail=np.array(["PASS", "PASS"]),
            inspection=np.array(["NONE", "NONE"]),
            lcl=np.zeros(2),
            ucl=np.ones(2),
            limit_source=np.array(["TARG", "TARG"]),
            processing_id=np.array(["P", "P"]),
            product_id=np.array(["W1", "W2"]),
        )
        groups = {("K", "T", "S"): NormalizationGroup(("K", "T", "S"), 10.0, 20.0)}
        y_hat, keep = denormalize_bucket(np.array([0.5, 0.5]), bucket, groups)
        assert keep.tolist() == [True, False]
        assert y_hat[0] == 15.0


def test_predict_bucket_equals_untraced_forward_over_512_row_chunks():
    # the benchmark's score check recomputes the bands from forward calls on 512-row
    # slices and compares counts exactly. A small-preset model on wafer runs of 3 rows,
    # so a cut anywhere else regroups the runs and moves some prediction's last bits.
    s, m, n_steps, wafers = 38, 22, 3, 400
    params = init_params(ArchConfig.small(s, m), seed=5)
    rng = np.random.default_rng(0)
    steps = np.repeat(rng.uniform(size=(wafers, n_steps * s)), 3, axis=0)
    rows = len(steps)
    features = np.hstack([steps, rng.uniform(size=(rows, m))]).astype(np.float32)
    strings = np.full(rows, "x")
    bucket = Bucket(n_steps=n_steps, features=features, target=np.zeros(rows),
                    lcl=np.zeros(rows), ucl=np.ones(rows),
                    **{key: strings for key in BUCKET_ARRAY_KEYS if key not in
                       ("features", "target", "lcl", "ucl")})
    steps, meas = features[:, :n_steps * s].reshape(rows, n_steps, s), features[:, n_steps * s:]
    want = np.concatenate([forward_batch(params, steps[sl], meas[sl], want_trace=False)[0]
                           for sl in (slice(0, 512), slice(512, 1024), slice(1024, rows))])
    assert predict_bucket(params, bucket).tobytes() == want.tobytes()


def test_report_text_includes_diagnostics_lines():
    from wafersense.evaluate import format_report_text

    text = format_report_text(GroupingReport.from_counts([1, 0, 0, 0, 0, 0]), [],
                              {"passfail_samples_without_limits": 3})
    assert "diagnostics: passfail_samples_without_limits = 3" in text
    assert "decent predictions: 1/1" in text


class TestReportFiles:
    def test_grouping_csv(self, tmp_path):
        report = GroupingReport.from_counts([5, 3, 1, 0, 0, 1])
        path = tmp_path / "grouping.csv"
        write_grouping_csv(path, report)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "group,count"
        assert lines[1] == "1,5"
        assert lines[-1] == f"decent_rate,{8 / 10!r}"

    def test_sweep_csv(self, tmp_path):
        rows = [SweepRow(f=0.0, tp=1, fn=1, fp=2, tn=6)]
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "f,recall,fpr,tp,fn,fp,tn"
        assert lines[1] == "0.0,0.5,0.25,1,1,2,6"
