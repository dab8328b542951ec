from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wafersense.domain import (
    Inspection,
    MeasurementRecord,
    PassFail,
    SensorTimeStep,
    WaferId,
    WaferRecord,
)
from wafersense import preprocess as pp
from wafersense.train import TrainBucket, iter_epoch_batches


class TestDatetimeFeatures:
    def test_midnight_jan_first(self):
        assert pp.datetime_features(datetime(2021, 1, 1, 0, 0, 0)) == (0.0, 0.0)

    def test_noon(self):
        tod, _ = pp.datetime_features(datetime(2021, 3, 5, 12, 0, 0))
        assert tod == 0.5

    def test_mid_june_day_of_year(self):
        # June 15 is ordinal day 166 in a non-leap year
        _, doy = pp.datetime_features(datetime(2022, 6, 15, 8, 30, 0))
        assert doy == 165 / 366

    def test_stays_below_one_on_leap_year_end(self):
        _, doy = pp.datetime_features(datetime(2020, 12, 31, 23, 59, 59))
        assert 0.0 <= doy < 1.0


class TestDropDegenerate:
    def test_constant_column_dropped(self):
        assert pp.drop_degenerate_columns([[5.0, 5.0, 5.0]]) == []

    def test_all_missing_dropped(self):
        assert pp.drop_degenerate_columns([[None, None]]) == []
        assert pp.drop_degenerate_columns([[float("nan"), float("nan")]]) == []

    def test_varying_with_missing_kept(self):
        assert pp.drop_degenerate_columns([[1.0, None, 2.0]]) == [0]

    def test_categorical_columns(self):
        cols = [["A", "A", "A"], ["A", "B", "A"], ["", "", ""]]
        assert pp.drop_degenerate_columns(cols) == [1]


class TestMinMax:
    def test_basic(self):
        scaler = pp.FittedScaler.fit(np.array([[0.0], [5.0], [10.0]]))
        out = scaler.transform(np.array([[0.0], [5.0], [10.0]]))
        assert np.allclose(out.ravel(), [0.0, 0.5, 1.0])

    def test_no_clamping_outside_train_range(self):
        scaler = pp.FittedScaler.fit(np.array([[0.0], [10.0]]))
        assert scaler.transform(np.array([[20.0]]))[0, 0] == 2.0

    def test_negative_range(self):
        scaler = pp.FittedScaler.fit(np.array([[-3.0], [-1.0]]))
        assert np.allclose(scaler.transform(np.array([[-3.0], [-1.0]])).ravel(), [0.0, 1.0])

    def test_degenerate_column_rejected(self):
        with pytest.raises(pp.PreprocessError):
            pp.FittedScaler.fit(np.array([[1.0], [1.0]]))


class TestImpute:
    def test_fills_with_median(self):
        imputer = pp.FittedImputer.fit(np.array([[1.0], [np.nan], [3.0]]))
        out = imputer.transform(np.array([[np.nan]]))
        assert out[0, 0] == 2.0

    def test_even_count_median_is_middle_mean(self):
        imputer = pp.FittedImputer.fit(np.array([[1.0], [2.0], [3.0], [4.0]]))
        assert imputer.medians[0] == 2.5

    def test_no_missing_is_noop(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        imputer = pp.FittedImputer.fit(x)
        assert np.array_equal(imputer.transform(x), x)

    def test_all_missing_rejected(self):
        with pytest.raises(pp.PreprocessError):
            pp.FittedImputer.fit(np.array([[np.nan], [np.nan]]))


def meas(value: float, wid=WaferId("P", "W")) -> MeasurementRecord:
    return MeasurementRecord(
        id=wid, kqi="K", mtype="T", stage="S", equipid="E", prod="R",
        meas_med=value, passfail=PassFail.PASS, inspection=Inspection.NONE,
        targ_min=None, targ_max=None, is_monitor=False)


class TestOutlierFilter:
    def test_high_outlier_dropped(self):
        assert pp.filter_outlier_targets([meas(1500.0)]) == []

    def test_boundaries_kept(self):
        kept = pp.filter_outlier_targets([meas(1000.0), meas(-1.0)])
        assert [m.meas_med for m in kept] == [1000.0, -1.0]

    def test_just_outside_dropped(self):
        assert pp.filter_outlier_targets([meas(-1.0001), meas(1000.0001)]) == []


class TestOneHot:
    def setup_method(self):
        self.vocab = pp.OneHotVocabulary.fit([["a", "b", "c", "b"]])

    def test_known_label(self):
        assert np.array_equal(self.vocab.encode(0, "b"), [0, 1, 0, 0])

    def test_unseen_label_hits_unknown_slot(self):
        assert np.array_equal(self.vocab.encode(0, "d"), [0, 0, 0, 1])

    def test_empty_label_hits_unknown_slot(self):
        assert np.array_equal(self.vocab.encode(0, ""), [0, 0, 0, 1])

    @given(st.text(max_size=3))
    def test_rows_sum_to_one(self, label):
        assert self.vocab.encode(0, label).sum() == 1.0


class TestJoin:
    def test_paper_width_two_steps(self):
        sample = pp.join_wafer(np.zeros((2, 267)), np.zeros(552), 1.0,
                               WaferId("P", "W"), ("K", "T", "S"))
        assert sample.features.shape == (1086,)

    def test_paper_width_five_steps(self):
        sample = pp.join_wafer(np.zeros((5, 267)), np.zeros(552), 1.0,
                               WaferId("P", "W"), ("K", "T", "S"))
        assert sample.features.shape == (1887,)

    @settings(max_examples=30)
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
    def test_width_law_and_concat_oracle(self, n_steps, s, m, seed):
        rng = np.random.default_rng(seed)
        steps = rng.normal(size=(n_steps, s))
        meas_row = rng.normal(size=m)
        sample = pp.join_wafer(steps, meas_row, 0.0, WaferId("P", "W"), ("K", "T", "S"))
        assert sample.features.shape == (n_steps * s + m,)
        # independent oracle: plain python list concatenation
        oracle = []
        for row in steps.tolist():
            oracle.extend(row)
        oracle.extend(meas_row.tolist())
        assert sample.features.tolist() == oracle

    @settings(max_examples=30)
    @given(st.integers(1, 5), st.integers(1, 8), st.integers(1, 8), st.integers(0, 10_000))
    def test_unjoin_inverts_join(self, n_steps, s, m, seed):
        rng = np.random.default_rng(seed)
        steps = rng.normal(size=(n_steps, s))
        meas_row = rng.normal(size=m)
        sample = pp.join_wafer(steps, meas_row, 0.0, WaferId("P", "W"), ("K", "T", "S"))
        back_steps, back_meas = pp.unjoin(sample.features, n_steps, s, m)
        assert np.array_equal(back_steps, steps)
        assert np.array_equal(back_meas, meas_row)

    def test_unjoin_batch(self):
        batch = np.arange(2 * 8, dtype=float).reshape(2, 8)
        steps, meas_rows = pp.unjoin(batch, 2, 3, 2)
        assert steps.shape == (2, 2, 3)
        assert meas_rows.shape == (2, 2)
        assert np.array_equal(steps[1, 0], [8.0, 9.0, 10.0])

    def test_width_mismatch_rejected(self):
        with pytest.raises(pp.PreprocessError):
            pp.unjoin(np.zeros(10), 2, 3, 2)


def _epoch_batches(step_counts, batch_size, seed, epoch=1):
    """Training batches over one bucket per step count; sample i has target i."""
    buckets = []
    for n in sorted(set(step_counts)):
        ids = np.array([i for i, c in enumerate(step_counts) if c == n], dtype=np.float64)
        buckets.append(TrainBucket(n, np.zeros((len(ids), n, 1), np.float32),
                                   np.zeros((len(ids), 1), np.float32), ids,
                                   np.zeros(len(ids)), np.ones(len(ids))))
    return [(steps.shape[1], target.astype(int).tolist()) for steps, _, target, _, _
            in iter_epoch_batches(buckets, batch_size, seed, epoch)]


class TestBucketBatches:
    def test_homogeneous_batches(self):
        batches = _epoch_batches([2, 2, 3], 2, seed=0)
        assert sorted((n, len(ids)) for n, ids in batches) == [(2, 2), (3, 1)]

    def test_partial_batch_retained(self):
        batches = _epoch_batches([2] * 33, 16, seed=0)
        assert sorted(len(ids) for _, ids in batches) == [1, 16, 16]

    def test_deterministic(self):
        counts = [2, 3, 2, 2, 3, 1]
        assert _epoch_batches(counts, 2, seed=9) == _epoch_batches(counts, 2, seed=9)

    @settings(max_examples=25)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=30),
           st.integers(1, 7), st.integers(0, 100), st.integers(1, 5))
    def test_every_batch_homogeneous_and_partition(self, step_counts, batch_size, seed, epoch):
        batches = _epoch_batches(step_counts, batch_size, seed, epoch)
        for n, ids in batches:
            assert {step_counts[i] for i in ids} == {n}
            assert len(ids) <= batch_size
        assert sorted(i for _, ids in batches for i in ids) == list(range(len(step_counts)))


def build_wafers():
    base = datetime(2022, 3, 1, 6, 0, 0)
    wafers = []
    for i in range(6):
        wid = WaferId(f"P{i}", f"W{i}")
        steps = tuple(
            SensorTimeStep(
                timestamp=base + timedelta(hours=i, minutes=10 * t),
                numeric_readings=(float(i + t), 5.0 if i else None, 7.0),
                categorical_readings=("A" if i % 2 else "B", "X"),
            )
            for t in range(1 + i % 2)
        )
        measurements = (
            MeasurementRecord(
                id=wid, kqi=f"K{i % 2}", mtype="T", stage="S", equipid="E",
                prod="R", meas_med=float(i), passfail=PassFail.PASS,
                inspection=Inspection.NONE, targ_min=1.0, targ_max=9.0,
                is_monitor=(i % 3 == 0)),
        )
        wafers.append(WaferRecord(wid, steps, measurements))
    return wafers


class TestPipeline:
    def test_fit_apply_and_manifest_round_trip(self):
        wafers = build_wafers()
        train_meas = [m for w in wafers for m in w.measurements]
        pipeline = pp.fit_pipeline(wafers, train_meas,
                                   numeric_names=["n0", "n1", "n2"],
                                   sensor_cat_names=["c0", "c1"])
        # n2 is constant 7.0 and c1 is constant "X": both dropped
        assert 2 not in pipeline.kept_numeric
        assert pipeline.kept_sensor_cat == (0,)
        encoded = pipeline.encode_steps(wafers[0])
        assert encoded.shape == (1, pipeline.s_width)
        assert np.all(np.isfinite(encoded))

        rebuilt = pp.FeaturePipeline.from_manifest_dict(pipeline.to_manifest_dict())
        for w in wafers:
            assert np.allclose(rebuilt.encode_steps(w), pipeline.encode_steps(w))
            for m in w.measurements:
                assert np.array_equal(rebuilt.encode_measurement(m),
                                      pipeline.encode_measurement(m))

    def test_fitted_transforms_are_frozen(self):
        wafers = build_wafers()
        train_meas = [m for w in wafers for m in w.measurements]
        pipeline = pp.fit_pipeline(wafers[:4], train_meas,
                                   numeric_names=["n0", "n1", "n2"],
                                   sensor_cat_names=["c0", "c1"])
        before = pipeline.encode_steps(wafers[5])
        pipeline.encode_steps(wafers[4])  # applying elsewhere must not refit
        assert np.array_equal(pipeline.encode_steps(wafers[5]), before)

    def test_two_steps_three_measurements_gives_three_samples(self):
        wid = WaferId("P9", "W9")
        base = datetime(2022, 5, 1)
        steps = tuple(
            SensorTimeStep(base + timedelta(minutes=t), (float(t), 1.0 - t, 3.0), ("A", "X"))
            for t in range(2)
        )
        measurements = tuple(
            MeasurementRecord(
                id=wid, kqi=f"K{j}", mtype="T", stage="S", equipid="E", prod="R",
                meas_med=float(j), passfail=PassFail.PASS, inspection=Inspection.NONE,
                targ_min=None, targ_max=None, is_monitor=False)
            for j in range(3)
        )
        wafer = WaferRecord(wid, steps, measurements)
        helpers = build_wafers()
        pipeline = pp.fit_pipeline(helpers + [wafer],
                                   [m for w in helpers for m in w.measurements]
                                   + list(measurements),
                                   numeric_names=["n0", "n1", "n2"],
                                   sensor_cat_names=["c0", "c1"])
        buckets = pp.build_buckets([wafer], pipeline, {}, monitor_stream=False)
        assert list(buckets) == [2]
        assert len(buckets[2]) == 3

    def test_build_buckets_streams_and_metadata(self):
        wafers = build_wafers()
        train_meas = [m for w in wafers for m in w.measurements]
        pipeline = pp.fit_pipeline(wafers, train_meas,
                                   numeric_names=["n0", "n1", "n2"],
                                   sensor_cat_names=["c0", "c1"])
        limits = {("K0", "T", "S"): (0.0, 10.0), ("K1", "T", "S"): (0.0, 10.0)}
        non_mon = pp.build_buckets(wafers, pipeline, limits, monitor_stream=False)
        mon = pp.build_buckets(wafers, pipeline, limits, monitor_stream=True)
        total = sum(len(b) for b in non_mon.values()) + sum(len(b) for b in mon.values())
        assert total == len(train_meas)
        bucket = next(iter(non_mon.values()))
        # targ pair present, so limits resolve from it
        assert set(bucket.limit_source) == {"TARG"}
        assert np.all(bucket.lcl == 1.0)
        expected_width = bucket.n_steps * pipeline.s_width + pipeline.m_width
        assert bucket.features.shape[1] == expected_width

    def test_bucket_save_load_round_trip(self, tmp_path):
        wafers = build_wafers()
        train_meas = [m for w in wafers for m in w.measurements]
        pipeline = pp.fit_pipeline(wafers, train_meas,
                                   numeric_names=["n0", "n1", "n2"],
                                   sensor_cat_names=["c0", "c1"])
        buckets = pp.build_buckets(wafers, pipeline, {}, monitor_stream=False)
        n, bucket = next(iter(buckets.items()))
        path = tmp_path / pp.bucket_filename("reg", "train", n)
        pp.save_bucket(path, bucket)
        loaded = pp.load_bucket(path)
        assert np.array_equal(loaded.features, bucket.features)
        assert np.array_equal(loaded.kqi, bucket.kqi)
        assert np.array_equal(loaded.lcl, bucket.lcl)  # targ pair resolved limits
