import json
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wafersense import preprocess as pp
from wafersense.ingest import datetime_features
from wafersense.train import TrainBucket, iter_epoch_batches

from conftest import TINY_CONFIG, examples, run_cli, wafer_table, wall_us, write_config
from truthref import truth_values


def features_of(timestamp: datetime) -> tuple[float, float]:
    tod, doy = datetime_features(np.array([wall_us(timestamp)]))
    return tod[0], doy[0]


class TestDatetimeFeatures:
    def test_midnight_jan_first(self):
        assert features_of(datetime(2021, 1, 1, 0, 0, 0)) == (0.0, 0.0)

    def test_noon(self):
        tod, _ = features_of(datetime(2021, 3, 5, 12, 0, 0))
        assert tod == 0.5

    def test_mid_june_day_of_year(self):
        # June 15 is ordinal day 166 in a non-leap year
        _, doy = features_of(datetime(2022, 6, 15, 8, 30, 0))
        assert doy == 165 / 366

    def test_stays_below_one_on_leap_year_end(self):
        _, doy = features_of(datetime(2020, 12, 31, 23, 59, 59))
        assert 0.0 <= doy < 1.0


class TestDropDegenerate:
    def test_constant_column_dropped(self):
        assert pp.drop_degenerate_columns([[5.0, 5.0, 5.0]]) == []

    def test_all_missing_dropped(self):
        assert pp.drop_degenerate_columns([["", ""]]) == []
        assert pp.drop_degenerate_columns([[float("nan"), float("nan")]]) == []

    def test_varying_with_missing_kept(self):
        assert pp.drop_degenerate_columns([[1.0, float("nan"), 2.0]]) == [0]

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


def outlier_kept(*values: float) -> list[float]:
    """meas_med values the outlier filter keeps, of one training wafer."""
    table = wafer_table([(("P", "W"), [(datetime(2022, 1, 1), (1.0, 2.0, 3.0), ("A", "X"))],
                          [dict(meas_med=v) for v in values])])
    return pp.filter_outlier_targets(table, np.array([0])).measurements.meas_med.tolist()


class TestOutlierFilter:
    def test_high_outlier_dropped(self):
        assert outlier_kept(1500.0) == []

    def test_boundaries_kept(self):
        assert outlier_kept(1000.0, -1.0) == [1000.0, -1.0]

    def test_just_outside_dropped(self):
        assert outlier_kept(-1.0001, 1000.0001) == []


class TestOneHot:
    def setup_method(self):
        self.vocab = pp.OneHotVocabulary.fit([["a", "b", "c", "b"]])

    def encode(self, label):
        return self.vocab.encode(np.array([[label]], dtype=object))[0]

    def test_known_label(self):
        assert np.array_equal(self.encode("b"), [0, 1, 0, 0])

    def test_unseen_label_hits_unknown_slot(self):
        assert np.array_equal(self.encode("d"), [0, 0, 0, 1])

    def test_empty_label_hits_unknown_slot(self):
        assert np.array_equal(self.encode(""), [0, 0, 0, 1])

    @given(st.text(max_size=3))
    def test_rows_sum_to_one(self, label):
        assert self.encode(label).sum() == 1.0


class TestJoin:
    def test_paper_width_two_steps(self):
        sample = pp.join_wafer(np.zeros((2, 267)), np.zeros(552), 1.0,
                               ("P", "W"), ("K", "T", "S"))
        assert sample.features.shape == (1086,)

    def test_paper_width_five_steps(self):
        sample = pp.join_wafer(np.zeros((5, 267)), np.zeros(552), 1.0,
                               ("P", "W"), ("K", "T", "S"))
        assert sample.features.shape == (1887,)

    @settings(max_examples=examples(30))
    @given(st.integers(0, 4), st.integers(1, 5), st.integers(1, 8), st.integers(1, 8),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 10_000))
    def test_width_law_and_concat_oracle(self, batch, n_steps, s, m, dtype, seed):
        rng = np.random.default_rng(seed)
        steps = rng.normal(size=(batch, n_steps, s)).astype(dtype)
        meas_rows = rng.normal(size=(batch, m)).astype(dtype)
        features = pp.join(steps, meas_rows)
        assert features.shape == (batch, n_steps * s + m) and features.dtype == dtype
        for i in range(batch):
            # independent oracle: plain python list concatenation
            oracle = []
            for row in steps[i].tolist():
                oracle.extend(row)
            oracle.extend(meas_rows[i].tolist())
            assert features[i].tolist() == oracle
            sample = pp.join_wafer(steps[i], meas_rows[i], 0.0, ("P", "W"), ("K", "T", "S"))
            assert sample.n_steps == n_steps
            assert np.array_equal(sample.features, features[i])

    @settings(max_examples=examples(30))
    @given(st.integers(0, 4), st.integers(1, 5), st.integers(1, 8), st.integers(1, 8),
           st.integers(0, 10_000))
    def test_unjoin_inverts_join(self, batch, n_steps, s, m, seed):
        rng = np.random.default_rng(seed)
        steps = rng.normal(size=(batch, n_steps, s))
        meas_rows = rng.normal(size=(batch, m))
        features = pp.join(steps, meas_rows)
        back_steps, back_meas = pp.unjoin(features, n_steps, s, m)
        assert np.array_equal(back_steps, steps)
        assert np.array_equal(back_meas, meas_rows)
        for i in range(batch):
            back_steps, back_meas = pp.unjoin(features[i], n_steps, s, m)
            assert np.array_equal(back_steps, steps[i])
            assert np.array_equal(back_meas, meas_rows[i])

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
                                   np.ones(len(ids))))
    return [(steps.shape[1], target.astype(int).tolist()) for steps, _, target, _
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


def wafer_spec(i):
    base = datetime(2022, 3, 1, 6, 0, 0)
    steps = [(base + timedelta(hours=i, minutes=10 * t), (float(i + t), 5.0 if i else None, 7.0),
              ("A" if i % 2 else "B", "X")) for t in range(1 + i % 2)]
    meas = [dict(kqi=f"K{i % 2}", meas_med=float(i), targ_min=1.0, targ_max=9.0,
                 is_monitor=i % 3 == 0)]
    return (f"P{i}", f"W{i}"), steps, meas


def build_wafers(*extra):
    return wafer_table([wafer_spec(i) for i in range(6)] + list(extra))


ALL = np.arange(6)


class TestPipeline:
    def test_fit_apply_and_manifest_round_trip(self):
        wafers = build_wafers()
        pipeline = pp.fit_pipeline(wafers, ALL)
        # n2 is constant 7.0 and c1 is constant "X": both dropped
        assert 2 not in pipeline.kept_numeric
        assert pipeline.kept_sensor_cat == (0,)
        first = list(wafers)[0]
        encoded = pipeline.encode_steps(first)
        assert encoded.shape == (1, pipeline.s_width)
        assert np.all(np.isfinite(encoded))

        rebuilt = pp.FeaturePipeline.from_manifest_dict(pipeline.to_manifest_dict())
        for w in wafers:
            assert np.allclose(rebuilt.encode_steps(w), pipeline.encode_steps(w))
            for m in w.measurements:
                assert np.array_equal(rebuilt.encode_measurement(m),
                                      pipeline.encode_measurement(m))

    def test_fitted_transforms_are_frozen(self):
        wafers = list(build_wafers())
        pipeline = pp.fit_pipeline(wafers[0].table, ALL[:4])
        before = pipeline.encode_steps(wafers[5])
        pipeline.encode_steps(wafers[4])  # applying elsewhere must not refit
        assert np.array_equal(pipeline.encode_steps(wafers[5]), before)

    def test_two_steps_three_measurements_gives_three_samples(self):
        base = datetime(2022, 5, 1)
        steps = [(base + timedelta(minutes=t), (float(t), 1.0 - t, 3.0), ("A", "X"))
                 for t in range(2)]
        measurements = [dict(kqi=f"K{j}", meas_med=float(j)) for j in range(3)]
        wafers = build_wafers((("P9", "W9"), steps, measurements))
        pipeline = pp.fit_pipeline(wafers, np.arange(7))
        buckets = pp.build_buckets(wafers, np.array([6]), pipeline, {}, monitor_stream=False)
        assert list(buckets) == [2]
        assert len(buckets[2]) == 3

    def test_build_buckets_streams_and_metadata(self):
        wafers = build_wafers()
        pipeline = pp.fit_pipeline(wafers, ALL)
        limits = {("K0", "T", "S"): (0.0, 10.0), ("K1", "T", "S"): (0.0, 10.0)}
        non_mon = pp.build_buckets(wafers, ALL, pipeline, limits, monitor_stream=False)
        mon = pp.build_buckets(wafers, ALL, pipeline, limits, monitor_stream=True)
        total = sum(len(b) for b in non_mon.values()) + sum(len(b) for b in mon.values())
        assert total == len(wafers.measurements)
        bucket = next(iter(non_mon.values()))
        # targ pair present, so limits resolve from it
        assert set(bucket.limit_source) == {"TARG"}
        assert np.all(bucket.lcl == 1.0)
        expected_width = bucket.n_steps * pipeline.s_width + pipeline.m_width
        assert bucket.features.shape[1] == expected_width

    def test_bucket_save_load_round_trip(self, tmp_path):
        wafers = build_wafers()
        pipeline = pp.fit_pipeline(wafers, ALL)
        buckets = pp.build_buckets(wafers, ALL, pipeline, {}, monitor_stream=False)
        n, bucket = next(iter(buckets.items()))
        path = tmp_path / pp.bucket_filename("reg", "train", n)
        pp.save_bucket(path, bucket)
        loaded = pp.load_bucket(path)
        assert np.array_equal(loaded.features, bucket.features)
        assert np.array_equal(loaded.kqi, bucket.kqi)
        assert np.array_equal(loaded.lcl, bucket.lcl)  # targ pair resolved limits


def test_tiny_buckets_hold_each_wafer_as_one_run_of_equal_step_blocks(tiny_run):
    # the untraced forward encodes each run of adjacent bit-equal step blocks once,
    # so a bucket order that scattered a wafer's rows would lose that saving
    manifest, _ = pp.read_manifest(tiny_run["features"])
    s_width = pp.FeaturePipeline.from_manifest_dict(manifest).s_width
    rows = wafers = 0
    for key in manifest["bucket_sizes"]:
        for bucket in pp.load_split(tiny_run["features"], *key.split("_")):
            wafer = np.char.add(np.char.add(bucket.processing_id, "\0"), bucket.product_id)
            new_wafer = wafer[1:] != wafer[:-1]
            steps = bucket.features[:, :bucket.n_steps * s_width].view(np.uint32)
            new_steps = (steps[1:] != steps[:-1]).any(axis=1)
            assert len(np.unique(wafer)) == 1 + np.count_nonzero(new_wafer), key
            assert np.array_equal(new_steps, new_wafer), key
            rows, wafers = rows + len(bucket), wafers + len(np.unique(wafer))
    assert rows > wafers > 0


# A product wafer's sensors are its batch's monitor wafer's plus jitter, while its value is
# the monitor's, so the oracle misses product rows by what the jitter moves z. Measured once
# on this config: max |error| 0.1046 (train), 0.0740 (val), 0.0345 (test), mean 0.015-0.019.
PRODUCT_ROW_BOUND = 0.105


def test_feature_files_carry_the_generators_noiseless_value(tmp_path):
    # without noise or missing cells, each bucket row's target is the value truthref forms
    # from its own features: a shifted column, a wrong scaler column or one-hot slot, or a
    # target paired with another wafer's features moves it
    cfg = write_config(tmp_path, TINY_CONFIG.replace(
        "[synth]\n", "[synth]\nnoise_sd = 0\nmissing_cell_rate = 0\n"))
    data, features = tmp_path / "data", tmp_path / "features"
    assert run_cli("generate", "--config", cfg, "--out", data) == 0
    assert run_cli("preprocess", "--config", cfg, "--data", data, "--out", features) == 0
    manifest, _ = pp.read_manifest(features)
    truth = json.loads((data / "truth_manifest.json").read_text(encoding="utf-8"))
    for stream, bound in ((pp.STREAM_PASSFAIL, 1e-6), (pp.STREAM_REGRESSION, PRODUCT_ROW_BOUND)):
        for split in ("train", "val", "test"):
            errors = np.concatenate([np.abs(truth_values(bucket, manifest, truth) - bucket.target)
                                     for bucket in pp.load_split(features, stream, split)])
            assert len(errors), (stream, split)
            assert np.all(errors <= bound), (stream, split, np.max(errors))
