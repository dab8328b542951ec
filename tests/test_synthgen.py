import csv
import errno
import json
import os
import signal
import tempfile
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wafersense import synthgen
from wafersense.synthgen import SynthConfig, generate, step_value, wafer_signal

import synthref
from conftest import pin_cores, recording_forks

OUTPUT_FILES = ("sensor.csv", "metrology.csv", "limits.csv", "truth_manifest.json")


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestConfigValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SynthConfig(n_wafers=10, step_weights={2: 0.5, 3: 0.4})

    def test_step_counts_bounded(self):
        with pytest.raises(ValueError, match="1..5"):
            SynthConfig(n_wafers=10, step_weights={6: 1.0})

    @pytest.mark.parametrize("kwargs, message", [
        # wafers_per_batch = 0 made phase 1 loop forever; the others raised inside numpy
        (dict(wafers_per_batch=0), "wafers_per_batch must be >= 1"),
        (dict(measurements_per_wafer=13), r"measurements_per_wafer must be in \[1, "
                                          r"n_kqi\*n_type\*n_stage = 12\]"),
        (dict(n_kqi=2, measurements_per_wafer=-1), "= 8"),
        (dict(n_kqi=0), "n_kqi must be >= 1"),
        (dict(n_type=0), "n_type must be >= 1"),
        (dict(n_stage=0), "n_stage must be >= 1"),
        (dict(n_equip=0), "n_equip must be >= 1"),
        (dict(n_prod=0), "n_prod must be >= 1"),
        (dict(sensor_cat_vocab=0), "sensor_cat_vocab must be >= 1"),
        (dict(n_numeric_sensors=-1), "n_numeric_sensors must be >= 0"),
        (dict(n_sensor_categoricals=-1), "n_sensor_categoricals must be >= 0"),
        (dict(missing_cell_rate=1.01), r"missing_cell_rate must be in \[0, 1\]"),
        (dict(duplicate_row_rate=-0.1), r"duplicate_row_rate must be in \[0, 1\]"),
        (dict(targ_rate=float("nan")), r"targ_rate must be in \[0, 1\]"),
        (dict(noise_sd=-0.2), "noise_sd must be finite and >= 0"),
        (dict(noise_sd=float("inf")), "noise_sd must be finite and >= 0"),
        (dict(group_offset_lo=3.0, group_offset_hi=1.0), "group_offset_lo and group_offset_hi"),
        # 0 wrote a header-only metrology.csv that preprocess then refused
        (dict(measurements_per_wafer=0), r"measurements_per_wafer must be in \[1, "),
    ])
    def test_values_that_hang_or_crash_generate_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SynthConfig(n_wafers=10, **kwargs)

    def test_edge_values_accepted(self):
        SynthConfig(n_wafers=1, n_numeric_sensors=0, n_sensor_categoricals=0,
                    measurements_per_wafer=1, missing_cell_rate=1.0, duplicate_row_rate=1.0,
                    targ_rate=0.0, noise_sd=0.0, group_offset_lo=2.0, group_offset_hi=2.0)
        SynthConfig(n_wafers=10, measurements_per_wafer=12)

    def test_defaults_mass_on_two_and_three(self):
        cfg = SynthConfig(n_wafers=10)
        assert cfg.step_weights[2] + cfg.step_weights[3] > 0.5


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = SynthConfig(n_wafers=40, seed=5)
        a = generate(cfg, tmp_path / "a")
        b = generate(cfg, tmp_path / "b")
        for name in ("sensor_path", "metrology_path", "limits_path", "manifest_path"):
            assert getattr(a, name).read_bytes() == getattr(b, name).read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate(SynthConfig(n_wafers=40, seed=5), tmp_path / "a")
        b = generate(SynthConfig(n_wafers=40, seed=6), tmp_path / "b")
        assert a.sensor_path.read_bytes() != b.sensor_path.read_bytes()


STEP_WEIGHTS = [synthgen.DEFAULT_STEP_WEIGHTS, {1: 1.0}, {5: 1.0}, {2: 0.5, 4: 0.5},
                {1: 0.2, 2: 0.2, 3: 0.2, 4: 0.2, 5: 0.2}]


@st.composite
def small_configs(draw):
    """Small configs over every [synth] key, edge rates and empty column sets included."""
    rate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    n_kqi = draw(st.integers(1, 3))
    n_type = draw(st.integers(1, 2))
    n_stage = draw(st.integers(1, 2))
    lo = draw(st.floats(-5.0, 5.0))
    return SynthConfig(
        n_wafers=draw(st.integers(1, 150)),
        seed=draw(st.integers(0, 2**32 - 1)),
        step_weights=draw(st.sampled_from(STEP_WEIGHTS)),
        n_numeric_sensors=draw(st.integers(0, 30)),
        n_sensor_categoricals=draw(st.integers(0, 3)),
        sensor_cat_vocab=draw(st.integers(1, 4)),
        n_kqi=n_kqi, n_type=n_type, n_stage=n_stage,
        n_equip=draw(st.integers(1, 4)),
        n_prod=draw(st.integers(1, 4)),
        wafers_per_batch=draw(st.integers(1, 9)),
        measurements_per_wafer=draw(st.integers(1, n_kqi * n_type * n_stage)),
        noise_sd=draw(st.sampled_from([0.0, 0.2, 1.5])),
        fail_rate=draw(st.floats(0.0, 0.49)),
        missing_cell_rate=draw(rate),
        duplicate_row_rate=draw(rate),
        targ_rate=draw(rate),
        group_offset_lo=lo, group_offset_hi=lo + draw(st.floats(0.0, 4.0)),
    )


def assert_matches_reference(cfg):
    """``generate`` writes the reference's bytes, no stray file, and counts its rows and
    duplicates as the files hold them."""
    with tempfile.TemporaryDirectory() as tmp:
        result = generate(cfg, Path(tmp) / "streamed")
        synthref.generate(cfg, Path(tmp) / "reference")
        for name in OUTPUT_FILES:
            assert ((Path(tmp) / "streamed" / name).read_bytes()
                    == (Path(tmp) / "reference" / name).read_bytes()), name
        assert sorted(p.name for p in (Path(tmp) / "streamed").iterdir()) == sorted(OUTPUT_FILES)
        sensor = read_rows(result.sensor_path)
        metrology = read_rows(result.metrology_path)
    assert (result.n_sensor_rows, result.n_metrology_rows) == (len(sensor), len(metrology))
    assert result.n_sensor_duplicates == len(sensor) - len({tuple(r.values()) for r in sensor})
    assert (result.n_metrology_duplicates
            == len(metrology) - len({tuple(r.values()) for r in metrology}))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
def test_generate_matches_row_list_reference(cfg):
    assert_matches_reference(cfg)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(small_configs())
@example(SynthConfig(n_wafers=3, seed=1, wafers_per_batch=4))  # one batch: none for the child
@example(SynthConfig(n_wafers=5, seed=2, wafers_per_batch=1, n_numeric_sensors=0,
                     duplicate_row_rate=1.0))  # an odd batch count
@example(SynthConfig(n_wafers=9, seed=3, wafers_per_batch=2, missing_cell_rate=1.0,
                     duplicate_row_rate=0.0))  # no duplicates, every number cell empty
def test_generate_in_two_processes_matches_row_list_reference(cfg):
    """With two cores and a threshold of one batch, every run forks once and writes the
    reference's bytes."""
    with pytest.MonkeyPatch.context() as patch:
        pin_cores(patch, 2)
        patch.setattr(synthgen, "SPLIT_BATCHES", 1)
        pids = recording_forks(patch)
        assert_matches_reference(cfg)
    assert len(pids) == 1


@pytest.mark.parametrize("case", ["one core", "under SPLIT_BATCHES"])
def test_generate_forks_nothing(tmp_path, monkeypatch, case):
    cfg = SynthConfig(n_wafers=4 * synthgen.SPLIT_BATCHES - 4, seed=4)  # 4 wafers a batch
    pids = recording_forks(monkeypatch)
    if case == "one core":
        monkeypatch.setattr(synthgen, "SPLIT_BATCHES", 1)
    pin_cores(monkeypatch, 1 if case == "one core" else 2)
    generate(cfg, tmp_path)
    assert pids == []
    if case == "under SPLIT_BATCHES":  # one batch more is made in two processes
        generate(SynthConfig(n_wafers=4 * synthgen.SPLIT_BATCHES, seed=4), tmp_path)
        assert len(pids) == 1


def no_space(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_run_leaves_earlier_dataset_untouched(tmp_path, monkeypatch):
    generate(SynthConfig(n_wafers=40, seed=1), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real = synthgen._batch_lines
    calls = []

    def fail_on_third_batch(*args):
        calls.append(sorted(p.name for p in tmp_path.glob(".*.tmp")))
        if len(calls) == 3:
            raise OSError("no space left on device")
        return real(*args)

    monkeypatch.setattr(synthgen, "_batch_lines", fail_on_third_batch)
    with pytest.raises(OSError, match="no space"):
        generate(SynthConfig(n_wafers=40, seed=2), tmp_path)
    assert len(calls[-1]) == 4  # the run was writing beside all four files
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    # the same with the failure in the second half, made by the forked process
    caller = os.getpid()
    monkeypatch.setattr(synthgen, "_batch_lines",
                        lambda *args: (real if os.getpid() == caller else no_space)(*args))
    monkeypatch.setattr(synthgen, "SPLIT_BATCHES", 1)
    pin_cores(monkeypatch, 2)
    pids = recording_forks(monkeypatch)
    with pytest.raises(OSError, match="No space"):
        generate(SynthConfig(n_wafers=40, seed=2), tmp_path)
    assert len(pids) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestTwoProcessGenerate:
    """However a two-process run ends, its second process is reaped, and a run that fails
    leaves no temporary file and an earlier dataset as it was."""

    CFG = SynthConfig(n_wafers=40, seed=2)  # 10 batches: the second process makes P000005-9

    @pytest.mark.parametrize("ending", ["returned", "raised in the parent's half",
                                        "raised in the child's half", "interrupted",
                                        "child killed"])
    def test_child_is_reaped_however_the_run_ends(self, tmp_path, monkeypatch, ending):
        generate(SynthConfig(n_wafers=40, seed=1), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        caller, real = os.getpid(), synthgen._batch_lines

        def ending_batch_lines(batch, *args):
            last = batch["processing_id"] == "P000009"
            if ending == "raised in the parent's half" and os.getpid() == caller:
                no_space()
            if ending == "raised in the child's half" and last:
                no_space()
            if ending == "interrupted" and os.getpid() == caller:
                raise KeyboardInterrupt
            if ending == "child killed" and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(batch, *args)

        monkeypatch.setattr(synthgen, "_batch_lines", ending_batch_lines)
        monkeypatch.setattr(synthgen, "SPLIT_BATCHES", 1)
        pin_cores(monkeypatch, 2)
        pids = recording_forks(monkeypatch)
        if ending == "returned":
            generate(self.CFG, tmp_path)
            pin_cores(monkeypatch, 1)
            generate(self.CFG, tmp_path / "one")
            assert all((tmp_path / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
                       for name in OUTPUT_FILES)
        elif ending == "raised in the child's half":
            with pytest.raises(OSError) as two:
                generate(self.CFG, tmp_path)
            pin_cores(monkeypatch, 1)
            with pytest.raises(OSError) as one:
                generate(self.CFG, tmp_path)
            assert (type(two.value), str(two.value)) == (type(one.value), str(one.value))
        else:
            error, message = {"raised in the parent's half": (OSError, "No space"),
                              "interrupted": (KeyboardInterrupt, None),
                              "child killed": (RuntimeError, None)}[ending]
            with pytest.raises(error, match=message) as raised:
                generate(self.CFG, tmp_path)
            if ending == "child killed":
                assert f"(pid {pids[0]})" in str(raised.value)
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list(tmp_path.rglob("*.tmp")) == []
        if ending != "returned":
            assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestNoiselessOracle:
    def test_meas_med_matches_manifest_formula(self, tmp_path):
        cfg = SynthConfig(n_wafers=60, seed=3, noise_sd=0.0,
                          missing_cell_rate=0.0, duplicate_row_rate=0.0)
        result = generate(cfg, tmp_path)
        manifest = json.loads(result.manifest_path.read_text())
        weights = np.array(manifest["sensor_weights"])
        offsets = manifest["cat_offsets"]

        sensors = defaultdict(list)
        for row in read_rows(result.sensor_path):
            sensors[(row["processing_id"], row["product_id"])].append(row)

        checked = 0
        for row in read_rows(result.metrology_path):
            if "MON" not in row["kqi"]:
                continue  # the monitor wafer's own signal defines the value
            steps = sensors[(row["processing_id"], row["product_id"])]
            steps.sort(key=lambda r: r["timestamp"])
            values = []
            for step in steps:
                numerics = np.array([float(step[c]) for c in cfg.numeric_columns])
                v = float(np.dot(weights, numerics))
                for col in cfg.categorical_columns:
                    v += offsets[col][step[col]]
                values.append(v)
            z = wafer_signal(values)
            gmap = manifest["groups"]["|".join((row["kqi"], row["type"], row["stage"]))]
            expected = gmap["slope"] * z + gmap["intercept"]
            assert float(row["meas_med"]) == expected
            checked += 1
        assert checked > 0

    def test_noiseless_labels_consistent_with_limits(self, tmp_path):
        cfg = SynthConfig(n_wafers=400, seed=4, noise_sd=0.0)
        result = generate(cfg, tmp_path)
        limits = {
            (r["kqi"], r["type"], r["stage"]): (float(r["lcl"]), float(r["ucl"]))
            for r in read_rows(result.limits_path)
        }
        seen_fail = False
        for row in read_rows(result.metrology_path):
            lcl, ucl = limits[(row["kqi"], row["type"], row["stage"])]
            value = float(row["meas_med"])
            if row["passfail"] == "FAIL_AVG_HI":
                assert value > ucl
                seen_fail = True
            elif row["passfail"] == "FAIL_AVG_LOW":
                assert value < lcl
                seen_fail = True
            else:
                assert lcl <= value <= ucl
        assert seen_fail


class TestFailFraction:
    def test_fraction_within_binomial_bounds(self, tmp_path):
        cfg = SynthConfig(n_wafers=10_000, seed=9, fail_rate=0.02)
        result = generate(cfg, tmp_path)
        rows = read_rows(result.metrology_path)
        fails = sum(r["passfail"] in ("FAIL_AVG_HI", "FAIL_AVG_LOW") for r in rows)
        fraction = fails / len(rows)
        assert 0.01 <= fraction <= 0.04


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    cfg = SynthConfig(n_wafers=120, seed=6)
    return cfg, generate(cfg, tmp_path_factory.mktemp("synth"))


class TestStructure:
    def test_missing_cells_only_in_numeric_columns(self, result):
        cfg, res = result
        for row in read_rows(res.sensor_path):
            for col, value in row.items():
                if value == "":
                    assert col in cfg.numeric_columns

    def test_some_cells_missing_and_duplicates_present(self, result):
        cfg, res = result
        rows = [tuple(r.values()) for r in read_rows(res.sensor_path)]
        assert any("" in r for r in rows)
        assert len(set(rows)) < len(rows)

    def test_monitor_value_inheritance(self, result):
        cfg, res = result
        by_combo = defaultdict(list)
        for row in read_rows(res.metrology_path):
            base_kqi = row["kqi"].replace("KQI-MON-", "KQI-")
            by_combo[(row["processing_id"], base_kqi, row["type"], row["stage"])].append(row)
        multi = 0
        for rows in by_combo.values():
            values = {row["meas_med"] for row in rows}
            assert len(values) == 1  # product wafers inherit the monitor value
            markers = {("MON" in row["kqi"]) for row in rows}
            if len(rows) > 1:
                assert markers == {True, False}
                multi += 1
        assert multi > 0

    def test_monitor_rows_are_first_wafer_of_batch(self, result):
        cfg, res = result
        for row in read_rows(res.metrology_path):
            if "MON" in row["kqi"]:
                assert row["product_id"].endswith("-0")

    def test_limits_cover_monitor_and_product_keys(self, result):
        cfg, res = result
        keys = {(r["kqi"], r["type"], r["stage"]) for r in read_rows(res.limits_path)}
        assert ("KQI-1", "TYPE-1", "STG-1") in keys
        assert ("KQI-MON-1", "TYPE-1", "STG-1") in keys

    def test_targ_pair_sometimes_present_and_matches_limits(self, result):
        cfg, res = result
        limits = {
            (r["kqi"], r["type"], r["stage"]): (r["lcl"], r["ucl"])
            for r in read_rows(res.limits_path)
        }
        with_targ = without_targ = 0
        for row in read_rows(res.metrology_path):
            if row["targ_min"]:
                with_targ += 1
                assert (row["targ_min"], row["targ_max"]) == limits[
                    (row["kqi"], row["type"], row["stage"])]
            else:
                without_targ += 1
        assert with_targ > 0 and without_targ > 0

    def test_step_counts_within_configured_support(self, result):
        cfg, res = result
        per_wafer = defaultdict(set)
        for row in read_rows(res.sensor_path):
            per_wafer[(row["processing_id"], row["product_id"])].add(row["timestamp"])
        counts = {len(ts) for ts in per_wafer.values()}
        assert counts <= {1, 2, 3, 4, 5}

    def test_row_counts_reported(self, result):
        cfg, res = result
        assert res.n_metrology_rows == len(read_rows(res.metrology_path))
        assert res.n_sensor_rows == len(read_rows(res.sensor_path))


def test_step_value_and_signal_helpers():
    weights = np.array([1.0, 2.0])
    offsets = np.array([[0.5, -0.5]])
    v = step_value(np.array([3.0, 4.0]), [1], weights, offsets)
    assert v == 3.0 + 8.0 - 0.5
    assert wafer_signal([1.0, 2.0, 3.0]) == (1.0 + 2.0 + 3.0 + 3.0) / 4
