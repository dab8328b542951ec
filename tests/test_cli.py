import csv
import json
import os
import re
import shutil
import string
import subprocess
import sys
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wafersense
from wafersense import atomic, cli, preprocess
from wafersense.cli import ConfigError, RunConfig, _parse_filter
from wafersense.nn import load_checkpoint, save_checkpoint
from wafersense.synthgen import SynthConfig
from wafersense.train import LOSSES, TrainConfig

from conftest import TINY_CONFIG, examples, run_cli, write_config

ROOT = Path(__file__).resolve().parents[1]

STRESS_CONFIG = (
    "[synth]\nn_wafers = 600\nseed = 5\nmissing_cell_rate = 0.3\nduplicate_row_rate = 0.2\n"
    "targ_rate = 0.2\nsensor_cat_vocab = 1\n[schema]\ntrain_on_monitor = true\n")


finite = st.floats(allow_nan=False, allow_infinity=False)
rate = st.floats(0.0, 1.0)


@st.composite
def synth_values(draw):
    """A valid value for every SynthConfig field. With some of n_kqi, n_type and
    n_stage left out, measurements_per_wafer may exceed their product; the config
    and the direct build must then raise the same error."""
    counts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5, unique=True))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(counts), max_size=len(counts)))
    lo = draw(finite)
    values = dict(
        n_wafers=draw(st.integers(1, 10**6)), seed=draw(st.integers(0, 2**64)),
        step_weights={n: w / sum(raw) for n, w in zip(counts, raw)},
        n_numeric_sensors=draw(st.integers(0, 100)),
        n_sensor_categoricals=draw(st.integers(0, 10)),
        **{key: draw(st.integers(1, 6)) for key in ("sensor_cat_vocab", "n_kqi", "n_type",
                                                    "n_stage", "n_equip", "n_prod",
                                                    "wafers_per_batch")},
        noise_sd=draw(st.floats(0.0, 1e6)), fail_rate=draw(st.floats(0.0, 0.5, exclude_max=True)),
        missing_cell_rate=draw(rate), duplicate_row_rate=draw(rate), targ_rate=draw(rate),
        group_offset_lo=lo, group_offset_hi=draw(st.floats(lo, allow_infinity=False)))
    n_combos = values["n_kqi"] * values["n_type"] * values["n_stage"]
    values["measurements_per_wafer"] = draw(st.integers(1, n_combos))
    return values


@st.composite
def train_values(draw):
    positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    return dict(loss=draw(st.sampled_from(LOSSES)), learning_rate=draw(positive),
                **{key: draw(st.integers(1, 10**4)) for key in ("batch_size", "patience",
                                                               "max_epochs")},
                seed=draw(st.integers(0, 2**64)), re_loss_c=draw(positive))


def config_text(section: str, values: dict) -> str:
    def text(v):
        if isinstance(v, dict):
            return ", ".join(f"{n}:{w!r}" for n, w in v.items())
        return repr(v) if isinstance(v, float) else str(v)
    return f"[{section}]\n" + "".join(f"{k} = {text(v)}\n" for k, v in values.items())


def built_or_error(build, prefix: str = ""):
    """The repr of what ``build`` returns (so 5 and 5.0 differ), or the text of the
    ValueError it raises after ``prefix``."""
    try:
        return repr(build())
    except ValueError as exc:  # ConfigError is a ValueError
        return prefix + str(exc)


NUMERIC_FIELDS = [(section, f.name, typing.get_type_hints(cls)[f.name])
                  for section, cls in (("synth", SynthConfig), ("train", TrainConfig))
                  for f in fields(cls) if typing.get_type_hints(cls)[f.name] in (int, float)]


def not_a_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return True
    return False


class TestRunConfig:
    @settings(max_examples=examples(100), deadline=None)
    @given(synth=synth_values(), train=train_values(), data=st.data(),
           seed=st.none() | st.integers(0, 100), loss=st.none() | st.sampled_from(LOSSES))
    def test_runconfig_builds_the_dataclasses_from_their_fields(self, tmp_path_factory, synth,
                                                                train, data, seed, loss):
        # every key given or left out; the --seed and --loss overrides win over the file
        synth = {k: v for k, v in synth.items() if k == "n_wafers" or data.draw(st.booleans())}
        train = {k: v for k, v in train.items() if data.draw(st.booleans())}
        path = tmp_path_factory.getbasetemp() / "property.cfg"
        path.write_text(config_text("synth", synth) + config_text("train", train),
                        encoding="utf-8")
        cfg = RunConfig.load(path)
        expected_synth = dict(synth, **({} if seed is None else {"seed": seed}))
        assert built_or_error(lambda: cfg.synth_config(seed_override=seed)) == built_or_error(
            lambda: SynthConfig(**expected_synth), "[synth] ")
        expected_train = dict(train, **{k: v for k, v in (("seed", seed), ("loss", loss))
                                        if v is not None})
        assert built_or_error(lambda: cfg.train_config(loss, seed)) == built_or_error(
            lambda: TrainConfig(**expected_train), "[train] ")

    @pytest.mark.parametrize("section, key, parse", NUMERIC_FIELDS,
                             ids=[f"{s}.{k}" for s, k, _ in NUMERIC_FIELDS])
    @settings(max_examples=examples(10), deadline=None)
    @given(word=st.text(string.ascii_letters, min_size=1, max_size=8).filter(not_a_number))
    def test_runconfig_names_the_key_of_a_non_numeric_value(self, tmp_path_factory, section,
                                                            key, parse, word):
        path = tmp_path_factory.getbasetemp() / "non_numeric.cfg"
        required = "n_wafers = 5\n" if section == "synth" and key != "n_wafers" else ""
        path.write_text(f"[{section}]\n{required}{key} = {word}\n", encoding="utf-8")
        cfg = RunConfig.load(path)
        with pytest.raises(ValueError) as parse_error:
            parse(word)
        with pytest.raises(ConfigError) as exc:
            cfg.synth_config() if section == "synth" else cfg.train_config()
        assert str(exc.value) == f"[{section}] {parse_error.value} (key {key})"

    def test_readme_config_reference_lists_the_keys_runconfig_accepts(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        table = readme.split("\n## Config reference", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1:3] for line in table.splitlines() if line.startswith("| ")]
        documented = {(section.strip(), key) for section, keys in rows
                      if section.strip() != "Section" for key in keys.strip().split(" / ")}
        assert documented == {(section, key) for section, keys in cli.KNOWN_KEYS.items()
                              for key in keys}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "[synth]\nn_wafers = 5\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config key \[synth\] bogus_key"):
            RunConfig.load(cfg)

    def test_unknown_section_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "[wat]\nx = 1\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[wat\]"):
            RunConfig.load(cfg)

    def test_missing_required_key_named(self, tmp_path):
        cfg = RunConfig.load(write_config(tmp_path, "[synth]\nseed = 1\n"))
        with pytest.raises(ConfigError, match=r"\[synth\] n_wafers"):
            cfg.synth_config()

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.load(tmp_path / "nope.cfg")

    def test_defaults_documented_values(self, tmp_path):
        cfg = RunConfig.load(write_config(tmp_path, "[synth]\nn_wafers = 5\n"))
        tc = cfg.train_config()
        assert (tc.loss, tc.learning_rate, tc.batch_size, tc.patience) == ("re", 1e-4, 16, 10)
        assert cfg.f_grid() == (0.0, 0.1, 0.2, 0.3, 0.35, 0.4)
        assert cfg.arch_preset() == "small"

    @pytest.mark.parametrize("grid", ["0.5", "0.1, -0.1", " , "])
    def test_config_f_grid_checked(self, tmp_path, grid):
        cfg = RunConfig.load(write_config(tmp_path, f"[eval]\nf_grid = {grid}\n"))
        with pytest.raises(ConfigError, match=r"need one or more f values, each in \[0, 0.5\)"):
            cfg.f_grid()

    def test_step_weights_parsed(self, tmp_path):
        cfg = RunConfig.load(write_config(
            tmp_path, "[synth]\nn_wafers = 5\nstep_weights = 1:0.5, 2:0.5\n"))
        assert cfg.synth_config().step_weights == {1: 0.5, 2: 0.5}

    def test_filter_parsing(self):
        assert _parse_filter("kqi=KQI-1,type=TYPE-2") == {"kqi": "KQI-1", "mtype": "TYPE-2"}
        assert _parse_filter(None) == {}
        with pytest.raises(ConfigError):
            _parse_filter("stage=S1")

    def test_paths_section_supplies_defaults(self, tmp_path, capsys):
        data_dir = tmp_path / "from_config"
        cfg = write_config(
            tmp_path,
            f"[synth]\nn_wafers = 20\n[paths]\ndata_dir = {data_dir}\n")
        assert run_cli("generate", "--config", cfg) == 0
        assert (data_dir / "sensor.csv").exists()

    def test_missing_path_everywhere_is_an_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[synth]\nn_wafers = 20\n")
        assert run_cli("generate", "--config", cfg) == 1
        assert "data_dir" in capsys.readouterr().err


class TestGenerate:
    def test_writes_three_csvs_and_manifest(self, tiny_run):
        for name in ("sensor.csv", "metrology.csv", "limits.csv", "truth_manifest.json"):
            assert (tiny_run["data"] / name).exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, "[synth]\nn_wafers = 30\nseed = 1\n")
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "a") == 0
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "b",
                       "--seed", 2) == 0
        assert ((tmp_path / "a" / "sensor.csv").read_bytes()
                != (tmp_path / "b" / "sensor.csv").read_bytes())

    def test_parser_built_once_and_subcommand_looked_up_per_call(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, "[synth]\nn_wafers = 30\nseed = 1\n")
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "a") == 0
        monkeypatch.setattr(cli, "build_parser", None)  # main must not rebuild it
        calls = []
        monkeypatch.setattr(cli, "cmd_generate", lambda args: calls.append(args.out) or 7)
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "b") == 7
        assert calls == [str(tmp_path / "b")] and not (tmp_path / "b").exists()

    def test_missing_n_wafers_fails_with_key_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[synth]\nseed = 1\n")
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "d") == 1
        assert "[synth] n_wafers" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, message", [
        ("generate", "n_wafers = lots", "[synth] invalid literal for int() with base 10: "
                                        "'lots' (key n_wafers)"),
        ("generate", "n_wafers = 0", "[synth] n_wafers must be >= 1"),
        ("generate", "n_wafers = 5\nstep_weights = 1:x",
         "[synth] expected n:weight pairs, got '1:x' (key step_weights)"),
        ("generate", "n_wafers = 5\nnoise_sd = loud",
         "[synth] could not convert string to float: 'loud' (key noise_sd)"),
        ("preprocess", "n_wafers = 30\n[preprocess]\nseed = -1",
         "[preprocess] seed must be >= 0, got -1"),
        ("preprocess", "n_wafers = 30\n[preprocess]\nseed = x",
         "[preprocess] invalid literal for int() with base 10: 'x' (key seed)"),
        ("preprocess", "n_wafers = 30\n[schema]\nmonitor_marker =",
         "[schema] monitor_marker must not be empty"),
        ("generate", "n_wafers = 5\nwafers_per_batch = 0",
         "[synth] wafers_per_batch must be >= 1"),
        ("generate", "n_wafers = 5\nmeasurements_per_wafer = 13",
         "[synth] measurements_per_wafer must be in [1, n_kqi*n_type*n_stage = 12]"),
        ("generate", "n_wafers = 5\nmeasurements_per_wafer = 0",
         "[synth] measurements_per_wafer must be in [1, n_kqi*n_type*n_stage = 12]"),
        ("generate", "n_wafers = 5\nn_stage = 0", "[synth] n_stage must be >= 1"),
        ("generate", "n_wafers = 5\nsensor_cat_vocab = 0",
         "[synth] sensor_cat_vocab must be >= 1"),
        ("generate", "n_wafers = 5\nn_numeric_sensors = -2",
         "[synth] n_numeric_sensors must be >= 0"),
        ("generate", "n_wafers = 5\nmissing_cell_rate = 1.5",
         "[synth] missing_cell_rate must be in [0, 1]"),
        ("generate", "n_wafers = 5\nnoise_sd = -0.1", "[synth] noise_sd must be finite and >= 0"),
        ("generate", "n_wafers = 5\ngroup_offset_lo = 4",
         "[synth] group_offset_lo and group_offset_hi must be finite, lo <= hi"),
    ])
    def test_bad_config_value_is_an_error(self, tiny_run, tmp_path, capsys, command, text,
                                          message):
        cfg = write_config(tmp_path, f"[synth]\n{text}\n")
        argv = {"generate": ["--out", tmp_path / "d"],
                "preprocess": ["--data", tiny_run["data"], "--out", tmp_path / "f"]}[command]
        assert run_cli(command, "--config", cfg, *argv) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not (tmp_path / "d").exists() and not (tmp_path / "f").exists()


class TestPreprocess:
    def test_deterministic_outputs(self, tiny_run, tmp_path):
        out2 = tmp_path / "features2"
        assert run_cli("preprocess", "--config", tiny_run["config"],
                       "--data", tiny_run["data"], "--out", out2) == 0
        for path in sorted(tiny_run["features"].iterdir()):
            assert (out2 / path.name).read_bytes() == path.read_bytes(), path.name

    def test_rejects_dir_without_limits_csv(self, tiny_run, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("sensor.csv", "metrology.csv"):
            (broken / name).write_bytes((tiny_run["data"] / name).read_bytes())
        assert run_cli("preprocess", "--config", tiny_run["config"],
                       "--data", broken, "--out", tmp_path / "f") == 1
        assert "limits.csv" in capsys.readouterr().err

    def test_outlier_filter_hits_training_split_only(self, tmp_path):
        # every target is far beyond 1000, so the training stream must come
        # out empty while val/test buckets keep their samples
        cfg = write_config(tmp_path, "[synth]\nn_wafers = 60\nseed = 2\n"
                                     "group_offset_lo = 1500\ngroup_offset_hi = 1600\n")
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "d") == 0
        assert run_cli("preprocess", "--config", cfg, "--data", tmp_path / "d",
                       "--out", tmp_path / "f") == 0
        manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
        assert manifest["bucket_sizes"]["reg_train"] == {}
        assert sum(manifest["bucket_sizes"]["reg_val"].values()) > 0
        assert sum(manifest["bucket_sizes"]["reg_test"].values()) > 0

    def test_duplicate_rows_counted(self, tmp_path, capsys):
        # a dataset without duplicates, then 3 sensor rows and 2 metrology
        # rows repeated verbatim (one of them twice)
        cfg = write_config(tmp_path, "[synth]\nn_wafers = 20\nseed = 4\n"
                                     "duplicate_row_rate = 0\n")
        data = tmp_path / "d"
        assert run_cli("generate", "--config", cfg, "--out", data) == 0
        for name, picks in (("sensor.csv", [1, 5, 9]), ("metrology.csv", [2, 2])):
            lines = (data / name).read_text(encoding="utf-8").splitlines(keepends=True)
            (data / name).write_text("".join(lines + [lines[k] for k in picks]),
                                     encoding="utf-8")
        capsys.readouterr()
        assert run_cli("preprocess", "--config", cfg, "--data", data,
                       "--out", tmp_path / "f") == 0
        assert "duplicate rows dropped: 3 sensor, 2 metrology" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
        assert manifest["duplicate_rows_dropped"] == {"sensor": 3, "metrology": 2}

    @pytest.mark.parametrize("text", [TINY_CONFIG, STRESS_CONFIG], ids=["tiny", "stress"])
    def test_generated_duplicates_are_the_rows_dedupe_drops(self, tmp_path, capsys, text):
        cfg = write_config(tmp_path, text)
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "d") == 0
        err = capsys.readouterr().err
        written = {name: int(re.search(rf"^{name} rows: +\d+ \((\d+) verbatim duplicates\)",
                                       err, re.M).group(1))
                   for name in ("sensor", "metrology")}
        assert min(written.values()) > 0
        assert run_cli("preprocess", "--config", cfg, "--data", tmp_path / "d",
                       "--out", tmp_path / "f") == 0
        manifest = json.loads((tmp_path / "f" / "manifest.json").read_text())
        assert manifest["duplicate_rows_dropped"] == written

    def test_each_stream_encodes_the_steps_of_its_own_wafers_once(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, STRESS_CONFIG)
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "d") == 0
        build_buckets = preprocess.build_buckets
        encode_step_rows = preprocess.FeaturePipeline.encode_step_rows
        calls = []  # per build_buckets call: (expected step rows, encoded row arrays)

        def recording_build(wafers, split, pipeline, limits, monitor_stream):
            in_split = set(split.tolist())
            owners = {int(w) for w, monitor in zip(wafers.measurement_wafers(),
                                                   wafers.measurements.is_monitor)
                      if w in in_split and monitor == monitor_stream}
            starts = wafers.sensor.starts
            calls.append(([r for w in sorted(owners) for r in range(starts[w], starts[w + 1])],
                          []))
            return build_buckets(wafers, split, pipeline, limits, monitor_stream)

        def recording_encode(self, sensor, rows):
            assert calls, "steps encoded outside build_buckets"
            calls[-1][1].append(rows)
            return encode_step_rows(self, sensor, rows)

        monkeypatch.setattr(preprocess, "build_buckets", recording_build)
        monkeypatch.setattr(preprocess.FeaturePipeline, "encode_step_rows", recording_encode)
        assert run_cli("preprocess", "--config", cfg, "--data", tmp_path / "d",
                       "--out", tmp_path / "f") == 0
        assert len(calls) == 6  # (train, val, test) x (reg, pf)
        for expected, encoded in calls:
            encoded = np.concatenate(encoded).tolist() if encoded else []
            assert len(encoded) == len(set(encoded))
            assert sorted(encoded) == expected

    @pytest.mark.parametrize("name", ["sensor.csv", "metrology.csv", "limits.csv"])
    def test_byte_order_mark_before_the_header_is_accepted(self, tiny_run, tmp_path, name):
        data = tmp_path / "d"
        shutil.copytree(tiny_run["data"], data)
        (data / name).write_bytes(b"\xef\xbb\xbf" + (data / name).read_bytes())
        assert run_cli("preprocess", "--config", tiny_run["config"], "--data", data,
                       "--out", tmp_path / "f") == 0
        for path in sorted(tiny_run["features"].iterdir()):
            assert (tmp_path / "f" / path.name).read_bytes() == path.read_bytes(), path.name

    def test_listed_bucket_missing_or_resized_is_an_error(self, tiny_run, tmp_path):
        features = tmp_path / "features"
        shutil.copytree(tiny_run["features"], features)
        listed = sorted(features.glob("reg_train_n*.npz"))
        assert len(listed) >= 2
        shutil.copy(listed[1], listed[0])  # another bucket's rows under n1's name
        with pytest.raises(preprocess.PreprocessError, match="rows"):
            preprocess.load_split(features, "reg", "train")
        listed[0].unlink()
        with pytest.raises(FileNotFoundError):
            preprocess.load_split(features, "reg", "train")

    def test_manifest_records_widths_and_vocab(self, tiny_run):
        manifest = json.loads((tiny_run["features"] / "manifest.json").read_text())
        assert manifest["s_width"] > 0 and manifest["m_width"] > 0
        kqi_labels = manifest["meas_vocab"][0]
        assert any("MON" in label for label in kqi_labels)
        assert manifest["bucket_sizes"]["reg_train"]


class TestTrain:
    def test_checkpoint_and_history_written(self, tiny_run):
        assert tiny_run["checkpoint"].exists()
        history = tiny_run["root"] / "model_history.csv"
        rows = list(csv.DictReader(open(history)))
        assert len(rows) == 3  # max_epochs in the tiny config
        assert {r["is_best"] for r in rows} <= {"0", "1"}

    def test_stale_bucket_files_ignored(self, tmp_path, capsys):
        # a 1-5-step dataset, then a 1-2-step one preprocessed into the same
        # directory: the old reg_train_n5.npz stays, and training must not see it
        features = tmp_path / "f"
        for name, weights in (("d5", "1:0.2,2:0.2,3:0.2,4:0.2,5:0.2"), ("d2", "1:0.5,2:0.5")):
            cfg = write_config(tmp_path, f"[synth]\nn_wafers = 80\nseed = 5\n"
                                         f"step_weights = {weights}\n[train]\nmax_epochs = 1\n")
            assert run_cli("generate", "--config", cfg, "--out", tmp_path / name) == 0
            assert run_cli("preprocess", "--config", cfg, "--data", tmp_path / name,
                           "--out", features) == 0
        sizes = json.loads((features / "manifest.json").read_text())["bucket_sizes"]["reg_train"]
        assert set(sizes) == {"1", "2"} and (features / "reg_train_n5.npz").exists()
        assert [len(b) for b in preprocess.load_split(features, "reg", "train")] == [
            sizes["1"], sizes["2"]]
        capsys.readouterr()
        assert run_cli("train", "--config", cfg, "--features", features,
                       "--out", tmp_path / "model.npz") == 0
        assert f"on {sizes['1'] + sizes['2']} samples" in capsys.readouterr().err

    def test_missing_output_directories_are_made_before_training(self, tiny_run, tmp_path):
        out, history = tmp_path / "a" / "b" / "model.npz", tmp_path / "c" / "history.csv"
        assert run_cli("train", "--config", tiny_run["config"], "--features",
                       tiny_run["features"], "--out", out, "--history", history) == 0
        assert out.exists() and history.exists()

    @pytest.mark.parametrize("loss", ["re", "nl1"])
    def test_one_and_two_blas_threads_give_identical_files(self, tiny_run, tmp_path, loss):
        src = str(Path(wafersense.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}" / "model.npz"
            out.parent.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "wafersense.cli", "train",
                            "--config", str(tiny_run["config"]),
                            "--features", str(tiny_run["features"]), "--out", str(out),
                            "--loss", loss],
                           env=env, check=True, capture_output=True)
            outputs.append((out.read_bytes(), (out.parent / "model_history.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bogus_loss_is_usage_error(self, tiny_run):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--config", tiny_run["config"],
                    "--features", tiny_run["features"],
                    "--out", tiny_run["root"] / "x.npz", "--loss", "bogus")
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value, message", [
        ("max_epochs", "0", "max_epochs must be >= 1"),
        ("loss", "foo", "loss must be 're' or 'nl1'"),
        ("re_loss_c", "0", "re_loss_c must be > 0"),
        ("re_loss_c", "inf", "re_loss_c must be > 0 and finite"),
        ("learning_rate", "0", "learning_rate must be > 0"),
        ("learning_rate", "inf", "learning_rate must be > 0 and finite"),
        ("learning_rate", "fast", "could not convert"),
    ])
    def test_bad_train_value_is_an_error(self, tiny_run, tmp_path, capsys, key, value, message):
        lines = [line for line in TINY_CONFIG.splitlines() if not line.startswith(f"{key} =")]
        cfg = write_config(tmp_path, "\n".join(lines).replace("[train]", f"[train]\n{key} = {value}"))
        out = tmp_path / "x.npz"
        assert run_cli("train", "--config", cfg, "--features", tiny_run["features"],
                       "--out", out) == 1
        assert f"error: [train] {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_filter_restricts_training_set(self, tiny_run, tmp_path):
        out = tmp_path / "filtered.npz"
        assert run_cli("train", "--config", tiny_run["config"],
                       "--features", tiny_run["features"], "--out", out,
                       "--filter", "kqi=KQI-1,type=TYPE-1") == 0
        assert out.exists()

    def test_empty_filter_fails(self, tiny_run, tmp_path, capsys):
        assert run_cli("train", "--config", tiny_run["config"],
                       "--features", tiny_run["features"],
                       "--out", tmp_path / "x.npz",
                       "--filter", "kqi=NO-SUCH") == 1
        assert "empty train or val" in capsys.readouterr().err

    def test_nl1_loss_trains(self, tiny_run, tmp_path):
        out = tmp_path / "nl1.npz"
        assert run_cli("train", "--config", tiny_run["config"],
                       "--features", tiny_run["features"], "--out", out,
                       "--loss", "nl1") == 0
        from wafersense.nn import load_checkpoint

        _, meta = load_checkpoint(out)
        assert meta["loss"] == "nl1"


class TestEvaluate:
    def test_reports_written_and_counts_sum(self, tiny_run, tmp_path):
        out = tmp_path / "reports"
        assert run_cli("evaluate", "--config", tiny_run["config"],
                       "--checkpoint", tiny_run["checkpoint"],
                       "--features", tiny_run["features"], "--out", out) == 0
        assert (out / "report.txt").exists()
        rows = list(csv.reader(open(out / "grouping.csv")))
        counts = [int(r[1]) for r in rows[1:7]]
        manifest = json.loads((tiny_run["features"] / "manifest.json").read_text())
        total_test = sum(manifest["bucket_sizes"]["reg_test"].values())
        assert sum(counts) == total_test
        sweep = list(csv.DictReader(open(out / "sweep.csv")))
        assert [float(r["f"]) for r in sweep] == [0.0, 0.1, 0.2, 0.3, 0.35, 0.4]

    def test_manifest_mismatch_rejected(self, tiny_run, tmp_path, capsys):
        other = tmp_path / "other_features"
        cfg2 = write_config(tmp_path, "[synth]\nn_wafers = 220\nseed = 11\n"
                                      "fail_rate = 0.05\n[preprocess]\nseed = 9\n")
        assert run_cli("preprocess", "--config", cfg2,
                       "--data", tiny_run["data"], "--out", other) == 0
        assert run_cli("evaluate", "--config", tiny_run["config"],
                       "--checkpoint", tiny_run["checkpoint"],
                       "--features", other, "--out", tmp_path / "r") == 1
        assert "manifest hash" in capsys.readouterr().err

    def test_custom_f_grid(self, tiny_run, tmp_path):
        out = tmp_path / "reports_grid"
        assert run_cli("evaluate", "--config", tiny_run["config"],
                       "--checkpoint", tiny_run["checkpoint"],
                       "--features", tiny_run["features"], "--out", out,
                       "--f-grid", "0,0.25") == 0
        sweep = list(csv.DictReader(open(out / "sweep.csv")))
        assert [float(r["f"]) for r in sweep] == [0.0, 0.25]

    @pytest.mark.parametrize("grid", ["-0.3,0.6,0.9", ",", "", "0.1,0.5", "nan", "0.1,x"])
    def test_bad_f_grid_is_an_error(self, tiny_run, tmp_path, capsys, grid):
        out = tmp_path / "reports_bad_grid"
        assert run_cli("evaluate", "--config", tiny_run["config"],
                       "--checkpoint", tiny_run["checkpoint"],
                       "--features", tiny_run["features"], "--out", out,
                       f"--f-grid={grid}") == 1
        assert f"error: f grid {grid!r}" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_test_filter(self, tiny_run, tmp_path):
        out = tmp_path / "reports_filtered"
        assert run_cli("evaluate", "--config", tiny_run["config"],
                       "--checkpoint", tiny_run["checkpoint"],
                       "--features", tiny_run["features"], "--out", out,
                       "--test-filter", "kqi=KQI-1,type=TYPE-1") == 0
        rows = list(csv.reader(open(out / "grouping.csv")))
        assert sum(int(r[1]) for r in rows[1:7]) > 0


def shortened_flat(path: Path) -> None:
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["flat"] = arrays["flat"][:-1]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


@pytest.mark.parametrize("name, damage, message", [
    ("model.npz", shortened_flat, "does not match its architecture"),
    ("model.npz", lambda path: path.write_bytes(path.read_bytes()[:2000]), "is unreadable"),
    ("model.npz", lambda path: path.write_bytes(b"not a checkpoint\n" * 50),
     "is not an .npz file"),
    ("reg_test_n1.npz", lambda path: path.write_bytes(b"not a bucket file\n" * 50),
     "is not an .npz file"),
    ("pf_test_n1.npz", lambda path: path.write_bytes(b"not a bucket file\n" * 50),
     "is not an .npz file"),
    ("groups.csv", lambda path: path.write_text("kqi,type,stage,b1,b2\nK,T,S,2.0,1.0\n"),
     "line 2: b1 must be < b2"),
    ("groups.csv", lambda path: path.write_text("kqi,type,stage,b1\nK,T,S,2.0\n"), "line 2: 'b2'"),
    ("manifest.json", lambda path: path.write_text("{not json"), "is not valid JSON"),
], ids=["checkpoint_wrong_shape", "checkpoint_truncated", "checkpoint_garbage", "bucket_garbage",
        "pf_bucket_garbage", "groups_inverted_pair", "groups_missing_column", "manifest_not_json"])
def test_damaged_input_file_is_an_error_naming_it(tiny_run, tmp_path, capsys, name, damage,
                                                  message):
    checkpoint, features, out = tmp_path / "model.npz", tmp_path / "features", tmp_path / "r"
    shutil.copy(tiny_run["checkpoint"], checkpoint)
    shutil.copytree(tiny_run["features"], features)
    damaged = checkpoint if name == "model.npz" else features / name
    damage(damaged)
    capsys.readouterr()
    assert run_cli("evaluate", "--config", tiny_run["config"], "--checkpoint", checkpoint,
                   "--features", features, "--out", out) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(damaged) in errors[0] and message in errors[0], err
    assert "Traceback" not in err and "pickle" not in err
    assert not out.exists()


def refused_meta_error(tiny_run, tmp_path, capsys, edit) -> str:
    """stderr of evaluating a copy of the tiny checkpoint whose __meta__ ``edit`` changed
    in place, after checking that the run was refused by one error line naming the file."""
    params, meta = load_checkpoint(tiny_run["checkpoint"])
    edit(meta)
    checkpoint, out = tmp_path / "model.npz", tmp_path / "r"
    save_checkpoint(checkpoint, params, meta)
    capsys.readouterr()
    assert run_cli("evaluate", "--config", tiny_run["config"], "--checkpoint", checkpoint,
                   "--features", tiny_run["features"], "--out", out) == 1
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(checkpoint) in errors[0] and "__meta__" in errors[0], err
    assert "Traceback" not in err
    assert not out.exists()
    return err


@pytest.mark.parametrize("key", ["manifest_hash", "loss"])
def test_checkpoint_meta_without_a_key_is_refused(tiny_run, tmp_path, capsys, key):
    refused_meta_error(tiny_run, tmp_path, capsys, lambda meta: meta.pop(key))


def test_checkpoint_meta_with_an_unknown_loss_is_refused(tiny_run, tmp_path, capsys):
    assert "'l2'" in refused_meta_error(tiny_run, tmp_path, capsys,
                                        lambda meta: meta.update(loss="l2"))


class HalfWrittenFile:
    """A file whose first write stores half its data and then raises, as on a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


@pytest.mark.parametrize("command, name", [
    ("preprocess", "reg_train_n3.npz"),
    ("preprocess", "groups.csv"),
    ("preprocess", "manifest.json"),
    ("evaluate", "grouping.csv"),
    ("evaluate", "sweep.csv"),
    ("evaluate", "plot_recall_fpr.csv"),
    ("evaluate", "report.txt"),
])
def test_failed_write_keeps_earlier_output(tiny_run, tmp_path, monkeypatch, command, name):
    # a rerun whose write of ``name`` fails leaves every earlier file as it was
    argv = ["--config", tiny_run["config"], "--out", tmp_path / "out"] + {
        "preprocess": ["--data", tiny_run["data"]],
        "evaluate": ["--checkpoint", tiny_run["checkpoint"], "--features", tiny_run["features"]],
    }[command]
    assert run_cli(command, *argv) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert name in before

    def open_failing(file, *args, **kwargs):
        fh = open(file, *args, **kwargs)
        return HalfWrittenFile(fh) if Path(file).name.startswith(f".{name}.") else fh

    monkeypatch.setattr(atomic, "open", open_failing, raising=False)
    with pytest.raises(OSError, match="disk full"):
        run_cli(command, *argv)
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == before


class TestSweepCommand:
    def test_sweep_only_outputs(self, tiny_run, tmp_path):
        out = tmp_path / "sweep_reports"
        assert run_cli("sweep", "--config", tiny_run["config"],
                       "--checkpoint", tiny_run["checkpoint"],
                       "--features", tiny_run["features"], "--out", out) == 0
        assert (out / "sweep.csv").exists()
        assert (out / "plot_recall_fpr.csv").exists()
        assert not (out / "grouping.csv").exists()
        header = open(out / "plot_recall_fpr.csv").readline().strip()
        assert header == "f,recall,fpr"


class TestNl1EndToEnd:
    def test_nl1_checkpoint_evaluates_with_denormalization(self, tiny_run, tmp_path):
        out_model = tmp_path / "nl1_e2e.npz"
        assert run_cli("train", "--config", tiny_run["config"],
                       "--features", tiny_run["features"], "--out", out_model,
                       "--loss", "nl1") == 0
        out = tmp_path / "nl1_reports"
        assert run_cli("evaluate", "--config", tiny_run["config"],
                       "--checkpoint", out_model,
                       "--features", tiny_run["features"], "--out", out) == 0
        rows = list(csv.reader(open(out / "grouping.csv")))
        assert sum(int(r[1]) for r in rows[1:7]) > 0
