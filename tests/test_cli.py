import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wafersense
from wafersense import cli, preprocess
from wafersense.cli import ConfigError, RunConfig, _parse_filter

from conftest import run_cli, write_config


class TestRunConfig:
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

    def test_missing_n_wafers_fails_with_key_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[synth]\nseed = 1\n")
        assert run_cli("generate", "--config", cfg, "--out", tmp_path / "d") == 1
        assert "[synth] n_wafers" in capsys.readouterr().err


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

    def test_one_and_two_blas_threads_give_identical_files(self, tiny_run, tmp_path):
        src = str(Path(wafersense.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}" / "model.npz"
            out.parent.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "wafersense.cli", "train",
                            "--config", str(tiny_run["config"]),
                            "--features", str(tiny_run["features"]), "--out", str(out)],
                           env=env, check=True, capture_output=True)
            outputs.append((out.read_bytes(), (out.parent / "model_history.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bogus_loss_is_usage_error(self, tiny_run):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--config", tiny_run["config"],
                    "--features", tiny_run["features"],
                    "--out", tiny_run["root"] / "x.npz", "--loss", "bogus")
        assert exc.value.code == 2

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

    def test_test_filter(self, tiny_run, tmp_path):
        out = tmp_path / "reports_filtered"
        assert run_cli("evaluate", "--config", tiny_run["config"],
                       "--checkpoint", tiny_run["checkpoint"],
                       "--features", tiny_run["features"], "--out", out,
                       "--test-filter", "kqi=KQI-1,type=TYPE-1") == 0
        rows = list(csv.reader(open(out / "grouping.csv")))
        assert sum(int(r[1]) for r in rows[1:7]) > 0


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
