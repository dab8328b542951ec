"""The four workloads: how each builds its inputs, what one timed round runs,
and which checks its outputs must pass.

Every round is one call of the program's command-line entry point
``wafersense.cli.main`` into a fresh output directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# Criterion-6 data: 5000 wafers from synthetic seed 7.
C6_SYNTH_SEED = 7
# The large workload's training inputs are fixed, so every run of one
# program version must produce the same checkpoint (criterion 9).
LARGE_TRAIN_SEED = 1
LARGE_FILTER = "kqi=KQI-1,type=TYPE-1"
SCORE_TRAIN_FILTER = LARGE_FILTER
PRESETS = {"small": (128, 256), "large": (1024, 2048)}
PREDICT_CHUNK = 512  # rows per forward call, as the evaluate stage uses


@dataclass(frozen=True)
class Size:
    c6_wafers: int
    prep_wafers: int
    c6_epochs: int
    large_epochs: int
    score_setup_epochs: int
    learning_rate: float


FULL = Size(c6_wafers=5000, prep_wafers=20000, c6_epochs=3, large_epochs=2,
            score_setup_epochs=1, learning_rate=1e-4)
# The tiny size trains on far fewer samples, so a larger step size is what
# lets it reach the criterion-6 quality bounds within a few epochs.
TINY = Size(c6_wafers=1000, prep_wafers=400, c6_epochs=3, large_epochs=2,
            score_setup_epochs=1, learning_rate=1e-3)


def write_config(path: Path, size: Size, n_wafers: int, synth_seed: int, epochs: int,
                 train_seed: int) -> Path:
    # patience above the epoch count: every fit runs exactly ``epochs`` epochs
    path.write_text(
        f"[synth]\nn_wafers = {n_wafers}\nseed = {synth_seed}\n\n"
        f"[train]\nmax_epochs = {epochs}\npatience = {epochs + 1}\nseed = {train_seed}\n"
        f"learning_rate = {size.learning_rate!r}\n",
        encoding="utf-8")
    return path


class Workload:
    name = ""
    min_rounds = 1

    def __init__(self, seed: int, size: Size):
        self.seed = seed
        self.size = size

    def inputs(self) -> dict:
        """Everything the program receives, for the determinism ledger."""
        raise NotImplementedError

    def setup(self, cli, rep_dir: Path) -> dict:
        """Build the inputs in ``rep_dir``; returns the paths the rounds use."""
        raise NotImplementedError

    def round_argv(self, env: dict, round_dir: str) -> list[str]:
        raise NotImplementedError

    def check(self, program, env: dict, round_dirs: list[Path]) -> list[float]:
        """Check every round's outputs; returns the items each round completed."""
        raise NotImplementedError

    def outputs(self, round_dir: Path) -> dict:
        """Digests of one round's outputs; equal inputs must give equal digests."""
        raise NotImplementedError


def _run(cli, *argv) -> None:
    rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"set-up step {argv[0]} exited with {rc}")


class C6Data(Workload):
    """Workloads over the criterion-6 data: generate and preprocess it."""

    def setup(self, cli, rep_dir: Path) -> dict:
        cfg = write_config(rep_dir / "run.cfg", self.size, self.size.c6_wafers, C6_SYNTH_SEED,
                           self.epochs(), self.train_seed())
        _run(cli, "generate", "--config", cfg, "--out", rep_dir / "data")
        _run(cli, "preprocess", "--config", cfg, "--data", rep_dir / "data",
             "--out", rep_dir / "features")
        return {"config": str(cfg), "data": str(rep_dir / "data"),
                "features": str(rep_dir / "features")}

    def epochs(self) -> int:
        raise NotImplementedError

    def train_seed(self) -> int:
        return self.seed


def model_predictor(program, checkpoint, s: int, m: int):
    """predict(n_steps, bucket) through the program's own loader and forward pass."""
    params, _ = program.nn.load_checkpoint(checkpoint)

    def predict(n, b):
        x = b["features"]
        steps = x[:, : n * s].reshape(len(x), n, s)
        meas = x[:, n * s:]
        out = np.empty(len(x))
        for start in range(0, len(x), PREDICT_CHUNK):
            sl = slice(start, start + PREDICT_CHUNK)
            out[sl], _ = program.nn.forward_batch(params, steps[sl], meas[sl], want_trace=False)
        return out
    return predict


class TrainWorkload(C6Data):
    preset = "small"
    loss = "re"
    flt = ""

    def inputs(self) -> dict:
        return {"wafers": self.size.c6_wafers, "synth_seed": C6_SYNTH_SEED,
                "train_seed": self.train_seed(), "epochs": self.epochs(),
                "learning_rate": self.size.learning_rate,
                "preset": self.preset, "loss": self.loss, "filter": self.flt}

    def round_argv(self, env, round_dir):
        argv = ["train", "--config", env["config"], "--features", env["features"],
                "--out", f"{round_dir}/model.npz", "--history", f"{round_dir}/history.csv",
                "--loss", self.loss, "--arch", self.preset, "--seed", str(self.train_seed())]
        return argv + (["--filter", self.flt] if self.flt else [])

    def outputs(self, round_dir):
        return {"checkpoint": checks.sha256_file(round_dir / "model.npz"),
                "history": checks.sha256_file(round_dir / "history.csv")}

    def samples_per_epoch(self, features) -> int:
        flt = dict(p.split("=") for p in self.flt.split(",")) if self.flt else {}
        flt = {("mtype" if k == "type" else k): v for k, v in flt.items()}
        groups = checks.read_groups(features)
        n = 0
        for _, b in checks.split_rows(features, "reg", "train", flt):
            if self.loss == "nl1":
                n += int(np.sum(~np.isnan(checks.group_bounds(b, groups)[0])))
            else:
                n += len(b["target"])
        return n

    def check_round(self, program, env, round_dir, history, s, m) -> None:
        pass

    def check(self, program, env, round_dirs):
        features = env["features"]
        checks.check_manifest_rows(features, program.preprocess.load_split)
        s, m = checks.widths(checks.read_manifest(features))
        d, h = PRESETS[self.preset]
        per_epoch = self.samples_per_epoch(features)
        items = []
        for rd in round_dirs:
            checks.check_param_count(rd / "model.npz", s, m, d, h)
            history = checks.check_history(rd / "history.csv", self.epochs())
            self.check_round(program, env, rd, history, s, m)
            items.append(per_epoch * len(history))
        checks.check_identical([self.outputs(rd) for rd in round_dirs], "checkpoint and history")
        return items


class TrainC6(TrainWorkload):
    """Small preset, RE loss, batch 16, a fixed number of epochs past the first."""

    name = "train_c6"
    min_rounds = 2  # two fits of the same inputs, compared byte for byte
    max_val_loss = 0.05
    min_decent = 0.90

    def epochs(self):
        return self.size.c6_epochs

    def check_round(self, program, env, round_dir, history, s, m):
        final = float(history[-1]["val_loss"])
        checks.require(final < self.max_val_loss,
                       f"final validation RE loss {final} not below {self.max_val_loss}")
        predict = model_predictor(program, round_dir / "model.npz", s, m)
        checks.check_decent_rate(env["features"], predict, self.min_decent)


class TrainLargeNl1(TrainWorkload):
    """Large preset, NL1 loss, one (kqi, type) subset."""

    name = "train_large_nl1"
    preset = "large"
    loss = "nl1"
    flt = LARGE_FILTER

    def epochs(self):
        return self.size.large_epochs

    def train_seed(self):
        return LARGE_TRAIN_SEED

    def check_round(self, program, env, round_dir, history, s, m):
        first, last = float(history[0]["val_loss"]), float(history[-1]["val_loss"])
        checks.require(last < first, f"validation loss {last} at the end is not below "
                                     f"{first} after the first epoch")


class Prep20k(Workload):
    """CSV files to bucket files and manifest.json: ingest, preprocess, normgroups."""

    name = "prep_20k"

    def inputs(self):
        return {"wafers": self.size.prep_wafers, "synth_seed": self.seed}

    def setup(self, cli, rep_dir):
        cfg = write_config(rep_dir / "run.cfg", self.size, self.size.prep_wafers, self.seed, 1, 0)
        _run(cli, "generate", "--config", cfg, "--out", rep_dir / "data")
        return {"config": str(cfg), "data": str(rep_dir / "data")}

    def round_argv(self, env, round_dir):
        return ["preprocess", "--config", env["config"], "--data", env["data"],
                "--out", f"{round_dir}/features"]

    def outputs(self, round_dir):
        return checks.tree_digest(round_dir / "features")

    def check(self, program, env, round_dirs):
        first = round_dirs[0] / "features"
        checks.check_manifest_rows(first, program.preprocess.load_split)
        checks.check_features(env["data"], first)
        checks.check_identical([self.outputs(rd) for rd in round_dirs], "feature files")
        wafers = checks.count_wafers_in_csvs(env["data"])
        return [float(wafers)] * len(round_dirs)


class ScoreNl1(C6Data):
    """Repeated evaluate passes of an NL1 checkpoint over the criterion-6 test split."""

    name = "score_nl1"

    def epochs(self):
        return self.size.score_setup_epochs

    def inputs(self):
        return {"wafers": self.size.c6_wafers, "synth_seed": C6_SYNTH_SEED,
                "train_seed": self.seed, "setup_epochs": self.epochs(),
                "setup_filter": SCORE_TRAIN_FILTER,
                "learning_rate": self.size.learning_rate}

    def setup(self, cli, rep_dir):
        env = super().setup(cli, rep_dir)
        env["checkpoint"] = str(rep_dir / "model.npz")
        # a short NL1 training on one (kqi, type) subset: scoring costs the same
        # for any weights, and the set-up stays a few seconds
        _run(cli, "train", "--config", env["config"], "--features", env["features"],
             "--out", env["checkpoint"], "--loss", "nl1", "--arch", "small",
             "--filter", SCORE_TRAIN_FILTER)
        return env

    def round_argv(self, env, round_dir):
        return ["evaluate", "--config", env["config"], "--checkpoint", env["checkpoint"],
                "--features", env["features"], "--out", f"{round_dir}/reports"]

    def outputs(self, round_dir):
        return checks.tree_digest(round_dir / "reports")

    def check(self, program, env, round_dirs):
        features = env["features"]
        checks.check_manifest_rows(features, program.preprocess.load_split)
        s, m = checks.widths(checks.read_manifest(features))
        predict = model_predictor(program, env["checkpoint"], s, m)
        graded = checks.check_scores(features, round_dirs[0] / "reports", predict,
                                     normalized=True)
        checks.check_identical([self.outputs(rd) for rd in round_dirs], "report files")
        return [float(graded)] * len(round_dirs)


WORKLOADS = {w.name: w for w in (TrainC6, TrainLargeNl1, Prep20k, ScoreNl1)}
