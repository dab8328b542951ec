"""Command-line pipeline: generate, preprocess, train, evaluate, sweep.

Configuration is a flat INI-style key-value file with sections; every key
has a documented default (see README) except synth.n_wafers, which
``generate`` requires. Unknown sections or keys are rejected. Data goes to
files; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import ingest, normgroups, preprocess, synthgen
from .atomic import atomic_open
from .nn import ArchConfig, load_checkpoint, save_checkpoint
from .train import (
    TrainConfig,
    TrainingDiverged,
    fit,
    make_train_buckets,
    write_history_csv,
)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    pass


KNOWN_KEYS = {
    "synth": {
        "n_wafers", "seed", "step_weights", "n_numeric_sensors",
        "n_sensor_categoricals", "sensor_cat_vocab", "n_kqi", "n_type",
        "n_stage", "n_equip", "n_prod", "wafers_per_batch",
        "measurements_per_wafer", "noise_sd", "fail_rate",
        "missing_cell_rate", "duplicate_row_rate", "targ_rate",
        "group_offset_lo", "group_offset_hi",
    },
    "schema": {"sensor_categorical_columns", "monitor_marker", "train_on_monitor"},
    "preprocess": {"seed"},
    "arch": {"preset"},
    "train": {"loss", "learning_rate", "batch_size", "patience", "max_epochs",
              "seed", "re_loss_c"},
    "eval": {"f_grid"},
    "paths": {"data_dir", "features_dir", "checkpoint", "report_dir"},
}


@dataclass
class RunConfig:
    """Typed view of the config file; raw values stay in ``raw``."""

    raw: dict[str, dict[str, str]] = field(default_factory=dict)

    @classmethod
    def load(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        raw: dict[str, dict[str, str]] = {}
        for section in parser.sections():
            if section not in KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            raw[section] = {}
            for key, value in parser.items(section):
                if key not in KNOWN_KEYS[section]:
                    raise ConfigError(f"unknown config key [{section}] {key}")
                raw[section][key] = value
        return cls(raw)

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.raw.get(section, {}).get(key, default)

    def get_number(self, section: str, key: str, default: int | float) -> int | float:
        """The value parsed as the type of ``default`` (int or float)."""
        v = self.get(section, key)
        try:
            return default if v is None else type(default)(v)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc} (key {key})") from None

    def get_bool(self, section: str, key: str, default: bool) -> bool:
        v = self.get(section, key)
        if v is None:
            return default
        if v.lower() in ("1", "true", "yes", "on"):
            return True
        if v.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: expected a boolean, got {v!r}")

    def synth_config(self, seed_override: int | None = None) -> synthgen.SynthConfig:
        """SynthConfig from the [synth] keys given; the others keep SynthConfig's defaults."""
        given = self.raw.get("synth", {})
        if "n_wafers" not in given:
            raise ConfigError("missing required config key: [synth] n_wafers")
        kwargs = {key: self.get_number("synth", key, getattr(synthgen.SynthConfig, key, 0))
                  for key in given if key not in ("step_weights", "group_offset_lo",
                                                  "group_offset_hi")}
        if seed_override is not None:
            kwargs["seed"] = seed_override
        kwargs["group_offset_range"] = (self.get_number("synth", "group_offset_lo", 1.0),
                                        self.get_number("synth", "group_offset_hi", 3.0))
        try:
            if "step_weights" in given:
                kwargs["step_weights"] = _parse_step_weights(given["step_weights"])
            return synthgen.SynthConfig(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"[synth] {exc}") from None

    def sensor_categorical_columns(self) -> list[str]:
        explicit = self.get("schema", "sensor_categorical_columns")
        if explicit is not None:
            return [c.strip() for c in explicit.split(",") if c.strip()]
        n = self.get_number("synth", "n_sensor_categoricals", 2)
        return [f"cat_{i:02d}" for i in range(n)]

    def monitor_marker(self) -> str:
        marker = self.get("schema", "monitor_marker", "MON")
        if not marker:
            # "" is a substring of every KQI label: every measurement would be a monitor
            raise ConfigError("[schema] monitor_marker must not be empty")
        return marker

    def train_on_monitor(self) -> bool:
        return self.get_bool("schema", "train_on_monitor", False)

    def train_config(self, loss_override: str | None = None,
                     seed_override: int | None = None) -> TrainConfig:
        """TrainConfig from the [train] keys given; the others keep TrainConfig's defaults."""
        kwargs = {"loss": loss_override or self.get("train", "loss", TrainConfig.loss)}
        for key in self.raw.get("train", {}):
            if key != "loss":
                field = "re_c" if key == "re_loss_c" else key
                kwargs[field] = self.get_number("train", key, getattr(TrainConfig, field))
        if seed_override is not None:
            kwargs["seed"] = seed_override
        try:
            return TrainConfig(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"[train] {exc}") from None

    def arch_preset(self, override: str | None = None) -> str:
        preset = override or self.get("arch", "preset", "small")
        if preset not in ("small", "large"):
            raise ConfigError(f"[arch] preset must be small or large, got {preset!r}")
        return preset

    def f_grid(self, override: str | None = None) -> tuple[float, ...]:
        """The sweep's f values: a nonempty list, each f in [0, 0.5)."""
        raw = override if override is not None else self.get("eval", "f_grid")
        if raw is None:
            return ev.DEFAULT_F_GRID
        try:
            grid = tuple(float(v) for v in raw.split(",") if v.strip() != "")
        except ValueError as exc:
            raise ConfigError(f"f grid {raw!r}: {exc}") from None
        if not grid or not all(0.0 <= f < 0.5 for f in grid):
            raise ConfigError(f"f grid {raw!r}: need one or more f values, each in [0, 0.5)")
        return grid

    def path(self, key: str, override: str | None) -> Path:
        value = override or self.get("paths", key)
        if value is None:
            raise ConfigError(f"no --{key.replace('_', '-')} given and no [paths] {key} in config")
        return Path(value)


def _parse_step_weights(raw: str) -> dict[int, float]:
    weights = {}
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        n, _, w = part.partition(":")
        try:
            weights[int(n)] = float(w)
        except ValueError:
            raise ValueError(f"step_weights: expected n:weight pairs, got {part!r}") from None
    return weights


def _parse_filter(raw: str | None) -> dict[str, str]:
    if not raw:
        return {}
    out = {}
    for part in raw.split(","):
        key, sep, value = part.partition("=")
        key = key.strip()
        if not sep or key not in ("kqi", "type"):
            raise ConfigError(f"filter must look like kqi=...,type=..., got {raw!r}")
        out["mtype" if key == "type" else key] = value.strip()
    return out


def _apply_filter(buckets: list[preprocess.Bucket], flt: dict[str, str]) -> list[preprocess.Bucket]:
    if not flt:
        return buckets
    out = []
    for bucket in buckets:
        mask = np.ones(len(bucket), dtype=bool)
        for attr, value in flt.items():
            mask &= getattr(bucket, attr) == value
        if mask.any():
            out.append(_bucket_subset(bucket, mask))
    return out


def _bucket_subset(bucket: preprocess.Bucket, mask: np.ndarray) -> preprocess.Bucket:
    kwargs = {k: getattr(bucket, k)[mask] for k in preprocess.BUCKET_ARRAY_KEYS}
    return preprocess.Bucket(n_steps=bucket.n_steps, **kwargs)


def _status(msg: str) -> None:
    print(msg, file=sys.stderr)


# Subcommands


def cmd_generate(args) -> int:
    cfg = RunConfig.load(args.config)
    synth_cfg = cfg.synth_config(seed_override=args.seed)
    out_dir = cfg.path("data_dir", args.out)
    result = synthgen.generate(synth_cfg, out_dir)
    _status(f"sensor rows:    {result.n_sensor_rows} ({result.n_sensor_duplicates} "
            f"verbatim duplicates) -> {result.sensor_path}")
    _status(f"metrology rows: {result.n_metrology_rows} ({result.n_metrology_duplicates} "
            f"verbatim duplicates) -> {result.metrology_path}")
    _status(f"limit rows:     {result.n_limit_rows} -> {result.limits_path}")
    _status(f"truth manifest: {result.manifest_path}")
    return 0


def _load_dataset(cfg: RunConfig, data_dir: Path):
    for name in ("sensor.csv", "metrology.csv", "limits.csv"):
        if not (data_dir / name).exists():
            raise ConfigError(f"data dir {data_dir} is missing {name}")
    cat_cols = cfg.sensor_categorical_columns()
    table = ingest.load_table(data_dir / "sensor.csv", ingest.SENSOR_ID_COLUMNS + cat_cols)
    sensor, duplicates = ingest.parse_sensor_table(table, cat_cols), {"sensor": table.n_duplicates}
    table = ingest.load_table(data_dir / "metrology.csv", ingest.METROLOGY_LABELS,
                              ingest.METROLOGY_NUMBERS)
    measurements = ingest.parse_metrology_table(table, cfg.monitor_marker())
    duplicates["metrology"] = table.n_duplicates
    _status("duplicate rows dropped: {sensor} sensor, {metrology} metrology".format(**duplicates))
    limits = ingest.parse_limits_table(ingest.load_table(
        data_dir / "limits.csv", ingest.LIMITS_LABELS, ingest.LIMITS_NUMBERS))
    return ingest.assemble_wafers(sensor, measurements), limits, duplicates


def cmd_preprocess(args) -> int:
    cfg = RunConfig.load(args.config)
    data_dir = cfg.path("data_dir", args.data)
    out_dir = cfg.path("features_dir", args.out)
    seed = cfg.get_number("preprocess", "seed", 0)
    if seed < 0:
        raise ConfigError(f"[preprocess] seed must be >= 0, got {seed}")
    monitor_marker = cfg.monitor_marker()
    out_dir.mkdir(parents=True, exist_ok=True)

    wafers, limits, duplicates = _load_dataset(cfg, data_dir)
    train, val, test = ingest.split_train_val_test(len(wafers), seed)
    _status(f"wafers: {len(wafers)} -> split {len(train)}/{len(val)}/{len(test)}")

    wafers = preprocess.filter_outlier_targets(wafers, train)
    pipeline = preprocess.fit_pipeline(wafers, train)
    groups = normgroups.build_groups(
        wafers.measurements.take(wafers.measurement_rows(train)), limits)
    normgroups.write_groups_csv(out_dir / "groups.csv", groups)
    _status(f"S = {pipeline.s_width}, M = {pipeline.m_width}, "
            f"normalization groups = {len(groups)}")

    monitor_is_training = cfg.train_on_monitor()
    bucket_sizes: dict[str, dict[str, int]] = {}
    for split, wafer_idx in (("train", train), ("val", val), ("test", test)):
        for stream, monitor_stream in ((preprocess.STREAM_REGRESSION, monitor_is_training),
                                       (preprocess.STREAM_PASSFAIL, not monitor_is_training)):
            buckets = preprocess.build_buckets(wafers, wafer_idx, pipeline, limits,
                                               monitor_stream)
            sizes = {}
            for n, bucket in buckets.items():
                preprocess.save_bucket(out_dir / preprocess.bucket_filename(stream, split, n),
                                       bucket)
                sizes[str(n)] = len(bucket)
            bucket_sizes[f"{stream}_{split}"] = sizes
            _status(f"{stream}/{split}: " + (", ".join(
                f"n={n}: {sizes[n]}" for n in sorted(sizes, key=int)) or "empty"))

    manifest_hash = preprocess.write_manifest(out_dir, pipeline, bucket_sizes, {
        "split_seed": seed,
        "train_on_monitor": monitor_is_training,
        "monitor_marker": monitor_marker,
        "duplicate_rows_dropped": duplicates,
    })
    _status(f"manifest hash: {manifest_hash}")
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    features_dir = cfg.path("features_dir", args.features)
    checkpoint_path = cfg.path("checkpoint", args.out)
    manifest, manifest_hash = preprocess.read_manifest(features_dir)
    train_cfg = cfg.train_config(loss_override=args.loss, seed_override=args.seed)
    preset = cfg.arch_preset(args.arch)
    arch = ArchConfig.preset(preset, manifest["s_width"], manifest["m_width"])

    flt = _parse_filter(args.filter)
    train_buckets = _apply_filter(preprocess.load_split(features_dir, "reg", "train"), flt)
    val_buckets = _apply_filter(preprocess.load_split(features_dir, "reg", "val"), flt)
    if not train_buckets or not val_buckets:
        raise ConfigError("empty train or val set after filtering")
    groups = normgroups.read_groups_csv(features_dir / "groups.csv")

    tb = make_train_buckets(train_buckets, manifest["s_width"], manifest["m_width"],
                            groups, train_cfg)
    vb = make_train_buckets(val_buckets, manifest["s_width"], manifest["m_width"],
                            groups, train_cfg)
    n_train = sum(len(b) for b in tb)
    _status(f"training {preset} model ({train_cfg.loss} loss) on "
            f"{n_train} samples, validating on {sum(len(b) for b in vb)}")

    params, history = fit(arch, tb, vb, train_cfg)
    best = min(h.val_loss for h in history)
    _status(f"stopped after {len(history)} epochs, best validation loss {best:.6f}")

    history_path = args.history or checkpoint_path.with_name(
        checkpoint_path.stem + "_history.csv")
    write_history_csv(history_path, history)
    save_checkpoint(checkpoint_path, params, {
        "loss": train_cfg.loss,
        "re_c": train_cfg.re_c,
        "seed": train_cfg.seed,
        "preset": preset,
        "filter": args.filter or "",
        "manifest_hash": manifest_hash,
    })
    _status(f"checkpoint -> {checkpoint_path}")
    _status(f"history    -> {history_path}")
    return 0


def _predictions(params, meta, buckets, manifest, groups):
    """Raw-scale predictions over all buckets, with a per-sample keep mask."""
    preds, keep = [], []
    for bucket in buckets:
        p = ev.predict_bucket(params, bucket, manifest["s_width"], manifest["m_width"])
        if meta["loss"] == "nl1":
            p, k = ev.denormalize_bucket(p, bucket, groups)
        else:
            k = np.ones(len(p), dtype=bool)
        preds.append(p)
        keep.append(k)
    return np.concatenate(preds), np.concatenate(keep)


def _column(buckets: list[preprocess.Bucket], key: str) -> np.ndarray:
    return np.concatenate([getattr(bucket, key) for bucket in buckets])


def cmd_evaluate(args, sweep_only: bool = False) -> int:
    cfg = RunConfig.load(args.config)
    features_dir = cfg.path("features_dir", args.features)
    checkpoint_path = cfg.path("checkpoint", args.checkpoint)
    out_dir = cfg.path("report_dir", args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    params, meta = load_checkpoint(checkpoint_path)
    manifest, manifest_hash = preprocess.read_manifest(features_dir)
    if meta["manifest_hash"] != manifest_hash:
        raise ConfigError(
            "checkpoint was trained on different preprocessing "
            f"(manifest hash {meta['manifest_hash'][:12]} != {manifest_hash[:12]})")
    groups = normgroups.read_groups_csv(features_dir / "groups.csv")
    flt = _parse_filter(args.test_filter)
    f_grid = cfg.f_grid(args.f_grid)
    diagnostics: dict[str, int] = {}

    grouping = None
    if not sweep_only:
        reg_buckets = _apply_filter(preprocess.load_split(features_dir, "reg", "test"), flt)
        if not reg_buckets:
            raise ConfigError("no regression test samples after filtering")
        preds, keep = _predictions(params, meta, reg_buckets, manifest, groups)
        if not keep.all():
            diagnostics["regression_samples_without_group"] = int(np.sum(~keep))
        grouping = ev.grouping_report(preds[keep], _column(reg_buckets, "target")[keep])
        ev.write_grouping_csv(out_dir / "grouping.csv", grouping)

    pf_buckets = _apply_filter(preprocess.load_split(features_dir, "pf", "test"), flt)
    sweep_rows: list[ev.SweepRow] = []
    if pf_buckets:
        preds, keep = _predictions(params, meta, pf_buckets, manifest, groups)
        lcl, ucl = _column(pf_buckets, "lcl"), _column(pf_buckets, "ucl")
        no_limits = keep & ~(np.isfinite(lcl) & np.isfinite(ucl))
        if not keep.all():
            diagnostics["passfail_samples_without_group"] = int(np.sum(~keep))
        if no_limits.any():
            diagnostics["passfail_samples_without_limits"] = int(np.sum(no_limits))
        use = keep & ~no_limits
        if use.any():
            truth = ev.label_fail_arrays(
                _column(pf_buckets, "passfail")[use], _column(pf_buckets, "inspection")[use],
                _column(pf_buckets, "target")[use], lcl[use], ucl[use])
            sweep_rows = ev.recall_fpr_sweep(preds[use], truth, lcl[use], ucl[use], f_grid)
            ev.write_sweep_csv(out_dir / "sweep.csv", sweep_rows)
            ev.write_sweep_csv(out_dir / "plot_recall_fpr.csv", sweep_rows,
                               with_counts=False)
    else:
        _status("no pass/fail test buckets found, skipping the sweep")

    report = ev.format_report_text(grouping, sweep_rows, diagnostics)
    with atomic_open(out_dir / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(report)
    _status(report.rstrip("\n"))
    _status(f"reports -> {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wafersense",
        description="Soft-sensing regression pipeline over wafer sensor data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output data directory")
    p.add_argument("--seed", type=int, help="override [synth] seed")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("preprocess", help="fit transforms and write feature buckets")
    p.add_argument("--config", required=True)
    p.add_argument("--data", help="directory with sensor/metrology/limits CSVs")
    p.add_argument("--out", help="output features directory")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train a model on preprocessed features")
    p.add_argument("--config", required=True)
    p.add_argument("--features", help="features directory")
    p.add_argument("--out", help="checkpoint path (.npz)")
    p.add_argument("--history", help="history CSV path")
    p.add_argument("--loss", choices=["re", "nl1"], help="override [train] loss")
    p.add_argument("--arch", choices=["small", "large"], help="override [arch] preset")
    p.add_argument("--filter", help="train on one subset, e.g. kqi=KQI-1,type=TYPE-1")
    p.add_argument("--seed", type=int, help="override [train] seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="grade predictions and run the pass/fail sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", help="trained checkpoint path")
    p.add_argument("--features", help="features directory")
    p.add_argument("--out", help="report directory")
    p.add_argument("--f-grid", help="comma-separated f values")
    p.add_argument("--test-filter", help="evaluate one subset, e.g. kqi=KQI-1,type=TYPE-1")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run only the recall/FPR tradeoff sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", help="trained checkpoint path")
    p.add_argument("--features", help="features directory")
    p.add_argument("--out", help="report directory")
    p.add_argument("--f-grid", help="comma-separated f values")
    p.add_argument("--test-filter", help="evaluate one subset")
    p.set_defaults(func=lambda a: cmd_evaluate(a, sweep_only=True))
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ingest.IngestError, preprocess.PreprocessError,
            TrainingDiverged, ev.EvaluationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
