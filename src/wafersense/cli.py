"""Command-line pipeline: generate, preprocess, train, evaluate, sweep.

Configuration is a flat INI-style key-value file with sections; every key
has a documented default (see README) except synth.n_wafers, which
``generate`` requires. The [synth] and [train] keys are the fields of
SynthConfig and TrainConfig, each read by its field's type, and their
defaults are the dataclasses' own. Unknown sections or keys are rejected.
Data goes to files; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import evaluate as ev
from . import ingest, normgroups, preprocess, synthgen
from .atomic import atomic_open
from .nn import PRESETS, ArchConfig, CheckpointError, load_checkpoint, save_checkpoint
from .train import (LOSS_NL1, LOSSES, TrainConfig, TrainingDiverged, fit, make_train_buckets,
                    write_history_csv)

BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


class ConfigError(ValueError):
    pass


KNOWN_KEYS = {
    "synth": {f.name for f in fields(synthgen.SynthConfig)},
    "schema": {"sensor_categorical_columns", "monitor_marker", "train_on_monitor"},
    "preprocess": {"seed"},
    "arch": {"preset"},
    "train": {f.name for f in fields(TrainConfig)},
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
        if not parser.read(path):
            raise ConfigError(f"config file not found: {path}")
        raw = {section: dict(parser.items(section)) for section in parser.sections()}
        for section, given in raw.items():
            if section not in KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{section}]")
            for key in given:
                if key not in KNOWN_KEYS[section]:
                    raise ConfigError(f"unknown config key [{section}] {key}")
        return cls(raw)

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.raw.get(section, {}).get(key, default)

    def value(self, section: str, key: str, parse, default=None):
        """[section] key read by ``parse``, or ``default`` when the key is absent."""
        v = self.get(section, key)
        try:
            return default if v is None else parse(v)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc} (key {key})") from None

    def build(self, section: str, cls, **overrides):
        """``cls`` from the [section] keys given, each read by its field's type, and
        the ``overrides`` that are not None; the other fields keep their defaults."""
        given = self.raw.get(section, {})
        for f in fields(cls):
            if f.name not in given and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"missing required config key: [{section}] {f.name}")
        types = typing.get_type_hints(cls)
        kwargs = {key: self.value(section, key, _parse_step_weights if key == "step_weights"
                                  else types[key]) for key in given}
        kwargs.update((key, v) for key, v in overrides.items() if v is not None)
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {exc}") from None

    def synth_config(self, seed_override: int | None = None) -> synthgen.SynthConfig:
        return self.build("synth", synthgen.SynthConfig, seed=seed_override)

    def train_config(self, loss_override: str | None = None,
                     seed_override: int | None = None) -> TrainConfig:
        return self.build("train", TrainConfig, loss=loss_override, seed=seed_override)

    def sensor_categorical_columns(self) -> list[str]:
        explicit = self.get("schema", "sensor_categorical_columns")
        if explicit is not None:
            return [c.strip() for c in explicit.split(",") if c.strip()]
        return synthgen.categorical_column_names(self.value(
            "synth", "n_sensor_categoricals", int, synthgen.SynthConfig.n_sensor_categoricals))

    def monitor_marker(self) -> str:
        marker = self.get("schema", "monitor_marker", ingest.MONITOR_MARKER)
        if not marker:
            # "" is a substring of every KQI label: every measurement would be a monitor
            raise ConfigError("[schema] monitor_marker must not be empty")
        return marker

    def train_on_monitor(self) -> bool:
        v = self.get("schema", "train_on_monitor", "false")
        if v.lower() not in BOOLEANS:
            raise ConfigError(f"[schema] train_on_monitor: expected a boolean, got {v!r}")
        return BOOLEANS[v.lower()]

    def arch_preset(self, override: str | None = None) -> str:
        preset = override or self.get("arch", "preset", next(iter(PRESETS)))
        if preset not in PRESETS:
            raise ConfigError(f"[arch] preset must be {' or '.join(PRESETS)}, got {preset!r}")
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
            raise ValueError(f"expected n:weight pairs, got {part!r}") from None
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


def _load_split(features_dir: Path, stream: str, split: str,
                flt: dict[str, str]) -> list[preprocess.Bucket]:
    """The listed (stream, split) buckets, cut to the rows that match ``flt``."""
    buckets = preprocess.load_split(features_dir, stream, split)
    if not flt:
        return buckets
    out = []
    for bucket in buckets:
        mask = np.ones(len(bucket), dtype=bool)
        for attr, value in flt.items():
            mask &= getattr(bucket, attr) == value
        if mask.any():
            out.append(preprocess.Bucket(n_steps=bucket.n_steps, **{
                k: getattr(bucket, k)[mask] for k in preprocess.BUCKET_ARRAY_KEYS}))
    return out


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
    cols = cfg.sensor_categorical_columns()
    table = ingest.load_table(data_dir / "sensor.csv", ingest.SENSOR_ID_COLUMNS + cols)
    sensor, duplicates = ingest.parse_sensor_table(table, cols), {"sensor": table.n_duplicates}
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
    seed = cfg.value("preprocess", "seed", int, 0)
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
    preprocess.write_groups_csv(out_dir / "groups.csv", groups)
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
    train_buckets = _load_split(features_dir, preprocess.STREAM_REGRESSION, "train", flt)
    val_buckets = _load_split(features_dir, preprocess.STREAM_REGRESSION, "val", flt)
    if not train_buckets or not val_buckets:
        raise ConfigError("empty train or val set after filtering")
    groups = preprocess.read_groups_csv(features_dir / "groups.csv")

    tb = make_train_buckets(train_buckets, manifest["s_width"], manifest["m_width"],
                            groups, train_cfg)
    vb = make_train_buckets(val_buckets, manifest["s_width"], manifest["m_width"],
                            groups, train_cfg)
    n_train = sum(len(b) for b in tb)
    history_path = args.history or checkpoint_path.with_name(
        checkpoint_path.stem + "_history.csv")
    for path in (checkpoint_path, Path(history_path)):  # before the fit, not after it
        path.parent.mkdir(parents=True, exist_ok=True)
    _status(f"training {preset} model ({train_cfg.loss} loss) on "
            f"{n_train} samples, validating on {sum(len(b) for b in vb)}")

    params, history = fit(arch, tb, vb, train_cfg)
    best = min(h.val_loss for h in history)
    _status(f"stopped after {len(history)} epochs, best validation loss {best:.6f}")

    write_history_csv(history_path, history)
    save_checkpoint(checkpoint_path, params, {
        "loss": train_cfg.loss,
        "re_c": train_cfg.re_loss_c,
        "seed": train_cfg.seed,
        "preset": preset,
        "filter": args.filter or "",
        "manifest_hash": manifest_hash,
    })
    _status(f"checkpoint -> {checkpoint_path}")
    _status(f"history    -> {history_path}")
    return 0


def _predictions(params, meta, buckets, groups):
    """Raw-scale predictions over all buckets, with a per-sample keep mask."""
    preds, keep = [], []
    for bucket in buckets:
        p = ev.predict_bucket(params, bucket)
        if meta["loss"] == LOSS_NL1:
            p, k = ev.denormalize_bucket(p, bucket, groups)
        else:
            k = np.ones(len(p), dtype=bool)
        preds.append(p)
        keep.append(k)
    return np.concatenate(preds), np.concatenate(keep)


def _column(buckets: list[preprocess.Bucket], key: str) -> np.ndarray:
    return np.concatenate([getattr(bucket, key) for bucket in buckets])


def cmd_evaluate(args) -> int:
    cfg = RunConfig.load(args.config)
    features_dir = cfg.path("features_dir", args.features)
    checkpoint_path = cfg.path("checkpoint", args.checkpoint)
    out_dir = cfg.path("report_dir", args.out)

    params, meta = load_checkpoint(checkpoint_path)
    if meta.get("loss") not in LOSSES or not isinstance(meta.get("manifest_hash"), str):
        raise CheckpointError(f"checkpoint {checkpoint_path} has a bad __meta__: loss "
                              f"{meta.get('loss')!r}, manifest_hash {meta.get('manifest_hash')!r}")
    _, manifest_hash = preprocess.read_manifest(features_dir)
    if meta["manifest_hash"] != manifest_hash:
        raise ConfigError(
            "checkpoint was trained on different preprocessing "
            f"(manifest hash {meta['manifest_hash'][:12]} != {manifest_hash[:12]})")
    groups = preprocess.read_groups_csv(features_dir / "groups.csv")
    flt = _parse_filter(args.test_filter)
    f_grid = cfg.f_grid(args.f_grid)
    reg_buckets = [] if args.sweep_only else _load_split(
        features_dir, preprocess.STREAM_REGRESSION, "test", flt)
    if not (args.sweep_only or reg_buckets):
        raise ConfigError("no regression test samples after filtering")
    pf_buckets = _load_split(features_dir, preprocess.STREAM_PASSFAIL, "test", flt)
    out_dir.mkdir(parents=True, exist_ok=True)  # after every check: a refused run leaves none
    diagnostics: dict[str, int] = {}

    grouping = None
    if reg_buckets:
        preds, keep = _predictions(params, meta, reg_buckets, groups)
        if not keep.all():
            diagnostics["regression_samples_without_group"] = int(np.sum(~keep))
        grouping = ev.grouping_report(preds[keep], _column(reg_buckets, "target")[keep])
        ev.write_grouping_csv(out_dir / "grouping.csv", grouping)

    sweep_rows: list[ev.SweepRow] = []
    if pf_buckets:
        preds, keep = _predictions(params, meta, pf_buckets, groups)
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
    p.set_defaults(func=cmd_generate.__name__)

    p = sub.add_parser("preprocess", help="fit transforms and write feature buckets")
    p.add_argument("--config", required=True)
    p.add_argument("--data", help="directory with sensor/metrology/limits CSVs")
    p.add_argument("--out", help="output features directory")
    p.set_defaults(func=cmd_preprocess.__name__)

    p = sub.add_parser("train", help="train a model on preprocessed features")
    p.add_argument("--config", required=True)
    p.add_argument("--features", help="features directory")
    p.add_argument("--out", help="checkpoint path (.npz)")
    p.add_argument("--history", help="history CSV path")
    p.add_argument("--loss", choices=LOSSES, help="override [train] loss")
    p.add_argument("--arch", choices=list(PRESETS), help="override [arch] preset")
    p.add_argument("--filter", help="train on one subset, e.g. kqi=KQI-1,type=TYPE-1")
    p.add_argument("--seed", type=int, help="override [train] seed")
    p.set_defaults(func=cmd_train.__name__)

    for name, help_text, sweep_only in (
            ("evaluate", "grade predictions and run the pass/fail sweep", False),
            ("sweep", "run only the recall/FPR tradeoff sweep", True)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--checkpoint", help="trained checkpoint path")
        p.add_argument("--features", help="features directory")
        p.add_argument("--out", help="report directory")
        p.add_argument("--f-grid", help="comma-separated f values")
        p.add_argument("--test-filter", help="evaluate one subset, e.g. kqi=KQI-1,type=TYPE-1")
        p.set_defaults(func=cmd_evaluate.__name__, sweep_only=sweep_only)
    return parser


PARSER = build_parser()


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    args = PARSER.parse_args(argv)
    try:
        return globals()[args.func](args)  # looked up per call, so a replaced cmd_* runs
    except (ConfigError, ingest.IngestError, preprocess.PreprocessError, CheckpointError,
            TrainingDiverged, ev.EvaluationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
