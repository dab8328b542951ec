from __future__ import annotations

import os
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from wafersense import cli, host
from wafersense.domain import MeasurementTable, SensorTable, WaferTable
from wafersense.ingest import datetime_features
from wafersense.nn import ModelParams

# The deeper run CI makes of the reference and ingest tests:
# pytest --hypothesis-profile=ci
settings.register_profile("ci", max_examples=300, deadline=None)


def examples(n: int) -> int:
    """``n`` Hypothesis examples under the default profile's 100, scaled with
    the loaded profile's count (three times as many under ``ci``)."""
    return n * settings.default.max_examples // 100


TINY_CONFIG = """\
[synth]
n_wafers = 220
seed = 11
fail_rate = 0.05

[train]
max_epochs = 3
patience = 10
seed = 3
"""


def write_config(path: Path, text: str = TINY_CONFIG) -> Path:
    cfg = path / "run.cfg"
    cfg.write_text(text, encoding="utf-8")
    return cfg


def pin_cores(monkeypatch, cores: int) -> None:
    """Make the program see ``cores`` cores, whatever the machine's."""
    monkeypatch.setattr(host, "cores", lambda: cores)


def recording_forks(monkeypatch) -> list[int]:
    """The pids of the processes the program forks, filled in as it forks them."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(params.cfg, np.zeros_like(params.flat))


EPOCH = datetime(1970, 1, 1)
MEASUREMENT = dict(processing_id="P", product_id="W", kqi="K", mtype="T", stage="S",
                   equipid="E", prod="R", meas_med=5.0, passfail="PASS", inspection="NONE",
                   targ_min=np.nan, targ_max=np.nan, is_monitor=False)


def wall_us(timestamp: datetime) -> int:
    return (timestamp - EPOCH) // timedelta(microseconds=1)


def measurement_table(*rows: dict) -> MeasurementTable:
    """One measurement per dict, each overriding fields of MEASUREMENT."""
    rows = [{**MEASUREMENT, **row} for row in rows]
    return MeasurementTable(**{
        key: np.array([row[key] for row in rows],
                      dtype=type(value) if isinstance(value, (bool, float)) else object)
        for key, value in MEASUREMENT.items()})


def wafer_table(wafers, numeric_names=("n0", "n1", "n2"), cat_names=("c0", "c1")) -> WaferTable:
    """A WaferTable from [(wafer id, [(timestamp, readings, labels)], [measurement fields])];
    None readings are missing."""
    steps = [step for _, wafer_steps, _ in wafers for step in wafer_steps]
    wall = np.array([wall_us(ts) for ts, _, _ in steps], dtype=np.int64)
    numeric = np.array([[np.nan if v is None else v for v in readings] for _, readings, _ in steps],
                       dtype=float).reshape(len(steps), len(numeric_names))
    categorical = np.array([list(labels) for _, _, labels in steps],
                           dtype=object).reshape(len(steps), len(cat_names))
    sensor = SensorTable(
        processing_id=np.array([wid[0] for wid, _, _ in wafers], dtype=object),
        product_id=np.array([wid[1] for wid, _, _ in wafers], dtype=object),
        starts=np.cumsum([0] + [len(s) for _, s, _ in wafers]), time_us=wall,
        numeric=np.column_stack([numeric, *datetime_features(wall)]),
        categorical=categorical, numeric_names=tuple(numeric_names),
        categorical_names=tuple(cat_names))
    measurements = measurement_table(*({**m, "processing_id": wid[0], "product_id": wid[1]}
                                       for wid, _, meas in wafers for m in meas))
    return WaferTable(sensor, measurements, np.cumsum([0] + [len(m) for _, _, m in wafers]))


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """Generate + preprocess + short train on a small synthetic dataset."""
    root = tmp_path_factory.mktemp("tiny_run")
    cfg = write_config(root)
    data = root / "data"
    features = root / "features"
    checkpoint = root / "model.npz"
    assert run_cli("generate", "--config", cfg, "--out", data) == 0
    assert run_cli("preprocess", "--config", cfg, "--data", data, "--out", features) == 0
    assert run_cli("train", "--config", cfg, "--features", features,
                   "--out", checkpoint) == 0
    return {"root": root, "config": cfg, "data": data, "features": features,
            "checkpoint": checkpoint}
