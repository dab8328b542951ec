from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from wafersense import cli
from wafersense.nn import ModelParams


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


def zeros_like_params(params: ModelParams) -> ModelParams:
    return ModelParams(params.cfg, np.zeros_like(params.flat))


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
