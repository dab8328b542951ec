"""Correctness checks on the program's output files.

Every check compares an output with a figure the benchmark computes itself
from the inputs, or with a property the method must have; none compares
with a stored copy of an earlier output. A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# The paper's six error bands: band k (1..5) is entered when the relative
# error beats the first threshold or the absolute error beats the second.
BANDS = ((0.01, 0.1), (0.05, 0.5), (0.10, 1.0), (0.50, 5.0), (1.00, 10.0))
FAIL_LABELS = ("FAIL_AVG_HI", "FAIL_AVG_LOW")
FAIL_INSPECTIONS = ("REWORK", "SCRAP")
STREAMS = ("reg", "pf")
SPLITS = ("train", "val", "test")


class CheckFailed(AssertionError):
    pass


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digest(directory) -> dict[str, str]:
    root = Path(directory)
    return {str(p.relative_to(root)): sha256_file(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


# arithmetic of the method

def closed_form_param_count(s: int, m: int, d: int, h: int) -> int:
    """Embedding, four LSTM gates (input, recurrent, bias), MLP (d+M)->H->H->1."""
    return (s + 1) * d + 4 * (2 * d * d + d) + (d + m + 1) * h + (h + 1) * h + (h + 1)


def grade_bands(y_hat, y) -> np.ndarray:
    """Counts of predictions in bands 1..6."""
    y_hat = np.asarray(y_hat, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    eps = np.abs(y_hat - y)
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.where(y != 0, eps / np.abs(y), np.inf)
    band = np.full(len(y), 6)
    for k in range(len(BANDS), 0, -1):
        rel, ab = BANDS[k - 1]
        band = np.where((eta < rel) | (eps < ab), k, band)
    return np.bincount(band - 1, minlength=6)


def true_fail(passfail, inspection, target, lcl, ucl) -> np.ndarray:
    """A wafer truly failed when its label, its inspection and its limits agree."""
    return (np.isin(passfail, FAIL_LABELS) & np.isin(inspection, FAIL_INSPECTIONS)
            & ((target > ucl) | (target < lcl)))


def confusion_at(y_hat, truth, lcl, ucl, f: float) -> tuple[int, int, int, int]:
    """(tp, fn, fp, tn) of the screen that fails a prediction outside the
    control-limit interval shrunk by f of its width at each end."""
    r = ucl - lcl
    predicted = ~((lcl + f * r < y_hat) & (y_hat < ucl - f * r))
    return (int(np.sum(predicted & truth)), int(np.sum(~predicted & truth)),
            int(np.sum(predicted & ~truth)), int(np.sum(~predicted & ~truth)))


# readers of the program's file formats

def read_manifest(features_dir) -> dict:
    return json.loads((Path(features_dir) / "manifest.json").read_text(encoding="utf-8"))


def widths(manifest: dict) -> tuple[int, int]:
    """(S, M) from the fitted vocabularies: kept numerics plus one-hot blocks
    of len(labels) + 1 slots each (the last slot is UNKNOWN)."""
    s = len(manifest["kept_numeric"]) + sum(len(v) + 1 for v in manifest["sensor_vocab"])
    m = sum(len(v) + 1 for v in manifest["meas_vocab"])
    return s, m


def bucket_paths(features_dir, stream: str, split: str) -> list[Path]:
    return sorted(Path(features_dir).glob(f"{stream}_{split}_n*.npz"))


def load_bucket(path) -> dict:
    with np.load(path, allow_pickle=False) as data:
        return {k: data[k] for k in data.files}


def read_groups(features_dir) -> dict[tuple[str, str, str], tuple[float, float]]:
    with open(Path(features_dir) / "groups.csv", newline="", encoding="utf-8") as fh:
        return {(r["kqi"], r["type"], r["stage"]): (float(r["b1"]), float(r["b2"]))
                for r in csv.DictReader(fh)}


def read_history(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_grouping(path) -> list[int]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [int(r[1]) for r in rows[1:7]]


def read_sweep(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]


def checkpoint_param_count(path) -> int:
    with np.load(path, allow_pickle=False) as data:
        return sum(data[k].size for k in data.files if k != "__meta__")


# checks

def check_manifest_rows(features_dir, load_split) -> None:
    """Rows on disk and rows the program's loader returns equal the manifest's
    bucket_sizes for every (stream, split): no stale bucket is picked up."""
    sizes = read_manifest(features_dir)["bucket_sizes"]
    for stream in STREAMS:
        for split in SPLITS:
            expected = {int(n): c for n, c in sizes.get(f"{stream}_{split}", {}).items()}
            on_disk = {int(b["n_steps"]): len(b["target"])
                       for b in map(load_bucket, bucket_paths(features_dir, stream, split))}
            require(on_disk == expected,
                    f"{stream}_{split}: bucket files hold {on_disk}, manifest says {expected}")
            loaded = sum(len(b) for b in load_split(Path(features_dir), stream, split))
            require(loaded == sum(expected.values()),
                    f"{stream}_{split}: loader returned {loaded} rows, "
                    f"manifest says {sum(expected.values())}")


def count_wafers_in_csvs(data_dir) -> int:
    """Distinct (processing_id, product_id) pairs with a sensor row and a
    metrology row that carries a measurement."""
    def ids(name, value_column=None):
        with open(Path(data_dir) / name, newline="", encoding="utf-8") as fh:
            return {(r["processing_id"], r["product_id"]) for r in csv.DictReader(fh)
                    if r["processing_id"] and r["product_id"]
                    and (value_column is None or r[value_column])}
    return len(ids("sensor.csv") & ids("metrology.csv", "meas_med"))


def check_features(data_dir, features_dir) -> None:
    """prep_20k: wafer count and 7:2:1 split, row widths, scaled ranges, one-hot blocks."""
    manifest = read_manifest(features_dir)
    s, m = widths(manifest)
    require((s, m) == (manifest["s_width"], manifest["m_width"]),
            f"manifest widths {(manifest['s_width'], manifest['m_width'])} != "
            f"{(s, m)} computed from its vocabularies")
    n_numeric = len(manifest["kept_numeric"])
    sensor_blocks = [len(v) + 1 for v in manifest["sensor_vocab"]]
    meas_blocks = [len(v) + 1 for v in manifest["meas_vocab"]]

    wafers_per_split = {}
    for split in SPLITS:
        ids = set()
        for stream in STREAMS:
            for path in bucket_paths(features_dir, stream, split):
                b = load_bucket(path)
                n = int(b["n_steps"])
                x = b["features"]
                require(x.ndim == 2 and x.shape[1] == n * s + m,
                        f"{path.name}: rows are {x.shape[1:]} wide, expected n*S+M = {n * s + m}")
                require(np.all(np.isfinite(x)), f"{path.name}: non-finite feature")
                steps = x[:, : n * s].reshape(len(x), n, s)
                if split == "train":
                    numeric = steps[:, :, :n_numeric]
                    require(numeric.min() >= 0.0 and numeric.max() <= 1.0,
                            f"{path.name}: scaled numeric features leave [0, 1] "
                            f"({numeric.min()}, {numeric.max()})")
                _check_one_hot(steps[:, :, n_numeric:], sensor_blocks, path.name)
                _check_one_hot(x[:, n * s:], meas_blocks, path.name)
                ids.update(zip(b["processing_id"].tolist(), b["product_id"].tolist()))
        wafers_per_split[split] = len(ids)

    n = count_wafers_in_csvs(data_dir)
    expected = {"train": n - (2 * n) // 10 - n // 10, "val": (2 * n) // 10, "test": n // 10}
    require(sum(wafers_per_split.values()) == n,
            f"buckets hold {sum(wafers_per_split.values())} wafers, the CSVs {n}")
    require(wafers_per_split == expected,
            f"split sizes {wafers_per_split} break the 7:2:1 floor rule {expected}")


def _check_one_hot(block: np.ndarray, block_widths: list[int], where: str) -> None:
    start = 0
    for w in block_widths:
        part = block[..., start : start + w]
        require(np.all((part == 0) | (part == 1)) and np.all(part.sum(axis=-1) == 1),
                f"{where}: a one-hot block at columns {start}..{start + w - 1} "
                f"does not hold exactly one 1")
        start += w
    require(start == block.shape[-1], f"{where}: one-hot blocks cover {start} of "
                                      f"{block.shape[-1]} columns")


def check_history(path, epochs: int) -> list[dict]:
    rows = read_history(path)
    require(len(rows) == epochs, f"{path}: {len(rows)} epochs logged, expected {epochs}")
    for r in rows:
        for key in ("train_loss", "val_loss"):
            require(math.isfinite(float(r[key])), f"{path}: epoch {r['epoch']} {key} = {r[key]}")
    return rows


def check_param_count(checkpoint, s: int, m: int, d: int, h: int) -> None:
    got = checkpoint_param_count(checkpoint)
    want = closed_form_param_count(s, m, d, h)
    require(got == want, f"checkpoint holds {got} parameters, closed form gives {want}")


def split_rows(features_dir, stream: str, split: str, flt: dict | None = None):
    """(n_steps, bucket dict) pairs of one split, optionally filtered on kqi/mtype."""
    out = []
    for path in bucket_paths(features_dir, stream, split):
        b = load_bucket(path)
        if flt:
            mask = np.ones(len(b["target"]), dtype=bool)
            for key, value in flt.items():
                mask &= b[key] == value
            b = {k: (v[mask] if v.ndim else v) for k, v in b.items()}
        if len(b["target"]):
            out.append((int(b["n_steps"]), b))
    return out


def group_bounds(b: dict, groups) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (b1, b2) of the row's (kqi, type, stage) group, NaN without one."""
    pairs = [groups.get(k, (np.nan, np.nan))
             for k in zip(b["kqi"].tolist(), b["mtype"].tolist(), b["stage"].tolist())]
    arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    return arr[:, 0], arr[:, 1]


def check_scores(features_dir, report_dir, predict, normalized: bool) -> int:
    """score_nl1: recompute the grouping and the sweep from predictions.

    ``predict(n_steps, bucket) -> predictions`` gives the model's outputs on
    its own scale. Returns the number of rows predicted and graded.
    """
    groups = read_groups(features_dir)

    def raw_predictions(stream):
        rows = []
        for n, b in split_rows(features_dir, stream, "test"):
            y_hat = np.asarray(predict(n, b), dtype=np.float64)
            require(np.all(np.isfinite(y_hat)), f"{stream} test n={n}: non-finite prediction")
            keep = np.ones(len(y_hat), dtype=bool)
            if normalized:
                b1, b2 = group_bounds(b, groups)
                keep = ~np.isnan(b1)
                y_hat = y_hat * (b2 - b1) + b1
            rows.append((b, y_hat, keep))
        return rows

    graded = 0
    reg = raw_predictions("reg")
    y_hat = np.concatenate([p[k] for _, p, k in reg])
    target = np.concatenate([b["target"][k] for b, _, k in reg])
    bands = grade_bands(y_hat, target).tolist()
    reported = read_grouping(Path(report_dir) / "grouping.csv")
    require(bands == reported, f"grouping.csv holds {reported}, recomputed bands {bands}")
    graded += len(y_hat)

    pf = raw_predictions("pf")
    cols = {k: [] for k in ("y_hat", "passfail", "inspection", "target", "lcl", "ucl")}
    for b, p, keep in pf:
        use = keep & np.isfinite(b["lcl"]) & np.isfinite(b["ucl"])
        cols["y_hat"].append(p[use])
        for k in ("passfail", "inspection", "target", "lcl", "ucl"):
            cols[k].append(b[k][use])
    c = {k: np.concatenate(v) for k, v in cols.items()}
    truth = true_fail(c["passfail"], c["inspection"], c["target"], c["lcl"], c["ucl"])
    sweep = read_sweep(Path(report_dir) / "sweep.csv")
    require(sweep, "sweep.csv is empty")
    require([r["f"] for r in sweep] == sorted(r["f"] for r in sweep), "sweep rows not sorted by f")
    for r in sweep:
        counts = tuple(int(r[k]) for k in ("tp", "fn", "fp", "tn"))
        require(sum(counts) == len(truth),
                f"f={r['f']}: tp+fn+fp+tn = {sum(counts)}, pass/fail rows = {len(truth)}")
        require(counts[0] + counts[1] == int(truth.sum()),
                f"f={r['f']}: tp+fn = {counts[0] + counts[1]}, recomputed true fails "
                f"= {int(truth.sum())}")
        want = confusion_at(c["y_hat"], truth, c["lcl"], c["ucl"], r["f"])
        require(counts == want, f"f={r['f']}: sweep.csv counts {counts}, recomputed {want}")
    for prev, cur in zip(sweep, sweep[1:]):
        for key in ("recall", "fpr"):
            if math.isfinite(prev[key]) and math.isfinite(cur[key]):
                require(cur[key] >= prev[key],
                        f"{key} falls from {prev[key]} at f={prev['f']} "
                        f"to {cur[key]} at f={cur['f']}")
    graded += len(truth)
    return graded


def check_decent_rate(features_dir, predict, minimum: float) -> float:
    """train_c6: share of raw-scale test predictions in bands 1-2."""
    preds, targets = [], []
    for n, b in split_rows(features_dir, "reg", "test"):
        p = np.asarray(predict(n, b), dtype=np.float64)
        require(np.all(np.isfinite(p)), f"reg test n={n}: non-finite prediction")
        preds.append(p)
        targets.append(b["target"])
    bands = grade_bands(np.concatenate(preds), np.concatenate(targets))
    rate = (bands[0] + bands[1]) / bands.sum()
    require(rate >= minimum, f"decent rate {rate:.4f} below {minimum} (bands {bands.tolist()})")
    return float(rate)


def check_identical(digests: list, what: str) -> None:
    for i, d in enumerate(digests[1:], start=2):
        require(d == digests[0], f"{what}: round {i} differs from round 1")
