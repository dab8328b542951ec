"""The columnar ingest/preprocess path against the row-object reference.

Small CSV datasets are drawn with the awkward cases of real exports: blank
numeric and label cells, duplicate rows, timestamp ties, rows without an id
or a timestamp, blank meas_med, inverted targ pairs, monitor rows, outlier
targets and val/test labels that training never saw. ``preprocess`` must
write exactly the buckets, manifest and groups that the reference builds,
or fail where the reference fails.
"""

import csv
import json
from datetime import datetime
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from wafersense import ingest, preprocess
from wafersense.preprocess import read_groups_csv

import rowref
from conftest import examples, run_cli

SENSOR_HEADER = ["processing_id", "product_id", "timestamp", "s0", "s1", "s2", "cat_00", "cat_01"]
STAMPS = ["2022-01-01T00:00:00", "2022-01-01T00:00:00.5", "2022-03-01 12:30:00",
          "2021-12-31T23:59:59.999999", "2020-02-29T06:00:00", "1969-07-20T20:17:40",
          "0001-01-01T00:00:00", "9999-12-31T23:59:59", "2022-06-15T08:30"]
NUMBERS = ["0", "1.5", "-2", "1e3", " 7 ", "1_0", "3.25", "-0.0", "0.0", "1500"]
LABELS = ["A", "B", "a b", "Ä"]
KQIS = ["KQI-1", "KQI-2", "KQI-MON-1", "MON"]
# (0.5, 3) and (0, 2.5) tie on width, so the narrowest-group rule must break on b1
TARGS = [("", ""), ("1", "9"), ("0.5", "3"), ("0", "2.5"), ("9", "2"), ("4", "4"), ("3", ""),
         ("", "8")]

PIDS = [f"P{i}" for i in range(8)]
PRODS = [f"W{i}" for i in range(3)]


def mostly(values, blank_every=8):
    """Draws from ``values``, and about once in ``blank_every`` draws a blank cell."""
    return st.sampled_from(list(values) * (blank_every - 1) + [""] * len(values))


@st.composite
def sensor_rows(draw):
    stamp = draw(st.one_of(mostly(STAMPS), st.datetimes(datetime(1900, 1, 1)).map(str)))
    return [draw(mostly(PIDS)), draw(mostly(PRODS, 20)), stamp,
            *(draw(mostly(NUMBERS, 5)) for _ in range(3)),
            *(draw(mostly(LABELS, 4)) for _ in range(2))]


@st.composite
def metrology_rows(draw):
    return [draw(mostly(PIDS + ["P9"], 20)), draw(st.sampled_from(PRODS)),
            draw(mostly(KQIS)), draw(mostly(["T1", "T2"])), draw(st.sampled_from(["S1", "S2"])),
            draw(mostly(["E1", "E2"])), draw(st.sampled_from(["R1", "R2"])),
            draw(mostly(["1.0", "2.5", "-0.5", "7", "1500", "-3", "999"])),
            draw(st.sampled_from(["PASS", "FAIL_AVG_HI", "FAIL_AVG_LOW", "WEIRD", ""])),
            draw(st.sampled_from(["", "NONE", "REWORK", "SCRAP", "X"])),
            *draw(st.sampled_from(TARGS))]


@st.composite
def datasets(draw):
    sensor = draw(st.lists(sensor_rows(), min_size=20, max_size=80))
    sensor += draw(st.lists(st.sampled_from(sensor), max_size=5))  # duplicate rows
    metrology = draw(st.lists(metrology_rows(), min_size=20, max_size=60))
    metrology += draw(st.lists(st.sampled_from(metrology), max_size=5))
    limits = draw(st.lists(st.tuples(st.sampled_from(KQIS), st.sampled_from(["T1", "T2"]),
                                     st.sampled_from(["S1", "S2"]),
                                     st.sampled_from(TARGS[1:])), max_size=6))
    return sensor, metrology, [[k, t, s, lo, hi] for k, t, s, (lo, hi) in limits]


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_dataset(root: Path, dataset) -> Path:
    sensor, metrology, limits = dataset
    data = root / "data"
    data.mkdir(parents=True, exist_ok=True)
    write_csv(data / "sensor.csv", SENSOR_HEADER, sensor)
    write_csv(data / "metrology.csv", ingest.METROLOGY_COLUMNS, metrology)
    write_csv(data / "limits.csv", ingest.LIMITS_COLUMNS, limits)
    return data


def assert_features_equal(features: Path, reference) -> None:
    buckets, manifest, groups = reference
    assert sorted(p.name for p in features.glob("*.npz")) == sorted(buckets)
    for name, expected in buckets.items():
        got = preprocess.load_bucket(features / name)
        assert got.n_steps == expected.n_steps
        for key in preprocess.BUCKET_ARRAY_KEYS:
            a, b = getattr(got, key), getattr(expected, key)
            assert a.dtype == b.dtype, (name, key)
            assert a.tobytes() == b.tobytes(), (name, key)
    written = json.loads((features / "manifest.json").read_text(encoding="utf-8"))
    assert {k: written[k] for k in manifest} == json.loads(json.dumps(manifest))
    assert read_groups_csv(features / "groups.csv") == groups


CONFIGS = [("MON", False, 0), ("MON", True, 3), ("KQI-2", False, 7)]


@settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(datasets(), st.sampled_from(CONFIGS))
def test_preprocess_matches_row_reference(tmp_path_factory, dataset, config):
    marker, train_on_monitor, seed = config
    root = tmp_path_factory.mktemp("columnar")
    data = write_dataset(root, dataset)
    cfg = root / "run.cfg"
    cfg.write_text(f"[synth]\nn_sensor_categoricals = 2\n[schema]\nmonitor_marker = {marker}\n"
                   f"train_on_monitor = {train_on_monitor}\n[preprocess]\nseed = {seed}\n",
                   encoding="utf-8")
    try:
        reference = rowref.reference_preprocess(data, ["cat_00", "cat_01"], marker, seed,
                                                train_on_monitor)
    except (ValueError, IndexError):
        # the reference cannot fit these rows (no wafers, every column degenerate, ...)
        assert run_cli("preprocess", "--config", cfg, "--data", data,
                       "--out", root / "features") == 1
        return
    assert run_cli("preprocess", "--config", cfg, "--data", data,
                   "--out", root / "features") == 0
    assert_features_equal(root / "features", reference)


def test_reference_fixture_dataset_matches(tiny_run):
    """The tiny synthetic dataset: thousands of rows through both paths."""
    reference = rowref.reference_preprocess(tiny_run["data"], ["cat_00", "cat_01"])
    assert_features_equal(tiny_run["features"], reference)


# (labels, numbers) of each file, as the command line reads them
COLUMNS = {"sensor": (ingest.SENSOR_ID_COLUMNS + ["cat_00", "cat_01"], None),
           "metrology": (ingest.METROLOGY_LABELS, ingest.METROLOGY_NUMBERS),
           "limits": (ingest.LIMITS_LABELS, ingest.LIMITS_NUMBERS)}
GARBAGE = ["", "x", "1", "nan", "inf", "-", "1e999", "1_0", " ", "P1", "W1", "MON",
           "2022-01-01", "2022-13-01", "2022-01-01T00:00:00+01:00", "2022-01-01T25:00",
           "Ä", "\"", "a,b"]


@settings(max_examples=examples(150), deadline=None)
@given(st.lists(st.lists(st.sampled_from(GARBAGE), max_size=14), max_size=12),
       st.booleans(), st.sampled_from(["sensor", "metrology", "limits"]))
def test_garbled_input_parses_or_raises_ingest_error(tmp_path_factory, rows, ragged, kind):
    header = {"sensor": SENSOR_HEADER, "metrology": ingest.METROLOGY_COLUMNS,
              "limits": ingest.LIMITS_COLUMNS}[kind]
    if not ragged:
        rows = [(row + [""] * len(header))[:len(header)] for row in rows]
    path = tmp_path_factory.mktemp("garbled") / f"{kind}.csv"
    write_csv(path, header, rows)
    try:
        table = ingest.load_table(path, *COLUMNS[kind])
        if kind == "sensor":
            sensor = ingest.parse_sensor_table(table, ["cat_00", "cat_01"])
            empty = path.with_name("metrology.csv")
            write_csv(empty, ingest.METROLOGY_COLUMNS, [])
            metrology = ingest.parse_metrology_table(ingest.load_table(empty, *COLUMNS["metrology"]))
            ingest.assemble_wafers(sensor, metrology)
        elif kind == "metrology":
            ingest.parse_metrology_table(table)
        else:
            ingest.parse_limits_table(table)
    except ingest.IngestError:
        pass
