from datetime import datetime

import pytest
from hypothesis import given, strategies as st

from wafersense.domain import WaferId, WaferRecord, SensorTimeStep
from wafersense import ingest
from wafersense.ingest import (
    IngestError,
    RawTable,
    dedupe,
    load_table,
    split_train_val_test,
)


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadTable:
    def test_basic(self, tmp_path):
        table = load_table(write(tmp_path, "a,b\n1,2\n3,4\n5,6\n"))
        assert table.column_names == ("a", "b")
        assert len(table.rows) == 3

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(IngestError, match="ragged row at line 3"):
            load_table(write(tmp_path, "a,b\n1,2\n1,2,3\n"))

    def test_empty_cell_is_missing_not_zero(self, tmp_path):
        table = load_table(write(tmp_path, "a,b\n1,\n"))
        assert table.rows[0] == ("1", None)

    def test_missing_required_column(self, tmp_path):
        with pytest.raises(IngestError, match="missing required column 'c'"):
            load_table(write(tmp_path, "a,b\n1,2\n"), required_columns=["c"])

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestError, match="header"):
            load_table(write(tmp_path, ""))


class TestDedupe:
    def test_adjacent_duplicate(self):
        t = RawTable(("a",), (("A",), ("A",), ("B",)))
        assert dedupe(t).rows == (("A",), ("B",))

    def test_noop(self):
        t = RawTable(("a",), (("A",), ("B",)))
        assert dedupe(t).rows == (("A",), ("B",))

    def test_non_adjacent_duplicate(self):
        t = RawTable(("a",), (("A",), ("B",), ("A",)))
        assert dedupe(t).rows == (("A",), ("B",))

    @given(st.lists(st.tuples(st.sampled_from(["x", "y", "z"]),
                              st.sampled_from(["1", "2"])), max_size=20))
    def test_idempotent(self, rows):
        t = RawTable(("a", "b"), tuple(rows))
        once = dedupe(t)
        assert dedupe(once) == once


def make_wafer(i: int) -> WaferRecord:
    return WaferRecord(
        WaferId(f"P{i}", f"W{i}"),
        steps=(SensorTimeStep(datetime(2022, 1, 1), (1.0,), ()),),
    )


class TestSplit:
    def test_exact_ratio_10(self):
        train, val, test = split_train_val_test([make_wafer(i) for i in range(10)], seed=0)
        assert (len(train), len(val), len(test)) == (7, 2, 1)

    def test_exact_ratio_100(self):
        train, val, test = split_train_val_test([make_wafer(i) for i in range(100)], seed=0)
        assert (len(train), len(val), len(test)) == (70, 20, 10)

    def test_deterministic(self):
        wafers = [make_wafer(i) for i in range(23)]
        assert split_train_val_test(wafers, 5) == split_train_val_test(wafers, 5)

    def test_empty_input_rejected(self):
        with pytest.raises(IngestError):
            split_train_val_test([], seed=0)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=5))
    def test_partition(self, n, seed):
        wafers = [make_wafer(i) for i in range(n)]
        train, val, test = split_train_val_test(wafers, seed)
        ids = [w.id for w in train + val + test]
        assert sorted(ids, key=lambda x: x.processing_id) == sorted(
            (w.id for w in wafers), key=lambda x: x.processing_id)
        assert len(set(ids)) == n  # no wafer lands in two splits
        assert len(val) == (2 * n) // 10
        assert len(test) == n // 10


METROLOGY_HEADER = ",".join(ingest.METROLOGY_COLUMNS)


class TestMetrology:
    def test_monitor_flag_from_kqi_marker(self, tmp_path):
        rows = [
            f"P1,W1,KQI-MON-1,TYPE-1,STG-1,EQ-1,PR-1,19.3292,PASS,NONE,,",
            f"P1,W1,KQI-1,TYPE-1,STG-1,EQ-1,PR-1,19.3292,PASS,NONE,,",
        ]
        table = load_table(write(tmp_path, METROLOGY_HEADER + "\n" + "\n".join(rows) + "\n"))
        records = ingest.parse_metrology_table(table, monitor_marker="MON")
        assert [m.is_monitor for m in records] == [True, False]
        assert [m.kqi for m in records if m.is_monitor] == ["KQI-MON-1"]
        assert [m.kqi for m in records if not m.is_monitor] == ["KQI-1"]

    def test_inverted_targ_row_skipped(self, tmp_path):
        rows = ["P1,W1,KQI-1,T,S,E,R,1.0,PASS,NONE,9.0,2.0"]
        table = load_table(write(tmp_path, METROLOGY_HEADER + "\n" + "\n".join(rows) + "\n"))
        assert ingest.parse_metrology_table(table) == []

    def test_missing_meas_med_skipped(self, tmp_path):
        rows = ["P1,W1,KQI-1,T,S,E,R,,PASS,NONE,,"]
        table = load_table(write(tmp_path, METROLOGY_HEADER + "\n" + "\n".join(rows) + "\n"))
        assert ingest.parse_metrology_table(table) == []


class TestSensorParsing:
    def test_steps_sorted_and_missing_preserved(self, tmp_path):
        text = (
            "processing_id,product_id,timestamp,s0,s1,cat\n"
            "P1,W1,2022-01-01T00:10:00,5,,A\n"
            "P1,W1,2022-01-01T00:00:00,1,2,B\n"
        )
        table = load_table(write(tmp_path, text))
        steps = ingest.parse_sensor_table(table, categorical_columns=["cat"])
        wafer_steps = steps[WaferId("P1", "W1")]
        assert [s.timestamp.minute for s in wafer_steps] == [0, 10]
        assert wafer_steps[1].numeric_readings == (5.0, None)
        assert wafer_steps[0].categorical_readings == ("B",)
        assert ingest.sensor_numeric_columns(table, ["cat"]) == ["s0", "s1"]

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", "NaN"])
    def test_non_finite_sensor_cell_names_its_column(self, tmp_path, cell):
        text = ("processing_id,product_id,timestamp,s0,s1\n"
                f"P1,W1,2022-01-01T00:00:00,1,{cell}\n")
        with pytest.raises(IngestError, match=f"s1: not a finite number: '{cell}'"):
            ingest.parse_sensor_table(load_table(write(tmp_path, text)), categorical_columns=[])

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_measurement_rejected(self, tmp_path, cell):
        rows = [f"P1,W1,KQI-1,T,S,E,R,{cell},PASS,NONE,,"]
        table = load_table(write(tmp_path, METROLOGY_HEADER + "\n" + "\n".join(rows) + "\n"))
        with pytest.raises(IngestError, match="meas_med: not a finite number"):
            ingest.parse_metrology_table(table)

    def test_assemble_drops_measurementless_wafers(self, tmp_path):
        steps = {
            WaferId("P1", "W1"): [SensorTimeStep(datetime(2022, 1, 1), (1.0,), ())],
            WaferId("P1", "W2"): [SensorTimeStep(datetime(2022, 1, 1), (1.0,), ())],
        }
        rows = ["P1,W1,KQI-1,T,S,E,R,1.0,PASS,NONE,,"]
        table = load_table(write(tmp_path, METROLOGY_HEADER + "\n" + "\n".join(rows) + "\n"))
        wafers = ingest.assemble_wafers(steps, ingest.parse_metrology_table(table))
        assert [w.id for w in wafers] == [WaferId("P1", "W1")]
        assert len(wafers[0].measurements) == 1
