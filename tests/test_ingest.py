import numpy as np
import pytest
from hypothesis import given, strategies as st

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
        assert table.rows[0] == ("1", "")
        assert table.columns() == [("1",), ("",)]

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


class TestSplit:
    def test_exact_ratio_10(self):
        train, val, test = split_train_val_test(10, seed=0)
        assert (len(train), len(val), len(test)) == (7, 2, 1)

    def test_exact_ratio_100(self):
        train, val, test = split_train_val_test(100, seed=0)
        assert (len(train), len(val), len(test)) == (70, 20, 10)

    def test_deterministic(self):
        for a, b in zip(split_train_val_test(23, 5), split_train_val_test(23, 5)):
            assert np.array_equal(a, b)

    def test_empty_input_rejected(self):
        with pytest.raises(IngestError):
            split_train_val_test(0, seed=0)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=5))
    def test_partition(self, n, seed):
        train, val, test = split_train_val_test(n, seed)
        # every wafer lands in exactly one split
        assert sorted(np.concatenate([train, val, test])) == list(range(n))
        assert len(val) == (2 * n) // 10
        assert len(test) == n // 10


METROLOGY_HEADER = ",".join(ingest.METROLOGY_COLUMNS)


def metrology(tmp_path, *rows):
    return load_table(write(tmp_path, METROLOGY_HEADER + "\n" + "\n".join(rows) + "\n"))


class TestMetrology:
    def test_monitor_flag_from_kqi_marker(self, tmp_path):
        table = metrology(tmp_path, "P1,W1,KQI-MON-1,TYPE-1,STG-1,EQ-1,PR-1,19.3292,PASS,NONE,,",
                          "P1,W1,KQI-1,TYPE-1,STG-1,EQ-1,PR-1,19.3292,PASS,NONE,,")
        records = ingest.parse_metrology_table(table, monitor_marker="MON")
        assert records.is_monitor.tolist() == [True, False]
        assert records.kqi[records.is_monitor].tolist() == ["KQI-MON-1"]
        assert records.kqi[~records.is_monitor].tolist() == ["KQI-1"]

    def test_inverted_targ_row_skipped(self, tmp_path):
        table = metrology(tmp_path, "P1,W1,KQI-1,T,S,E,R,1.0,PASS,NONE,9.0,2.0")
        assert len(ingest.parse_metrology_table(table)) == 0

    def test_missing_meas_med_skipped(self, tmp_path):
        table = metrology(tmp_path, "P1,W1,KQI-1,T,S,E,R,,PASS,NONE,,")
        assert len(ingest.parse_metrology_table(table)) == 0


class TestSensorParsing:
    def test_steps_sorted_and_missing_preserved(self, tmp_path):
        text = (
            "processing_id,product_id,timestamp,s0,s1,cat\n"
            "P1,W1,2022-01-01T00:10:00,5,,A\n"
            "P1,W1,2022-01-01T00:00:00,1,2,B\n"
        )
        table = load_table(write(tmp_path, text))
        steps = ingest.parse_sensor_table(table, categorical_columns=["cat"])
        assert steps.wafer_id(0) == ("P1", "W1")
        assert (steps.time_us[1] - steps.time_us[0]) // 60_000_000 == 10
        assert np.array_equal(steps.numeric[1, :2], [5.0, np.nan], equal_nan=True)
        assert steps.categorical[0].tolist() == ["B"]
        assert steps.numeric_names == ("s0", "s1")

    def test_offset_timestamps_order_by_instant_and_featurize_by_wall_clock(self, tmp_path):
        text = ("processing_id,product_id,timestamp,s0\n"
                "P1,W1,2022-01-01T06:00:00+05:00,1\n"   # 01:00 UTC
                "P1,W1,2022-01-01T03:00:00+00:00,2\n")  # 03:00 UTC
        steps = ingest.parse_sensor_table(load_table(write(tmp_path, text)), [])
        assert steps.numeric[:, 0].tolist() == [1.0, 2.0]
        assert steps.numeric[:, 1].tolist() == [0.25, 0.125]  # 06:00 and 03:00 wall clock

    def test_offset_and_naive_timestamps_mixed_rejected(self, tmp_path):
        text = ("processing_id,product_id,timestamp,s0\n"
                "P1,W1,2022-01-01T06:00:00+05:00,1\n"
                "P2,W1,2022-01-01T03:00:00,2\n")
        with pytest.raises(IngestError, match="with and without a UTC offset"):
            ingest.parse_sensor_table(load_table(write(tmp_path, text)), [])

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", "NaN"])
    def test_non_finite_sensor_cell_names_its_column(self, tmp_path, cell):
        text = ("processing_id,product_id,timestamp,s0,s1\n"
                f"P1,W1,2022-01-01T00:00:00,1,{cell}\n")
        with pytest.raises(IngestError, match=f"s1: not a finite number: '{cell}'"):
            ingest.parse_sensor_table(load_table(write(tmp_path, text)), categorical_columns=[])

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_measurement_rejected(self, tmp_path, cell):
        table = metrology(tmp_path, f"P1,W1,KQI-1,T,S,E,R,{cell},PASS,NONE,,")
        with pytest.raises(IngestError, match="meas_med: not a finite number"):
            ingest.parse_metrology_table(table)

    def test_assemble_drops_measurementless_wafers(self, tmp_path):
        text = ("processing_id,product_id,timestamp,s0\n"
                "P1,W1,2022-01-01T00:00:00,1\n"
                "P1,W2,2022-01-01T00:00:00,1\n")
        steps = ingest.parse_sensor_table(load_table(write(tmp_path, text, "s.csv")), [])
        table = metrology(tmp_path, "P1,W1,KQI-1,T,S,E,R,1.0,PASS,NONE,,")
        wafers = list(ingest.assemble_wafers(steps, ingest.parse_metrology_table(table)))
        assert [w.id for w in wafers] == [("P1", "W1")]
        assert len(wafers[0].measurements) == 1
