import csv
import os
import signal
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wafersense import host, ingest
from wafersense.ingest import (
    IngestError,
    load_table,
    split_train_val_test,
)
from wafersense.synthgen import SynthConfig, generate

from conftest import examples, pin_cores, recording_forks


def write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def write_rows(tmp_path, header, rows, name="t.csv"):
    path = tmp_path / name
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path


def kept_rows(table, names):
    return list(zip(*(table.columns[name].tolist() for name in names)))


class TestLoadTable:
    def test_basic(self, tmp_path):
        table = load_table(write(tmp_path, "a,b\n1,2\n3,4\n5,6\n"), ["a"])
        assert tuple(table.columns) == ("a", "b")
        assert (table.n_read, table.n_duplicates) == (3, 0)
        assert table.columns["a"].tolist() == ["1", "3", "5"]
        assert table.columns["b"].tolist() == [2.0, 4.0, 6.0]

    def test_ragged_row_reports_line(self, tmp_path):
        with pytest.raises(IngestError, match="ragged row at line 3"):
            load_table(write(tmp_path, "a,b\n1,2\n1,2,3\n"), ["a"])

    def test_ragged_row_line_counts_a_quoted_newline(self, tmp_path):
        with pytest.raises(IngestError, match="ragged row at line 4$"):
            load_table(write(tmp_path, 'a,b\n"x\ny",2\n1,2,3\n'), ["a"])

    def test_empty_cell_is_missing_not_zero(self, tmp_path):
        path = write(tmp_path, "a,b\n1,\n")
        assert kept_rows(load_table(path, ["a", "b"], []), ["a", "b"]) == [("1", "")]
        assert np.isnan(load_table(path, ["a"]).columns["b"]).tolist() == [True]

    def test_missing_required_column(self, tmp_path):
        with pytest.raises(IngestError, match="missing required column 'c'"):
            load_table(write(tmp_path, "a,b\n1,2\n"), ["c"])

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestError, match="header"):
            load_table(write(tmp_path, ""), [])

    def test_byte_order_mark_before_the_header_is_dropped(self, tmp_path):
        table = load_table(write(tmp_path, "\ufeffa,b\n1,2\n"), ["a"])
        assert tuple(table.columns) == ("a", "b")

    def test_repeated_column_name_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="repeats"):
            load_table(write(tmp_path, "a,b,b\n1,2,3\n"), ["a"])

    def test_column_outside_labels_and_numbers_only_tells_rows_apart(self, tmp_path):
        table = load_table(write(tmp_path, "a,b,c\nx,1,p\nx,1,q\nx,1,p\n"), ["a"], ["b"])
        assert tuple(table.columns) == ("a", "b")
        assert (table.n_read, table.n_duplicates) == (3, 1)

    def test_memory_peak_stays_near_the_file_size(self, tmp_path):
        """The row-tuple layer this reader replaced peaked at ~4.4 times the
        file size here, one str object per cell and one tuple per row; the
        streamed columns peak at ~2.8 times, mostly the duplicate keys."""
        generate(SynthConfig(n_wafers=2000, seed=7), tmp_path)
        path = tmp_path / "sensor.csv"
        tracemalloc.start()
        try:
            table = load_table(path, ingest.SENSOR_ID_COLUMNS + ["cat_00", "cat_01"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.n_read > 5000
        assert peak < 3.5 * path.stat().st_size


CELLS = ["", "a", "b", "1", "1.0", "\0", "a\0", "\0a", "a\0b", "\0\0", ",", "a,", ",a", '"', "x\ny"]


class TestDedupe:
    def load(self, tmp_path, rows):
        return load_table(write_rows(tmp_path, ["a", "b"], rows), ["a", "b"], [])

    def test_adjacent_duplicate(self, tmp_path):
        table = self.load(tmp_path, [("A", "1"), ("A", "1"), ("B", "1")])
        assert kept_rows(table, ["a", "b"]) == [("A", "1"), ("B", "1")]

    def test_noop(self, tmp_path):
        table = self.load(tmp_path, [("A", "1"), ("B", "1")])
        assert kept_rows(table, ["a", "b"]) == [("A", "1"), ("B", "1")]

    def test_non_adjacent_duplicate(self, tmp_path):
        table = self.load(tmp_path, [("A", "1"), ("B", "1"), ("A", "1")])
        assert kept_rows(table, ["a", "b"]) == [("A", "1"), ("B", "1")]
        assert table.source_rows.tolist() == [0, 1]

    @given(st.lists(st.tuples(st.sampled_from(["x", "y", "z"]),
                              st.sampled_from(["1", "2"])), max_size=20))
    def test_idempotent(self, tmp_path_factory, rows):
        tmp_path = tmp_path_factory.mktemp("dedupe")
        once = kept_rows(self.load(tmp_path, rows), ["a", "b"])
        again = self.load(tmp_path, once)
        assert kept_rows(again, ["a", "b"]) == once
        assert again.n_duplicates == 0

    @pytest.mark.parametrize("rows", [
        [("a\0", "b"), ("a", "\0b")],
        [("\0", ""), ("", "\0")],
        [("a,", "b"), ("a", ",b")],
        [("a\0b", "c"), ("a", "b\0c")],
    ])
    def test_rows_differing_only_in_where_a_nul_or_comma_sits_are_kept(self, tmp_path, rows):
        table = self.load(tmp_path, rows + rows)
        assert kept_rows(table, ["a", "b"]) == rows
        assert table.n_duplicates == 2

    def test_rows_differing_only_in_number_spelling_are_kept(self, tmp_path):
        table = load_table(write(tmp_path, "a,b\nx,1\nx,1.0\nx,1\n"), ["a"])
        assert table.columns["b"].tolist() == [1.0, 1.0]
        assert table.n_duplicates == 1

    def test_equal_rows_on_either_side_of_a_chunk_boundary_are_dropped(self, tmp_path):
        n = ingest.CHUNK_ROWS
        rows = [(str(i), "x") for i in range(n)] + [("0", "x"), (str(n - 1), "x"), ("new", "x")]
        table = self.load(tmp_path, rows)
        assert table.n_read == n + 3
        assert table.n_duplicates == 2
        assert kept_rows(table, ["a", "b"]) == rows[:n] + [("new", "x")]
        assert table.source_rows[-1] == n + 2

    @given(st.lists(st.tuples(st.sampled_from(CELLS), st.sampled_from(CELLS)), max_size=40),
           st.integers(1, 7))
    def test_count_equals_dict_fromkeys(self, tmp_path_factory, rows, chunk):
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk):
            table = self.load(tmp_path_factory.mktemp("dedupe"), rows)
        expected = list(dict.fromkeys(rows))
        assert kept_rows(table, ["a", "b"]) == expected
        assert (table.n_read, table.n_duplicates) == (len(rows), len(rows) - len(expected))


# quote-free cells: empty, garbled and non-finite number spellings, and NULs that make the
# row's key a tuple
QUOTE_FREE = ["", "a", "b", "a\0b", "\0", "Ä", "1", "1.0", "2.5", "x", " 3", "1_0", "nan",
              "-1e999"]


@st.composite
def quote_free_csvs(draw):
    """A quote-free CSV with header id,n1,n2,tag and LF or CRLF line ends, whose rows are
    drawn from a few distinct ones so that duplicates fall on both sides of a cut; one
    row may be ragged or hold a byte that is not UTF-8."""
    pool = draw(st.lists(st.lists(st.sampled_from(QUOTE_FREE), min_size=4, max_size=4),
                         min_size=1, max_size=6))
    rows = [["id", "n1", "n2", "tag"], *draw(st.lists(st.sampled_from(pool), max_size=30))]
    if len(rows) > 1 and draw(st.booleans()):
        at = draw(st.integers(1, len(rows) - 1))
        rows[at] = draw(st.sampled_from([rows[at][:3], rows[at] + ["x"], [],
                                         ["\udcff", *rows[at][1:]]]))
    lines = [",".join(row) + draw(st.sampled_from(["\n", "\r\n"])) for row in rows]
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(lines)


def read(path, cores, *columns):
    """load_table's table or IngestError message on ``cores`` cores, with any file of
    more than a few bytes read in two parts where it may be."""
    with mock.patch.object(host, "cores", lambda: cores), \
            mock.patch.object(ingest, "SPLIT_BYTES", 8):
        try:
            return load_table(path, *columns)
        except IngestError as exc:
            return str(exc)


def assert_same_read(got, want):
    """The same IngestError message, or CsvTables equal in every field."""
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert (got.path, list(got.columns), got.numbers, got.bad_cells, got.n_read,
            got.n_duplicates) == (want.path, list(want.columns), want.numbers, want.bad_cells,
                                  want.n_read, want.n_duplicates)
    for name, column in want.columns.items():
        assert got.columns[name].dtype == column.dtype
        assert (got.columns[name].tolist() == column.tolist() if column.dtype == object
                else got.columns[name].tobytes() == column.tobytes())
    assert got.source_rows.tobytes() == want.source_rows.tobytes()


class TestTwoPartRead:
    """A quote-free file read in two parts at once gives the one-part read's table or
    error, and leaves no process behind."""

    @settings(max_examples=examples(150), deadline=None)
    @given(quote_free_csvs(), st.integers(1, 4))
    def test_equals_the_one_part_read(self, tmp_path_factory, text, chunk):
        path = tmp_path_factory.mktemp("split") / "t.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" as byte 0xff
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk):
            assert_same_read(read(path, 2, ["id"], ["n1", "n2"]),
                             read(path, 1, ["id"], ["n1", "n2"]))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_ragged_row_in_the_second_part_reports_its_file_line(self, tmp_path, monkeypatch):
        pids = recording_forks(monkeypatch)
        assert read(write(tmp_path, "a,b\n1,2\n1,2,3\n"), 2, ["a"]) == \
            f"{tmp_path / 't.csv'}: ragged row at line 3"
        assert len(pids) == 1


    @pytest.mark.parametrize("ending", ["returned", "raised in the first part",
                                        "raised in the second part", "interrupted",
                                        "reader killed"])
    def test_reader_is_reaped_however_the_call_ends(self, tmp_path, monkeypatch, ending):
        rows = ["1,2"] * 3 + ["3,4"] * 3
        if ending.startswith("raised"):
            rows[0 if ending.endswith("first part") else -1] = "1,2,3"
        path = write(tmp_path, "a,b\n" + "\n".join(rows) + "\n")
        pids, caller, read_part = recording_forks(monkeypatch), os.getpid(), ingest._read_part

        def ending_read_part(*args):
            if ending == "interrupted" and os.getpid() == caller:
                raise KeyboardInterrupt
            if ending == "reader killed" and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return read_part(*args)

        monkeypatch.setattr(ingest, "_read_part", ending_read_part)
        monkeypatch.setattr(ingest, "SPLIT_BYTES", 8)
        pin_cores(monkeypatch, 2)
        if ending == "returned":
            assert load_table(path, ["a"]).n_duplicates == 4
        else:
            error, message = {"raised in the first part": (IngestError, "line 2$"),
                              "raised in the second part": (IngestError, "line 7$"),
                              "interrupted": (KeyboardInterrupt, None),
                              "reader killed": (RuntimeError, "ended without a result")}[ending]
            with pytest.raises(error, match=message):
                load_table(path, ["a"])
        assert len(pids) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("case", ["one core", "a quote", "under SPLIT_BYTES"])
    def test_forks_nothing(self, tmp_path, monkeypatch, case):
        path = write(tmp_path, "a,b\n" + "1,2\n" * 4 + ('"3",4\n' if case == "a quote" else ""))
        pids = recording_forks(monkeypatch)
        if case != "under SPLIT_BYTES":
            monkeypatch.setattr(ingest, "SPLIT_BYTES", 8)
        pin_cores(monkeypatch, 1 if case == "one core" else 2)
        assert load_table(path, ["a"]).n_duplicates == 3
        assert pids == []


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
    return load_table(write(tmp_path, METROLOGY_HEADER + "\n" + "\n".join(rows) + "\n"),
                      ingest.METROLOGY_LABELS, ingest.METROLOGY_NUMBERS)


def sensor(tmp_path, text, categorical=(), name="t.csv"):
    return load_table(write(tmp_path, text, name), ingest.SENSOR_ID_COLUMNS + list(categorical))


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

    def test_unknown_labels_map_to_other(self, tmp_path):
        table = metrology(tmp_path, "P1,W1,KQI-1,T,S,E,R,1.0,FAIL_WEIRD,SOMETHING,,",
                          "P1,W2,KQI-1,T,S,E,R,1.0,,,,",
                          "P1,W3,KQI-1,T,S,E,R,1.0,FAIL_AVG_LOW,SCRAP,,")
        records = ingest.parse_metrology_table(table)
        assert records.passfail.tolist() == ["OTHER", "OTHER", "FAIL_AVG_LOW"]
        assert records.inspection.tolist() == ["OTHER", "NONE", "SCRAP"]


class TestSensorParsing:
    def test_steps_sorted_and_missing_preserved(self, tmp_path):
        text = (
            "processing_id,product_id,timestamp,s0,s1,cat\n"
            "P1,W1,2022-01-01T00:10:00,5,,A\n"
            "P1,W1,2022-01-01T00:00:00,1,2,B\n"
        )
        table = sensor(tmp_path, text, ["cat"])
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
        steps = ingest.parse_sensor_table(sensor(tmp_path, text), [])
        assert steps.numeric[:, 0].tolist() == [1.0, 2.0]
        assert steps.numeric[:, 1].tolist() == [0.25, 0.125]  # 06:00 and 03:00 wall clock

    def test_offset_and_naive_timestamps_mixed_rejected(self, tmp_path):
        text = ("processing_id,product_id,timestamp,s0\n"
                "P1,W1,2022-01-01T06:00:00+05:00,1\n"
                "P2,W1,2022-01-01T03:00:00,2\n")
        with pytest.raises(IngestError, match="with and without a UTC offset"):
            ingest.parse_sensor_table(sensor(tmp_path, text), [])

    @pytest.mark.parametrize("cell", ["inf", "-Infinity", "nan", "NaN"])
    def test_non_finite_sensor_cell_names_its_column(self, tmp_path, cell):
        text = ("processing_id,product_id,timestamp,s0,s1\n"
                f"P1,W1,2022-01-01T00:00:00,1,{cell}\n")
        with pytest.raises(IngestError, match=f"s1: not a finite number: '{cell}'"):
            ingest.parse_sensor_table(sensor(tmp_path, text), categorical_columns=[])

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_measurement_rejected(self, tmp_path, cell):
        table = metrology(tmp_path, f"P1,W1,KQI-1,T,S,E,R,{cell},PASS,NONE,,")
        with pytest.raises(IngestError, match="meas_med: not a finite number"):
            ingest.parse_metrology_table(table)

    def test_assemble_drops_measurementless_wafers(self, tmp_path):
        text = ("processing_id,product_id,timestamp,s0\n"
                "P1,W1,2022-01-01T00:00:00,1\n"
                "P1,W2,2022-01-01T00:00:00,1\n")
        steps = ingest.parse_sensor_table(sensor(tmp_path, text, name="s.csv"), [])
        table = metrology(tmp_path, "P1,W1,KQI-1,T,S,E,R,1.0,PASS,NONE,,")
        wafers = list(ingest.assemble_wafers(steps, ingest.parse_metrology_table(table)))
        assert [w.id for w in wafers] == [("P1", "W1")]
        assert len(wafers[0].measurements) == 1


SENSOR_HEADER = "processing_id,product_id,timestamp,s0,s1,cat\n"


class TestBadCells:
    """Bad cells are found while reading and raised by the parse step, only for
    the rows it keeps: timestamps first, then column by column, and within a
    column "not a number" before "not a finite number"."""

    def parse_sensor(self, tmp_path, rows):
        table = sensor(tmp_path, SENSOR_HEADER + "".join(rows), ["cat"], name="sensor.csv")
        return ingest.parse_sensor_table(table, ["cat"])

    def test_error_names_the_file_and_the_line_of_the_row(self, tmp_path):
        rows = ['P1,W1,2022-01-01T00:00:00,1,2,"two\nlines"\n',
                'P1,W1,2022-01-01T00:00:00,1,2,"two\nlines"\n',  # a duplicate, dropped
                "P2,W1,2022-01-01T00:00:00,x,2,A\n"]
        with pytest.raises(IngestError, match=r"^sensor\.csv line 6: s0: not a number: 'x'$"):
            self.parse_sensor(tmp_path, rows)

    def test_timestamp_error_names_the_file_and_the_line_of_the_row(self, tmp_path):
        rows = [",W1,2022-01-01T00:00:00,1,2,A\n",  # no id: skipped
                "P1,W1,2022-01-01T00:00:00,1,2,A\n",
                "P2,W1,2022-01-01X,1,2,A\n"]
        with pytest.raises(IngestError, match=r"^sensor\.csv line 4: unparseable timestamp "
                                              r"'2022-01-01X'$"):
            self.parse_sensor(tmp_path, rows)

    def test_bad_cell_in_a_skipped_sensor_row_is_no_error(self, tmp_path):
        rows = ["P1,W1,2022-01-01T00:00:00,1,2,A\n", "P1,,2022-01-01T00:00:00,x,inf,A\n",
                "P1,W1,,x,2,A\n"]
        assert len(self.parse_sensor(tmp_path, rows).numeric) == 1

    @pytest.mark.parametrize("rows, message", [
        (["P1,W1,2022-01-01T00:00:00,1,x,A\n", "P1,W1,bad,1,2,A\n"],
         "line 3: unparseable timestamp 'bad'"),
        (["P1,W1,2022-01-01T00:00:00,1,x,A\n", "P1,W1,2022-01-01T00:00:00,y,2,A\n"],
         "line 3: s0: not a number: 'y'"),
        (["P1,W1,2022-01-01T00:00:00,inf,2,A\n", "P1,W1,2022-01-01T00:00:00,y,2,A\n"],
         "line 3: s0: not a number: 'y'"),
        (["P1,W1,2022-01-01T00:00:00,1,nan,A\n", "P1,W1,2022-01-01T00:00:00,1,inf,A\n"],
         "line 2: s1: not a finite number: 'nan'"),
    ], ids=["timestamp-first", "column-order", "not-a-number-first", "row-order"])
    def test_precedence(self, tmp_path, rows, message):
        with pytest.raises(IngestError, match=f"^sensor\\.csv {message}$"):
            self.parse_sensor(tmp_path, rows)

    def test_bad_targ_cell_in_a_skipped_metrology_row_is_no_error(self, tmp_path):
        table = metrology(tmp_path, "P1,W1,KQI-1,T,S,E,R,1.0,PASS,NONE,1,2",
                          "P1,W1,KQI-1,T,S,E,R,,PASS,NONE,x,inf",
                          ",W1,KQI-1,T,S,E,R,1.0,PASS,NONE,x,inf")
        assert len(ingest.parse_metrology_table(table)) == 1

    def test_metrology_meas_med_before_targ_and_in_every_row(self, tmp_path):
        table = metrology(tmp_path, "P1,W1,KQI-1,T,S,E,R,1.0,PASS,NONE,x,2",
                          ",W1,KQI-1,T,S,E,R,y,PASS,NONE,1,2")
        with pytest.raises(IngestError, match=r"^t\.csv line 3: meas_med: not a number: 'y'$"):
            ingest.parse_metrology_table(table)

    def test_limits_error_names_the_line(self, tmp_path):
        table = load_table(write(tmp_path, "kqi,type,stage,lcl,ucl\nK,T,S,1,2\nK,T,S,1,1e999\n",
                                 "limits.csv"), ["kqi", "type", "stage"])
        with pytest.raises(IngestError, match=r"^limits\.csv line 3: ucl: not a finite "
                                              r"number: '1e999'$"):
            ingest.parse_limits_table(table)
