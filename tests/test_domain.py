from datetime import datetime, timedelta

import numpy as np
import pytest

from wafersense.domain import (
    DomainError,
    ErrorRecord,
    ControlLimits,
)

from conftest import measurement_table, wafer_table

T0 = datetime(2022, 6, 15, 12, 0, 0)


def wafer_with_steps(*timestamps, measurements=({},)):
    steps = [(ts, (1.0, None), ("A",)) for ts in timestamps]
    return wafer_table([(("P1", "W1"), steps, list(measurements))],
                       numeric_names=("n0", "n1"), cat_names=("c0",))


class TestValidateWafer:
    def test_sorted_steps_accepted(self):
        table = wafer_with_steps(*(T0 + timedelta(seconds=s) for s in (1, 2, 3)))
        assert list(table)[0].n_steps == 3

    def test_unsorted_steps_rejected(self):
        with pytest.raises(DomainError, match="unsorted"):
            wafer_with_steps(T0 + timedelta(seconds=2), T0 + timedelta(seconds=1))

    def test_empty_steps_rejected(self):
        with pytest.raises(DomainError, match="empty steps"):
            wafer_with_steps(measurements=())

    def test_mismatched_measurement_id_rejected(self):
        table = wafer_with_steps(T0)
        other = measurement_table(dict(processing_id="P1", product_id="OTHER"))
        with pytest.raises(DomainError, match="mismatched ids"):
            type(table)(table.sensor, other, table.meas_starts)

    def test_equal_timestamps_allowed(self):
        assert list(wafer_with_steps(T0, T0))[0].n_steps == 2


class TestMeasurementRecord:
    def test_inverted_targ_pair_rejected(self):
        with pytest.raises(DomainError, match="targ_min"):
            measurement_table(dict(targ_min=8.0, targ_max=2.0))

    def test_valid_targ_pair_accepted(self):
        m = measurement_table(dict(targ_min=2.0, targ_max=8.0))
        assert (m.targ_min[0], m.targ_max[0]) == (2.0, 8.0)

    def test_group_key(self):
        wafer = list(wafer_with_steps(T0, measurements=[dict(kqi="KQI-1", mtype="TYPE-1",
                                                             stage="STG-1")]))[0]
        assert wafer.measurements[0].group_key == ("KQI-1", "TYPE-1", "STG-1")


class TestControlLimits:
    def test_requires_lcl_below_ucl(self):
        with pytest.raises(DomainError):
            ControlLimits(lcl=5.0, ucl=5.0, source="TARG")
        with pytest.raises(DomainError, match=r"\(3.0, 2.0\)"):
            ControlLimits(np.array([0.0, np.nan, 3.0]), np.array([1.0, np.nan, 2.0]),
                          np.array(["TARG", "", "TARG"]))


class TestErrorRecord:
    def test_infinite_eta_allowed(self):
        record = ErrorRecord(eta=float("inf"), epsilon=0.2, group=1)
        assert record.eta == float("inf")

    def test_group_range_enforced(self):
        with pytest.raises(DomainError):
            ErrorRecord(eta=0.0, epsilon=0.0, group=7)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DomainError):
            ErrorRecord(eta=0.0, epsilon=-1.0, group=1)
