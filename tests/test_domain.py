from datetime import datetime, timedelta

import pytest

from wafersense.domain import (
    DomainError,
    ErrorRecord,
    ControlLimits,
    Inspection,
    LimitSource,
    MeasurementRecord,
    PassFail,
    SensorTimeStep,
    WaferId,
    WaferRecord,
    validate_wafer,
)


def step_at(ts: datetime, numeric=(1.0, None), cats=("A",)):
    return SensorTimeStep(timestamp=ts, numeric_readings=tuple(numeric),
                          categorical_readings=tuple(cats))


def meas_for(wid: WaferId, **overrides) -> MeasurementRecord:
    kwargs = dict(
        id=wid, kqi="KQI-1", mtype="TYPE-1", stage="STG-1", equipid="EQ-1",
        prod="PROD-1", meas_med=19.3292, passfail=PassFail.PASS,
        inspection=Inspection.NONE, targ_min=None, targ_max=None, is_monitor=False,
    )
    kwargs.update(overrides)
    return MeasurementRecord(**kwargs)


T0 = datetime(2022, 6, 15, 12, 0, 0)


class TestValidateWafer:
    def test_sorted_steps_accepted(self):
        wid = WaferId("P1", "W1")
        record = WaferRecord(wid, steps=tuple(
            step_at(T0 + timedelta(seconds=s)) for s in (1, 2, 3)))
        assert validate_wafer(record) is record

    def test_unsorted_steps_rejected(self):
        wid = WaferId("P1", "W1")
        record = WaferRecord(wid, steps=(
            step_at(T0 + timedelta(seconds=2)), step_at(T0 + timedelta(seconds=1))))
        with pytest.raises(DomainError, match="unsorted"):
            validate_wafer(record)

    def test_empty_steps_rejected(self):
        with pytest.raises(DomainError, match="empty steps"):
            validate_wafer(WaferRecord(WaferId("P1", "W1"), steps=()))

    def test_mismatched_measurement_id_rejected(self):
        record = WaferRecord(
            WaferId("P1", "W1"), steps=(step_at(T0),),
            measurements=(meas_for(WaferId("P1", "OTHER")),))
        with pytest.raises(DomainError, match="mismatched ids"):
            validate_wafer(record)

    def test_equal_timestamps_allowed(self):
        record = WaferRecord(WaferId("P1", "W1"), steps=(step_at(T0), step_at(T0)))
        assert validate_wafer(record) is record


class TestMeasurementRecord:
    def test_inverted_targ_pair_rejected(self):
        with pytest.raises(DomainError, match="targ_min"):
            meas_for(WaferId("P1", "W1"), targ_min=8.0, targ_max=2.0)

    def test_valid_targ_pair_accepted(self):
        m = meas_for(WaferId("P1", "W1"), targ_min=2.0, targ_max=8.0)
        assert (m.targ_min, m.targ_max) == (2.0, 8.0)

    def test_unknown_labels_map_to_other(self):
        assert PassFail.from_label("FAIL_WEIRD") is PassFail.OTHER
        assert Inspection.from_label("SOMETHING") is Inspection.OTHER
        assert Inspection.from_label("") is Inspection.NONE

    def test_group_key(self):
        m = meas_for(WaferId("P1", "W1"))
        assert m.group_key == ("KQI-1", "TYPE-1", "STG-1")


class TestControlLimits:
    def test_requires_lcl_below_ucl(self):
        with pytest.raises(DomainError):
            ControlLimits(lcl=5.0, ucl=5.0, source=LimitSource.TARG)

    def test_width(self):
        assert ControlLimits(2.0, 8.0, LimitSource.LCL_UCL).width == 6.0


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
