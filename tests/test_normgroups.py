import numpy as np
import pytest
from hypothesis import given, strategies as st

from wafersense.normgroups import (
    NormalizationGroup,
    build_groups,
    denormalize,
    group_bounds,
    normalize_target,
    resolve_control_limits,
)
from wafersense.preprocess import read_groups_csv, write_groups_csv

from conftest import measurement_table


def meas(targ=None, key=("K", "T", "S")) -> dict:
    targ_min, targ_max = targ if targ else (np.nan, np.nan)
    return dict(kqi=key[0], mtype=key[1], stage=key[2], targ_min=targ_min, targ_max=targ_max)


def resolve(m: dict, fallback):
    limits = resolve_control_limits(measurement_table(m), fallback)
    return limits.lcl[0], limits.ucl[0], limits.source[0]


def groups_of(*measurements: dict):
    return build_groups(measurement_table(*measurements), {})


FALLBACK = {("K", "T", "S"): (0.0, 10.0)}


class TestResolve:
    def test_targ_preferred_over_fallback(self):
        assert resolve(meas(targ=(2.0, 8.0)), FALLBACK) == (2.0, 8.0, "TARG")

    def test_fallback_used_when_targ_missing(self):
        assert resolve(meas(), FALLBACK) == (0.0, 10.0, "LCL_UCL")

    def test_none_when_both_missing(self):
        lcl, ucl, source = resolve(meas(), {})
        assert np.isnan(lcl) and np.isnan(ucl) and source == ""

    def test_partial_targ_pair_falls_back(self):
        m = dict(meas(), targ_min=2.0)
        assert resolve(m, FALLBACK)[2] == "LCL_UCL"


class TestBuildGroups:
    def test_narrowest_pair_wins(self):
        groups = groups_of(meas(targ=(0.0, 10.0)), meas(targ=(2.0, 8.0)))
        assert (groups[("K", "T", "S")].b1, groups[("K", "T", "S")].b2) == (2.0, 8.0)

    def test_single_pair(self):
        groups = groups_of(meas(targ=(0.0, 10.0)))
        assert (groups[("K", "T", "S")].b1, groups[("K", "T", "S")].b2) == (0.0, 10.0)

    def test_tie_breaks_to_smallest_b1(self):
        groups = groups_of(meas(targ=(1.0, 5.0)), meas(targ=(0.0, 4.0)))
        assert (groups[("K", "T", "S")].b1, groups[("K", "T", "S")].b2) == (0.0, 4.0)

    def test_unresolvable_keys_excluded(self):
        assert groups_of(meas()) == {}

    def test_degenerate_width_skipped(self):
        groups = groups_of(meas(targ=(5.0, 5.0 + 1e-12)), meas(targ=(0.0, 10.0)))
        assert (groups[("K", "T", "S")].b1, groups[("K", "T", "S")].b2) == (0.0, 10.0)

    def test_keys_are_independent(self):
        groups = groups_of(meas(targ=(0.0, 4.0)), meas(targ=(1.0, 2.0), key=("K2", "T", "S")))
        assert len(groups) == 2
        assert groups[("K2", "T", "S")].b2 == 2.0


class TestTransformPair:
    def setup_method(self):
        self.g = NormalizationGroup(("K", "T", "S"), b1=10.0, b2=20.0)

    def test_endpoints(self):
        assert normalize_target(10.0, self.g) == 0.0
        assert normalize_target(20.0, self.g) == 1.0
        assert normalize_target(15.0, self.g) == 0.5

    def test_denormalize_endpoints(self):
        assert denormalize(0.0, self.g) == 10.0
        assert denormalize(1.0, self.g) == 20.0

    def test_invalid_group_rejected(self):
        with pytest.raises(ValueError):
            NormalizationGroup(("K", "T", "S"), b1=5.0, b2=5.0)

    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_round_trip(self, y, b1, width):
        g = NormalizationGroup(("K", "T", "S"), b1=b1, b2=b1 + width)
        back = denormalize(normalize_target(y, g), g)
        assert abs(back - y) <= 1e-9 * max(1.0, abs(y))

    @given(
        st.floats(min_value=-1e5, max_value=1e5),
        st.floats(min_value=1e-6, max_value=1e5),
    )
    def test_strictly_increasing(self, y, delta):
        assert normalize_target(y + delta, self.g) > normalize_target(y, self.g)


KEYS = st.tuples(*[st.sampled_from(["A", "B"])] * 3)


@given(st.dictionaries(KEYS, st.tuples(st.floats(min_value=-1e3, max_value=1e3),
                                       st.floats(min_value=1e-3, max_value=1e3))),
       st.lists(KEYS, max_size=12))
def test_group_bounds_matches_a_dict_loop(pairs, keys):
    groups = {key: NormalizationGroup(key, b1, b1 + width) for key, (b1, width) in pairs.items()}
    kqi, mtype, stage = (np.array([key[j] for key in keys], dtype=str) for j in range(3))
    b1, b2 = group_bounds(groups, kqi, mtype, stage)
    expected_b1, expected_b2 = [], []
    for key in keys:
        g = groups.get(key)
        expected_b1.append(g.b1 if g else np.nan)
        expected_b2.append(g.b2 if g else np.nan)
    assert np.array_equal(b1, expected_b1, equal_nan=True) and b1.shape == (len(keys),)
    assert np.array_equal(b2, expected_b2, equal_nan=True) and b2.shape == (len(keys),)


def test_groups_csv_round_trip(tmp_path):
    groups = groups_of(meas(targ=(0.0, 4.0)), meas(targ=(1.5, 2.25), key=("K2", "T2", "S2")))
    path = tmp_path / "groups.csv"
    write_groups_csv(path, groups)
    assert read_groups_csv(path) == groups
