"""Finite-register odometer states, orbits, and stabilising levels."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdigits.digitsum import QParam, partial_sum_fast, weighted_digit_sum
from qdigits.odometer import (
    NoStabilizingLevelError,
    OdometerState,
    RegisterOverflowError,
    StabilizingLevel,
    find_stabilizing_levels,
    num_value,
    orbit_partial_sums,
    successor,
)

Q34 = QParam(F(3, 4))


class TestOdometerState:
    def test_constructors(self):
        z = OdometerState.zeros(5)
        assert (z.value, z.length) == (0, 5)
        assert z.origin == "zero"
        assert z.seed is None

        e = OdometerState(0b1011, 6)
        assert (e.value, e.length) == (0b1011, 6)
        assert e.origin == "explicit"

        r = OdometerState.random_state(7, 16)
        assert r.length == 16
        assert r.seed == 7
        assert r.origin == "seeded-random(seed=7, length=16)"

    def test_random_state_deterministic(self):
        a = OdometerState.random_state(42, 64)
        b = OdometerState.random_state(42, 64)
        c = OdometerState.random_state(43, 64)
        assert a.value == b.value
        assert a.value != c.value

    def test_validation(self):
        with pytest.raises(ValueError):
            OdometerState(0, 0)
        with pytest.raises(ValueError):
            OdometerState(4, 2)
        with pytest.raises(ValueError):
            OdometerState(-1, 4)
        with pytest.raises(ValueError):
            OdometerState(16, 4)
        with pytest.raises(ValueError):
            OdometerState.zeros(0)

    def test_repr_of_a_long_register(self):
        # its decimal value would run past Python's 4300-digit int/str limit
        s = OdometerState.random_state(1, 20000)
        assert eval(repr(s), {"OdometerState": OdometerState}) == s
        assert repr(OdometerState(0b1011, 6)) == (
            "OdometerState(value=0xb, length=6, origin='explicit', seed=None)"
        )


class TestNumValue:
    def test_whole_register(self):
        assert num_value(OdometerState(0b1011, 6)) == 11

    def test_prefixes(self):
        s = OdometerState(0b1011, 6)
        assert num_value(s, 0) == 0
        assert num_value(s, 2) == 3
        assert num_value(s, 4) == 11

    def test_domain(self):
        s = OdometerState.zeros(4)
        with pytest.raises(ValueError):
            num_value(s, 5)
        with pytest.raises(ValueError):
            num_value(s, -1)


class TestSuccessor:
    def test_counts_like_integers(self):
        s = OdometerState.zeros(5)
        for expected in range(1, 17):
            s = successor(s)
            assert num_value(s) == expected

    def test_carry(self):
        s = OdometerState(0b0111, 4)
        assert num_value(successor(s)) == 0b1000

    def test_overflow(self):
        with pytest.raises(RegisterOverflowError):
            successor(OdometerState(0b1111, 4))


class TestOrbitPartialSums:
    def test_matches_summatory_differences(self):
        for q in [F(3, 4), F(-2, 3)]:
            p = QParam(q)
            base = 3
            sums = orbit_partial_sums(OdometerState(base, 8), p, 12)
            assert sums[0] == 0
            s_base = partial_sum_fast(base, p)
            for j in range(1, 13):
                assert sums[j] == partial_sum_fast(base + j, p) - s_base, (q, j)

    def test_orbit_may_end_on_the_last_state(self):
        # 14, 15 fit in four digits; the successor of 15 is never needed
        sums = orbit_partial_sums(OdometerState(14, 4), Q34, 2)
        assert len(sums) == 3
        assert sums[2] - sums[1] == weighted_digit_sum(15, Q34)

    def test_overflow_guard(self):
        with pytest.raises(RegisterOverflowError):
            orbit_partial_sums(OdometerState(14, 4), Q34, 3)

    def test_count_zero(self):
        assert orbit_partial_sums(OdometerState(15, 4), Q34, 0) == [0]

    def test_domain(self):
        with pytest.raises(ValueError):
            orbit_partial_sums(OdometerState.zeros(4), Q34, -1)


class TestStabilizingLevels:
    def test_explicit_register(self):
        s = OdometerState(0b00010001, 8)
        levels = find_stabilizing_levels(s, 3, max_levels=2)
        assert levels == [
            StabilizingLevel(4, 1, 3, F(1, 16)),
            StabilizingLevel(8, 5, 3, F(17, 256)),
        ]

    def test_overlapping_runs_give_consecutive_levels(self):
        s = OdometerState(0b00010001, 8)
        levels = find_stabilizing_levels(s, 2, max_levels=3)
        assert [lv.position for lv in levels] == [3, 4, 7]

    def test_fewer_levels_than_requested(self):
        s = OdometerState(0b00010001, 8)
        levels = find_stabilizing_levels(s, 3, max_levels=5)
        assert len(levels) == 2

    def test_zero_register(self):
        levels = find_stabilizing_levels(OdometerState.zeros(8), 3)
        assert levels == [StabilizingLevel(3, 0, 3, F(0))]

    def test_ratio_bound(self):
        s = OdometerState.random_state(11, 256)
        for lv in find_stabilizing_levels(s, 4, max_levels=10):
            assert lv.ratio < F(1, 16)
            assert lv.prefix_end == lv.position - 4

    def test_no_level(self):
        with pytest.raises(NoStabilizingLevelError):
            find_stabilizing_levels(OdometerState(0b1111, 4), 1)
        with pytest.raises(NoStabilizingLevelError):
            find_stabilizing_levels(OdometerState.zeros(4), 5)

    def test_domain(self):
        s = OdometerState.zeros(4)
        with pytest.raises(ValueError):
            find_stabilizing_levels(s, 0)
        with pytest.raises(ValueError):
            find_stabilizing_levels(s, 1, max_levels=0)


@st.composite
def registers(draw):
    """(value, length) with length <= 256: random, sparse, zero and all-ones words."""
    length = draw(st.integers(1, 256))
    top = (1 << length) - 1
    value = draw(
        st.one_of(
            st.integers(0, top),
            st.lists(st.integers(0, length - 1), max_size=8).map(
                lambda bits: sum(1 << b for b in set(bits))
            ),
            st.sampled_from([0, top, top - 1, top >> 1]),
        )
    )
    return value, length


def reference_levels(value, length, r):
    """Every n with digits x_(n-r+1)..x_n zero, by walking the digit string."""
    digits = format(value, f"0{length}b")[::-1]  # x_1 .. x_L
    return [n for n in range(r, length + 1) if digits[n - r : n] == "0" * r]


class TestIntegerRegister:
    @settings(max_examples=150, deadline=None)
    @given(reg=registers(), r=st.one_of(st.integers(1, 12), st.integers(13, 300)))
    def test_levels_match_digit_string_search(self, reg, r):
        value, length = reg
        s = OdometerState(value, length)
        want = reference_levels(value, length, r)
        if not want:
            with pytest.raises(NoStabilizingLevelError):
                find_stabilizing_levels(s, r)
            return
        got = find_stabilizing_levels(s, r, max_levels=length)
        assert [lv.position for lv in got] == want
        for lv in got:
            n = lv.position
            assert lv == StabilizingLevel(n, n - r, r, F(value % 2**n, 2**n))
        assert find_stabilizing_levels(s, r, max_levels=2) == got[:2]

    @settings(max_examples=100, deadline=None)
    @given(reg=registers())
    def test_num_value_is_the_low_bits(self, reg):
        value, length = reg
        s = OdometerState(value, length)
        assert num_value(s) == value
        for n in range(length + 1):
            assert num_value(s, n) == value % 2**n

    @settings(max_examples=100, deadline=None)
    @given(reg=registers())
    def test_successor_adds_one(self, reg):
        value, length = reg
        s = OdometerState(value, length)
        if value == 2**length - 1:
            with pytest.raises(RegisterOverflowError):
                successor(s)
        else:
            assert successor(s) == OdometerState(value + 1, length)
