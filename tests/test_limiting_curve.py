"""Deviation polygons, the zero-orbit bridge identity, and the seeded
register experiment."""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdigits.cli as cli
import qdigits.limiting_curve as limiting_curve
from qdigits.cli import main
from qdigits.digitsum import QParam, partial_sum_fast, partial_sum_prefix
from qdigits.limiting_curve import (
    BridgeLevel,
    CurveSamples,
    DegenerateNormalizerError,
    GridMismatchError,
    analytic_normalizer,
    build_fluctuation_curve,
    canonical_normalizer,
    sup_distance,
    target_curve,
    theorem1_experiment,
    verify_identity_8,
    zero_orbit_curve,
)
from qdigits.odometer import (
    NoStabilizingLevelError,
    OdometerState,
    RegisterOverflowError,
    num_value,
    orbit_partial_sums,
)
from qdigits.report import IdentityCheck, VerificationReport
from qdigits.takagi import takagi_dyadic_exact, takagi_dyadic_grid
from test_acceptance import DECAY_FIXTURES

Q34 = QParam(F(3, 4))


def unit_grid(l):
    return tuple(F(j, l) for j in range(l + 1))


def assert_at_carry_depth(lvl, x, p):
    """The level's integers live at the depth of the bits its orbit reaches.

    Along X + i, i <= 2^n, only the bits below reach = bitlen(X ^ (X + 2^n))
    change, and of those the walk keeps the m = reach - h above the grid
    step 2^h, h = n - g.  For q = u/v the scale of devs (factor times the
    normalizer) then has a denominator dividing 2^g v^(m+h), and each
    deviation is under 2^(n+g+2) max|s_q| v^m <= 2^(n+g+2) v^m |q| / (1 - |q|).
    """
    n, g = lvl.position, lvl.grid_exponent
    h = n - g
    m = (x ^ (x + (1 << n))).bit_length() - h
    v = p.q.denominator
    scale = lvl.factor * lvl.normalizer
    assert (v ** (m + h) << g) % scale.denominator == 0
    q = abs(p.q)
    assert max(map(abs, lvl.devs)) * (1 - q) <= (v**m << (n + g + 2)) * q


def assert_matches_fraction_route(lvl, x, p):
    """The level's curve and sup distance from partial_sum_fast on all of x."""

    def big_s(m):
        return partial_sum_fast(m, p) if m else F(0)

    n, g, q = lvl.position, lvl.grid_exponent, p.q
    points = 1 << g
    sums = [big_s(x + (j << (n - g))) - big_s(x) for j in range(points + 1)]
    curve = tuple(
        (sums[j] - F(j, points) * sums[-1]) / (2 * q) ** (n - 1)
        for j in range(points + 1)
    )
    target = [-q * takagi_dyadic_exact(F(j, points), p.a) for j in range(points + 1)]
    assert lvl.curve.values == curve
    assert lvl.sup_distance == max(abs(c - t) for c, t in zip(curve, target))


class TestCurveSamples:
    def test_ok(self):
        c = CurveSamples((F(0), F(1), F(0)))
        assert c.values == (0, 1, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            CurveSamples((F(0),))
        with pytest.raises(ValueError, match="at least two"):
            CurveSamples(())

    @pytest.mark.parametrize("l", [1, 2, 7, 64])
    def test_grid_is_j_over_l(self, l):
        c = CurveSamples(tuple(F(0) for _ in range(l + 1)))
        assert c.grid == tuple(F(j, l) for j in range(l + 1))

    def test_grid_built_once(self):
        c = target_curve(8, Q34)
        assert c.grid is c.grid

    def test_equal_exactly_when_values_are(self):
        a = CurveSamples((F(0), F(1, 2), F(0)))
        assert a == CurveSamples((F(0), F(1, 2), F(0)))
        assert a.grid  # a cached grid takes no part in the comparison
        assert a == CurveSamples((F(0), F(1, 2), F(0)))
        assert a != CurveSamples((F(0), F(1, 3), F(0)))
        assert a != CurveSamples((F(0), F(0)))


class TestBuildFluctuationCurve:
    def test_frozen_polygon(self):
        sums = partial_sum_prefix(4, Q34)
        curve = build_fluctuation_curve(sums, 4, analytic_normalizer(4, Q34))
        assert curve.grid == unit_grid(4)
        assert curve.values == (0, F(-7, 16), F(-3, 8), F(-7, 16), 0)

    def test_endpoints_always_zero(self):
        sums = partial_sum_prefix(8, QParam(F(-2, 3)))
        curve = build_fluctuation_curve(sums, 8, F(5, 7))
        assert curve.values[0] == 0
        assert curve.values[-1] == 0

    def test_linear_ramp_invariance(self):
        # adding j*c to S(j) shifts the chord, not the deviations
        sums = partial_sum_prefix(8, Q34)
        shifted = [s + j * F(5, 7) for j, s in enumerate(sums)]
        a = build_fluctuation_curve(sums, 8, F(2))
        b = build_fluctuation_curve(shifted, 8, F(2))
        assert a.values == b.values

    def test_validation(self):
        sums = partial_sum_prefix(4, Q34)
        with pytest.raises(ValueError, match="5 partial sums"):
            build_fluctuation_curve(sums[:-1], 4, F(1))
        with pytest.raises(ValueError, match="start at 0"):
            build_fluctuation_curve([F(1)] * 5, 4, F(1))
        with pytest.raises(DegenerateNormalizerError):
            build_fluctuation_curve(sums, 4, 0)
        with pytest.raises(ValueError):
            build_fluctuation_curve([], 0, F(1))


class TestNormalizers:
    def test_canonical_frozen(self):
        sums = partial_sum_prefix(4, Q34)
        assert canonical_normalizer(sums, 4) == F(21, 32)

    def test_canonical_curve_has_sup_one(self):
        sums = partial_sum_prefix(16, Q34)
        curve = build_fluctuation_curve(sums, 16, canonical_normalizer(sums, 16))
        assert max(abs(v) for v in curve.values) == 1

    def test_canonical_degenerate(self):
        linear = [F(3) * j for j in range(9)]
        with pytest.raises(DegenerateNormalizerError):
            canonical_normalizer(linear, 8)

    def test_analytic_frozen(self):
        assert analytic_normalizer(2, Q34) == 1
        assert analytic_normalizer(4, Q34) == F(3, 2)
        assert analytic_normalizer(8, QParam(F(-3, 4))) == F(9, 4)
        # odd powers keep the sign
        assert analytic_normalizer(16, QParam(F(-3, 4))) == F(-27, 8)

    def test_analytic_domain(self):
        with pytest.raises(ValueError):
            analytic_normalizer(3, Q34)
        with pytest.raises(ValueError):
            analytic_normalizer(1, Q34)

    def test_canonical_vs_analytic(self):
        # on the zero orbit the polygon equals the limit curve, so the
        # canonical scale is |analytic| times the curve's sup norm
        for q in [F(3, 4), F(-3, 4)]:
            p = QParam(q)
            for j in range(2, 7):
                l = 1 << j
                sums = partial_sum_prefix(l, p)
                peak = max(abs(v) for v in target_curve(l, p).values)
                assert canonical_normalizer(sums, l) == abs(
                    analytic_normalizer(l, p)
                ) * peak, (q, l)


class TestZeroOrbitCurve:
    def test_matches_fraction_route(self):
        # includes q = 1/3 outside the curve regime (the CLI's --explore)
        for q in [F(3, 4), F(-3, 4), F(2, 3), F(-2, 3), F(9, 10), F(1, 3)]:
            p = QParam(q)
            for j in range(1, 7):
                l = 1 << j
                sums = partial_sum_prefix(l, p)
                for norm, normalizer in [
                    ("analytic", analytic_normalizer(l, p)),
                    ("canonical", canonical_normalizer(sums, l)),
                ]:
                    want = build_fluctuation_curve(sums, l, normalizer)
                    assert zero_orbit_curve(l, p, norm) == want, (q, l, norm)

    def test_guards(self):
        with pytest.raises(ValueError, match="power of two"):
            zero_orbit_curve(12, Q34)
        with pytest.raises(ValueError, match="norm"):
            zero_orbit_curve(8, Q34, "sup")


class TestTargetCurve:
    def test_frozen_values(self):
        curve = target_curve(4, Q34)
        assert curve.values == (0, F(-7, 16), F(-3, 8), F(-7, 16), 0)

    def test_large_weight_parabola(self):
        # q = 2 has a = 1/4, so the limit curve is -2 * 2t(1-t)
        curve = target_curve(8, QParam(2))
        for t, v in zip(curve.grid, curve.values):
            assert v == -4 * t * (1 - t)

    def test_guards(self):
        with pytest.raises(ValueError):
            target_curve(4, QParam(F(1, 2)))
        with pytest.raises(ValueError):
            target_curve(6, Q34)


class TestSupDistance:
    def test_zero_on_identical(self):
        c = target_curve(8, Q34)
        assert sup_distance(c, c) == 0

    def test_exact_offset(self):
        c = target_curve(4, Q34)
        shifted = CurveSamples(tuple(v + F(1, 3) for v in c.values))
        d = sup_distance(c, shifted)
        assert d == F(1, 3)
        assert isinstance(d, F)

    def test_float_when_approx(self):
        c = CurveSamples((F(0), F(1), F(0)))
        approx = CurveSamples((0.0, 0.75, 0.0))
        d = sup_distance(c, approx)
        assert isinstance(d, float)
        assert d == 0.25

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            sup_distance(target_curve(4, Q34), target_curve(8, Q34))
        with pytest.raises(GridMismatchError):
            sup_distance(CurveSamples((F(0), F(0), F(0))), CurveSamples((F(0), F(0))))


class TestVerifyIdentity8:
    def test_passes(self):
        for q in [F(3, 4), F(-3, 4), F(2, 3)]:
            for j in range(1, 7):
                rep = verify_identity_8(1 << j, QParam(q))
                assert rep.passed, (q, j)

    def test_report_shape(self):
        rep = verify_identity_8(16, Q34)
        assert rep.checks[0].name == "bridge-equals-target"
        assert rep.checks[0].checked == 17

    def test_reports_a_perturbed_target(self, monkeypatch):
        # the check is live: one wrong grid value fails it, and the
        # counterexample shows the exact polygon and target values
        real_grid = takagi_dyadic_grid

        def perturbed(g, a):
            nums, den = real_grid(g, a)
            nums[3] += 1
            return nums, den

        monkeypatch.setattr(limiting_curve, "takagi_dyadic_grid", perturbed)
        p = QParam(F(-3, 4))
        rep = verify_identity_8(8, p)
        assert not rep.passed
        check = rep.checks[0]
        assert check.checked == 4
        t = F(3, 8)
        _, den = real_grid(3, p.a)
        got = -p.q * takagi_dyadic_exact(t, p.a)
        want = -p.q * (takagi_dyadic_exact(t, p.a) + F(1, den))
        assert check.first_counterexample == f"t=3/8: {got} != {want}"

    @pytest.mark.parametrize("q", [F(3, 4), F(-2, 3), F(51, 100)])
    @pytest.mark.parametrize("index", [3, 96, 128])
    def test_shared_levels_report_a_perturbed_target(self, monkeypatch, q, index):
        # one off-by-one in the top grid fails exactly the levels whose
        # breakpoints include it, at the j, checked count and counterexample
        # text of the per-point scan
        real_grid = takagi_dyadic_grid
        lmax, p = 256, QParam(q)
        _, den = real_grid(8, p.a)

        def perturbed(g, a):
            nums, grid_den = real_grid(g, a)
            nums[index] += 1
            return nums, grid_den

        want = []
        for l in levels_up_to(lmax):
            target = list(target_curve(l, p).values)
            if index % (lmax // l) == 0:
                target[index // (lmax // l)] -= p.q / den
            want.append(per_point_check(l, p, target))
        monkeypatch.setattr(limiting_curve, "takagi_dyadic_grid", perturbed)
        got = main_prop1_checks(p, lmax)
        assert got == want
        assert [c.passed for c in got] == [index % (lmax // l) != 0 for l in levels_up_to(lmax)]

    def test_guards(self):
        with pytest.raises(ValueError):
            verify_identity_8(12, Q34)
        with pytest.raises(ValueError):
            verify_identity_8(16, QParam(F(1, 4)))


def levels_up_to(lmax):
    return [1 << j for j in range(1, lmax.bit_length())]


def per_point_check(l, p, target=None):
    """Identity (8) at level l from the level's own walk, one Fraction per point."""
    curve = zero_orbit_curve(l, p)
    if target is None:
        target = target_curve(l, p).values
    rep = VerificationReport("reference")
    rep.scan(
        "bridge-equals-target",
        "(S(j) - (j/l) S(l)) / (2q)^(log2(l)-1) = -q T_a(j/l)",
        f"all {l + 1} breakpoints j/l",
        ((f"t={t}", v, w) for t, v, w in zip(curve.grid, curve.values, target)),
    )
    return rep.checks[0]


def main_prop1_checks(p, lmax):
    """verify --suite prop1's checks, under verify_identity_8's check name."""
    rep = cli._suite_prop1(p, lmax)
    return [
        IdentityCheck(
            "bridge-equals-target", c.statement, c.scope, c.checked, c.passed, c.first_counterexample
        )
        for c in rep.checks
    ]


# the experiment's weights in both signs, and the weights curve --explore takes
ORBIT_WEIGHTS = [F(3, 4), F(-3, 4), F(2, 3), F(-5, 7), F(1), F(1, 3), F(5, 2), F(-1, 4)]


def chord_deviations(sums):
    """D(t) - (t/P) D(P) with D(t) = sums[t] - sums[0], P = len(sums) - 1."""
    points = len(sums) - 1
    total = sums[-1] - sums[0]
    return [s - sums[0] - F(t, points) * total for t, s in enumerate(sums)]


def carry_walk(x, n, g, p):
    """_orbit_deviations' deviations, joined, and factor, by the per-step
    carry walk its table replaced: s_q(c + t) v^m moves by one carry per
    step, and each deviation is built as an integer of about h bits."""
    u, v = p.q.numerator, p.q.denominator
    h = n - g
    points = 1 << g
    a, b = x >> h, x & ((1 << h) - 1)
    m = (a ^ (a + points)).bit_length()
    c = a & ((1 << m) - 1)
    weights = [u * v ** (m - 1)]  # weights[i] = q^(i+1) v^m
    for _ in range(m - 1):
        weights.append(weights[-1] * u // v)
    digit = sum(w for i, w in enumerate(weights) if c >> i & 1)
    nums = [b * digit]
    running = 0
    for _ in range(points):
        running += digit
        i = 0
        while c >> i & 1:
            digit -= weights[i]
            i += 1
        digit += weights[i]
        c += 1
        nums.append((running << h) + b * digit)
    total = nums[-1] - nums[0]
    devs = [(s - nums[0]) * points - t * total for t, s in enumerate(nums)]
    if g:
        return devs, F(1, u ** (g - 1) * v ** (m + 1 - g) << (g + n - 1))
    return devs, F(2 * u, v ** (m + 1) << n)


def joined_walk(x, n, g, p):
    """_orbit_deviations with its split form joined: (devs, factor)."""
    alpha, beta, b, factor = limiting_curve._orbit_deviations(x, n, g, p)
    return limiting_curve._join(alpha, beta, b, n - g), factor


class TestOrbitDeviations:
    @settings(max_examples=80, deadline=None)
    @given(
        x=st.one_of(st.just(0), st.integers(0, (1 << 200) - 1)),
        h=st.integers(0, 200),
        g=st.integers(0, 6),
        q=st.sampled_from(ORBIT_WEIGHTS),
    )
    # a single grid step
    @example(x=(1 << 150) - 12345, h=100, g=0, q=F(3, 4))
    # A = x >> h has ones at bits 4..39, so A + 2^4 carries through 36 of them
    @example(x=(((1 << 36) - 1) << 104) + 777, h=100, g=4, q=F(-5, 7))
    # B = x mod 2^h is zero
    @example(x=0xDEADBEEF << 64, h=64, g=6, q=F(5, 2))
    def test_matches_fast_differences(self, x, h, g, q):
        p = QParam(q)
        devs, factor = joined_walk(x, h + g, g, p)
        orbit = range(x, x + (1 << (h + g)) + 1, 1 << h)
        sums = [partial_sum_fast(m, p) if m else F(0) for m in orbit]
        scale = factor * (2 * q) ** (h + g - 1)
        assert [d * scale for d in devs] == chord_deviations(sums)

    @pytest.mark.parametrize("q", ORBIT_WEIGHTS + [F(-2, 3), F(9, 10), F(-9, 10), F(51, 100)])
    def test_zero_orbit_matches_prefix_table(self, q):
        p = QParam(q)
        for n in range(9):
            table = partial_sum_prefix(1 << n, p)
            for g in range(min(n, 6) + 1):
                devs, factor = joined_walk(0, n, g, p)
                scale = factor * (2 * q) ** (n - 1)
                assert [d * scale for d in devs] == chord_deviations(table[:: 1 << (n - g)])
        if not p.is_curve_regime:
            return
        # identity (8) at every level below lmax, from lmax's one walk and
        # one grid, gives the check each level's own walk gives
        want = [per_point_check(l, p) for l in levels_up_to(1 << 10)]
        for j in range(1, 11):
            assert main_prop1_checks(p, 1 << j) == want[:j]
            assert verify_identity_8(1 << j, p).checks == want[j - 1 : j]


# the experiment's weights, 1/2 < |q| < 1, and for the walk, which takes
# any q, two outside that window
SPLIT_WEIGHTS = [F(3, 4), F(-3, 4), F(2, 3), F(-2, 3), F(9, 10), F(5, 9), F(-5, 7)]
WALK_WEIGHTS = [*SPLIT_WEIGHTS, F(1), F(5, 2)]


class TestTableWalk:
    """_orbit_deviations reads s_q(c + t) from a table built by doubling and
    returns its deviations in split form; joined, they are the carry walk's."""

    @settings(max_examples=150, deadline=None)
    @given(
        x=st.one_of(st.just(0), st.integers(0, (1 << 400) - 1)),
        h=st.integers(0, 300),
        g=st.integers(0, 8),
        q=st.sampled_from(WALK_WEIGHTS),
    )
    # A = x >> h has ones at bits 4..39, so A + 2^4 carries through 36 of them
    @example(x=(((1 << 36) - 1) << 104) + 777, h=100, g=4, q=F(-5, 7))
    # c mod 2^g = 2^g - 1: the first step already carries past bit g
    @example(x=(0xABC << 208) + (0xFF << 200) + 12345, h=200, g=8, q=F(2, 3))
    # B = x mod 2^h is zero
    @example(x=0xDEADBEEF << 64, h=64, g=6, q=F(5, 2))
    # g = 0: a single grid step
    @example(x=(1 << 150) - 12345, h=100, g=0, q=F(3, 4))
    # the zero orbit
    @example(x=0, h=0, g=8, q=F(-3, 4))
    def test_matches_carry_walk(self, x, h, g, q):
        p = QParam(q)
        alpha, beta, b, factor = limiting_curve._orbit_deviations(x, h + g, g, p)
        devs, want_factor = carry_walk(x, h + g, g, p)
        assert b == x % (1 << h)
        assert (beta is None) == (b == 0)
        assert limiting_curve._join(alpha, beta, b, h) == devs
        assert (factor.numerator, factor.denominator) == (
            want_factor.numerator,
            want_factor.denominator,
        )
        # alpha and beta are small: their size depends on the m bits the
        # carries reach, not on b
        a = x >> h
        m = (a ^ (a + (1 << g))).bit_length()
        bits = m * max(abs(q.numerator), q.denominator).bit_length() + 2 * g + 8
        assert all(abs(d).bit_length() <= bits for d in [*alpha, *(beta or [])])

    @pytest.mark.parametrize("q", [F(3, 4), F(1), F(5, 2)])
    def test_carry_through_thousands_of_ones(self, q):
        # A + 2^8 carries through 6000 ones: the constant for bits g..m-2
        # is one geometric sum, not a weight per bit
        x = ((1 << 6000) - 1) << 12
        p = QParam(q)
        assert joined_walk(x, 12, 8, p) == carry_walk(x, 12, 8, p)



def full_gaps(devs, factor, tak, tak_factor):
    """Reference for _sup_gap: devs[j] * factor - tak[j] * tak_factor as
    (gaps, den), gaps[j] / den, den > 0, every gap built in full."""
    dev_scale = factor.numerator * tak_factor.denominator
    tak_scale = tak_factor.numerator * factor.denominator
    gaps = [d * dev_scale - t * tak_scale for d, t in zip(devs, tak, strict=True)]
    return gaps, factor.denominator * tak_factor.denominator


def reference_gaps(x, lvl, p):
    """The level's deviations and factor from the carry walk, with its gaps
    to the target as (gaps, den), gaps[j] / den, all built in full."""
    n, g = lvl.position, lvl.grid_exponent
    devs, factor = carry_walk(x, n, g, p)
    tak, tak_factor = limiting_curve._target_scaled(g, p)
    return devs, factor, full_gaps(devs, factor, tak, tak_factor)


class TestSplitSup:
    """theorem1_experiment's sup distance from the split form is the max of
    |gaps| over deviations built in full, and BridgeLevel.devs joins that
    form only when it is read."""

    def check(self, state, p, r_list, grid_exponent):
        bridge = theorem1_experiment(
            None, p, r_list, state=state, grid_exponent=grid_exponent
        )
        for lvl in bridge.levels:
            devs, factor, (gaps, den) = reference_gaps(state.value, lvl, p)
            assert lvl.sup_distance == F(max(map(abs, gaps)), den)
            assert "devs" not in vars(lvl)
            assert lvl.devs == tuple(devs)
            assert "devs" in vars(lvl)
            assert lvl.factor == factor
        return bridge

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.sampled_from(SPLIT_WEIGHTS),
        r=st.integers(1, 10),
        prefix=st.integers(0, (1 << 400) - 1),
        prefix_len=st.integers(0, 400),
        high=st.integers(0, (1 << 100) - 1),
        grid_exponent=st.integers(0, 8),
    )
    def test_matches_full_gaps(self, q, r, prefix, prefix_len, high, grid_exponent):
        # register: a prefix with no run of r zeros (a one at every r-th
        # bit and at its top), the run of r zeros that makes level n, and
        # random bits above; h = n - g runs from 0 past _SPLIT_MIN_H
        n = prefix_len + r
        if prefix_len:
            prefix |= sum(1 << i for i in range(r - 1, prefix_len, r)) | 1 << (prefix_len - 1)
            prefix &= (1 << prefix_len) - 1
        else:
            prefix = 0
        state = OdometerState(prefix | high << n, n + 101)
        (lvl,) = self.check(state, QParam(q), [r], grid_exponent).levels
        assert lvl.position == n

    @pytest.mark.parametrize("q", [F(3, 4), F(-2, 3), F(9, 10)])
    def test_short_and_deep_levels(self, q):
        # seed 9 at r = 2, 4, 8, 12 gives levels n = 9, 23, 289 and 4369:
        # h <= 128 at the first two, far past it at the last two
        state = OdometerState.random_state(9, 8192)
        bridge = self.check(state, QParam(q), [2, 4, 8, 12], 8)
        assert [lvl.position for lvl in bridge.levels] == [9, 23, 289, 4369]

    @settings(max_examples=100, deadline=None)
    @given(
        x=st.integers(0, (1 << 400) - 1),
        h=st.integers(0, 300),
        g=st.integers(0, 8),
        clear_low=st.booleans(),
        q=st.sampled_from(SPLIT_WEIGHTS),
    )
    # b = 0 past _SPLIT_MIN_H, with c mod 2^g = 0x5A: no beta, nonzero gaps
    @example(x=0xDEADBE5A << 192, h=192, g=8, clear_low=True, q=F(3, 4))
    def test_sup_gap_matches_full_max(self, x, h, g, clear_low, q):
        # the sup of any orbit segment, not only those at a stabilising level
        if clear_low:
            x = x >> h << h
        p = QParam(q)
        alpha, beta, b, factor = limiting_curve._orbit_deviations(x, h + g, g, p)
        tak, tak_factor = limiting_curve._target_scaled(g, p)
        devs, _factor = carry_walk(x, h + g, g, p)
        gaps, den = full_gaps(devs, factor, tak, tak_factor)
        got = limiting_curve._sup_gap(alpha, beta, b, h, factor, tak, tak_factor)
        assert got == (max(map(abs, gaps)), den)

    def test_grid_exponent_zero(self):
        # one grid step: the scale's twos do not cover h, so every gap is built
        state = OdometerState.random_state(9, 8192)
        bridge = self.check(state, QParam(F(2, 3)), [4, 8, 12], 0)
        assert {lvl.grid_exponent for lvl in bridge.levels} == {0}

    @pytest.mark.parametrize(
        "q, a, b, winner, runner_up",
        [
            (
                F(2, 3),
                0xDE11403,
                0x90735A93FF279218304884D37360970CB473A2B8A1C2249695,
                1020,
                1021,
            ),
            (
                F(-2, 3),
                0x15C403,
                0x8E324FE852DDF71F133CABA736C05EB4882383B30D516324FF,
                340,
                339,
            ),
        ],
        ids=["2/3", "-2/3"],
    )
    def test_two_gaps_agree_past_the_truncation(self, q, a, b, winner, runner_up):
        # x = a 2^200 + b at r = 8 and grid exponent 10 has its level at
        # n = 210, h = 200.  Each gap is linear in b, and b is the integer
        # just past where the gaps at the two points have equal size: they
        # agree far below the top 64 of b's 200 bits, and b cut to those
        # bits ranks them the other way, so only the exact gaps of the
        # points the filter keeps give the sup
        x = (a << 200) + b
        p = QParam(q)
        (lvl,) = self.check(OdometerState(x, x.bit_length() + 1), p, [8], 10).levels
        assert (lvl.position, lvl.grid_exponent) == (210, 10)

        def largest(register):
            _devs, _factor, (gaps, _den) = reference_gaps(register, lvl, p)
            return sorted(((abs(d), t) for t, d in enumerate(gaps)), reverse=True)[:2]

        cut = 200 - limiting_curve._TOP_BITS
        (first, t1), (second, t2) = largest(x)
        assert (t1, t2) == (winner, runner_up)
        assert 0 < first - second < 1 << cut
        assert [t for _size, t in largest(x >> cut << cut)] == [runner_up, winner]


class TestExponentFactor:
    """_orbit_deviations writes its factor from exponents: the walk's scale
    u^h / (v^(m+h) 2^g) over the normalizer (2q)^(n-1), q = u/v, without
    dividing the two."""

    @pytest.mark.parametrize("q", [F(3, 4), F(-3, 4), F(2, 3), F(9, 10)])
    @pytest.mark.parametrize("g", [0, 1, 8])
    def test_equals_scale_over_normalizer(self, q, g):
        p = QParam(q)
        u, v = q.numerator, q.denominator
        orbits = [
            (0, g),  # the zero orbit
            (random.Random(g).getrandbits(600), 300),
            # A = x >> h has ones at bits 0..97, so A + 2^g carries to bit 98
            (((1 << 100) - 1) << 200, 210),
        ]
        for x, n in orbits:
            h = n - g
            a = x >> h
            m = (a ^ (a + (1 << g))).bit_length()
            want = F(u**h, v ** (m + h) << g) / (2 * q) ** (n - 1)
            *_split, factor = limiting_curve._orbit_deviations(x, n, g, p)
            assert type(factor) is F
            assert (factor.numerator, factor.denominator, hash(factor)) == (
                want.numerator,
                want.denominator,
                hash(want),
            ), (x, n)

    @pytest.mark.parametrize("q", [F(3, 4), F(-3, 4), F(2, 3), F(-2, 3), F(9, 10)])
    def test_normalizer_from_exponents(self, q):
        # (2q)^(n-1) as a pair of coprime powers, at n = 1 and 2 on the zero
        # register and up to n = 6409 on seed 5
        p = QParam(q)
        zero = theorem1_experiment(None, p, [1, 2], state=OdometerState.zeros(8))
        seeded = theorem1_experiment(5, p, [1, 4, 8, 12])
        levels = zero.levels + seeded.levels
        assert [lvl.position for lvl in levels] == [1, 2, 2, 42, 807, 6409]
        for lvl in levels:
            want = (2 * q) ** (lvl.position - 1)
            got = lvl.normalizer
            assert (type(got), got.numerator, got.denominator, hash(got)) == (
                F,
                want.numerator,
                want.denominator,
                hash(want),
            )

    @pytest.mark.parametrize("q", [F(3, 4), F(-3, 4), F(2, 3), F(9, 10)])
    def test_sup_distances_in_lowest_terms(self, q):
        bridge = theorem1_experiment(5, QParam(q), [4, 8, 12], grid_exponent=6)
        for lvl in bridge.levels:
            d = lvl.sup_distance
            want = F(d.numerator, d.denominator)  # reduced again
            assert (type(d), d.numerator, d.denominator, hash(d)) == (
                F,
                want.numerator,
                want.denominator,
                hash(want),
            )


class TestTheoremExperiment:
    def test_zero_register_matches_limit_exactly(self):
        bridge = theorem1_experiment(
            None, Q34, [2, 3], state=OdometerState.zeros(64)
        )
        assert [lvl.position for lvl in bridge.levels] == [2, 3]
        assert bridge.sup_distances == [0, 0]
        assert not bridge.decay_strictly_decreasing  # zero is not < zero
        assert bridge.description == "zero"
        assert all("stays below" in note for note in bridge.notes)

    def test_matches_literal_odometer_orbit(self):
        # small register, carries crossing the level: the orbit walk must
        # agree with literal successor stepping
        state = OdometerState(0b10011, 16)
        bridge = theorem1_experiment(None, Q34, [2], state=state)
        lvl = bridge.levels[0]
        assert lvl.position == 4
        assert lvl.ratio == F(3, 16)
        l = 1 << lvl.position
        literal = orbit_partial_sums(state, Q34, l)
        expected = tuple(
            (literal[j] - F(j, l) * literal[l]) / lvl.normalizer
            for j in range(l + 1)
        )
        assert lvl.curve.values == expected
        assert "carries cross level position 4" in bridge.notes[0]

    @pytest.mark.parametrize("q", [F(-3, 4), F(-2, 3)])
    @pytest.mark.parametrize("grid_exponent", [4, 8])
    def test_negative_weight_matches_fraction_route(self, q, grid_exponent):
        # seed 5 gives levels n = 5, 6, 42: normalizers (2q)^(n-1) of
        # both signs, and at grid exponent 8 a grid clipped to n at the
        # two low levels
        p = QParam(q)
        state = OdometerState.random_state(5, 64)
        bridge = theorem1_experiment(
            None, p, [2, 3, 4], state=state, grid_exponent=grid_exponent
        )
        assert {lvl.normalizer > 0 for lvl in bridge.levels} == {True, False}
        for lvl in bridge.levels:
            assert_matches_fraction_route(lvl, num_value(state), p)

    def test_grid_exponent_clipping(self):
        state = OdometerState.zeros(2048)
        bridge = theorem1_experiment(None, Q34, [3, 10], state=state)
        assert bridge.levels[0].grid_exponent == 3
        assert len(bridge.levels[0].curve.grid) == 9
        assert bridge.levels[1].grid_exponent == 8
        assert len(bridge.levels[1].curve.grid) == 257

    def test_seeded_reproducible(self):
        a = theorem1_experiment(7, Q34, [2, 4], register_length=128)
        b = theorem1_experiment(7, Q34, [2, 4], register_length=128)
        assert a.sup_distances == b.sup_distances
        assert a.seed == 7
        assert a.description.startswith("seeded-random(seed=7")
        assert a.register_length == 128

    def test_explicit_state_keeps_caller_seed(self):
        bridge = theorem1_experiment(0, Q34, [2], state=OdometerState.zeros(16))
        assert bridge.seed == 0
        assert bridge.description == "zero"

    def test_level_metadata(self):
        bridge = theorem1_experiment(3, Q34, [4], register_length=256)
        lvl = bridge.levels[0]
        assert isinstance(lvl, BridgeLevel)
        assert lvl.run_length == 4
        assert lvl.prefix_end == lvl.position - 4
        assert lvl.normalizer == (F(3, 2)) ** (lvl.position - 1)

    def test_register_overflow(self):
        # all ones above the zero run: the orbit would carry out
        state = OdometerState(0b11111001, 8)
        with pytest.raises(RegisterOverflowError):
            theorem1_experiment(None, Q34, [2], state=state)

    def test_no_level_propagates(self):
        with pytest.raises(NoStabilizingLevelError):
            theorem1_experiment(None, Q34, [5], state=OdometerState.zeros(4))

    def test_guards(self):
        with pytest.raises(ValueError):
            theorem1_experiment(None, Q34, [2])  # neither seed nor state
        with pytest.raises(ValueError):
            theorem1_experiment(1, Q34, [])
        with pytest.raises(ValueError):
            theorem1_experiment(1, QParam(F(1, 4)), [2])
        with pytest.raises(ValueError):
            theorem1_experiment(1, QParam(F(3, 2)), [2])

    def test_integers_at_carry_depth_off_the_dyadic_denominators(self):
        # q = 2/3: the scale is a power of 3 times 2^g, so no common power
        # of two could take the register's depth out of it
        p = QParam(F(2, 3))
        bridge = theorem1_experiment(9, p, [4, 8, 12])
        x = OdometerState.random_state(9, 8192).value
        assert [lvl.position for lvl in bridge.levels] == [23, 289, 4369]
        for lvl in bridge.levels:
            assert_at_carry_depth(lvl, x, p)

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.sampled_from([F(3, 4), F(-3, 4), F(2, 3), F(-2, 3), F(5, 9), F(9, 10)]),
        r=st.integers(1, 4),
        prefix=st.integers(0, 255),
        prefix_len=st.integers(0, 8),
        ones=st.integers(0, 24),
        high=st.integers(0, (1 << 48) - 1),
        grid_exponent=st.integers(0, 4),
    )
    def test_matches_full_register_route(
        self, q, r, prefix, prefix_len, ones, high, grid_exponent
    ):
        # register: a prefix with no run of r zeros, the run of r zeros that
        # makes level n, a run of ones the final carry crosses, one zero
        # that stops it, and random bits above
        n = prefix_len + r
        if prefix_len:
            prefix |= sum(1 << i for i in range(r - 1, prefix_len, r))
            prefix = (prefix | 1 << (prefix_len - 1)) & ((1 << prefix_len) - 1)
        else:
            prefix = 0
        x = prefix | ((1 << ones) - 1) << n | high << (n + ones + 1)
        state = OdometerState(x, n + ones + 49)
        p = QParam(q)
        (lvl,) = theorem1_experiment(
            None, p, [r], state=state, grid_exponent=grid_exponent
        ).levels
        assert lvl.position == n
        assert (x ^ (x + (1 << n))).bit_length() == n + ones + 1
        assert_at_carry_depth(lvl, x, p)
        assert_matches_fraction_route(lvl, x, p)

    def test_negative_grid_exponent_before_the_draw(self, monkeypatch):
        def no_draw(cls, seed, length):
            raise AssertionError("register drawn before the argument check")

        monkeypatch.setattr(OdometerState, "random_state", classmethod(no_draw))
        with pytest.raises(ValueError, match="grid_exponent must be >= 0, got -1"):
            theorem1_experiment(1, Q34, [2], grid_exponent=-1)


class TestLazyCurve:
    def test_polygon_built_only_on_demand(self, monkeypatch, capsys):
        polygon = limiting_curve._polygon

        def refuse(*args):
            raise AssertionError("polygon built before curve was read")

        monkeypatch.setattr(limiting_curve, "_polygon", refuse)
        bridge = theorem1_experiment(42, Q34, [4, 8, 12])
        x = OdometerState.random_state(42, 8192).value
        for lvl in bridge.levels:
            assert "devs" not in repr(lvl)
            assert "curve" not in vars(lvl)
            assert_at_carry_depth(lvl, x, Q34)
        assert main(["bridge", "--q", "3/4", "--seed", "42"]) == 0
        doc = json.loads(capsys.readouterr().out)
        got = [
            (
                lvl["r"],
                lvl["n_j"],
                lvl["sup_distance"],
                hashlib.sha256(lvl["sup_distance_exact"].encode()).hexdigest()[:16],
            )
            for lvl in doc["levels"]
        ]
        assert got == DECAY_FIXTURES[42]

        calls = []

        def counted(*args):
            calls.append(args)
            return polygon(*args)

        monkeypatch.setattr(limiting_curve, "_polygon", counted)
        lvl = bridge.levels[-1]
        assert lvl.curve is lvl.curve
        assert len(calls) == 1
        assert len(lvl.curve.grid) == 257
