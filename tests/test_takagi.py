"""Takagi-Landsberg curves and the two-branch affine system machinery."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdigits.digitsum import QParam
from qdigits.takagi import (
    AffineMap,
    CertifiedValue,
    DeRhamSystem,
    InconsistentSystemError,
    _series_terms,
    as_dyadic,
    derham_consistency,
    derham_eval,
    is_power_of_two,
    takagi_dyadic_exact,
    takagi_dyadic_grid,
    takagi_series,
)
from qdigits.trollope_delange import f_closed, fluctuation_system


class TestAsDyadic:
    def test_accepts(self):
        assert as_dyadic(0) == 0
        assert as_dyadic(1) == 1
        assert as_dyadic(F(3, 4)) == F(3, 4)

    def test_rejects(self):
        with pytest.raises(ValueError):
            as_dyadic(F(3, 2))
        with pytest.raises(ValueError):
            as_dyadic(F(-1, 4))
        with pytest.raises(ValueError):
            as_dyadic(F(1, 3))


class TestDyadicExact:
    def test_frozen_values(self):
        # T_{2/3}(1/4): unwinding gives 1/4 + (2/3)(1/2) = 7/12
        assert takagi_dyadic_exact(F(1, 4), F(2, 3)) == F(7, 12)
        # the first series term tau(1/2) = 1/2 is the whole value at 1/2
        assert takagi_dyadic_exact(F(1, 2), F(1, 2)) == F(1, 2)
        assert takagi_dyadic_exact(F(3, 4), F(1, 2)) == F(1, 2)

    def test_endpoints_vanish(self):
        for a in [F(1, 2), F(2, 3), F(-2, 5)]:
            assert takagi_dyadic_exact(0, a) == 0
            assert takagi_dyadic_exact(1, a) == 0

    def test_midpoint_is_half_for_every_a(self):
        # the argument hits 1 after one doubling, so only tau(1/2) survives
        for a in [F(1, 2), F(2, 3), F(9, 10), F(-3, 4), F(1, 4)]:
            assert takagi_dyadic_exact(F(1, 2), a) == F(1, 2)

    def test_symmetry(self):
        # tau(2^n (1-t)) = tau(2^n t) term by term, so T_a(1-t) = T_a(t)
        for a in [F(1, 2), F(2, 3), F(-2, 5)]:
            for j in range(65):
                t = F(j, 64)
                assert takagi_dyadic_exact(t, a) == takagi_dyadic_exact(1 - t, a)

    def test_branch_identities(self):
        for a in [F(2, 3), F(-2, 5)]:
            for j in range(129):
                x = F(j, 128)
                left = takagi_dyadic_exact(x / 2, a)
                right = takagi_dyadic_exact((x + 1) / 2, a)
                value = takagi_dyadic_exact(x, a)
                assert left == a * value + x / 2
                assert right == a * value + (1 - x) / 2

    def test_quarter_parameter_is_a_parabola(self):
        # the smooth member of the family: T_{1/4}(t) = 2 t (1 - t)
        for j in range(257):
            t = F(j, 256)
            assert takagi_dyadic_exact(t, F(1, 4)) == 2 * t * (1 - t)

    def test_domain(self):
        with pytest.raises(ValueError):
            takagi_dyadic_exact(F(1, 3), F(1, 2))
        with pytest.raises(ValueError):
            takagi_dyadic_exact(F(1, 2), F(3, 2))


class TestDyadicGrid:
    def test_matches_pointwise_oracle(self):
        for a in [F(2, 3), F(-2, 3), F(1, 2), F(-5, 6), F(1, 4), F(5, 9)]:
            for g in range(11):
                nums, den = takagi_dyadic_grid(g, a)
                assert len(nums) == (1 << g) + 1
                for j, num in enumerate(nums):
                    assert F(num, den) == takagi_dyadic_exact(F(j, 1 << g), a), (a, g, j)

    def test_shared_denominator(self):
        # den = 2^g v^(g-1) for a = u/v, whatever the sign of a
        assert takagi_dyadic_grid(0, F(2, 3)) == ([0, 0], 1)
        assert takagi_dyadic_grid(1, F(-2, 3)) == ([0, 1, 0], 2)
        nums, den = takagi_dyadic_grid(2, F(-2, 3))
        assert den == 12
        assert nums == [0, -1, 6, -1, 0]  # T(1/4) = 1/4 + a/2 = -1/12

    def test_domain(self):
        with pytest.raises(ValueError):
            takagi_dyadic_grid(3, F(3, 2))
        with pytest.raises(ValueError):
            takagi_dyadic_grid(-1, F(1, 2))


class TestIsPowerOfTwo:
    def test_values(self):
        assert [n for n in range(-2, 70) if is_power_of_two(n)] == [1, 2, 4, 8, 16, 32, 64]
        assert is_power_of_two(1 << 5000)
        assert not is_power_of_two((1 << 5000) + 2)


class TestSeries:
    def test_certified_against_exact(self):
        tol = 1e-10
        for a in [F(1, 2), F(-1, 2), F(2, 3), F(1, 4)]:
            for j in range(0, 33):
                t = F(j, 32)
                exact = takagi_dyadic_exact(t, a)
                got = takagi_series(t, a, tol)
                assert got.bound <= tol
                assert abs(got.value - float(exact)) <= tol

    def test_non_dyadic_known_value(self):
        # the doubling orbit of 1/3 alternates 1/3, 2/3 with tau = 1/3
        # throughout, so T_{1/2}(1/3) = (1/3) * 2 = 2/3
        got = takagi_series(F(1, 3), F(1, 2), 1e-11)
        assert abs(got.value - 2 / 3) <= 2e-11

    def test_zero_parameter(self):
        got = takagi_series(F(3, 8), 0)
        assert got == CertifiedValue(0.375, 0.0, 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            takagi_series(F(1, 2), 1)
        with pytest.raises(ValueError):
            takagi_series(F(1, 2), F(1, 2), tol=0)
        # the empty sum already meets a tol at or above 1/(2(1-|a|))
        for a, tol in [(F(1, 2), 1.0), (F(1, 2), 1.5), (F(-3, 4), 2.0), (0, 0.5)]:
            with pytest.raises(ValueError, match="zero-term bound"):
                takagi_series(F(1, 3), a, tol=tol)

    @pytest.mark.parametrize("tol", [math.inf, -math.inf, math.nan])
    def test_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            takagi_series(F(1, 3), F(2, 3), tol=tol)

    @settings(max_examples=100, deadline=None)
    @given(
        c=st.integers(-10**6, 10**6),
        e=st.integers(1, 10**6),
        v=st.integers(2, 60),
        data=st.data(),
        tol=st.sampled_from([1e-1, 1e-4, 1e-9, 1e-15, 0.3]),
    )
    def test_integer_sum_matches_fraction_sum(self, c, e, v, data, tol):
        a = F(data.draw(st.integers(-((9 * v) // 10), (9 * v) // 10)), v)
        x = F(c, e)
        got = takagi_series(x, a, tol)
        # the correctly rounded value of the same partial sum in Fractions,
        # with tau(y) = min(y mod 1, 1 - y mod 1) the distance to Z
        fracs = [2**n * x % 1 for n in range(got.terms)]
        total = sum(a**n * min(f, 1 - f) for n, f in enumerate(fracs))
        assert got.value == float(total)
        tail = abs(a) ** got.terms / 2 / (1 - abs(a))
        assert tail <= F(tol) and got.bound == float(tail)


def series_tail(a, n):
    """The tail bound after n terms, |a|^n / (2 (1 - |a|)), in Fractions:
    the rule by which takagi_series once counted its terms, one factor
    |a| at a time."""
    return abs(a) ** n / 2 / (1 - abs(a))


def assert_terms_minimal(a, tol) -> int:
    terms = takagi_series(F(1, 3), a, tol).terms
    assert series_tail(a, terms - 1) > F(tol)
    assert series_tail(a, terms) <= F(tol)
    assert abs(_series_terms(a, tol) - terms) <= 1
    return terms


class TestSeriesTerms:
    @settings(max_examples=200, deadline=None)
    @given(v=st.integers(2, 256), data=st.data())
    def test_terms_are_minimal(self, v, data):
        a = F(data.draw(st.integers(-(v - 1), v - 1)), v)
        if data.draw(st.booleans()):
            tol = 10 ** data.draw(st.floats(-15, math.log10(0.4)))
        else:
            # the float nearest a tail bound, and the floats either side
            tail = float(series_tail(a, data.draw(st.integers(1, 2000))))
            tol = data.draw(
                st.sampled_from([math.nextafter(tail, 0), tail, math.nextafter(tail, math.inf)])
            )
            assume(0 < tol < series_tail(a, 0))
        assert_terms_minimal(a, tol)

    # the two tols on either side of _SERIES_WORK's limit in the CLI tests
    @pytest.mark.parametrize("tol, terms", [(1.020416311944234e-09, 27575),
                                            (1.0214137863449637e-09, 27574)])
    def test_terms_at_the_cli_limit(self, tol, terms):
        assert assert_terms_minimal(F(1023, 1024), tol) == terms

    def test_too_close_to_one_to_count(self):
        a = F(10**400 - 1, 10**400)
        assert _series_terms(a, 1e-12) == math.inf
        with pytest.raises(ValueError, match="within float rounding of 1"):
            takagi_series(F(1, 3), a)


class TestDeRhamSystem:
    def test_contraction_guard(self):
        with pytest.raises(ValueError):
            DeRhamSystem(1, F(1, 2), AffineMap(1), AffineMap(1))
        with pytest.raises(ValueError):
            DeRhamSystem.takagi(F(3, 2))

    def test_takagi_system(self):
        sys = DeRhamSystem.takagi(F(2, 3))
        assert sys.a0 == sys.a1 == F(2, 3)
        assert (sys.g0.slope, sys.g0.intercept) == (F(1, 2), 0)
        assert (sys.g1.slope, sys.g1.intercept) == (F(-1, 2), F(1, 2))
        assert sys.left_value == 0
        assert sys.right_value == 0

    def test_consistency(self):
        ok, residual = derham_consistency(DeRhamSystem.takagi(F(-2, 5)))
        assert ok and residual == 0

    def test_broken_system_residual(self):
        # a seam mismatch of exactly 1/2: left branch forces f(1/2) = 1,
        # right branch forces f(1/2) = 1/2
        broken = DeRhamSystem(F(1, 2), F(1, 2), AffineMap(1), AffineMap(F(-1, 2), F(1, 2)))
        ok, residual = derham_consistency(broken)
        assert not ok
        assert residual == F(1, 2)


class TestDeRhamEval:
    def test_rejects_inconsistent(self):
        broken = DeRhamSystem(F(1, 2), F(1, 2), AffineMap(1), AffineMap(F(-1, 2), F(1, 2)))
        with pytest.raises(InconsistentSystemError, match="residual 1/2"):
            derham_eval(broken, F(1, 2))

    def test_exact_reproduces_curve(self):
        for a in [F(2, 3), F(-2, 5)]:
            sys = DeRhamSystem.takagi(a)
            for j in range(65):
                t = F(j, 64)
                assert derham_eval(sys, t) == takagi_dyadic_exact(t, a)

    def test_exact_mode_requires_dyadic(self):
        with pytest.raises(ValueError):
            derham_eval(DeRhamSystem.takagi(F(1, 2)), F(1, 3))

    def test_unknown_mode(self):
        # exact at dyadic points is the only mode; takagi_series does the rest
        with pytest.raises(TypeError):
            derham_eval(DeRhamSystem.takagi(F(1, 2)), F(1, 2), mode="certified-approx")
        with pytest.raises(TypeError):
            derham_eval(DeRhamSystem.takagi(F(1, 2)), F(1, 2), tol=1e-9)

    def test_general_affine_solution(self):
        # f(x) = x solves f(x/2) = (1/2) f(x), f((x+1)/2) = (1/2) f(x) + 1/2
        sys = DeRhamSystem(F(1, 2), F(1, 2), AffineMap(0), AffineMap(0, F(1, 2)))
        for j in range(17):
            t = F(j, 16)
            assert derham_eval(sys, t) == t


@st.composite
def contractions(draw, above_half=False):
    """u/v with |u/v| < 1, and |u/v| > 1/2 when above_half."""
    v = draw(st.integers(3, 1000))
    u = draw(st.integers(v // 2 + 1 if above_half else 0, v - 1))
    return F(u if draw(st.booleans()) else -u, v)


@st.composite
def dyadics(draw, max_exponent=12):
    k = draw(st.integers(0, max_exponent))
    return F(draw(st.integers(0, 1 << k)), 1 << k)


HALF_AMPLITUDE = DeRhamSystem(F(1, 4), F(1, 4), AffineMap(F(1, 4)), AffineMap(F(-1, 4), F(1, 4)))
# (system, closed form of its solution) pairs
systems = st.one_of(
    contractions().map(
        lambda a: (DeRhamSystem.takagi(a), lambda t: takagi_dyadic_exact(t, a))
    ),
    contractions(above_half=True).map(QParam).map(
        lambda p: (fluctuation_system(p), lambda t: f_closed(t, p))
    ),
    st.just((HALF_AMPLITUDE, lambda t: t * (1 - t))),
)


def affine(m, x):
    return m.slope * x + m.intercept


def end_values(sys):
    """Reference: f(0) and f(1), the fixed points of the left and right
    branches, in Fractions."""
    return affine(sys.g0, 0) / (1 - sys.a0), affine(sys.g1, 1) / (1 - sys.a1)


def seam_residual(sys):
    """Reference: f(1/2) by the left branch, a0 f(1) + g0(1), minus f(1/2)
    by the right, a1 f(0) + g1(0), in Fractions."""
    f0, f1 = end_values(sys)
    return sys.a0 * f1 + affine(sys.g0, 1) - (sys.a1 * f0 + affine(sys.g1, 0))


def derham_unwind(sys, x):
    """Reference: the branch walk f(t) = add + mult f(t') unwound in
    Fractions, one step per bit of x, ending at f(0) or f(1)."""
    t, mult, add = as_dyadic(x), F(1), F(0)
    while t != 0 and t != 1:
        if t <= F(1, 2):
            t = 2 * t
            add += mult * affine(sys.g0, t)
            mult *= sys.a0
        else:
            t = 2 * t - 1
            add += mult * affine(sys.g1, t)
            mult *= sys.a1
    f0, f1 = end_values(sys)
    return add + mult * (f0 if t == 0 else f1)


@st.composite
def consistent_systems(draw):
    """Two slopes of either sign and random branch maps, with g1's
    intercept solved from the seam condition."""
    a0, a1 = draw(contractions()), draw(contractions())
    assume(a0 + a1 != 1)
    ratios = st.builds(F, st.integers(-50, 50), st.integers(1, 50))
    m0, c0, m1 = draw(ratios), draw(ratios), draw(ratios)
    c1 = (a1 * c0 / (1 - a0) - m0 - c0 - a0 * m1 / (1 - a1)) * (1 - a1) / (a0 + a1 - 1)
    return DeRhamSystem(a0, a1, AffineMap(m0, c0), AffineMap(m1, c1))


@st.composite
def any_systems(draw):
    """Two slopes of either sign and four random branch coefficients, g1's
    intercept among them: almost never consistent."""
    ratios = st.builds(F, st.integers(-50, 50), st.integers(1, 50))
    g0, g1 = (AffineMap(draw(ratios), draw(ratios)) for _ in range(2))
    return DeRhamSystem(draw(contractions()), draw(contractions()), g0, g1)


class TestIntegerForm:
    @settings(max_examples=300, deadline=None)
    @given(
        sys=st.one_of(
            consistent_systems(), systems.map(lambda pair: pair[0]), any_systems()
        )
    )
    @example(sys=DeRhamSystem(F(1, 2), F(1, 2), AffineMap(1), AffineMap(F(-1, 2), F(1, 2))))
    @example(
        sys=DeRhamSystem(
            F(-999, 1000), F(998, 999), AffineMap(F(-50, 49)), AffineMap(F(1, 47), 50)
        )
    )
    def test_end_values_and_residual_equal_fractions(self, sys):
        residual = seam_residual(sys)
        assert (sys.left_value, sys.right_value) == end_values(sys)
        assert derham_consistency(sys) == (residual == 0, residual)


class TestDeRhamUnwinding:
    @settings(max_examples=300, deadline=None)
    @given(
        sys=st.one_of(systems.map(lambda pair: pair[0]), consistent_systems()),
        t=dyadics(max_exponent=40),
    )
    @example(sys=DeRhamSystem.takagi(F(-2, 3)), t=F(1, 2))
    @example(sys=fluctuation_system(QParam(F(-3, 4))), t=F(2**40 - 1, 2**40))
    @example(sys=fluctuation_system(QParam(F(9, 10))), t=F(1, 2**40))
    @example(sys=HALF_AMPLITUDE, t=F(1))
    def test_integer_walk_equals_fraction_unwinding(self, sys, t):
        assert derham_consistency(sys).consistent
        assert derham_eval(sys, t) == derham_unwind(sys, t)

    def test_seam_residual_is_computed_once(self):
        sys = DeRhamSystem.takagi(F(2, 3))
        residual = vars(sys)["_seam_residual"]
        assert residual == 0
        assert derham_consistency(sys).residual is residual
        # derham_eval reads the stored residual, not a fresh one
        sys.__dict__["_seam_residual"] = F(7, 3)
        with pytest.raises(InconsistentSystemError, match="residual 7/3"):
            derham_eval(sys, F(1, 4))


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(system=systems, t=dyadics(max_exponent=40))
    def test_exact_matches_closed_forms(self, system, t):
        sys, closed_form = system
        assert derham_eval(sys, t) == closed_form(t)

    @settings(max_examples=30, deadline=None)
    @given(a=contractions(), g=st.integers(0, 10))
    def test_grid_matches_pointwise(self, a, g):
        nums, den = takagi_dyadic_grid(g, a)
        assert len(nums) == (1 << g) + 1
        for j, num in enumerate(nums):
            assert F(num, den) == takagi_dyadic_exact(F(j, 1 << g), a), (a, g, j)


def trapezoid_sum(sys, g):
    """I - r^g (I - (f(0) + f(1))/2), the trapezoid sum on j/2^g of sys's
    solution f, with r = (a0 + a1)/2 and I = (s0/2 + c0 + s1/2 + c1) / (2 (1 - r))
    its integral, for branch maps g_i(x) = s_i x + c_i."""
    r = (sys.a0 + sys.a1) / 2
    s0, c0, s1, c1 = sys.g0.slope, sys.g0.intercept, sys.g1.slope, sys.g1.intercept
    integral = (s0 / 2 + c0 + s1 / 2 + c1) / (2 * (1 - r))
    return integral - r**g * (integral - sum(end_values(sys)) / 2)


class TestAreaIdentity:
    """The trapezoid sum at level g + 1 is r times the sum at level g plus
    the branch maps' own trapezoid sums, which are their integrals, so the
    sums close in on I geometrically with ratio r: exactly at every g."""

    @settings(max_examples=60, deadline=None)
    @given(a=contractions(), g=st.integers(0, 16))
    @example(a=F(1, 2), g=12)
    @example(a=F(2, 3), g=8)
    @example(a=F(-2, 3), g=3)
    @example(a=F(5, 9), g=1)
    @example(a=F(5, 6), g=0)
    @example(a=F(-3, 4), g=16)
    def test_takagi_grid(self, a, g):
        # T_a(0) = T_a(1) = 0, so the trapezoid sum is sum(nums) / (den 2^g)
        nums, den = takagi_dyadic_grid(g, a)
        assert F(sum(nums), den) == (1 << g) * (1 - a**g) / (4 * (1 - a))
        assert F(sum(nums), den << g) == trapezoid_sum(DeRhamSystem.takagi(a), g)

    @settings(max_examples=100, deadline=None)
    @given(
        sys=st.one_of(
            consistent_systems(),
            contractions(above_half=True).map(QParam).map(fluctuation_system),
        ),
        g=st.integers(0, 8),
    )
    @example(sys=fluctuation_system(QParam(F(3, 4))), g=0)
    @example(sys=fluctuation_system(QParam(F(2, 3))), g=2)
    @example(sys=fluctuation_system(QParam(F(-3, 4))), g=6)
    @example(sys=fluctuation_system(QParam(F(9, 10))), g=8)
    @example(sys=HALF_AMPLITUDE, g=5)
    def test_derham_grid(self, sys, g):
        points = 1 << g
        f = [derham_eval(sys, F(j, points)) for j in range(points + 1)]
        assert (sum(f) - (f[0] + f[-1]) / 2) / points == trapezoid_sum(sys, g)
