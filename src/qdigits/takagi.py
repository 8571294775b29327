"""Takagi-Landsberg curves and two-branch affine functional systems.

The curve family is

    T_a(x) = sum_{n>=0} a^n tau(2^n x),    tau(x) = dist(x, Z),

which converges for |a| < 1 and satisfies the two-branch system

    T_a(x/2)     = a T_a(x) + x/2,
    T_a((x+1)/2) = a T_a(x) + (1-x)/2,      T_a(0) = T_a(1) = 0.

That system is one instance of the general contractive pair

    f(x/2) = a0 f(x) + g0(x),    f((x+1)/2) = a1 f(x) + g1(x)

with affine g0, g1 and max(|a0|, |a1|) < 1, which has a unique bounded
solution as soon as the two branch images agree at the seam; the seam
condition is

    a0 g1(1)/(1 - a1) + g0(1) = a1 g0(0)/(1 - a0) + g1(0).

Dyadic arguments unwind through the branches in finitely many exact
rational steps.  On a whole dyadic grid j/2^g the curve is built level
by level instead, from the midpoint rule (Takagi 1903, de Rham 1957)

    T_a((2k+1)/2^(m+1)) = (T_a(k/2^m) + T_a((k+1)/2^m))/2 + a^m/2,

which refines every interval of level m at once: O(2^g) integer
additions over one shared denominator for the whole grid.  Non-dyadic
rational arguments get a certified float from takagi_series: a partial
sum of the series, rounded once, with a rigorous bound on its tail.

Note on the smooth member of the family: with tau = dist(x, Z) as above,
the a = 1/4 curve is the parabola 2 x (1 - x).  A widely quoted form of
this identity omits the factor 2; it is incompatible with the series
normalisation used here (already T_{1/4}(1/2) = tau(1/2) = 1/2, while
x (1 - x) gives 1/4).  The quoted x (1 - x) is the half-amplitude curve,
the solution of f(x/2) = f(x)/4 + x/4, f((x+1)/2) = f(x)/4 + (1-x)/4.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from ._record import record


class InconsistentSystemError(ValueError):
    """The two branches of a functional system disagree at the seam."""


_HALF = Fraction(1, 2)
# takagi_series' tolerance unless its caller names one; f_hat_float never does
DEFAULT_SERIES_TOL = 1e-12


def is_power_of_two(n: int) -> bool:
    """True when n is 1, 2, 4, 8, ..."""
    return n >= 1 and (n & (n - 1)) == 0


def as_dyadic(t) -> Fraction:
    """Coerce t to a dyadic Fraction in [0, 1] or raise ValueError."""
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ValueError(f"argument {t} outside [0, 1]")
    if not is_power_of_two(t.denominator):
        raise ValueError(f"argument {t} is not dyadic")
    return t


class CertifiedValue(NamedTuple):
    """A float approximation with a rigorous bound on its error."""

    value: float
    bound: float
    terms: int


def _require_contraction(a: Fraction):
    if abs(a) >= 1:
        raise ValueError(
            f"|a| < 1 required for the series to converge, got a = {a}"
        )


def _series_terms(a: Fraction, tol) -> float:
    """The smallest N with |a|^N / (2 (1 - |a|)) <= tol from logarithms, or
    one off it; 0 for an a or tol that takagi_series refuses, and inf when
    |a| is within float rounding of 1."""
    u, v = abs(a.numerator), a.denominator
    gap = Fraction(v - u, v)  # 1 - |a|
    if not (u < v and 0 < tol < math.inf and tol < 1 / (2 * gap)):
        return 0
    if u == 0:
        return 1
    # log|a|, or -0.0 when |a| is within float rounding of 1
    rate = math.log1p(-float(gap)) if gap < 0.5 else math.log(u) - math.log(v)
    log_tail = math.log(2 * tol) + math.log(v - u) - math.log(v)
    return max(math.ceil(log_tail / rate), 1) if rate else math.inf


def takagi_series(x, a, tol: float = DEFAULT_SERIES_TOL) -> CertifiedValue:
    """Partial sum of sum_n a^n tau(2^n x) with a certified tail bound.

    Works for any rational x and |a| < 1.  The tail after N terms is at
    most |a|^N / (2 (1 - |a|)) since tau <= 1/2; N is the smallest count
    that pushes this below tol, estimated by _series_terms and settled in
    integers.  tol must lie below the zero-term bound 1/(2 (1 - |a|)),
    which the empty sum already meets.  With x = c/e and a = u/v the
    partial sum is the one integer ratio
    sum_{n<N} u^n v^(N-1-n) min(r_n, e - r_n) / (v^(N-1) e),
    r_n = 2^n c mod e, rounded once at the end.
    """
    x = Fraction(x)
    a = Fraction(a)
    _require_contraction(a)
    if not math.isfinite(tol) or tol <= 0:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    terms = _series_terms(a, tol)
    if not terms:
        raise ValueError(
            f"tol must be below the zero-term bound 1/(2(1-|a|)) = {1 / (2 - 2 * abs(a))},"
            f" got {tol}"
        )
    if terms == math.inf:
        raise ValueError("|a| is within float rounding of 1: too close to count series terms")
    u, v, e = a.numerator, a.denominator, x.denominator
    w = 2 * (v - abs(u))
    t_num, t_den = Fraction(tol).as_integer_ratio()

    def within(n):
        """The tail after n >= 1 terms, |u|^n / (w v^(n-1)), is at most tol."""
        return abs(u) ** n * t_den <= w * v ** (n - 1) * t_num

    while terms > 1 and within(terms - 1):
        terms -= 1
    while not within(terms):
        terms += 1

    num, u_n, r = 0, 1, x.numerator % e
    for _ in range(terms):
        num = num * v + u_n * min(r, e - r)
        u_n *= u
        r = 2 * r % e
    scale = v ** (terms - 1)
    return CertifiedValue(num / (scale * e), abs(u_n) / (w * scale), terms)


def takagi_dyadic_exact(t, a) -> Fraction:
    """T_a at a dyadic rational, exactly, by finite branch unwinding.

    Each step doubles the argument (mod the branch map) and reduces its
    dyadic exponent by one, so the recursion bottoms out at 0 or 1 where
    the curve vanishes.
    """
    t = as_dyadic(t)
    a = Fraction(a)
    _require_contraction(a)
    total = Fraction(0)
    scale = Fraction(1)
    while t != 0 and t != 1:
        if t <= _HALF:
            total += scale * t
            t = 2 * t
        else:
            total += scale * (1 - t)
            t = 2 * t - 1
        scale *= a
    return total


def takagi_dyadic_grid(g: int, a) -> tuple[list[int], int]:
    """T_a(j/2^g) for j = 0..2^g as integer numerators over one denominator.

    Returns (nums, den) with T_a(j/2^g) = nums[j] / den exactly, where
    den = 2^g v^(g-1) for a = u/v in lowest terms (den = 1 when g = 0).
    The grid is refined level by level with the midpoint rule; at level
    m < g every value is a multiple of 2^(g-m) v^(g-m), so each halving
    is exact and no value ever needs reducing.  takagi_dyadic_exact is
    the pointwise oracle for every entry.
    """
    if g < 0:
        raise ValueError(f"grid exponent must be nonnegative, got {g}")
    a = Fraction(a)
    _require_contraction(a)
    size = 1 << g
    nums = [0] * (size + 1)
    if g == 0:
        return nums, 1
    u, v = a.numerator, a.denominator
    stride = size
    for m in range(g):
        half = stride >> 1
        bump = (u**m * v ** (g - 1 - m)) << (g - 1)  # a^m / 2, scaled by den
        nums[half::stride] = [
            ((left + right) >> 1) + bump
            for left, right in zip(nums[0:size:stride], nums[stride::stride])
        ]
        stride = half
    return nums, (v ** (g - 1)) << g


# ---------------------------------------------------------------------------
# general two-branch systems
# ---------------------------------------------------------------------------


@record
class AffineMap:
    """x -> slope * x + intercept over the rationals: a DeRhamSystem's
    branch term, not a callable."""

    slope: Fraction
    intercept: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "slope", Fraction(self.slope))
        object.__setattr__(self, "intercept", Fraction(self.intercept))


@record
class DeRhamSystem:
    """A contractive two-branch affine functional system.

    f(x/2) = a0 f(x) + g0(x) on the left half, f((x+1)/2) = a1 f(x) + g1(x)
    on the right.  Construction enforces contraction only; consistency at
    the seam is a separate check so that deliberately broken systems can
    be built and reported on.  Construction also stores _integer_form =
    (D, ((A0, P0, Q0), (A1, P1, Q1))), every coefficient over one
    denominator (a_i = A_i / D, g_i(t) = (P_i t + Q_i) / D), and from it
    _seam_residual, the left branch's f(1/2) minus the right's.
    """

    a0: Fraction
    a1: Fraction
    g0: AffineMap
    g1: AffineMap

    def __post_init__(self):
        a0, a1 = Fraction(self.a0), Fraction(self.a1)
        if max(abs(a0), abs(a1)) >= 1:
            raise ValueError(
                f"contraction requires max(|a0|, |a1|) < 1, got a0 = {a0}, a1 = {a1}"
            )
        coeffs = (a0, self.g0.slope, self.g0.intercept, a1, self.g1.slope, self.g1.intercept)
        den = math.lcm(*(c.denominator for c in coeffs))
        A0, P0, Q0, A1, P1, Q1 = (c.numerator * (den // c.denominator) for c in coeffs)
        # a0 f(1) + g0(1) - a1 f(0) - g1(0) over D (D - A0)(D - A1)
        d0, d1 = den - A0, den - A1
        residual = A0 * (P1 + Q1) * d0 + (P0 + Q0 - Q1) * d0 * d1 - A1 * Q0 * d1
        self.__dict__.update(
            a0=a0,
            a1=a1,
            _integer_form=(den, ((A0, P0, Q0), (A1, P1, Q1))),
            _seam_residual=Fraction(residual, den * d0 * d1),
        )

    @classmethod
    def takagi(cls, a) -> "DeRhamSystem":
        a = Fraction(a)
        return cls(a, a, AffineMap(Fraction(1, 2)), AffineMap(Fraction(-1, 2), Fraction(1, 2)))

    @property
    def left_value(self) -> Fraction:
        """f(0) = g0(0) / (1 - a0) = Q0 / (D - A0), the left fixed point."""
        den, ((A0, _, Q0), _) = self._integer_form
        return Fraction(Q0, den - A0)

    @property
    def right_value(self) -> Fraction:
        """f(1) = g1(1) / (1 - a1) = (P1 + Q1) / (D - A1), the right fixed point."""
        den, (_, (A1, P1, Q1)) = self._integer_form
        return Fraction(P1 + Q1, den - A1)


class ConsistencyResult(NamedTuple):
    consistent: bool
    residual: Fraction


def derham_consistency(sys: DeRhamSystem) -> ConsistencyResult:
    """Check the seam condition; residual is (left expression - right)."""
    residual = sys._seam_residual
    return ConsistencyResult(residual == 0, residual)


def derham_eval(sys: DeRhamSystem, x) -> Fraction:
    """The solution of a consistent system at a dyadic x in [0, 1], exactly.

    Unwinds f(t) = g_b(t') + a_b f(t') one branch b at a time, where t'
    is 2t or 2t - 1: for x = k/2^g with k odd, the branches are the bits
    of k from the top, each t' is what is left of k over the bits still
    to read, and the walk ends at f(0), the left branch fixed point (at
    t = 1/2 the last step takes the right branch, which the seam
    condition makes equal to the left).  With every coefficient over one
    denominator D (DeRhamSystem._integer_form), the slopes' running
    product is an integer and the branch terms sum by Horner over
    D^g 2^g, so the walk makes one Fraction, at the end.
    """
    residual = sys._seam_residual
    if residual:
        raise InconsistentSystemError(
            f"branches disagree at the seam (residual {residual})"
        )
    t = as_dyadic(x)
    k, g = t.numerator, t.denominator.bit_length() - 1
    if g == 0:
        return sys.left_value if k == 0 else sys.right_value
    den, branches = sys._integer_form
    mult, add = 1, 0
    for i in range(g - 1, -1, -1):
        slope, g_slope, g_const = branches[k >> i & 1]
        # the branch term g_b(r / 2^i), r the low i bits of k, is
        # (g_slope r + g_const 2^i) / (D 2^i), here put over D^g 2^g
        r = k & ((1 << i) - 1)
        add = add * den + (mult * (g_slope * r + (g_const << i)) << g - i)
        mult *= slope
    # f(0) = g0(0) / (1 - a0) = Q0 / (D - A0)
    fixed_den = den - branches[0][0]
    return Fraction(
        add * fixed_den + (mult * branches[0][2] << g), (den**g << g) * fixed_den
    )
