"""Closed forms for the average weighted digit sum.

The classical statement: the average of the binary digit-sum over
0..n-1 is (k+1)/2 minus a continuous fluctuation expressed through the
Takagi curve, where 2^k is the leading power of two in n.  This module
carries both that statement and its weighted-q generalisation

    S_q(n)/n = (q/2) (1 - q^(k+1))/(1 - q)
             - (q/2) q^k (2p/n) T_a(n/(2p)),        a = 1/(2q),

valid for |q| > 1/2, q != 1, with p = 2^k <= n < 2p.  A second route to
the same value goes through the scale-relative fluctuation profile

    G_q(n) = (S_q(n) - (n/p) S_q(p)) / (p q^k),

whose closed form is F_q(x) = q x - T_a(x)/2 evaluated at x = (n-p)/p;
F_q solves the two-branch system

    F(x/2)     = a F(x) + (2q-3) x / 4,
    F((x+1)/2) = a F(x) + (2q-1)(x+1) / 4.

Both routes are computed exactly and must agree; the evaluator refuses
to return a value if they ever differ.

Everything irrational is kept in reduced combinations: the identities
are only ever evaluated where powers like q^(log2 n) pair up into the
rational quantities q^k and n/p, so all arithmetic stays in Fractions.
"""

from fractions import Fraction

from ._record import record
from .digitsum import QParam, partial_sum_fast, partial_sum_pow2
from .report import VerificationReport
from .takagi import AffineMap, DeRhamSystem, takagi_dyadic_exact, takagi_series


@record(frozen=True)
class ScaleDecomposition:
    """n split against its leading binary scale.

    k is the exponent of the largest power of two p = 2^k <= n,
    x = (n - p)/p in [0, 1) locates n within its octave, and r = q^k is
    the scale weight.
    """

    n: int
    k: int
    p: int
    r: Fraction
    x: Fraction

    @classmethod
    def of(cls, n: int, param: QParam) -> "ScaleDecomposition":
        if n < 1:
            raise ValueError("n must be >= 1")
        k = n.bit_length() - 1
        p = 1 << k
        return cls(
            n=n,
            k=k,
            p=p,
            r=param.q**k,
            x=Fraction(n - p, p),
        )


def g_profile(n: int, p: QParam) -> Fraction:
    """G_q(n) = (S_q(n) - (n/p) S_q(p)) / (p q^k), exactly."""
    p.require_curve_regime()
    d = ScaleDecomposition.of(n, p)
    deviation = partial_sum_fast(n, p) - Fraction(n, d.p) * partial_sum_pow2(d.k, p)
    return deviation / (d.p * d.r)


def f_closed(x, p: QParam) -> Fraction:
    """Closed form of the fluctuation profile: F_q(x) = q x - T_a(x)/2."""
    p.require_curve_regime()
    return p.q * Fraction(x) - takagi_dyadic_exact(x, p.a) / 2


def fluctuation_system(p: QParam) -> DeRhamSystem:
    """The two-branch system solved by F_q.

    Seam consistency reduces to 2 a q = 1, which holds by construction.
    """
    p.require_curve_regime()
    q = p.q
    return DeRhamSystem(
        p.a,
        p.a,
        AffineMap(Fraction(2 * q - 3, 4)),
        AffineMap((2 * q - 1) / 4, (2 * q - 1) / 4),
    )


def f_hat_periodic(n: int, p: QParam) -> Fraction:
    """The bracketed average in reduced form, exactly.

    The periodic fluctuation factor is only defined through irrational
    powers q^u, 2^u with 2^u = n/p; those powers cancel against the
    geometric main term, and this function returns the whole surviving
    bracket

        (1 - q^(k+1))/(1 - q) - 2 q^k (p/n) T_a(n/(2p)),

    so that S_q(n)/n = (q/2) * f_hat_periodic(n, p).  Returning any
    smaller piece would force irrational arithmetic.
    """
    p.require_curve_regime()
    if p.q == 1:
        raise ValueError("q = 1 has no geometric main term; use td_classical")
    q = p.q
    d = ScaleDecomposition.of(n, p)
    curve = takagi_dyadic_exact(Fraction(n, 2 * d.p), p.a)
    return (1 - q ** (d.k + 1)) / (1 - q) - 2 * d.r * Fraction(d.p, n) * curve


def f_hat_float(u: float, p: QParam) -> float:
    """Float sampler of the raw periodic factor for plotting.

    Evaluates (1 - q^(1-u))/(1 - q) - q^(-u) 2^(1-u) T_a(2^(u-1)) at a
    real u in [0, 1].  Requires q > 0 (real powers) besides the usual
    regime guard.  T_a comes from takagi_series at its default tolerance.
    Plot-quality only; every assertion in the test suite goes through the
    exact reduced form instead.
    """
    p.require_curve_regime()
    if p.q <= 0:
        raise ValueError("float sampling needs q > 0 for real powers q^u")
    if p.q == 1:
        raise ValueError("q = 1 has no geometric main term; use td_classical")
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    q = float(p.q)
    curve = takagi_series(Fraction(2.0 ** (u - 1.0)), p.a).value
    return (1.0 - q ** (1.0 - u)) / (1.0 - q) - q ** (-u) * 2.0 ** (1.0 - u) * curve


def td_generalized(n: int, p: QParam) -> Fraction:
    """Exact average S_q(n)/n via two independent reduced closed forms.

    Route one is the bracket of f_hat_periodic; route two goes through
    the fluctuation profile,

        S_q(n)/n = q^k F_q(x) p/n + (q/2)(1 - q^k)/(1 - q),

    with x = (n-p)/p.  Both are exact; a mismatch would mean a broken
    evaluator, so it raises rather than returning either value.
    """
    p.require_curve_regime()
    if p.q == 1:
        raise ValueError("q = 1 is the classical case; use td_classical")
    q = p.q
    d = ScaleDecomposition.of(n, p)
    route_main = (q / 2) * f_hat_periodic(n, p)
    route_profile = d.r * f_closed(d.x, p) * Fraction(d.p, n) + (q / 2) * (
        1 - d.r
    ) / (1 - q)
    if route_main != route_profile:
        raise ArithmeticError(
            f"reduced closed forms disagree at n={n}, q={q}: "
            f"{route_main} vs {route_profile}"
        )
    return route_main


def td_classical(n: int) -> Fraction:
    """Exact average of the binary digit-sum over 0..n-1:

        S(n)/n = (k+1)/2 - (p/n) T(n/(2p)),

    with p = 2^k <= n < 2p and T the curve at parameter 1/2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    k = n.bit_length() - 1
    p = 1 << k
    curve = takagi_dyadic_exact(Fraction(n, 2 * p), Fraction(1, 2))
    return Fraction(k + 1, 2) - Fraction(p, n) * curve


def check_g_identities(n_max: int, p: QParam) -> VerificationReport:
    """Scan the fluctuation-profile identities against exact evaluation.

    Covers the doubling invariance G(2n) = G(n) (which is what makes a
    single profile function on [0, 1) well defined), the two octave-shift
    recurrences, the index bookkeeping that drives them, the closed form
    F_q(x_n) = G_q(n), and the two-branch system satisfied by the closed
    form on the dyadic grid visited by n <= n_max.
    """
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    p.require_curve_regime()
    q = p.q
    rep = VerificationReport(
        "fluctuation-profile identities", params={"q": str(q), "n_max": str(n_max)}
    )
    g_cache: dict[int, Fraction] = {}

    def g(n):
        if n not in g_cache:
            g_cache[n] = g_profile(n, p)
        return g_cache[n]

    rep.scan(
        "G-double",
        "G(2n) = G(n)",
        f"1 <= n <= {n_max}",
        ((f"n={n}", g(2 * n), g(n)) for n in range(1, n_max + 1)),
    )

    def split_p():
        for n in range(1, n_max + 1):
            d = ScaleDecomposition.of(n, p)
            rhs = g(n) / (2 * q) + Fraction(d.p - n, 4 * d.p) * (3 - 2 * q)
            yield f"n={n}", g(n + d.p), rhs

    rep.scan(
        "G-split-p",
        "G(n+p) = G(n)/(2q) + (p-n)(3-2q)/(4p)",
        f"1 <= n <= {n_max}",
        split_p(),
    )

    def split_2p():
        for n in range(1, n_max + 1):
            d = ScaleDecomposition.of(n, p)
            rhs = g(n) / (2 * q) + Fraction(n, 4 * d.p) * (2 * q - 1)
            yield f"n={n}", g(n + 2 * d.p), rhs

    rep.scan(
        "G-split-2p",
        "G(n+2p) = G(n)/(2q) + n(2q-1)/(4p)",
        f"1 <= n <= {n_max}",
        split_2p(),
    )

    def index_half():
        for n in range(1, n_max + 1):
            d = ScaleDecomposition.of(n, p)
            d2 = ScaleDecomposition.of(n + d.p, p)
            yield f"n={n}", d.x / 2, d2.x

    rep.scan(
        "x-half",
        "x(n)/2 = x(n+p)",
        f"1 <= n <= {n_max}",
        index_half(),
    )

    def index_shift():
        for n in range(1, n_max + 1):
            d = ScaleDecomposition.of(n, p)
            d2 = ScaleDecomposition.of(n + 2 * d.p, p)
            yield f"n={n}", (d.x + 1) / 2, d2.x

    rep.scan(
        "x-shift",
        "(x(n)+1)/2 = x(n+2p)",
        f"1 <= n <= {n_max}",
        index_shift(),
    )

    def closed_form():
        for n in range(1, n_max + 1):
            d = ScaleDecomposition.of(n, p)
            yield f"n={n}", f_closed(d.x, p), g(n)

    rep.scan(
        "F-matches-G",
        "F(x(n)) = G(n) with F(x) = q x - T_a(x)/2",
        f"1 <= n <= {n_max}",
        closed_form(),
    )

    sys = fluctuation_system(p)
    grid = sorted({ScaleDecomposition.of(n, p).x for n in range(1, n_max + 1)})

    def system_branches():
        for x in grid:
            lhs0 = f_closed(x / 2, p)
            rhs0 = p.a * f_closed(x, p) + sys.g0(x)
            yield f"x={x} (left)", lhs0, rhs0
            lhs1 = f_closed((x + 1) / 2, p)
            rhs1 = p.a * f_closed(x, p) + sys.g1(x)
            yield f"x={x} (right)", lhs1, rhs1

    rep.scan(
        "F-system",
        "F(x/2) = a F(x) + (2q-3)x/4 and F((x+1)/2) = a F(x) + (2q-1)(x+1)/4",
        f"x over the {len(grid)} octave positions visited by n <= {n_max}",
        system_branches(),
    )
    return rep
