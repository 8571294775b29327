"""Limiting curves of odometer ergodic sums.

Take partial sums S(0..l) of the weighted digit sum along an odometer
orbit, interpolate the points (j/l, S(j) - (j/l) S(l)), and rescale by a
normalizer R.  For the orbit started at zero and l = 2^j the rescaled
polygon with R = (2q)^(j-1) IS the curve -q T_a, a = 1/(2q), exactly at
every breakpoint; that is the bridge identity this module verifies.

For orbits started elsewhere, stabilising levels of the register (runs
of r zero digits ending at position n) give lengths l = 2^n at which the
orbit polygon approaches the same limit curve as r grows: the prefix
value Num/2^n < 2^(-r) controls the distance.  theorem1_experiment
measures those sup distances exactly, at astronomically large l, without
stepping the orbit: partial sums along it are differences
S_q(X + i) - S_q(X) of the summatory function, and their chord
deviations need only the digit sums of the few register bits that the
orbit's carries reach, read from a table built by doubling
(_orbit_deviations).  A level's deviations come in split form,
(alpha[t] << h) + b beta[t], with alpha and beta small and b the
register's bits below the grid step; each sup distance is found from
that form, building in full only the gaps that can be the largest
(_sup_gap).  The zero orbit is the case X = 0 of the same walk (b = 0),
and one walk to length L serves every l = 2^j <= L: the chord
deviations of a prefix are those of the prefix of the chord deviations
(_scan_identity_8).

All of it runs on one exact representation: integer deviations times
one rational factor per grid, against takagi_dyadic_grid's integers over
one denominator, compared by cross-multiplication.  Fractions are built
only for values handed back to the caller (BridgeLevel.devs joins the
split form, and BridgeLevel.curve builds the Fractions, each on first
access); qdigits curve writes its CSV and SVG from the same
(integers, factor) form, and formats the target once where identity (8)
makes it the polygon.

The 1/2 < |q| < 1 window is where all of this lives: below it no
continuous limit curve exists (an exploratory CLI mode lets one watch
that fail); at or above |q| = 1 the state sums themselves diverge.
"""

import math
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, compress, count, repeat
from operator import add, ge, lshift, mul, ne, sub

from ._record import field, record
from .digitsum import QParam, _lowest_terms, _Reduced
from .odometer import OdometerState, RegisterOverflowError, find_stabilizing_levels
from .report import VerificationReport
from .takagi import is_power_of_two, takagi_dyadic_grid


class GridMismatchError(ValueError):
    """Two curves were compared on different grids."""


class DegenerateNormalizerError(ValueError):
    """The requested normalizer is zero (flat deviation polygon)."""


@record(frozen=True)
class CurveSamples:
    """A curve sampled on the uniform grid j/l, j = 0..l, l = len(values) - 1."""

    values: tuple

    def __post_init__(self):
        if len(self.values) < 2:
            raise ValueError("a curve needs at least two samples")

    @cached_property
    def grid(self) -> tuple[Fraction, ...]:
        l = len(self.values) - 1
        return tuple(Fraction(j, l) for j in range(l + 1))


def _require_level(l: int):
    if l < 2 or not is_power_of_two(l):
        raise ValueError(f"l must be a power of two >= 2, got {l}")


def _orbit_deviations(
    x: int, n: int, g: int, p: QParam
) -> tuple[list[int], list[int] | None, int, Fraction]:
    """Chord deviations of D(t) = S_q(x + t 2^h) - S_q(x), t = 0..2^g, h = n - g,
    over the normalizer (2q)^(n-1), in split form.

    Returns (alpha, beta, b, factor) with b = x mod 2^h and
    D(t) - (t/2^g) D(2^g) = devs[t] factor (2q)^(n-1), where
    devs[t] = (alpha[t] << h) + b beta[t] (_join); beta is None when
    b = 0, which spares the zero orbit's walk its second pass.  With
    x = A 2^h + b, the split identity

        S_q(A 2^h + b) = A S_q(2^h) + q^h 2^h S_q(A) + S_q(b) + b q^h s_q(A)

    leaves q^h [2^h sum_{i<t} s_q(A + i) + b s_q(A + t)] once the terms
    linear in t, which the chord cancels, are dropped.  Every A + t,
    t <= 2^g, agrees with A above bit m = bitlen(A xor (A + 2^g)), and
    those bits add a constant to s_q(A + t), linear again; so only
    c = A mod 2^m counts, through d[t] = s_q(c + t) v^m (q = u/v).  The
    carries of A + 2^g flip bits g..m-1 of A, so c has ones at bits
    g..m-2 and a zero at bit m-1.  With c_lo = c mod 2^g, c + t keeps
    those bits while c_lo + t < 2^g and has bit m-1 alone above bit g
    after, so d[t] is an entry of a table of s_q(j) v^m, j < 2^g (built
    by doubling), plus one of two constants.  alpha and beta are the
    chord deviations of the running sums of d and of d itself, from one
    pass of additions and one of itertools.accumulate: integers of about
    m log2(v) + 2g bits, however long b is.

    Each of devs is then worth q^h / (v^m 2^g) = u^h / (v^(m+h) 2^g), so
    over (2q)^(n-1) = (2u)^(n-1) / v^(n-1), with n = g + h,

        factor = u^(1-g) v^(g-1-m) / 2^(g+n-1),

    built from its exponents rather than by dividing two Fractions of
    thousands of bits.  Since m >= g + 1, for g >= 1 the factor is
    1 / (u^(g-1) v^(m+1-g) 2^(g+n-1)), numerator 1; for g = 0 it is
    2u / (v^(m+1) 2^n), whose terms share only twos.
    """
    u, v = p.q.numerator, p.q.denominator
    h = n - g
    points = 1 << g
    a, b = x >> h, x & ((1 << h) - 1)
    m = (a ^ (a + points)).bit_length()
    c_lo = a & (points - 1)
    # weights[i] = q^(i+1) v^m 2^g, the weight of bit i < g
    weights = [u ** (i + 1) * v ** (m - 1 - i) << g for i in range(g)]
    # table[j] = s_q(j) v^m 2^g, j < 2^g: the j below 2^(i+1) with bit i
    # set are those below 2^i plus weights[i]
    table = [0]
    for w in weights:
        table += [s + w for s in table]
    # above bit g, c + t has ones at bits g..m-2 until c_lo + t reaches
    # 2^g, and bit m-1 alone after: weights below, a geometric sum
    # u^(g+1) v sum_{j<k} u^j v^(k-1-j) 2^g with k = m-g-1 (u = v only at
    # q = 1), and above
    k = m - g - 1
    ones = (v**k - u**k) // (v - u) if u != v else k
    below, above = u ** (g + 1) * v * ones << g, u**m << g
    # total = sum_{t<2^g} d[t]; each bit below g is set in half the j < 2^g
    total = (sum(weights) >> 1) + ((points - c_lo) * below + c_lo * above >> g)
    # centred[t] = d[t] 2^g - total, whose running sums are alpha
    centred = [s + (below - total) for s in table[c_lo:]]
    centred += [s + (above - total) for s in table[: c_lo + 1]]
    alpha = list(accumulate(centred, initial=0))
    alpha.pop()
    beta = None
    if b:
        first = centred[0]
        rise = centred[-1] - first >> g
        beta = list(map(sub, centred, accumulate(repeat(rise, points), initial=first)))
    if g:
        return alpha, beta, b, Fraction(1, u ** (g - 1) * v ** (m + 1 - g) << (g + n - 1))
    return alpha, beta, b, Fraction(2 * u, v ** (m + 1) << n)


def _join(alpha, beta, b: int, h: int) -> list[int]:
    """The deviations (alpha[t] << h) + b beta[t] of _orbit_deviations' split form."""
    shifted = map(lshift, alpha, repeat(h))
    if beta is None:
        return list(shifted)
    return list(map(add, shifted, map(mul, beta, repeat(b))))


def _polygon(devs: list[int], factor: Fraction) -> CurveSamples:
    """The curve with values devs[j] * factor on j/(len-1)."""
    num, den = factor.numerator, factor.denominator
    return CurveSamples(tuple(Fraction(d * num, den) for d in devs))


def _target_scaled(g: int, p: QParam) -> tuple[list[int], Fraction]:
    """-q T_a on the grid j/2^g as (tak, factor), worth tak[j] * factor."""
    tak, tak_den = takagi_dyadic_grid(g, p.a)
    return tak, -p.q / tak_den


def _cross_scales(factor: Fraction, tak_factor: Fraction) -> tuple[int, int, int]:
    """(ds, ts, den) with x factor - y tak_factor = (x ds - y ts) / den, den > 0."""
    return (
        factor.numerator * tak_factor.denominator,
        tak_factor.numerator * factor.denominator,
        factor.denominator * tak_factor.denominator,
    )


def _scaled(xs, scale: int) -> list[int]:
    """xs[j] * scale for each j."""
    return list(map(mul, xs, repeat(scale)))


def _cross(xs, x_scale: int, ys, y_scale: int) -> list[int]:
    """xs[j] * x_scale - ys[j] * y_scale for each j."""
    return list(map(sub, map(mul, xs, repeat(x_scale)), map(mul, ys, repeat(y_scale))))


# _sup_gap keeps the top _TOP_BITS bits of b to bound each gap, and builds
# every gap in full when h is at most _SPLIT_MIN_H
_TOP_BITS = 64
_SPLIT_MIN_H = 2 * _TOP_BITS


def _sup_gap(alpha, beta, b: int, h: int, factor: Fraction, tak, tak_factor: Fraction):
    """max_t |devs[t] factor - tak[t] tak_factor| as (num, den), num >= 0, den > 0,
    with _cross_scales' den, for devs in _orbit_deviations' split form.

    Over den the gaps are devs[t] ds - tak[t] ts, with _cross_scales'
    ds and ts.  When 2^h divides ts, each is

        gap[t] = (gamma[t] << h) + b delta[t],
        gamma[t] = alpha[t] ds - tak[t] (ts >> h),  delta[t] = beta[t] ds,

    with gamma and delta small.  For g >= 1 it does: factor's den carries
    2^(g+n-1) = 2^(h+2g-1), and so does ts.  Let k = _TOP_BITS,
    U = 2^(h-k) and b = top U + rest, 0 <= rest < U, and let
    S = max |delta[t]|.  Then gap[t] = U (A[t] + e[t]) with
    A[t] = (gamma[t] << k) + top delta[t] and e[t] = rest delta[t] / U,
    so |e[t]| <= S and

        |A[t]| - S <= |gap[t]| / U <= |A[t]| + S.

    Let M = max |gap[t]|; the point where |A| is largest gives
    max |A| - S <= M / U.  A point with |A[t]| < max |A| - 2S has
    |gap[t]| / U < max |A| - S <= M / U, so M is not reached there.  The
    max of |gap[t]| over the other points, each built in full, is
    therefore M exactly.  On seeded registers one point is left, the
    only gap of h bits built.  When h <= _SPLIT_MIN_H, or 2^h does not
    divide ts (g = 0), every gap is built.
    """
    dev_scale, tak_scale, den = _cross_scales(factor, tak_factor)
    if h <= _SPLIT_MIN_H or tak_scale & ((1 << h) - 1):
        gaps = _cross(_join(alpha, beta, b, h), dev_scale, tak, tak_scale)
        return max(map(abs, gaps)), den
    gamma = _cross(alpha, dev_scale, tak, tak_scale >> h)
    if beta is None:
        return max(map(abs, gamma)) << h, den
    slack = abs(dev_scale) * max(map(abs, beta))
    top = (b >> (h - _TOP_BITS)) * dev_scale
    shifted = map(lshift, gamma, repeat(_TOP_BITS))
    approx = list(map(abs, map(add, shifted, map(mul, beta, repeat(top)))))
    near = compress(count(), map(ge, approx, repeat(max(approx) - 2 * slack)))
    b_ds = b * dev_scale
    return max(abs((gamma[t] << h) + b_ds * beta[t]) for t in near), den


def build_fluctuation_curve(partial_sums, l: int, normalizer) -> CurveSamples:
    """Rescaled deviation polygon of an orbit's partial sums.

    partial_sums must be the l+1 values S(0..l) with S(0) = 0; the curve
    value at t = j/l is (S(j) - t S(l)) / normalizer.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    sums = list(partial_sums)
    if len(sums) != l + 1:
        raise ValueError(f"need {l + 1} partial sums, got {len(sums)}")
    if sums[0] != 0:
        raise ValueError("partial sums must start at 0")
    normalizer = Fraction(normalizer)
    if normalizer == 0:
        raise DegenerateNormalizerError("zero normalizer")
    total = sums[-1]
    return CurveSamples(
        tuple((sums[j] - Fraction(j, l) * total) / normalizer for j in range(l + 1))
    )


def canonical_normalizer(partial_sums, l: int) -> Fraction:
    """Largest absolute deviation max_j |S(j) - (j/l) S(l)|.

    This is the scale on which the deviation polygon has sup-norm one.
    Raises DegenerateNormalizerError when the polygon is identically
    zero (linear partial sums), where no curve shape exists.
    """
    if l < 1:
        raise ValueError("l must be >= 1")
    sums = list(partial_sums)
    if len(sums) != l + 1:
        raise ValueError(f"need {l + 1} partial sums, got {len(sums)}")
    total = sums[-1]
    best = max(abs(sums[j] - Fraction(j, l) * total) for j in range(l + 1))
    if best == 0:
        raise DegenerateNormalizerError("deviation polygon is identically zero")
    return best


def analytic_normalizer(l: int, p: QParam) -> Fraction:
    """R = (2q)^(j-1) for l = 2^j; the natural scale of the deviations.

    Signed: for negative q and even j - 1 it is positive, otherwise the
    sign flips the curve, which is exactly what the bridge identity
    needs.
    """
    _require_level(l)
    j = l.bit_length() - 1
    return (2 * p.q) ** (j - 1)


def _zero_orbit_scaled(l: int, p: QParam, norm: str) -> tuple[list[int], Fraction]:
    """zero_orbit_curve as (devs, factor): its value at j/l is devs[j] * factor."""
    _require_level(l)
    g = l.bit_length() - 1
    devs, _beta, _b, factor = _orbit_deviations(0, g, g, p)
    if norm == "analytic":
        return devs, factor
    if norm != "canonical":
        raise ValueError(f"unknown norm {norm!r}")
    peak = max(abs(d) for d in devs)
    if peak == 0:
        raise DegenerateNormalizerError("deviation polygon is identically zero")
    return devs, Fraction(1, peak)


def zero_orbit_curve(l: int, p: QParam, norm: str = "analytic") -> CurveSamples:
    """The zero orbit's deviation polygon at length l = 2^j, exactly.

    Equal to build_fluctuation_curve(partial_sum_prefix(l, p), l, R) with
    R = analytic_normalizer(l, p) (norm="analytic") or the largest
    absolute deviation (norm="canonical", sup-norm one), but computed as
    integer deviations of the orbit walk with one Fraction per value.
    """
    return _polygon(*_zero_orbit_scaled(l, p, norm))


def target_curve(l: int, p: QParam) -> CurveSamples:
    """Samples of -q T_a(t) on the breakpoint grid j/l, exactly."""
    p.require_curve_regime()
    _require_level(l)
    return _polygon(*_target_scaled(l.bit_length() - 1, p))


def sup_distance(c1: CurveSamples, c2: CurveSamples):
    """max_j |c1(t_j) - c2(t_j)| over a shared grid.

    Exact Fraction when both curves hold Fractions, float when either
    holds floats.
    """
    if len(c1.values) != len(c2.values):
        raise GridMismatchError("curves sampled on different grids")
    return max(abs(a - b) for a, b in zip(c1.values, c2.values))


def _scan_identity_8(rep, p: QParam, lmax: int, lmin: int, name: str):
    """Check identity (8) into rep at l = lmin, 2 lmin, ..., lmax, as name.format(l=l).

    One walk and one grid at lmax serve all levels: a prefix's chord
    deviations are those of the prefix y of the walk's (linear terms
    cancel), so level l = 2^g has y[t] l - t y[l] worth top_factor (2q)^(top-g) / l
    over its normalizer (2q)^(g-1), top_factor being the walk's own at
    lmax = 2^top, against every (lmax/l)-th grid value.  With that factor's
    and the grid's cross scales ds and ts (_cross_scales), a level holds
    when the integer lists y (l ds) - t (y[l] ds) and target ts are equal.
    Only a level that fails is searched, for its first mismatch, and it is
    reported with the label, values and checked count of a point-by-point
    rep.scan.
    """
    p.require_curve_regime()
    _require_level(lmax)
    top = lmax.bit_length() - 1
    devs, _beta, _b, top_factor = _orbit_deviations(0, top, top, p)
    tak, tak_factor = _target_scaled(top, p)
    statement = "(S(j) - (j/l) S(l)) / (2q)^(log2(l)-1) = -q T_a(j/l)"
    for g in range(lmin.bit_length() - 1, top + 1):
        l, y, target = 1 << g, devs[: (1 << g) + 1], tak[:: 1 << (top - g)]
        factor = top_factor * (2 * p.q) ** (top - g) / l
        ds, ts, den = _cross_scales(factor, tak_factor)
        got = list(map(sub, map(mul, y, repeat(l * ds)), map(mul, count(), repeat(y[l] * ds))))
        want = _scaled(target, ts)
        check = name.format(l=l), statement, f"all {l + 1} breakpoints j/l"
        if got == want:
            rep.add(*check, l + 1, True)
            continue
        j = next(compress(count(), map(ne, got, want)))
        mismatch = f"t={Fraction(j, l)}: {Fraction(got[j], den)} != {Fraction(want[j], den)}"
        rep.add(*check, j + 1, False, mismatch)


def verify_identity_8(l: int, p: QParam) -> VerificationReport:
    """Exact bridge identity for the zero orbit at length l = 2^j: the top
    level of the scan that qdigits verify --suite prop1 runs at every level.
    """
    rep = VerificationReport("zero-orbit bridge identity", {"q": str(p.q), "l": str(l)})
    _scan_identity_8(rep, p, l, l, "bridge-equals-target")
    return rep


# ---------------------------------------------------------------------------
# seeded-register experiment
# ---------------------------------------------------------------------------


@record(frozen=True)
class BridgeLevel:
    """One stabilising level of the experiment with its measured curve.

    The polygon is held in _orbit_deviations' split form: integer
    deviations devs[j] = (alpha[j] << h) + low beta[j], h = position -
    grid_exponent, each worth devs[j] * factor (the normalizer is already
    in factor); beta is None when low = 0.  devs joins them and curve
    turns them into Fractions, each on first access, keeping the result.
    """

    run_length: int
    position: int
    prefix_end: int
    ratio: Fraction
    normalizer: Fraction
    grid_exponent: int
    sup_distance: Fraction
    alpha: tuple[int, ...] = field(repr=False, compare=False)
    beta: tuple[int, ...] | None = field(repr=False, compare=False)
    low: int = field(repr=False, compare=False)
    factor: Fraction = field(repr=False, compare=False)

    @cached_property
    def devs(self) -> tuple[int, ...]:
        h = self.position - self.grid_exponent
        return tuple(_join(self.alpha, self.beta, self.low, h))

    @cached_property
    def curve(self) -> CurveSamples:
        return _polygon(self.devs, self.factor)


@record(frozen=True)
class LimitingBridge:
    """Measured distances between orbit polygons and the limit curve."""

    description: str
    seed: int | None
    q: Fraction
    register_length: int
    levels: tuple[BridgeLevel, ...]
    notes: tuple[str, ...]

    @property
    def sup_distances(self) -> list[Fraction]:
        return [lvl.sup_distance for lvl in self.levels]

    @property
    def decay_strictly_decreasing(self) -> bool:
        d = self.sup_distances
        return all(a > b for a, b in zip(d, d[1:]))


def theorem1_experiment(
    seed: int | None,
    p: QParam,
    r_list,
    state: OdometerState | None = None,
    register_length: int = 8192,
    grid_exponent: int = 8,
) -> LimitingBridge:
    """Measure orbit-polygon distances to -q T_a at stabilising levels.

    For each run length r, the first stabilising level n gives an orbit
    segment of length l = 2^n starting at the register state x.  The
    orbit's partial sums are S_q(X + i) - S_q(X) with X the register
    value, so carries past position n (which occur near the end of the
    segment whenever the low n digits of X are nonzero) are handled
    exactly.  Only the bits of X below its carry reach, the bit length of
    X xor (X + 2^n), change along the segment; the bits above add a term
    linear in i that the deviations cancel, so each level reads only the
    reached bits above its grid step (_orbit_deviations).  The polygon is
    sampled at min(2^grid_exponent, l) + 1 dyadic points, rescaled by
    (2q)^(n-1) and compared with the exact limit curve on the same grid,
    which is built once per distinct grid exponent; the sup distance
    comes from the deviations' split form (_sup_gap).

    Requires 1/2 < |q| < 1 and grid_exponent >= 0.  Supply either a seed
    (register drawn with OdometerState.random_state) or an explicit state.
    """
    if not Fraction(1, 2) < abs(p.q) < 1:
        raise ValueError(
            f"experiment needs 1/2 < |q| < 1, got q = {p.q}"
        )
    if not r_list:
        raise ValueError("r_list must be nonempty")
    if grid_exponent < 0:
        raise ValueError(f"grid_exponent must be >= 0, got {grid_exponent}")
    if state is None:
        if seed is None:
            raise ValueError("supply a seed or an explicit state")
        state = OdometerState.random_state(seed, register_length)
    else:
        register_length = state.length
        if seed is None:
            seed = state.seed
    big_x = state.value
    u, v = p.q.numerator, p.q.denominator
    gap_primes = 2 * abs(u) * v  # all of gap_den's
    # each normalizer (2q)^(n-1) is written from its exponents, as
    # _orbit_deviations writes factor: 2u/s and v/s, s = gcd(2u, v), are
    # coprime, and so are their powers
    shared = math.gcd(2 * u, v)
    base_num, base_den = 2 * u // shared, v // shared
    targets: dict[int, tuple] = {}  # one Takagi grid per distinct g
    notes: list[str] = []
    levels: list[BridgeLevel] = []
    for r in r_list:
        level = find_stabilizing_levels(state, r, max_levels=1)[0]
        n = level.position
        if big_x + (1 << n) > (1 << state.length):
            raise RegisterOverflowError(
                f"orbit of length 2^{n} carries out of the register"
            )
        g = min(grid_exponent, n)
        alpha, beta, low, factor = _orbit_deviations(big_x, n, g, p)
        if g not in targets:
            targets[g] = _target_scaled(g, p)
        sup, gap_den = _sup_gap(alpha, beta, low, n - g, factor, *targets[g])
        levels.append(
            BridgeLevel(
                run_length=r,
                position=n,
                prefix_end=level.prefix_end,
                ratio=level.ratio,
                normalizer=Fraction(_Reduced(base_num ** (n - 1), base_den ** (n - 1))),
                grid_exponent=g,
                sup_distance=_lowest_terms(sup, gap_den, gap_primes),
                alpha=tuple(alpha),
                beta=None if beta is None else tuple(beta),
                low=low,
                factor=factor,
            )
        )
        wrapped = big_x & ((1 << n) - 1)
        if wrapped:
            notes.append(
                f"r={r}: carries cross level position {n} during the final"
                f" ~2^{wrapped.bit_length() - 1} of the 2^{n} orbit steps"
                " (simulated exactly)"
            )
        else:
            notes.append(f"r={r}: orbit stays below position {n} throughout")
    return LimitingBridge(
        description=state.origin,
        seed=seed,
        q=p.q,
        register_length=register_length,
        levels=tuple(levels),
        notes=tuple(notes),
    )
