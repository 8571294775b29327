"""Weighted binary digit sums and their summatory function.

For a nonzero rational weight q and an integer j >= 0 with binary digits
j = sum_i w_i 2^i, the weighted digit sum is

    s_q(j) = sum_i w_i q^(i+1),

and the summatory function is S_q(n) = sum_{j<n} s_q(j).  At q = 1 these
collapse to the ordinary sum-of-binary-digits function and its partial
sums.  Everything in this module is exact rational arithmetic; floats
never enter.

partial_sum_bruteforce is the oracle of record: it sums the definition
term by term.  partial_sum_fast must agree with it bit for bit.  It
evaluates S_q(n) by binary splitting on the bits of n,

    S_q(A 2^h + B) = A S_q(2^h) + q^h 2^h S_q(A) + S_q(B) + B q^h s_q(A),

recursing on both halves down to spans of at most _LEAF_BITS bits, each
handed to its leaf by its parent.  S_q(n) needs s_q(A) but not s_q(B),
so partial_sum_fast builds s_q only at each high half A and below it,
none at the root or down its chain of low halves; _digit_sum_fast reads
s_q(n) off a root that builds it at every node.  A leaf walks its span
from the top, a byte of it per step from n.to_bytes: each step is the
same identity at h = 8, with S_q(c), s_q(c) and S_q(2^8) for the byte c
read from a table of 256 entries built once per weight per process (per
call when q's terms are wide).  Every split point is a whole number of
bytes from the bottom, so only the top leaf pads a partial byte.  One
bit per step is the halving step

    S_q(2n)   = 2q S_q(n) + n q
    S_q(2n+1) = 2q S_q(n) + n q + q s_q(n),

and an n below 2^_LEAF_BITS takes it once per bit, with no table to
build.  Each bit of n goes through exactly one leaf, and the halves
recombine with a few big-integer products per level instead of one
growing product per bit.  With q = u/v and v = w 2^e, w odd, every
power of v the recombination needs is a power of w shifted left, so at
q = 3/4 none of them is a product.  Only primes of v can divide both S
and v^d in the result S / v^d, so _lowest_terms reduces it by trailing
zeros and a few gcds with small powers of v, each linear in the length
of S, where Fraction(S, v^d) would run one gcd quadratic in it.

partial_sum_prefix tabulates S_q(0..n) by the oracle's loop, and
partial_sum_progression evaluates partial_sum_fast pointwise along an
arithmetic progression; the deviation polygons of limiting_curve walk
their own carries and call neither.
"""

import functools
import math
import numbers
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from ._record import record
from .report import VerificationReport

DEFAULT_ORACLE_BUDGET = 1 << 20


class OracleBudgetError(ValueError):
    """Raised when a brute-force evaluation would exceed its term budget."""


def _require_budget(top: int, budget: int):
    if top > budget:
        raise OracleBudgetError(f"brute-force request n={top} exceeds budget {budget}")


@record
class QParam:
    """A digit-sum weight q with its derived curve parameter a = 1/(2q).

    q may be any nonzero rational, including q = 1 (the plain popcount
    weight).  Operations that divide by 1 - q guard against q = 1
    themselves; the parameter object does not forbid it.

    q is the only field: a and is_curve_regime are set from it, so repr,
    equality and hashing read q alone, and eval(repr(p)) == p.
    is_curve_regime is |q| > 1/2, i.e. |a| < 1: the regime where the
    curve sums converge and the limiting-curve machinery applies.
    """

    q: Fraction

    def __post_init__(self):
        q = Fraction(self.q)
        if q == 0:
            raise ValueError("weight q must be nonzero")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "a", Fraction(1, 2) / q)
        object.__setattr__(self, "is_curve_regime", abs(q) > Fraction(1, 2))

    def require_curve_regime(self):
        if not self.is_curve_regime:
            raise ValueError(
                f"|q| > 1/2 required for curve-regime operations, got q = {self.q}"
            )


# ---------------------------------------------------------------------------
# direct (oracle) evaluation
# ---------------------------------------------------------------------------


def weighted_digit_sum(j: int, p: QParam) -> Fraction:
    """s_q(j): sum of q^(i+1) over the set bits i of j.

    Popcount of j when q = 1.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    q = p.q
    total = Fraction(0)
    power = q
    while j:
        if j & 1:
            total += power
        j >>= 1
        power *= q
    return total


def _running_sums(n: int, u: int, v: int, width: int):
    """Yield S_q(m) v^width for m = 0..n, summing s_q(j) term by term.

    q = u/v, and every j < n must fit in width bits.  Only the running
    total and the width digit weights are held, never the table.
    """
    # weights[i] = q^(i+1) * v^width, an exact integer
    weights = [u ** (i + 1) * v ** (width - i - 1) for i in range(width)]
    running = 0
    yield running
    for j in range(n):
        i = 0
        while j:
            if j & 1:
                running += weights[i]
            j >>= 1
            i += 1
        yield running


def partial_sum_bruteforce_at(
    checkpoints, p: QParam, budget: int = DEFAULT_ORACLE_BUDGET
) -> dict[int, Fraction]:
    """Exact S_q at several checkpoints from one definitional pass.

    Sums s_q(j) term by term for j = 0, 1, 2, ... with a fixed common
    denominator, recording the running total at each requested n.  No
    recurrences, no closed forms; this is the oracle every fast path is
    judged against.
    """
    ns = sorted(set(int(n) for n in checkpoints))
    if not ns:
        return {}
    if ns[0] < 1:
        raise ValueError("checkpoints must be >= 1")
    top = ns[-1]
    _require_budget(top, budget)
    u = p.q.numerator
    v = p.q.denominator
    width = max(top.bit_length(), 1)
    denom = v**width
    wanted = set(ns)
    return {
        m: Fraction(running, denom)
        for m, running in enumerate(_running_sums(top, u, v, width))
        if m in wanted
    }


def partial_sum_bruteforce(
    n: int, p: QParam, budget: int = DEFAULT_ORACLE_BUDGET
) -> Fraction:
    """S_q(n) summed directly from the definition.  Oracle of record."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return partial_sum_bruteforce_at([n], p, budget=budget)[n]


def partial_sum_prefix(n: int, p: QParam) -> list[Fraction]:
    """The whole table S_q(0), S_q(1), ..., S_q(n), definitionally.

    The oracle's running totals over one shared denominator v^width,
    q = u/v, width = max(n.bit_length(), 1).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    v = p.q.denominator
    width = max(n.bit_length(), 1)
    den = v**width
    return [Fraction(x, den) for x in _running_sums(n, p.q.numerator, v, width)]


# ---------------------------------------------------------------------------
# lowest terms
# ---------------------------------------------------------------------------


class _Reduced(NamedTuple):
    """A numerator and a positive denominator already in lowest terms;
    Fraction(_Reduced(p, q)) copies them without a gcd, by its documented
    conversion of a numbers.Rational."""

    numerator: int
    denominator: int


numbers.Rational.register(_Reduced)

# _lowest_terms leaves a den of at most this many bits to Fraction's own
# gcd, and past this many bits of b^k stops squaring it and takes one full
# gcd.  On a 2-vCPU Xeon (Python 3.11), the walk's fixed cost made a 65-bit
# partial_sum_fast 3-5% slower; a 16384-bit pair sharing 3 took 0.033 ms
# against Fraction's 0.59 ms, and one sharing 3^162, past the cap with
# base 30, 0.73 ms against 0.61 ms; at 49152 bits, 0.09 against 3.0 ms and
# 3.3 against 2.8 ms.  The odd shared factors met in bench bridge's sup
# distances (seven weights, five seeds) reached 54 bits
_SHARED_BITS = 1 << 8


def _twos(x: int) -> int:
    """The exponent of 2 in x != 0: its count of trailing zero bits."""
    return (x & -x).bit_length() - 1


def _lowest_terms(num: int, den: int, base: int) -> Fraction:
    """Fraction(num, den), den > 0, when every prime that divides both
    num and den divides base.

    The twos they share come off by their trailing zeros.  What is left
    of their shared factor, G, divides a power of b, the odd part of
    base, so c_k = gcd(b^k, num, den) = gcd(G, b^k) grows with k until
    it is G: the walk squares b^k and stops when c_2k = c_k, which leaves
    G dividing b^k.  Each such gcd starts by reducing a big operand mod
    b^k, linear in the operand's length, where Fraction(num, den) runs one
    gcd quadratic in it.  Once b^k passes _SHARED_BITS the walk gives up
    and takes gcd(num, den) itself, as Fraction does at once for a den of
    at most _SHARED_BITS.
    """
    if num == 0 or den.bit_length() <= _SHARED_BITS:
        return Fraction(num, den)
    twos = min(_twos(num), _twos(den))
    num >>= twos
    den >>= twos
    shared, power = 1, base >> _twos(base)
    while (wider := math.gcd(power, num, den)) != shared:
        shared = wider
        if power.bit_length() > _SHARED_BITS:
            shared = math.gcd(num, den)
            break
        power *= power
    return Fraction(_Reduced(num // shared, den // shared))


# ---------------------------------------------------------------------------
# fast evaluation
# ---------------------------------------------------------------------------


# Spans of at most this many bits are leaves, and an n below 2^_LEAF_BITS
# is one bit-serial leaf with no table to read.  With the byte leaf,
# timing _summatory_root at q = 3/4, 2/3 and 9/10 with the table cached
# (best of 15 interleaved rounds, 2-vCPU Xeon, Python 3.11), leaves of 48
# bits ran 0.82-0.98x as fast as 64 from 129 to 16384 bits, and leaves of
# 80 or 128 bits 1.17-1.20x at 129 bits and 0.98-1.11x from 256 bits up;
# but this bound also sends every n of up to its bits down the bit-serial
# leaf, which at 80 or 128 made 65- and 96-bit n run 0.25-0.38x as fast.
_LEAF_BITS = 64
# A leaf of a longer n reads its span a byte per step, from n.to_bytes, so
# its table has 2^_TABLE_BITS = 256 entries: the width is the unit of the
# walk, not a setting.  The table is built once per weight per process
# (_weight_table), in 20 us at q = 3/4, 2/3 and 9/10, which a call that
# builds it wins back from about 512 bits of n.  Reading the bytes, where
# each step used to shift n and mask a chunk out of it, took a 57- or
# 64-bit leaf from 3.6-3.9 to 3.0-3.5 us (best of 30 rounds of 200 n, same
# machine).  With the shift-and-mask walk, 8-bit chunks took 0.82-0.95x
# the time of 6-bit ones from 1024 bits up, and 10- or 12-bit ones
# 0.996-1.016x the time of 8 at 16384 bits.
_TABLE_BITS = 8
# A table's integers grow with q's larger term, so the cache keeps a table
# only while that term has at most this many bits: the largest table kept
# holds 65 KB (18.7 KB at q = 3/4), so the cache's 16 tables stay within
# 1 MiB (sys.getsizeof of the tuples and their integers, 64-bit Python
# 3.11).  A wider term builds its table once per call and does not keep it.
_CACHED_TABLE_Q_BITS = 86


def _summatory_leaf(n: int, d: int, u: int, v: int) -> tuple[int, int]:
    """(S, s) with S_q(n) = S / v^d and s_q(n) = s / v^d, for n < 2^d, d >= 1.

    Bit-serial: walks the d bits of n from the top (leading zeros
    included), one halving step per bit: the split identity at h = 1,
    which _table_leaf takes at h = 8, with its two-entry table written
    into the code, about 1.6x as fast as a walk over that table at 20 to
    64 bits.  Its operands grow with every bit, so the cost is quadratic
    in d.
    """
    S = s = m = 0
    vt = 1  # v^t for the current prefix length t; m is the prefix itself
    for bit in format(n, f"0{d}b"):
        if bit == "1":
            S = u * (2 * S + m * vt + s)
            s = u * (s + vt)
            m = 2 * m + 1
        else:
            S = u * (2 * S + m * vt)
            s *= u
            m *= 2
        vt *= v
    return S, s


def _leaf_table(k: int, u: int, v: int) -> tuple:
    """(k, u^k, v^k, S, s) with S[c] = S_q(c) v^k and s[c] = s_q(c) v^k.

    s covers c < 2^k and S covers c <= 2^k, so S[2^k] is S_q(2^k) v^k.
    s comes by doubling: the c below 2^(i+1) with bit i set are the c
    below 2^i plus the digit weight q^(i+1).  S is its running sum.
    Both are tuples: _cached_leaf_table hands the same table to every
    caller.
    """
    s = [0]
    for i in range(k):
        w = u ** (i + 1) * v ** (k - 1 - i)
        s += [t + w for t in s]
    return k, u**k, v**k, (0, *accumulate(s)), tuple(s)


# a table is read-only and depends only on its key, so one build serves
# every call at that weight; the bound keeps a process that runs through
# many weights from holding a table for each
_cached_leaf_table = functools.lru_cache(maxsize=16)(_leaf_table)


def _term_bits(u: int, v: int) -> int:
    """The bits of the larger term of u/v, v > 0."""
    return max(abs(u), v).bit_length()


def _weight_table(u: int, v: int) -> tuple:
    """The _TABLE_BITS leaf table at q = u/v: from the process cache when
    q's larger term has at most _CACHED_TABLE_Q_BITS bits, else built for
    this call."""
    if _term_bits(u, v) <= _CACHED_TABLE_Q_BITS:
        return _cached_leaf_table(_TABLE_BITS, u, v)
    return _leaf_table(_TABLE_BITS, u, v)


def _table_leaf(n: int, d: int, v: int, table: tuple) -> tuple[int, int]:
    """(S, s) as _summatory_leaf(n, d, u, v) gives them, for n < 2^d, a
    byte per step from table, the _TABLE_BITS leaf table of q = u/v.

    With m the prefix read so far, t its length and c the next byte of
    n.to_bytes, each step is the split identity at h = k = 8,

        S_q(m 2^k + c) = m S_q(2^k) + q^k 2^k S_q(m) + S_q(c) + c q^k s_q(m),
        s_q(m 2^k + c) = s_q(c) + q^k s_q(m),

    over v^(t+k), with S_q(c), s_q(c) and S_q(2^k) read from the table.
    The walk pads n with leading zeros to whole bytes, which to_bytes
    writes, and divides the pad's power of v out at the end, exactly.
    """
    _k, u_k, v_k, S_c, s_c = table
    pow2 = S_c[-1]
    pad = -d % 8
    S = s = m = 0
    vt = 1  # v^t for the current prefix length t
    for c in n.to_bytes((d + pad) // 8, "big"):
        S = (m * pow2 + S_c[c]) * vt + u_k * ((S << 8) + c * s)
        s = s_c[c] * vt + u_k * s
        m = (m << 8) | c
        vt *= v_k
    if pad:
        v_pad = v**pad
        return S // v_pad, s // v_pad
    return S, s


def _geometric(h: int, u: int, v: int, u_h: int, v_h: int) -> int:
    """u (v^h - u^h)/(v - u), an exact integer: S_q(2^h) v^h is this
    times 2^(h-1) for h >= 1.

    u_h and v_h are u^h and v^h.  At q = 1 (u = v = 1) the geometric
    ratio collapses to h.
    """
    return u * (h if u == v else (v_h - u_h) // (v - u))


def _powers(h: int, u: int, w: int, e: int, memo: dict) -> tuple[int, int, int]:
    """(u^h, w^h, _geometric at h) for v = w 2^e, once per h for the lifetime
    of memo.  v^h is w^h << e h, and S_q(2^h) v^h the last entry << (h - 1)."""
    got = memo.get(h)
    if got is None:
        u_h, w_h = u**h, w**h
        got = memo[h] = (u_h, w_h, _geometric(h, u, w << e, u_h, w_h << e * h))
    return got


def _summatory_split(
    n: int, d: int, u: int, w: int, e: int, table: tuple, memo: dict, with_s: bool = True
) -> tuple[int, int | None]:
    """(S, s) with S_q(n) = S / v^d and s_q(n) = s / v^d, for n < 2^d,
    d > _LEAF_BITS, q = u/v and v = w 2^e with w odd; s is None unless
    with_s.

    Binary splitting on bit halves: with h = d // 2 rounded up to a
    multiple of the table's width k and n = A 2^h + B,

        S_q(n) = A S_q(2^h) + q^h 2^h S_q(A) + S_q(B) + B q^h s_q(A),
        s_q(n) = s_q(B) + q^h s_q(A),

    where A is evaluated at depth d - h and B at depth h, so both
    halves come back over known powers of v and combine in integers.
    S_q(n) reads s_q(A) but not s_q(B), so a node asked for S alone asks
    A for both and B for S alone, and builds no s itself: only the nodes
    off the low spine of an S-only call build s.  Every power of v is a
    power of w shifted by e bits per factor, so at a v that is a power of
    two (w = 1) the combine multiplies by no power of v at all.  A half of
    at most _LEAF_BITS bits goes straight to _table_leaf, which reads
    table, the weight's leaf table, and returns s too; as every B spans
    whole chunks, only the leaf at the top of n pads a partial one.  Each
    bit of the span goes through exactly one leaf.  memo holds the
    _powers of each depth met in this call.
    """
    h = d // 2
    h += -h % table[0]
    rest = d - h
    a = n >> h
    b = n & ((1 << h) - 1)
    if rest > _LEAF_BITS:
        S_a, s_a = _summatory_split(a, rest, u, w, e, table, memo)
    else:
        S_a, s_a = _table_leaf(a, rest, w << e, table)
    if h > _LEAF_BITS:
        S_b, s_b = _summatory_split(b, h, u, w, e, table, memo, with_s)
    else:
        S_b, s_b = _table_leaf(b, h, w << e, table)
    u_h, _w_h, geom = _powers(h, u, w, e, memo)
    _u_rest, w_rest, _geom_rest = _powers(rest, u, w, e, memo)
    # S_q(2^h) v^h is geom << (h - 1), and v^rest is w_rest << e rest
    S = (((a * geom << h - 1) + S_b) * w_rest << e * rest) + u_h * (
        (S_a << h) + b * s_a
    )
    if not with_s:
        return S, None
    return S, (s_b * w_rest << e * rest) + u_h * s_a


def _summatory_root(
    n: int, u: int, v: int, with_s: bool = True
) -> tuple[int, int | None, int]:
    """(S, s, den) with S_q(n) = S / den and s_q(n) = s / den,
    den = v^d, d = n.bit_length() >= 1, q = u/v; past _LEAF_BITS bits, s
    is None unless with_s.

    An n below 2^_LEAF_BITS is one bit-serial leaf, which builds s
    anyway; a longer n goes to _summatory_split, asked for s only when
    with_s.  Either way every bit of n goes through exactly one leaf, so
    the halving steps number d.
    """
    d = n.bit_length()
    if d <= _LEAF_BITS:
        S, s = _summatory_leaf(n, d, u, v)
        return S, s, v**d
    e = _twos(v)
    w = v >> e
    S, s = _summatory_split(n, d, u, w, e, _weight_table(u, v), {}, with_s)
    return S, s, w**d << e * d


def _digit_sum_fast(j: int, p: QParam) -> Fraction:
    """s_q(j), read off the root of the summatory kernel, which computes it
    alongside S_q(j); weighted_digit_sum is its oracle."""
    if j < 0:
        raise ValueError("j must be nonnegative")
    if j == 0:
        return Fraction(0)
    v = p.q.denominator
    _S, s, den = _summatory_root(j, p.q.numerator, v)
    return _lowest_terms(s, den, v)


def partial_sum_fast(n: int, p: QParam) -> Fraction:
    """S_q(n) exactly, by binary splitting on the bits of n.

    Agrees with partial_sum_bruteforce everywhere.  n may have tens of
    thousands of bits: the halves recombine with a few big-integer
    products per level over leaves of at most _LEAF_BITS bits, each
    read _TABLE_BITS bits per step, and the result comes to lowest terms
    by gcds with small powers of q's denominator (_lowest_terms), not
    one gcd of the whole pair, so the cost grows like big-integer
    multiplication rather than quadratically in the bit length.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    v = p.q.denominator
    S, _s, den = _summatory_root(n, p.q.numerator, v, False)
    return _lowest_terms(S, den, v)


def partial_sum_pow2(k: int, p: QParam) -> Fraction:
    """Closed form at powers of two:

        S_q(2^k) = q (1 - q^k) / (1 - q) * 2^(k-1),    k >= 1,

    with S_q(1) = 0 and the q = 1 limit k * 2^(k-1); evaluated in
    integers by _geometric, the same helper the split steps use.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return Fraction(0)
    u = p.q.numerator
    v = p.q.denominator
    v_k = v**k
    return Fraction(_geometric(k, u, v, u**k, v_k) << k - 1, v_k)


def partial_sum_progression(
    base: int, step_exponent: int, count: int, p: QParam
) -> list[Fraction]:
    """S_q(base + t * 2^h) for t = 0..count, h = step_exponent, exactly.

    Pointwise partial_sum_fast, with S_q(0) = 0.
    """
    if base < 0 or step_exponent < 0 or count < 0:
        raise ValueError("base, step_exponent and count must be nonnegative")
    points = (base + (t << step_exponent) for t in range(count + 1))
    return [partial_sum_fast(m, p) if m else Fraction(0) for m in points]


# ---------------------------------------------------------------------------
# recurrence verification
# ---------------------------------------------------------------------------


def _split_scale(n: int) -> tuple[int, int]:
    """(k, p) with p = 2^k the largest power of two <= n."""
    k = n.bit_length() - 1
    return k, 1 << k


def check_bit_recurrences(
    n_max: int,
    p: QParam,
    use_printed_forms: bool = False,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> VerificationReport:
    """Scan the digit-sum recurrences against the brute-force oracle.

    With use_printed_forms=True, three of the summatory identities are
    swapped for off-by-one variant exponents that circulate in print.
    The variants are wrong; the scan documents exactly where each one
    first fails.  The three swappable scans start at the first index
    inside the identities' natural ranges: n = 2 for the two split
    identities (the smallest n whose octave exponent k is positive) and
    k = 2 for the power-of-two closed form (below that the variant
    factor 1 - q^(k-1) either vanishes or needs a negative exponent),
    so the reported counterexamples are the minimal informative ones.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    q = p.q
    u, v = q.numerator, q.denominator

    hi = 3 * n_max + 2
    _require_budget(hi, budget)  # before the oracle lists its hi checkpoints
    oracle = partial_sum_bruteforce_at(range(1, hi + 1), p, budget=budget)
    oracle[0] = Fraction(0)

    s_hi = 2 * n_max + 2
    s = [weighted_digit_sum(j, p) for j in range(s_hi + 1)]

    title = "binary digit-sum recurrences"
    if use_printed_forms:
        title += " (variant exponents)"
    rep = VerificationReport(title, params={"q": str(q), "n_max": str(n_max)})

    rep.scan(
        "s-even",
        "s(2j) = q s(j)",
        f"0 <= j <= {n_max}",
        ((f"j={j}", s[2 * j], q * s[j]) for j in range(n_max + 1)),
    )
    rep.scan(
        "s-odd",
        "s(2j+1) = q s(j) + q",
        f"0 <= j <= {n_max}",
        ((f"j={j}", s[2 * j + 1], q * s[j] + q) for j in range(n_max + 1)),
    )

    def shift_low():
        k = 1
        while (1 << k) <= n_max:
            half = 1 << (k - 1)
            qk = q**k
            for j in range(half):
                yield f"k={k},j={j}", s[j + half], s[j] + qk
            k += 1

    rep.scan(
        "s-shift-low",
        "s(j+p) = s(j) + q^k for 0 <= j < p, p = 2^(k-1)",
        f"1 <= k, 2^k <= {n_max}",
        shift_low(),
    )

    def shift_high():
        k = 1
        while (1 << k) <= n_max:
            half = 1 << (k - 1)
            qk = q**k
            for j in range(half, 2 * half):
                yield f"k={k},j={j}", s[j + half], s[j] - qk * (1 - q)
            k += 1

    rep.scan(
        "s-shift-high",
        "s(j+p) = s(j) - q^k (1-q) for p <= j < 2p, p = 2^(k-1)",
        f"1 <= k, 2^k <= {n_max}",
        shift_high(),
    )

    rep.scan(
        "S-double",
        "S(2n) = 2q S(n) + n q",
        f"1 <= n <= {n_max}",
        (
            (f"n={n}", oracle[2 * n], 2 * q * oracle[n] + n * q)
            for n in range(1, n_max + 1)
        ),
    )

    exp13 = 1 if use_printed_forms else 2
    stmt13 = f"S(n+2p) = S(n) + S(2p) + n q^(k+{exp13}) with p = 2^k <= n < 2p"

    def split_2p():
        for n in range(2, n_max + 1):
            k, pn = _split_scale(n)
            yield (
                f"n={n}",
                oracle[n + 2 * pn],
                oracle[n] + oracle[2 * pn] + n * q ** (k + exp13),
            )

    rep.scan("S-split-2p", stmt13, f"2 <= n <= {n_max}", split_2p())

    exp14 = 0 if use_printed_forms else 1
    stmt14 = (
        f"S(n+p) = S(n) + (2q-1) S(p) - (n-p) q^(k+{exp14}) (1-q) + q p"
        " with p = 2^k <= n < 2p"
    )

    def split_p():
        for n in range(2, n_max + 1):
            k, pn = _split_scale(n)
            rhs = (
                oracle[n]
                + (2 * q - 1) * oracle[pn]
                - (n - pn) * q ** (k + exp14) * (1 - q)
                + q * pn
            )
            yield f"n={n}", oracle[n + pn], rhs

    rep.scan("S-split-p", stmt14, f"2 <= n <= {n_max}", split_p())

    top_k = n_max.bit_length()
    if use_printed_forms:
        stmt16 = "S(2^k) = q (1 - q^(k-1))/(1 - q) 2^(k-1)"

        def closed(k):
            if q == 1:
                return Fraction((k - 1) * (1 << (k - 1)))
            return q * (1 - q ** (k - 1)) / (1 - q) * (1 << (k - 1))

    else:
        stmt16 = "S(2^k) = q (1 - q^k)/(1 - q) 2^(k-1)"

        def closed(k):
            return partial_sum_pow2(k, p)

    rep.scan(
        "S-pow2",
        stmt16,
        f"2 <= k <= {top_k}",
        ((f"k={k}", oracle[1 << k], closed(k)) for k in range(2, top_k + 1)),
    )

    if not use_printed_forms:
        rep.notes.append(
            "variant exponents for S-split-2p, S-split-p and S-pow2 can be scanned"
            " with use_printed_forms=True; they fail their oracle checks"
        )
    return rep
