"""Digit sums, the summatory function, and the recurrence scans.

Frozen values are hand-derived from the definition before being
asserted; the brute-force summatory evaluator is the oracle every fast
path is measured against.
"""

import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdigits.digitsum as digitsum
from qdigits.digitsum import (
    DEFAULT_ORACLE_BUDGET,
    OracleBudgetError,
    QParam,
    _LEAF_BITS,
    _SHARED_BITS,
    _CACHED_TABLE_Q_BITS,
    _TABLE_BITS,
    _cached_leaf_table,
    _digit_sum_fast,
    _leaf_table,
    _lowest_terms,
    _summatory_leaf,
    _summatory_root,
    _summatory_split,
    _table_leaf,
    _twos,
    _weight_table,
    check_bit_recurrences,
    partial_sum_bruteforce,
    partial_sum_bruteforce_at,
    partial_sum_fast,
    partial_sum_pow2,
    partial_sum_prefix,
    partial_sum_progression,
    weighted_digit_sum,
)

Q34 = QParam(F(3, 4))
TEST_WEIGHTS = [F(3, 4), F(2, 3), F(9, 10), F(-3, 4), F(-2, 3), F(1), F(1, 2), F(2)]


def leaf_bits(call, *args):
    """call(*args) and the bits the summatory leaves consumed on the way:
    the d of every _summatory_leaf and _table_leaf call, summed, one
    halving step per bit."""
    with (
        mock.patch.object(digitsum, "_summatory_leaf", wraps=_summatory_leaf) as serial,
        mock.patch.object(digitsum, "_table_leaf", wraps=_table_leaf) as table,
    ):
        result = call(*args)
    return result, sum(c.args[1] for c in serial.call_args_list + table.call_args_list)


class TestQParam:
    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            QParam(0)

    def test_derived_curve_parameter(self):
        assert Q34.a == F(2, 3)
        assert QParam(F(-3, 4)).a == F(-2, 3)
        assert QParam(2).a == F(1, 4)

    def test_regimes(self):
        # |q| > 1/2 exactly: the boundary weights +-1/2 are outside
        for q in [F(3, 4), F(-3, 4), F(2)]:
            assert QParam(q).is_curve_regime
        for q in [F(1, 2), F(-1, 2), F(1, 4)]:
            assert not QParam(q).is_curve_regime

    def test_curve_regime_guard(self):
        Q34.require_curve_regime()
        with pytest.raises(ValueError):
            QParam(F(1, 2)).require_curve_regime()
        with pytest.raises(ValueError):
            QParam(F(1, 4)).require_curve_regime()

    def test_accepts_q_one(self):
        # plain popcount weight; the 1/(1-q) guards live in the
        # operations that actually divide by 1-q
        p = QParam(1)
        assert p.a == F(1, 2)
        assert p.is_curve_regime


class TestWeightedDigitSum:
    def test_frozen_values(self):
        # 3 = 11b -> q + q^2 = 3/4 + 9/16
        assert weighted_digit_sum(3, Q34) == F(21, 16)
        # 5 = 101b -> q + q^3 = 3/4 + 27/64
        assert weighted_digit_sum(5, Q34) == F(75, 64)
        assert weighted_digit_sum(0, Q34) == 0
        assert weighted_digit_sum(4, Q34) == F(27, 64)

    def test_popcount_at_q_one(self):
        p = QParam(1)
        for j in range(512):
            assert weighted_digit_sum(j, p) == bin(j).count("1")

    def test_negative_argument(self):
        with pytest.raises(ValueError):
            weighted_digit_sum(-1, Q34)


class TestBruteforce:
    def test_frozen_value(self):
        # s(0..3) = 0, 3/4, 9/16, 21/16 summing to 21/8
        assert partial_sum_bruteforce(4, Q34) == F(21, 8)

    def test_matches_definition(self):
        for q in TEST_WEIGHTS:
            p = QParam(q)
            running = F(0)
            for n in range(1, 40):
                running += weighted_digit_sum(n - 1, p)
                assert partial_sum_bruteforce(n, p) == running

    def test_checkpoints_single_pass(self):
        points = [1, 7, 64, 100, 511]
        got = partial_sum_bruteforce_at(points, Q34)
        assert set(got) == set(points)
        for n in points:
            assert got[n] == partial_sum_bruteforce(n, Q34)

    def test_budget(self):
        with pytest.raises(OracleBudgetError):
            partial_sum_bruteforce(2 * DEFAULT_ORACLE_BUDGET, Q34)
        with pytest.raises(OracleBudgetError):
            partial_sum_bruteforce_at([100], Q34, budget=99)

    def test_domain(self):
        with pytest.raises(ValueError):
            partial_sum_bruteforce(0, Q34)
        with pytest.raises(ValueError):
            partial_sum_bruteforce_at([0, 5], Q34)


class TestPrefixTable:
    def test_matches_bruteforce(self):
        table = partial_sum_prefix(64, Q34)
        assert table[0] == 0
        for n in range(1, 65):
            assert table[n] == partial_sum_bruteforce(n, Q34)

    def test_differences_are_digit_sums(self):
        for q in [F(2, 3), F(-3, 4)]:
            p = QParam(q)
            table = partial_sum_prefix(40, p)
            for j in range(40):
                assert table[j + 1] - table[j] == weighted_digit_sum(j, p)


class TestFastEvaluator:
    def test_agrees_with_oracle_everywhere(self):
        for q in TEST_WEIGHTS:
            p = QParam(q)
            oracle = partial_sum_bruteforce_at(range(1, 400), p)
            for n in range(1, 400):
                assert partial_sum_fast(n, p) == oracle[n], (q, n)

    def test_step_count_is_bit_length(self):
        for n in [1, 2, 3, 100, 2**20 + 7, 2**40 + 12345]:
            _value, steps = leaf_bits(partial_sum_fast, n, Q34)
            assert steps == n.bit_length()

    def test_huge_argument(self):
        # thousand-bit arguments only cost their bit length
        n = (1 << 1000) + 987654321
        value, steps = leaf_bits(partial_sum_fast, n, Q34)
        assert steps == 1001
        assert value.denominator > 0  # exact rational, no overflow anywhere

    def test_q_one_closed_form(self):
        assert partial_sum_fast(1 << 20, QParam(1)) == 10485760

    def test_domain(self):
        with pytest.raises(ValueError):
            partial_sum_fast(0, Q34)


class TestPowerOfTwoClosedForm:
    def test_matches_oracle(self):
        for q in TEST_WEIGHTS:
            p = QParam(q)
            assert partial_sum_pow2(0, p) == 0  # S(1) = empty sum
            for k in range(1, 10):
                assert partial_sum_pow2(k, p) == partial_sum_bruteforce(1 << k, p)

    def test_q_one_limit(self):
        # q = 1 makes the geometric ratio collapse: S(2^k) = k 2^(k-1)
        p = QParam(1)
        for k in range(1, 12):
            assert partial_sum_pow2(k, p) == k * (1 << (k - 1))

    def test_domain(self):
        assert partial_sum_pow2(0, Q34) == 0
        with pytest.raises(ValueError):
            partial_sum_pow2(-1, Q34)


class TestProgression:
    @pytest.mark.parametrize(
        "base,step_exponent,count",
        [(0, 0, 16), (0, 3, 5), (1, 1, 3), (5, 3, 9), (123456, 7, 5), (7, 0, 0)],
    )
    def test_matches_fast(self, base, step_exponent, count):
        for q in [F(3, 4), F(-2, 3), F(1), F(2)]:
            p = QParam(q)
            got = partial_sum_progression(base, step_exponent, count, p)
            for t in range(count + 1):
                n = base + t * (1 << step_exponent)
                want = partial_sum_fast(n, p) if n else F(0)
                assert got[t] == want, (q, base, step_exponent, t)

    def test_huge_base(self):
        base = (1 << 200) + 17
        got = partial_sum_progression(base, 4, 3, Q34)
        for t in range(4):
            assert got[t] == partial_sum_fast(base + 16 * t, Q34)

    def test_domain(self):
        with pytest.raises(ValueError):
            partial_sum_progression(-1, 0, 1, Q34)
        with pytest.raises(ValueError):
            partial_sum_progression(0, -1, 1, Q34)
        with pytest.raises(ValueError):
            partial_sum_progression(0, 0, -1, Q34)


class TestRecurrenceScan:
    def test_corrected_forms_pass(self):
        for q in TEST_WEIGHTS:
            rep = check_bit_recurrences(48, QParam(q))
            assert rep.passed, (q, [c.name for c in rep.checks if not c.passed])

    def test_printed_variants_fail_where_expected(self):
        rep = check_bit_recurrences(48, Q34, use_printed_forms=True)
        assert not rep.passed
        failed = {c.name: c.first_counterexample for c in rep.checks if not c.passed}
        assert set(failed) == {"S-split-2p", "S-split-p", "S-pow2"}
        assert failed["S-split-2p"].startswith("n=2:")
        assert failed["S-split-p"].startswith("n=3:")
        assert failed["S-pow2"].startswith("k=2:")

    def test_printed_variant_counterexample_values(self):
        # n=2: S(6) = 135/32 but the variant exponent predicts 9/2
        rep = check_bit_recurrences(8, Q34, use_printed_forms=True)
        split2p = next(c for c in rep.checks if c.name == "S-split-2p")
        assert split2p.first_counterexample == "n=2: 135/32 != 9/2"

    def test_report_shape(self):
        rep = check_bit_recurrences(16, Q34)
        names = [c.name for c in rep.checks]
        assert names == [
            "s-even",
            "s-odd",
            "s-shift-low",
            "s-shift-high",
            "S-double",
            "S-split-2p",
            "S-split-p",
            "S-pow2",
        ]
        assert all(c.checked > 0 for c in rep.checks)

    def test_budget_is_honored(self):
        # the scan needs the oracle out to 3*n_max + 2 and must not
        # silently raise a caller-imposed budget
        with pytest.raises(OracleBudgetError):
            check_bit_recurrences(64, Q34, budget=100)

    def test_domain(self):
        with pytest.raises(ValueError):
            check_bit_recurrences(1, Q34)


# ---------------------------------------------------------------------------
# differential properties of the split kernel
# ---------------------------------------------------------------------------

SPLIT_WEIGHTS = [
    F(3, 4), F(-3, 4), F(2, 3), F(-2, 3), F(1), F(5, 2), F(1000003, 999983), F(-5, 7),
]
weights = st.sampled_from(SPLIT_WEIGHTS)


@st.composite
def shaped_ints(draw, max_bits):
    """n >= 1 of at most max_bits bits, biased towards the hard shapes.

    Bit lengths favour the leaf boundaries; the shapes are random bits,
    powers of two and their neighbours, and long alternating runs of
    ones and zeros.
    """
    edges = [k for k in (1, 2, 63, 64, 65, 127, 128, 129, max_bits) if k <= max_bits]
    bits = draw(st.one_of(st.sampled_from(edges), st.integers(1, max_bits)))
    top = 1 << (bits - 1)
    shape = draw(st.sampled_from(["random", "pow2", "pow2-1", "pow2+1", "runs"]))
    if shape == "pow2":
        return top
    if shape == "pow2-1":
        return 2 * top - 1
    if shape == "pow2+1":
        return top + 1 if bits > 1 else 1
    if shape == "runs":
        n, pos, ones = 0, bits, True
        while pos:
            run = min(draw(st.integers(1, max(bits // 2, 1))), pos)
            pos -= run
            if ones:
                n |= ((1 << run) - 1) << pos
            ones = not ones
        return n
    return draw(st.integers(top, 2 * top - 1))


def split(n, d, u, v):
    """The kernel on a span of d bits, as a parent node calls it:
    _table_leaf up to _LEAF_BITS bits, _summatory_split on a fresh memo
    past them, with v passed as its odd part and twos."""
    table = _leaf_table(_TABLE_BITS, u, v)
    if d <= _LEAF_BITS:
        return _table_leaf(n, d, v, table)
    e = _twos(v)
    return _summatory_split(n, d, u, v >> e, e, table, {})


def _check_split_kernel(n, q):
    """The split over table leaves, and one byte walk over the whole of n,
    equal the whole-n serial leaf."""
    u, v = q.numerator, q.denominator
    d = n.bit_length()
    serial = _summatory_leaf(n, d, u, v)
    assert split(n, d, u, v) == serial, (q, n)
    assert _table_leaf(n, d, v, _leaf_table(_TABLE_BITS, u, v)) == serial
    _value, steps = leaf_bits(partial_sum_fast, n, QParam(q))
    assert steps == d


# v all twos, v with twos and an odd part, v odd, and q = 1
KERNEL_WEIGHTS = [F(3, 4), F(-3, 4), F(5, 8), F(9, 10), F(7, 12), F(2, 3), F(5, 9), F(1)]
# v all twos with u of either sign, q = 1, v odd, v with twos and an odd part
LONG_N_WEIGHTS = [F(3, 4), F(-3, 4), F(1), F(2, 3), F(9, 10)]


class TestSplitKernel:
    @settings(max_examples=40, deadline=None)
    @given(n=shaped_ints(4096), q=weights)
    @example(n=(1 << 64) - 1, q=F(3, 4))
    @example(n=(1 << 64) + 1, q=F(-5, 7))
    @example(n=(1 << 128) - 1, q=F(1000003, 999983))
    def test_equals_serial_leaf_on_whole_n(self, n, q):
        _check_split_kernel(n, q)

    def test_leaf_boundaries(self):
        chunk_edges = [_TABLE_BITS * j + e for j in range(1, 4) for e in (-1, 0, 1)]
        for bits in (*chunk_edges, 63, 64, 65, 128, 129, 4096):
            for n in (1 << (bits - 1), (1 << bits) - 1, (1 << (bits - 1)) + 1):
                _check_split_kernel(n, F(-2, 3))

    @settings(max_examples=25, deadline=None)
    @given(ns=st.lists(shaped_ints(16), min_size=1, max_size=6), q=weights)
    @example(ns=[1 << 16, (1 << 16) - 1, 1], q=F(5, 2))
    def test_fast_equals_oracle(self, ns, q):
        p = QParam(q)
        oracle = partial_sum_bruteforce_at(ns, p)
        for n in ns:
            assert partial_sum_fast(n, p) == oracle[n], (q, n)

    @pytest.mark.parametrize("q", SPLIT_WEIGHTS)
    def test_table_entries_equal_serial_leaf(self, q):
        u, v = q.numerator, q.denominator
        for k in range(1, _TABLE_BITS + 1):
            k_, u_k, v_k, S_c, s_c = _leaf_table(k, u, v)
            assert (k_, u_k, v_k, len(S_c), len(s_c)) == (k, u**k, v**k, 2**k + 1, 2**k)
            for c in range(2**k):
                assert (S_c[c], s_c[c]) == _summatory_leaf(c, k, u, v), (k, c)
            assert F(S_c[-1], v**k) == partial_sum_pow2(k, QParam(q))
        # the bit-serial walk is the table walk's one-bit case
        assert _leaf_table(1, u, v) == (1, u, v, (0, 0, u), (0, u))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), q=weights)
    def test_table_walk_at_chunk_edges(self, data, q):
        """Bit lengths next to a multiple of the table width and to
        _LEAF_BITS, chunks of all ones, all zeros or random bits; the head
        chunk is partial whenever the length is not a multiple of the width.
        A span below the top of a split starts with zero bytes, so the
        leaf also reads an n below 2^(d - 8), down to 0, over d bits."""
        k = _TABLE_BITS
        edges = [k * j + e for j in range(1, 2 * _LEAF_BITS // k + 3) for e in (-1, 0, 1)]
        edges += [_LEAF_BITS - 1, _LEAF_BITS + 1, 2 * _LEAF_BITS - 1, 2 * _LEAF_BITS + 1]
        d = data.draw(st.sampled_from(edges))
        chunks = st.sampled_from(["ones", "zeros", "random"])
        n = 0
        for low in range(0, d, k):
            width = min(k, d - low)
            kind = data.draw(chunks)
            if kind == "ones":
                n |= ((1 << width) - 1) << low
            elif kind == "random":
                n |= data.draw(st.integers(0, (1 << width) - 1)) << low
        _check_split_kernel(n | (1 << (d - 1)), q)
        u, v = q.numerator, q.denominator
        table = _leaf_table(k, u, v)
        for low in (0, n >> data.draw(st.integers(min(k, d), d))):
            assert _table_leaf(low, d, v, table) == _summatory_leaf(low, d, u, v), (d, low)

    def test_65536_bits_against_split_identity(self):
        # An independent split point (the kernel halves at bit 32768),
        # S_q(2^h) from the rational closed form, and s_q(A) summed over
        # its set bits from integer weights.
        p = Q34
        q, u, v = p.q, p.q.numerator, p.q.denominator
        n = random.Random(65536).getrandbits(65536) | (1 << 65535)
        h = 57001
        a, b = n >> h, n & ((1 << h) - 1)
        da = a.bit_length()
        w = u * v ** (da - 1)  # q^(i+1) v^da at bit i
        digit = 0
        for bit in reversed(format(a, "b")):
            if bit == "1":
                digit += w
            w = w * u // v
        want = (
            a * q * (1 - q**h) / (1 - q) * 2 ** (h - 1)
            + q**h * 2**h * partial_sum_fast(a, p)
            + partial_sum_fast(b, p)
            + b * q**h * F(digit, v**da)
        )
        value, steps = leaf_bits(partial_sum_fast, n, p)
        assert steps == 65536
        assert value == want

    @pytest.mark.parametrize("q", KERNEL_WEIGHTS)
    def test_every_length_equals_serial_leaf(self, q):
        rng = random.Random(str(q))
        for bits in (65, 72, 127, 128, 129, 4096):
            top = 1 << (bits - 1)
            for n in (rng.getrandbits(bits) | top, 2 * top - 1, top):
                _check_split_kernel(n, q)

    @pytest.mark.parametrize("q", KERNEL_WEIGHTS)
    def test_s_only_root_equals_full_walk(self, q):
        """The root asked for S alone, as partial_sum_fast asks it, builds
        no s down its low spine, and its S is the full walk's and the
        bit-serial leaf's; 77 and 1153 bits end in a partial top chunk."""
        u, v = q.numerator, q.denominator
        rng = random.Random(str(q))
        for bits in (65, 77, 128, 129, 1153, 4096):
            top = 1 << (bits - 1)
            for n in (rng.getrandbits(bits) | top, 2 * top - 1, top):
                (S, s, den), steps = leaf_bits(_summatory_root, n, u, v, False)
                assert (s, steps) == (None, bits)
                S_full, _s, den_full = _summatory_root(n, u, v)
                assert (S, den) == (S_full, den_full) == (
                    _summatory_leaf(n, bits, u, v)[0],
                    v**bits,
                ), (bits, n)

    @pytest.mark.parametrize("q", LONG_N_WEIGHTS)
    def test_16385_bits_equals_serial_leaf(self, q):
        u, v = q.numerator, q.denominator
        n = random.Random(16385).getrandbits(16385) | (1 << 16384)
        (S, s, den), steps = leaf_bits(_summatory_root, n, u, v)
        assert (S, s) == _summatory_leaf(n, 16385, u, v)
        assert (den, steps) == (v**16385, 16385)

    @pytest.mark.parametrize("q", KERNEL_WEIGHTS)
    def test_equals_oracle(self, q):
        # S_q at n and n + 1 from one definitional pass: s_q(n) is their gap
        p = QParam(q)
        ns = [1, 2, 3, 255, 256, 257, 40000, (1 << 16) - 1, 1 << 16]
        oracle = partial_sum_bruteforce_at(ns + [n + 1 for n in ns], p)
        for n in ns:
            assert partial_sum_fast(n, p) == oracle[n], n
            assert _digit_sum_fast(n, p) == oracle[n + 1] - oracle[n], n

    @pytest.mark.parametrize("q", KERNEL_WEIGHTS)
    def test_digit_sum_at_the_root(self, q):
        p = QParam(q)
        rng = random.Random(str(q))
        for bits in (1, 5, 64, 65, 72, 127, 128, 129, 300):
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            assert_same_fraction(_digit_sum_fast(n, p), weighted_digit_sum(n, p))
        assert _digit_sum_fast(0, p) == 0
        with pytest.raises(ValueError, match="j must be nonnegative"):
            _digit_sum_fast(-1, p)

    def test_interleaved_weights_read_their_own_tables(self):
        # one v with u of either sign, one u over v = 4, 8 and 12, q = 1
        # and a v too wide to cache: a table cached for one weight must
        # never serve another, at a length whose leaves all read whole
        # chunks (1024) or not
        interleaved = [F(3, 4), F(-3, 4), F(3, 8), F(7, 12), F(1), F(5, 12), F(2, 3**170)]
        rng = random.Random(2)
        ns = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in (65, 129, 700, 1024, 1153)]
        want = {
            q: [_summatory_leaf(n, n.bit_length(), q.numerator, q.denominator) for n in ns]
            for q in interleaved
        }
        for _round in range(2):
            for i, n in enumerate(ns):
                for q in interleaved:
                    S, s, den = _summatory_root(n, q.numerator, q.denominator)
                    assert (S, s) == want[q][i], (q, n)
                    assert partial_sum_fast(n, QParam(q)) == F(S, den)

    def test_tables_are_shared_and_read_only(self):
        table = _weight_table(3, 4)
        assert _weight_table(3, 4) is table
        assert table == _leaf_table(_TABLE_BITS, 3, 4)
        assert type(table[3]) is type(table[4]) is tuple
        assert _weight_table(-3, 4)[4] != table[4]

    def test_only_narrow_v_tables_are_kept(self):
        at, over = (1 << _CACHED_TABLE_Q_BITS) - 1, 1 << _CACHED_TABLE_Q_BITS
        assert _weight_table(1, at) is _weight_table(1, at)
        info = _cached_leaf_table.cache_info()
        table = _weight_table(1, over)
        assert table == _weight_table(1, over) == _leaf_table(_TABLE_BITS, 1, over)
        assert table is not _weight_table(1, over)
        assert _cached_leaf_table.cache_info() == info

    @pytest.mark.parametrize("q", LONG_N_WEIGHTS)
    def test_split_points_are_whole_chunks(self, q, monkeypatch):
        """Below the top leaf every leaf spans whole table chunks, and the
        kernel still equals the serial leaf at lengths d // 2 would cut
        mid-chunk."""
        leaves = []

        def recording(n, d, v, table):
            leaves.append(d)
            return _table_leaf(n, d, v, table)

        monkeypatch.setattr(digitsum, "_table_leaf", recording)
        u, v = q.numerator, q.denominator
        rng = random.Random(str(q))
        for bits in (65, 73, 127, 129, 513, 1024, 1153, 2113):
            leaves.clear()
            n = rng.getrandbits(bits) | 1 << (bits - 1)
            S, s, den = _summatory_root(n, u, v)
            assert (S, s) == _summatory_leaf(n, bits, u, v), bits
            assert den == v**bits
            assert sum(leaves) == bits and max(leaves) <= _LEAF_BITS
            assert all(d % _TABLE_BITS == 0 for d in leaves[1:]), (bits, leaves)

    def test_tables_past_the_cap_in_either_term_are_not_kept(self):
        over = 1 << _CACHED_TABLE_Q_BITS
        info = _cached_leaf_table.cache_info()
        for u, v in [(1, over), (over, 3), (-over, 3)]:
            table = _weight_table(u, v)
            assert table == _weight_table(u, v) == _leaf_table(_TABLE_BITS, u, v)
            assert table is not _weight_table(u, v)
        n = random.Random(1153).getrandbits(1153) | 1 << 1152
        S, s, _den = _summatory_root(n, 1, over)
        assert (S, s) == _summatory_leaf(n, 1153, 1, over)
        assert _cached_leaf_table.cache_info() == info

    def test_first_table_call_at_a_weight_adds_one_entry(self):
        p = QParam(F(11, 13))
        n = random.Random(11).getrandbits(1153) | 1 << 1152
        S, _s = _summatory_leaf(n, 1153, 11, 13)
        want = F(S, 13**1153)
        _cached_leaf_table.cache_clear()
        assert partial_sum_fast(n, p) == want
        info = _cached_leaf_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 0, 1)
        assert partial_sum_fast(n, p) == want
        info = _cached_leaf_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def assert_same_fraction(got, want):
    """Equal as the same object would be: type, terms and hash."""
    assert type(got) is type(want) is F
    assert (got.numerator, got.denominator, hash(got)) == (
        want.numerator,
        want.denominator,
        hash(want),
    )


# each base with the primes it is made of
BASE_PRIMES = {1: [], 3: [3], 4: [2], 10: [2, 5], 12: [2, 3], 60: [2, 3, 5]}


@st.composite
def planted_pairs(draw):
    """(num, den, base): coprime cofactors times powers of base's primes on
    each side, so that every prime both share divides base.  The shared
    valuations run well past the _SHARED_BITS at which the walk stops
    squaring, and num takes either sign or zero."""
    base = draw(st.sampled_from(sorted(BASE_PRIMES)))
    a = draw(st.integers(-(1 << 300), 1 << 300))
    b = draw(st.integers(1, 1 << 300))
    common = math.gcd(a, b)
    a, b = a // common, b // common
    for p in BASE_PRIMES[base]:
        both = p ** draw(st.integers(0, 2 * _SHARED_BITS))
        a *= both * p ** draw(st.integers(0, 40))
        b *= both * p ** draw(st.integers(0, 40))
    return a, b, base


class CountingMath:
    """Stands in for digitsum's math module and counts two-argument gcds,
    the full gcd of the pair that _lowest_terms falls back to."""

    def __init__(self):
        self.full = 0

    def gcd(self, *args):
        self.full += len(args) == 2
        return math.gcd(*args)


class TestLowestTerms:
    @settings(max_examples=200, deadline=None)
    @given(pair=planted_pairs())
    @example(pair=(0, 3**500, 3))
    @example(pair=(-(2**700) * 7, 2**690 * 5**3, 10))
    @example(pair=(-(15**300) * 11, 15**290 * 2**9, 60))
    def test_equals_fraction(self, pair):
        num, den, base = pair
        assert_same_fraction(_lowest_terms(num, den, base), F(num, den))

    def test_squaring_stops_at_the_cap(self, monkeypatch):
        # a shared 3^e is found by squaring 3^k up to the first k >= e, as
        # long as 3^k stays within _SHARED_BITS; one more and it takes the
        # full gcd
        k = 1
        while (3 ** (2 * k)).bit_length() <= _SHARED_BITS:
            k *= 2
        for e, full in [(0, 0), (1, 0), (k, 0), (k + 1, 1), (4 * k, 1)]:
            counting = CountingMath()
            monkeypatch.setattr(digitsum, "math", counting)
            num, den = 3**e * 2**100 * 7**200, 3**e * 2**50 * 11**200
            got = _lowest_terms(num, den, 12)
            monkeypatch.undo()
            assert counting.full == full, e
            assert_same_fraction(got, F(num, den))

    @pytest.mark.parametrize("q", [F(3, 4), F(2, 3), F(9, 10), F(-3, 4), F(1)])
    def test_fast_at_structured_n(self, q):
        # n = 2^k and 3 2^k share long runs of twos with v^d; 2^k - 1 none
        u, v = q.numerator, q.denominator
        p = QParam(q)
        for k in [_LEAF_BITS, 100, 1000, 4096, 16384]:
            for n in [1 << k, 3 << k, (1 << k) - 1]:
                d = n.bit_length()
                if d <= _LEAF_BITS:
                    continue
                S, _s = split(n, d, u, v)
                assert_same_fraction(partial_sum_fast(n, p), F(S, v**d))
