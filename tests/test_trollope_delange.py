"""Closed forms for the average digit sum, classical and weighted."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdigits import trollope_delange
from qdigits.digitsum import QParam, partial_sum_bruteforce_at, partial_sum_fast
from qdigits.takagi import derham_consistency, derham_eval
from qdigits.trollope_delange import (
    check_g_identities,
    f_closed,
    f_hat_float,
    f_hat_periodic,
    fluctuation_system,
    g_profile,
    td_generalized,
)

Q34 = QParam(F(3, 4))
CURVE_WEIGHTS = [F(3, 4), F(2, 3), F(9, 10), F(-3, 4), F(-2, 3)]


class TestGProfile:
    def test_frozen_values(self):
        # G(3) = (S(3) - (3/2) S(2)) / (2 q) = (3/16)/(3/2)
        assert g_profile(3, Q34) == F(1, 8)
        # G(5) = (S(5) - (5/4) S(4)) / (4 q^2) = (-15/64)/(9/4)
        assert g_profile(5, Q34) == F(-5, 48)
        assert g_profile(1, Q34) == 0
        assert g_profile(4, Q34) == 0

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            g_profile(3, QParam(F(1, 2)))
        # and the octave split's domain
        with pytest.raises(ValueError, match="n must be >= 1"):
            g_profile(0, Q34)


class TestFClosed:
    def test_frozen_value(self):
        # q/2 - T_{2/3}(1/2)/2 = 3/8 - 1/4
        assert f_closed(F(1, 2), Q34) == F(1, 8)

    def test_endpoints(self):
        for q in CURVE_WEIGHTS:
            p = QParam(q)
            assert f_closed(0, p) == 0
            assert f_closed(1, p) == q

    def test_matches_profile(self):
        for q in CURVE_WEIGHTS:
            p = QParam(q)
            for n in range(1, 65):
                pn = 1 << n.bit_length() - 1
                assert f_closed(F(n - pn, pn), p) == g_profile(n, p), (q, n)


class TestFluctuationSystem:
    def test_maps(self):
        sys = fluctuation_system(Q34)
        assert sys.a0 == sys.a1 == F(2, 3)
        assert (sys.g0.slope, sys.g0.intercept) == (F(-3, 8), 0)
        assert (sys.g1.slope, sys.g1.intercept) == (F(1, 8), F(1, 8))

    def test_consistent_for_curve_weights(self):
        for q in CURVE_WEIGHTS + [F(1)]:
            ok, residual = derham_consistency(fluctuation_system(QParam(q)))
            assert ok, (q, residual)

    def test_solution_is_f_closed(self):
        sys = fluctuation_system(Q34)
        for j in range(33):
            t = F(j, 32)
            assert derham_eval(sys, t) == f_closed(t, Q34)


class TestFHatPeriodic:
    def test_frozen_value(self):
        # (1 - q^2)/(1 - q) - 2 q (2/3) T_{2/3}(3/4) = 7/4 - 7/12
        assert f_hat_periodic(3, Q34) == F(7, 6)

    def test_recovers_partial_sum(self):
        for q in CURVE_WEIGHTS + [F(1)]:
            p = QParam(q)
            for n in range(1, 65):
                assert n * (q / 2) * f_hat_periodic(n, p) == partial_sum_fast(n, p), (q, n)

    def test_guards(self):
        # q = 1 is an ordinary weight: k + 1 - 2 (2/3) T_{1/2}(3/4) = 2 - 2/3
        assert f_hat_periodic(3, QParam(1)) == F(4, 3)
        with pytest.raises(ValueError):
            f_hat_periodic(3, QParam(F(1, 4)))
        with pytest.raises(ValueError, match="n must be >= 1"):
            f_hat_periodic(0, Q34)


class TestFHatFloat:
    def test_vanishes_at_period_ends(self):
        assert abs(f_hat_float(0.0, Q34)) <= 1e-12
        assert abs(f_hat_float(1.0, Q34)) <= 1e-12

    def test_consistent_with_exact_bracket(self):
        # splitting the exact bracket into main term plus q^(k+u) times
        # the periodic factor must reproduce it at u = log2(n/p)
        q = 0.75
        for n in [3, 5, 6, 7, 11, 21]:
            k = n.bit_length() - 1
            u = math.log2(n / (1 << k))
            q_ku = q**k * q**u
            recombined = q_ku * f_hat_float(u, Q34) + (1 - q_ku) / (1 - q)
            assert abs(recombined - float(f_hat_periodic(n, Q34))) <= 1e-9, n

    def test_guards(self):
        with pytest.raises(ValueError):
            f_hat_float(0.5, QParam(F(-3, 4)))
        with pytest.raises(ValueError):
            f_hat_float(1.5, Q34)
        with pytest.raises(ValueError):
            f_hat_float(0.5, QParam(1))


class TestTdGeneralized:
    def test_frozen_value(self):
        # S(3)/3 = (21/16)/3
        assert td_generalized(3, Q34) == F(7, 16)

    def test_matches_oracle(self):
        for q in CURVE_WEIGHTS + [F(1)]:
            p = QParam(q)
            oracle = partial_sum_bruteforce_at(range(1, 257), p)
            for n in range(1, 257):
                assert n * td_generalized(n, p) == oracle[n], (q, n)

    def test_guards(self):
        assert td_generalized(3, QParam(1)) == F(2, 3)
        with pytest.raises(ValueError):
            td_generalized(3, QParam(F(1, 2)))
        with pytest.raises(ValueError, match="n must be >= 1"):
            td_generalized(0, Q34)


class TestTdClassical:
    """The classical average of the binary digit-sum is td_generalized at q = 1.

    There the two routes share S_q(p)/p and differ by (q - 1) times the
    error in it, so an error in S_q(p)/p passes their cross-check; the
    popcount oracles here, criterion 3 and check_bit_recurrences' S-pow2
    scan are what see it.
    """

    def test_frozen_values(self):
        assert td_generalized(3, QParam(1)) == F(2, 3)
        assert td_generalized(5, QParam(1)) == 1
        for k in range(1, 13):
            assert td_generalized(1 << k, QParam(1)) == F(k, 2)

    def test_matches_popcount(self):
        running = 0
        for n in range(1, 513):
            running += bin(n - 1).count("1")
            assert n * td_generalized(n, QParam(1)) == running

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=1 << 256))
    def test_matches_summatory_kernel(self, n):
        assert n * td_generalized(n, QParam(1)) == partial_sum_fast(n, QParam(1))

    def test_domain(self):
        with pytest.raises(ValueError):
            td_generalized(0, QParam(1))


class TestGIdentities:
    def test_passes(self):
        for q in [F(3, 4), F(-2, 3)]:
            rep = check_g_identities(48, QParam(q))
            assert rep.passed, [c.format_line() for c in rep.checks if not c.passed]

    def test_report_shape(self):
        rep = check_g_identities(16, Q34)
        assert [c.name for c in rep.checks] == [
            "G-double",
            "G-split-p",
            "G-split-2p",
            "x-half",
            "x-shift",
            "F-matches-G",
            "F-system",
        ]

    def test_walks_each_point_once(self, monkeypatch):
        seen = []

        def counted(x, p):
            seen.append(x)
            return f_closed(x, p)

        monkeypatch.setattr(trollope_delange, "f_closed", counted)
        assert check_g_identities(64, QParam(F(9, 10))).passed
        assert len(seen) == len(set(seen))

    def test_guards(self):
        with pytest.raises(ValueError):
            check_g_identities(3, Q34)
        with pytest.raises(ValueError):
            check_g_identities(16, QParam(F(1, 4)))
