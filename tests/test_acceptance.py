"""Acceptance suite: one printed [PASS]/[FAIL] line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they are produced (without -s pytest shows them for failing tests only).

Every expected value here was derived from the definitions before being
frozen: the brute-force summatory oracle for the digit-sum criteria, the
finite branch unwinding for curve values, and a recorded first run of
the seeded register experiment for the decay fixtures.

Criterion 5 checks the widely quoted constant for the smooth
quarter-parameter curve, t(1-t), under the half-amplitude normalisation
(1/2) sum 4^-n tau(2^n t) where it holds, and 2t(1-t) under the series
normalisation used throughout this package (already at t = 1/2 the
series gives 1/2, not 1/4).  See README.md for the note.  Every test is
expected to pass; any failure is a regression.
"""

import hashlib
import random
import time
from fractions import Fraction as F

from qdigits.digitsum import (
    QParam,
    check_bit_recurrences,
    partial_sum_bruteforce_at,
    partial_sum_fast,
)
from qdigits.limiting_curve import theorem1_experiment, verify_identity_8
from qdigits.odometer import OdometerState
from qdigits.takagi import (
    AffineMap,
    DeRhamSystem,
    InconsistentSystemError,
    derham_eval,
    takagi_dyadic_exact,
    takagi_series,
)
from qdigits.trollope_delange import (
    check_g_identities,
    f_closed,
    fluctuation_system,
    td_generalized,
)
from golden import DECAY_FIXTURES
from test_digitsum import leaf_bits

FIVE_Q = [F(3, 4), F(2, 3), F(9, 10), F(-3, 4), F(-2, 3)]
Q34 = QParam(F(3, 4))


def _report(number, description, ok, detail=None):
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] criterion {number}: {description}"
    if detail and not ok:
        line += f"\n  -> {detail}"
    print(line)
    assert ok, line


def test_criterion_1_zero_orbit_bridge_exact_at_all_levels():
    t0 = time.perf_counter()
    failures = []
    for q in FIVE_Q:
        p = QParam(q)
        for j in range(1, 13):
            rep = verify_identity_8(1 << j, p)
            if not rep.passed:
                failures.append((q, j, rep.checks[0].first_counterexample))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(
        1,
        "zero-orbit bridge identity exact at l = 2^j, j = 1..12,"
        f" five weights, zero tolerance ({elapsed:.2f}s, budget 10s)",
        ok,
        failures[:3] if failures else f"elapsed {elapsed:.2f}s",
    )


def test_criterion_2_weighted_average_matches_oracle():
    t0 = time.perf_counter()
    n_max = 4096
    failures = []
    for q in FIVE_Q:
        p = QParam(q)
        oracle = partial_sum_bruteforce_at(range(1, n_max + 1), p)
        for n in range(1, n_max + 1):
            # td_generalized itself raises if its two internal closed-form
            # routes ever disagree, so this line checks both routes
            if n * td_generalized(n, p) != oracle[n]:
                failures.append((q, n))
                break
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _report(
        2,
        "n * td_generalized(n, q) equals the brute-force oracle for all"
        f" n <= {n_max}, five weights, both routes ({elapsed:.2f}s, budget 30s)",
        ok,
        failures[:3] if failures else f"elapsed {elapsed:.2f}s",
    )


def test_criterion_3_classical_average_matches_popcount():
    # the classical average is td_generalized at q = 1, where its two
    # routes cannot see an error in their shared S_q(p)/p (it scales by
    # q - 1): the popcount oracle here can
    classical = QParam(1)
    t0 = time.perf_counter()
    n_max = 4096
    failures = []
    running = 0
    for n in range(1, n_max + 1):
        running += bin(n - 1).count("1")
        if n * td_generalized(n, classical) != running:
            failures.append(n)
            break
    if td_generalized(3, classical) != F(2, 3):
        failures.append("spot td(3)")
    for k in range(1, 13):
        if td_generalized(1 << k, classical) != F(k, 2):
            failures.append(f"spot td(2^{k})")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 5.0
    _report(
        3,
        f"classical average matches the popcount oracle for all n <= {n_max}"
        f" plus spot values ({elapsed:.2f}s, budget 5s)",
        ok,
        failures[:3] if failures else f"elapsed {elapsed:.2f}s",
    )


def test_criterion_4_recurrence_and_profile_suites():
    t0 = time.perf_counter()
    n_max = 2048
    failures = []
    for q in FIVE_Q:
        p = QParam(q)
        rep = check_bit_recurrences(n_max, p)
        if not rep.passed:
            failures.extend(
                (q, c.name, c.first_counterexample)
                for c in rep.checks
                if not c.passed
            )
        rep = check_g_identities(n_max, p)
        if not rep.passed:
            failures.extend(
                (q, c.name, c.first_counterexample)
                for c in rep.checks
                if not c.passed
            )
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(
        4,
        "digit-sum recurrences and fluctuation-profile identities exact"
        f" for all n <= {n_max} (levels to 2^12), five weights"
        f" ({elapsed:.2f}s, budget 60s)",
        ok,
        failures[:3] if failures else f"elapsed {elapsed:.2f}s",
    )


def test_criterion_4_printed_variants_fail_at_documented_indices():
    rep = check_bit_recurrences(64, Q34, use_printed_forms=True)
    failed = {c.name: c.first_counterexample for c in rep.checks if not c.passed}
    ok = (
        not rep.passed
        and set(failed) == {"S-split-2p", "S-split-p", "S-pow2"}
        and failed["S-split-2p"].startswith("n=2:")
        and failed["S-split-p"].startswith("n=3:")
        and failed["S-pow2"].startswith("k=2:")
    )
    _report(
        4,
        "variant-exponent scan fails exactly at n=2 (split-2p),"
        " n=3 (split-p) and k=2 (power of two)",
        ok,
        failed,
    )


def test_criterion_5_certified_series_within_tolerance():
    t0 = time.perf_counter()
    tol = 1e-10
    failures = []
    for a in [F(1, 2), F(-1, 2), F(2, 3), F(1, 4)]:
        for m in range(1025):
            t = F(m, 1024)
            exact = takagi_dyadic_exact(t, a)
            got = takagi_series(t, a, tol)
            if got.bound > tol or abs(got.value - float(exact)) > tol:
                failures.append((a, t))
                break
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _report(
        "5 (series tolerance)",
        "certified series within 1e-10 of exact unwinding at every dyadic"
        f" t with exponent <= 10, four parameters ({elapsed:.2f}s, budget 10s)",
        ok,
        failures[:3] if failures else f"elapsed {elapsed:.2f}s",
    )


def test_criterion_5_quarter_parameter_constant_as_stated():
    # The quoted constant t(1-t) is the half-amplitude curve
    # (1/2) sum 4^-n tau(2^n t), i.e. the solution of the two-branch
    # system f(x/2) = f(x)/4 + x/4, f((x+1)/2) = f(x)/4 + (1-x)/4.  It is
    # checked there literally, by the de Rham solver, and the package's
    # own normalisation T_{1/4} = sum 4^-n tau(2^n t) is checked to be
    # exactly twice it (T_{1/4}(1/2) = tau(1/2) = 1/2, not 1/4).
    half_amplitude = DeRhamSystem(
        F(1, 4), F(1, 4), AffineMap(F(1, 4)), AffineMap(F(-1, 4), F(1, 4))
    )
    mismatches = []
    for m in range(1025):
        t = F(m, 1024)
        stated = t * (1 - t)
        for label, got, want in (
            ("half-amplitude system", derham_eval(half_amplitude, t), stated),
            ("T_{1/4}", takagi_dyadic_exact(t, F(1, 4)), 2 * stated),
        ):
            if got != want:
                mismatches.append((label, t, got, want))
    ok = not mismatches
    first = mismatches[0] if mismatches else None
    _report(
        "5 (quarter-parameter constant, as stated)",
        "t(1-t) solves f(x/2) = f(x)/4 + x/4, f((x+1)/2) = f(x)/4 + (1-x)/4"
        " and T_{1/4}(t) = 2t(1-t), both exactly at every sampled dyadic t",
        ok,
        None
        if ok
        else (
            f"{len(mismatches)} mismatches over 1025 points; first:"
            f" {first[0]} at t={first[1]} gives {first[2]}, expected {first[3]}"
        ),
    )


def test_criterion_5_quarter_parameter_constant_corrected():
    mismatches = [
        m
        for m in range(1025)
        if takagi_dyadic_exact(F(m, 1024), F(1, 4))
        != 2 * F(m, 1024) * (1 - F(m, 1024))
    ]
    _report(
        "5 (quarter-parameter constant, corrected)",
        "T_{1/4}(t) = 2t(1-t) exactly at every sampled dyadic t",
        not mismatches,
        mismatches[:3],
    )


def test_criterion_6_functional_system_solver():
    t0 = time.perf_counter()
    problems = []

    # a) rejects an inconsistent system, reporting the seam residual
    broken = DeRhamSystem(F(1, 2), F(1, 2), AffineMap(1), AffineMap(F(-1, 2), F(1, 2)))
    try:
        derham_eval(broken, F(1, 2))
        problems.append("inconsistent system was accepted")
    except InconsistentSystemError as exc:
        if "residual 1/2" not in str(exc):
            problems.append(f"residual not reported: {exc}")

    # b) reproduces the curve exactly; c) solves the profile system
    for q in FIVE_Q:
        p = QParam(q)
        curve_sys = DeRhamSystem.takagi(p.a)
        profile_sys = fluctuation_system(p)
        for m in range(1025):
            t = F(m, 1024)
            if derham_eval(curve_sys, t) != takagi_dyadic_exact(t, p.a):
                problems.append((q, t, "curve"))
                break
            if derham_eval(profile_sys, t) != f_closed(t, p):
                problems.append((q, t, "profile"))
                break
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 5.0
    _report(
        6,
        "solver rejects the inconsistent system with its residual and"
        " reproduces both exact solutions at every dyadic t with exponent"
        f" <= 10, five weights ({elapsed:.2f}s, budget 5s)",
        ok,
        problems[:3] if problems else f"elapsed {elapsed:.2f}s",
    )


def test_criterion_7_seeded_register_decay_fixtures():
    t0 = time.perf_counter()
    problems = []
    for seed, expected in DECAY_FIXTURES.items():
        bridge = theorem1_experiment(seed, Q34, [4, 8, 12])
        if not bridge.decay_strictly_decreasing:
            problems.append((seed, "not strictly decreasing"))
        got = [
            (
                lvl.run_length,
                lvl.position,
                float(lvl.sup_distance),
                hashlib.sha256(str(lvl.sup_distance).encode()).hexdigest()[:16],
            )
            for lvl in bridge.levels
        ]
        if got != expected:
            problems.append((seed, got))
    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 60.0
    _report(
        7,
        "five seeded 8192-digit registers at q = 3/4: sup distances at"
        " r = 4, 8, 12 strictly decrease and match the frozen first-run"
        f" record bit for bit ({elapsed:.2f}s, budget 60s)",
        ok,
        problems[:2] if problems else f"elapsed {elapsed:.2f}s",
    )


def test_criterion_7_zero_register_is_exactly_on_curve():
    bridge = theorem1_experiment(
        None, Q34, [4, 8, 12], state=OdometerState.zeros(8192)
    )
    ok = (
        [lvl.position for lvl in bridge.levels] == [4, 8, 12]
        and bridge.sup_distances == [0, 0, 0]
    )
    _report(
        7,
        "the all-zero register sits exactly on the limit curve:"
        " all three sup distances are the rational number 0",
        ok,
        [(lvl.position, str(lvl.sup_distance)) for lvl in bridge.levels],
    )


def test_criterion_8_fast_evaluator_performance_and_agreement():
    t0 = time.perf_counter()
    problems = []

    n_perf = 2**40 + 12345
    best = min(
        _timed(lambda: partial_sum_fast(n_perf, Q34)) for _ in range(5)
    )
    if best >= 0.010:
        problems.append(f"best of 5 runs took {best * 1000:.2f}ms")

    _value, steps = leaf_bits(partial_sum_fast, n_perf, Q34)
    if steps != n_perf.bit_length():
        problems.append(f"{steps} halving steps for {n_perf.bit_length()} bits")

    rng = random.Random(20260819)
    checkpoints = sorted(
        set(range(1, 4097)) | {rng.randrange(1, 2**20 + 1) for _ in range(1000)}
    )
    oracle = partial_sum_bruteforce_at(checkpoints, Q34)
    for n in checkpoints:
        if partial_sum_fast(n, Q34) != oracle[n]:
            problems.append(f"disagrees with oracle at n={n}")
            break

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 120.0
    _report(
        8,
        f"fast evaluator: best-of-5 under 10ms at n = 2^40 + 12345"
        f" ({best * 1000:.2f}ms), one step per bit, and exact oracle"
        f" agreement at all n <= 4096 plus 1000 seeded random n <= 2^20"
        f" ({elapsed:.2f}s, budget 120s)",
        ok,
        problems[:3] if problems else f"elapsed {elapsed:.2f}s",
    )


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0
