"""Command-line frontend.

Four subcommands:

    eval    print one exactly computed quantity
    verify  run an identity suite and report each check
    curve   emit a fluctuation curve and its target as CSV (and SVG)
    bridge  run the stabilising-level decay experiment, JSON report

Exit codes: 0 when everything succeeded or every check passed, 1 when a
verification or decay check failed, 2 on malformed input.  Exact
rationals are printed as "p/q" strings; --digits switches to correctly
rounded fixed-point decimals.  Output for identical arguments is
byte-identical across runs.
"""

import argparse
import functools
import math
import re
import sys
from fractions import Fraction
from itertools import islice, repeat
from typing import NamedTuple

from .digitsum import (
    DEFAULT_ORACLE_BUDGET,
    QParam,
    _digit_sum_fast,
    _term_bits,
    check_bit_recurrences,
    partial_sum_bruteforce,
    partial_sum_fast,
)
from .limiting_curve import (
    _cross_scales,
    _scaled,
    _scan_identity_8,
    _target_scaled,
    _zero_orbit_scaled,
    theorem1_experiment,
)
from .odometer import (
    NoStabilizingLevelError,
    OdometerState,
    RegisterOverflowError,
)
from .report import VerificationReport
from .takagi import (
    DEFAULT_SERIES_TOL,
    DeRhamSystem,
    _series_terms,
    derham_consistency,
    derham_eval,
    is_power_of_two,
    takagi_dyadic_exact,
    takagi_series,
)
from .trollope_delange import (
    check_g_identities,
    f_closed,
    f_hat_float,
    fluctuation_system,
    td_generalized,
)


class _CliError(Exception):
    """Bad input; the message goes to stderr and the exit code is 2."""


class _Budget(NamedTuple):
    """One bound on the CLI's input: charge(cost, **fields) exits 2 when
    cost is over limit, with text.format(limit=limit, **fields).  The text
    is formatted only then, since a field such as a may be a huge Fraction."""

    limit: int
    text: str

    def charge(self, cost, **fields):
        if cost > self.limit:
            raise _CliError(self.text.format(limit=self.limit, **fields))


# Fraction expands a decimal exponent E, spelled as _DECIMAL reads it, to
# 10^|E| before any other row is charged: eval S spent 0.16 s parsing --q
# 1e1000000, 0.86 s 1e3000000, 2.57 s and 24 MB 1e6000000, and 0.06 s
# 1e524288 or 1e-524288 before its refusal (2-vCPU Xeon, Python 3.11)
_EXPONENT = _Budget(2**19, "{flag}'s decimal exponent must be between"
                    " -{limit} and {limit}")
_DECIMAL = re.compile(r"\s*[-+]?(?=\.?\d)(?:\d+(?:_\d+)*)?(?:\.(?:\d+(?:_\d+)*)?)?"
                      r"e([-+]?\d+(?:_\d+)*)\s*", re.IGNORECASE)
# the decimal expansion behind --digits grows superlinearly: one value of
# eval td took 0.20 s at 1e5 digits, 1.69 s at 3e5 and 21.5 s at 1e6
# (2-vCPU Xeon, Python 3.11)
_DIGITS = _Budget(100_000, "--digits must be <= {limit}")
# the largest --l and --lmax: at 2^20 curve --svg took 1.94-2.17 s and
# 314-315 MB (q = 3/4, 9/10), verify prop1 0.77-0.84 s and 160 MB (two
# tools/probe_budgets.py runs, same machine: fresh processes, ru_maxrss)
_LEVEL = _Budget(2**20, "{flag} must be <= {limit}")
# a bridge level's grid has at most as many points as the largest --l
_GRID_EXPONENT = _Budget(_LEVEL.limit.bit_length() - 1,
                         "--grid-exponent must be <= {limit}")
# curve --digits charges each CSV cell digits + 8 against one budget: a
# decimal costs about d^2 at large d, and the 8 prices a cell's fixed
# cost so that neither end runs long.  At the bound (same machine,
# --norm canonical, q = 9/10 and 51/100), --digits 100000 stops at --l 8
# (27 cells, 4.6 s), --digits 30000 at --l 32 (2.0 s) and --digits 0 at
# --l 2^17 (5.8-6.0 s with --svg)
_DECIMAL_WORK = _Budget(2**22, "--digits {digits} at --l {l}: {cells} cells"
                        " x (digits + 8) must be <= {limit}")
# the largest --register-length: there the default --r 4,8,12 takes
# 0.010-0.026 s (seeds 1 and 42, q = 3/4 and 51/100); a level near the
# top, n = 130026 (seed 190, r = 16), takes 1.1 s at q = 9/10 and 3.2 s at
# q = 51/100, 25 MB
_REGISTER = _Budget(2**17, "--register-length must be <= {limit}")
# a bridge level holds 2^grid_exponent + 1 integers of up to about
# register_length bits; at this product (q = 9/10 and 51/100), grid 2^20
# on a 512-digit register took 2.7 s and 352 MB (seed 2, r = 7, n = 510),
# grid 2^16 on the default register 0.96 s and 175 MB (seed 42), and grid
# 2^12 on the level n = 130026 above 1.7-4.2 s and 153 MB
_GRID_BITS = _Budget(2**29, "2^(--grid-exponent) * --register-length"
                     " must be <= {limit}")
# a level's exact rationals, such as its normalizer (2q)^(n-1), are about
# register_length times the bits of q's larger term wide, and its time
# grows with the square of that product.
# At this bound (2-vCPU Xeon, Python 3.11) a level near the top of the
# register took 1.2 s at q = 9/10 and 2^17 digits (seed 190, r = 16,
# n = 130026), 1.5 s at a 32-bit q and 2^14 digits (seed 272, r = 14,
# n = 16377) and 1.7 s at a 128-bit q and 2^12 digits (seed 136, r = 14);
# at twice the bound, 5.2 s, and q = 500001/1000000 at 2^17 digits 35.8 s.
# eval s and eval S charge bits(--n) the same way: at the bound (same
# machine, parsing and printing included, two batches) eval S took
# 0.55-1.56 s at q = 1, 2/3, 1/3, +-3/4, 5/2, 9/10, 51/100 and 64- to
# 1585-bit q, and 1.14 s with --digits 100000, eval s 0.16-1.23 s; at
# 8192-bit q (odd and power-of-two v) and a 64-bit n, one bit-serial leaf,
# both took 0.90-1.13 s; at twice the bound, eval S at q = 2/3 took 4.9 s
_REGISTER_Q_BITS = _Budget(2**19, "{what} * {q_bits} (the bits of q's larger"
                           " term) must be <= {limit}")
# each --r entry walks a level of its own, even a repeated one: eight
# copies of the first level above took 9.4 s and 63 MB
_RUN_LENGTHS = _Budget(8, "--r takes at most {limit} run lengths")
# takagi_series builds one integer of terms * bits(a) bits, a term at a
# time, so an evaluation is charged terms * (terms * bits(a) + bits(x) +
# 8192), bits(x) those of x's denominator and 8192 a term's fixed cost.
# At the bound (tools/probe_budgets.py, 2-vCPU Xeon, Python 3.11), eval
# takagi --a 1023/1024 --x 1/3 took 0.60-0.96 s at the smallest --tol the
# row admits (27574 terms), and curve --fhat-points, charged once per
# point, 0.77-1.37 s at q = 3/4 (14634 points) and 0.45-0.73 s at
# q = 51/100 (313 points), all in 16-19 MB (two probe runs)
_SERIES_WORK = _Budget(2**33, "a = {a} at --tol {tol} needs about {terms} series"
                       " terms; terms x (terms x bits(a) + bits(x) + 8192)"
                       " must be <= {limit}")
_FHAT_WORK = _Budget(_SERIES_WORK.limit, "--fhat-points {n}: {points} points x"
                     " {work} per point must be <= {limit}")
# takagi_dyadic_exact takes one step per bit of e, the exponent of x's
# power-of-two denominator, on Fractions of up to e (bits(a) + 1) bits,
# each step a gcd quadratic in them; eval takagi at a dyadic x is charged
# e^3 (bits(a) + 1)^2, bits(a) those of a's larger term, and eval td, which
# walks twice, once per route, the same with e the bits of --n.  At the
# bound (tools/probe_budgets.py, four runs, 2-vCPU Xeon, Python 3.11), eval
# takagi --a 2/3 took 1.16-1.44 s at a 4961-bit x, and eval td 2.22-2.75 s
# at q = 3/4 and 0.88-1.30 s with --classical at a 4961-bit n, all in 16 MB;
# a 4962-bit n exits 2 in 0.07-0.12 s
_DYADIC_WORK = _Budget(2**40, "{what} walks {e} bits at a = {a}; bits^3 x"
                       " (bits(a) + 1)^2 must be <= {limit}")
# the largest --budget, the default: the oracle sums one term per j below
# n, so at the bound eval S --method oracle at n = 2^20 took 1.7-2.3 s at
# q = 3/4, 9/10 and 51/100 (2-vCPU Xeon, Python 3.11), and 3.6 s at
# q = 3/4 and twice the bound
_ORACLE_BUDGET = _Budget(DEFAULT_ORACLE_BUDGET, "--budget must be <= {limit}")
# each term the oracle sums costs more as q grows, so eval S --method oracle
# is also charged n (bits(q) + 64), bits(q) those of q's larger term.  At
# the bound (2-vCPU Xeon, Python 3.11) it took 2.1 s at a 61-bit q (n =
# 2^20), 1.2 s at 256 bits (n = 419430), 0.57 s at 1585 bits and 0.43 s at
# 8192; below 61 bits --budget binds first (1.7-2.1 s at q = 3/4 and
# 51/100).  Unbounded in q, n = 2^20 took 14.8 s at a 1585-bit q
_ORACLE_WORK = _Budget(2**27, "{flag} {terms} x ({q_bits} + 64), {q_bits} the"
                       " bits of q's larger term, must be <= {limit}")
# verify --suite gprofile and recurrences scan n <= --nmax in Fractions
# that grow with q, charged --nmax (bits(q) + 64) the same way.  At the
# bound (same machine) gprofile took 1.6-2.0 s at q = 3/4, 9/10 and 51/100
# (--nmax 3912-3692) and 0.8-1.3 s at 64- to 65472-bit q, recurrences
# 0.4-1.0 s up to 1585 bits and 1.6-5.7 s at 8192- to 131008-bit q (--nmax
# 31 to 2).  Past it, gprofile at q = 3/4 took 4.3 s at --nmax 8192 and
# 7.1 s at 16000, and recurrences 65 s and 341 MB at 349524, the largest
# --nmax that --budget alone admits
_SCAN_WORK = _Budget(2**18, _ORACLE_WORK.text)
# curve and verify --suite prop1 build each of a level's l + 1 points from
# integers of about W = log2(l) bits(q) bits, whose products, gcds and
# decimal strings grow about as (W + 256)^2, and both are charged
# (l + 1) (W + 256)^2.  At the widest q the bound admits, two probe runs
# timed curve --svg at 0.24-0.92 s and 17-131 MB from --l 2 (a 213783-bit
# q) to --l 2^16 (74 bits), and 2.24-2.33 s and 314-315 MB at --l 2^20 (5
# bits); prop1 at 0.11-0.89 s and 16-160 MB; and curve --l 8 --digits
# 100000 at 2.44-2.62 s (41106 bits; 1.82-1.87 s at q = 3/4).  The bound
# admits --l 2^20 at q = 9/10 and refuses --l 4096 at a 513-bit q, so a
# wide q stops well short of the time a narrow one takes at --l 2^20
_LEVEL_WORK = _Budget(2**37, "{flag} {l}: {points} points x ({g} x {q_bits} + 256)^2,"
                      " {q_bits} the bits of q's larger term, must be <= {limit}")
# verify --suite derham evaluates 65 points in Fractions a few times
# bits(q) wide, each step a gcd quadratic in them.  At the bound two probe
# runs timed 0.66-0.94 s and 16-17 MB, against 0.07-0.13 s at q = 3/4 and
# 9/10
_DERHAM_Q_BITS = _Budget(2**12, "--suite derham takes a q of at most {limit} bits"
                         " in its larger term, got {q_bits}")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _decimal_string(x: Fraction, digits: int) -> str:
    """x as a fixed-point decimal with `digits` fractional digits.

    Rounding is exact (ties to even); no float ever enters.
    """
    r = round(Fraction(x), digits)
    sign = "-" if r < 0 else ""
    scaled = abs(r) * 10**digits
    whole = str(int(scaled))
    if digits == 0:
        return sign + whole
    whole = whole.rjust(digits + 1, "0")
    return f"{sign}{whole[:-digits]}.{whole[-digits:]}"


def _format_value(x, digits) -> str:
    if isinstance(x, Fraction):
        return str(x) if digits is None else _decimal_string(x, digits)
    if digits is None:
        return repr(float(x))
    return f"{float(x):.{digits}f}"


def _parse_fraction(text: str, what: str) -> Fraction:
    decimal = _DECIMAL.fullmatch(text)
    if decimal:
        _EXPONENT.charge(abs(int(decimal[1])), flag=f"--{what}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _CliError(f"invalid {what}: {text!r} ({exc})") from exc


def _parse_qparam(text: str) -> QParam:
    return QParam(_parse_fraction(text, "q"))


def _parse_run_lengths(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise _CliError(f"invalid run-length list: {text!r}") from exc
    if not values or any(r < 1 for r in values):
        raise _CliError(f"run lengths must be positive integers: {text!r}")
    return values


def _series_work(a: Fraction, tol: float, x_bits: int) -> tuple[float, float]:
    """(terms, charge) of takagi_series(x, a, tol) against _SERIES_WORK.

    terms is _series_terms' estimate, made without summing and within one
    of the count takagi_series settles; x_bits is the bit length of x's
    denominator.  An a or tol that takagi_series refuses is charged
    nothing, so that its own message reaches the user.
    """
    terms = _series_terms(a, tol)
    return terms, terms * (terms * a.denominator.bit_length() + x_bits + 8192)


def _charge_walk(what: str, e: int, a: Fraction):
    """Charge a dyadic Takagi walk of e steps at a, what giving e, to _DYADIC_WORK."""
    bits = _term_bits(*a.as_integer_ratio())
    _DYADIC_WORK.charge(e**3 * (bits + 1) ** 2, what=what, e=e, a=a)


def _write_text(path, parts):
    """Write the strings of parts, in order, to path or, when it is None, to stdout."""
    if path is None:
        sys.stdout.writelines(parts)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(parts)
    except OSError as exc:
        raise _CliError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _charge_terms(budget: _Budget, flag: str, terms: int, p: QParam):
    """Charge terms x (bits(q's larger term) + 64) to budget; flag gives terms."""
    q_bits = _term_bits(*p.q.as_integer_ratio())
    budget.charge(terms * (q_bits + 64), flag=flag, terms=terms, q_bits=q_bits)


def _cmd_eval(args) -> int:
    if args.target in ("s", "S"):
        p = _parse_qparam(args.q)
        bits, q_bits = args.n.bit_length(), _term_bits(*p.q.as_integer_ratio())
        what = f"--n has {bits} bits; bits(--n)"
        _REGISTER_Q_BITS.charge(bits * q_bits, what=what, q_bits=q_bits)
        if args.target == "s":
            value = _digit_sum_fast(args.n, p)
        elif args.method == "oracle":
            # an n past --budget is left to the oracle's own refusal
            if args.n <= args.budget:
                _charge_terms(_ORACLE_WORK, "--n", args.n, p)
            value = partial_sum_bruteforce(args.n, p, budget=args.budget)
        else:
            value = partial_sum_fast(args.n, p)
    elif args.target == "takagi":
        a = (
            _parse_fraction(args.a, "a")
            if args.a is not None
            else _parse_qparam(args.q).a
        )
        x = _parse_fraction(args.x, "x")
        if is_power_of_two(x.denominator):
            _charge_walk("--x", x.denominator.bit_length() - 1, a)
            value = takagi_dyadic_exact(x, a)
        else:
            terms, work = _series_work(a, args.tol, x.denominator.bit_length())
            _SERIES_WORK.charge(work, a=a, tol=args.tol, terms=terms)
            value = takagi_series(x, a, tol=args.tol).value
    else:  # td
        if args.q is None:
            raise _CliError("eval td needs --q or --classical")
        p = _parse_qparam(args.q)
        _charge_walk("--n", args.n.bit_length(), p.a)
        value = td_generalized(args.n, p)
    print(_format_value(value, args.digits))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _check_level(flag: str, l: int, p: QParam):
    """Exit 2 unless l, given by flag, is a power of two >= 2 within _LEVEL
    whose points at q are within _LEVEL_WORK."""
    if not is_power_of_two(l) or l < 2:
        raise _CliError(f"{flag} must be a power of two >= 2, got {l}")
    _LEVEL.charge(l, flag=flag)
    g, q_bits = l.bit_length() - 1, _term_bits(*p.q.as_integer_ratio())
    _LEVEL_WORK.charge((l + 1) * (g * q_bits + 256) ** 2, flag=flag, l=l, points=l + 1,
                       g=g, q_bits=q_bits)


def _suite_prop1(p: QParam, lmax: int) -> VerificationReport:
    """Identity (8) at l = 2, 4, ..., lmax, from one walk and one grid at lmax."""
    p.require_curve_regime()
    _check_level("--lmax", lmax, p)
    params = {"q": str(p.q), "lmax": str(lmax)}
    rep = VerificationReport("zero-orbit bridge identities", params)
    _scan_identity_8(rep, p, lmax, 2, "bridge-l-{l}")
    return rep


def _suite_derham(p: QParam) -> VerificationReport:
    p.require_curve_regime()
    q_bits = _term_bits(*p.q.as_integer_ratio())
    _DERHAM_Q_BITS.charge(q_bits, q_bits=q_bits)
    rep = VerificationReport(
        "two-branch affine systems", params={"q": str(p.q), "a": str(p.a)}
    )
    # (name, seam statement, scope, system, its solution, that solution at t)
    systems = (
        ("curve", "a0 g1(1)/(1-a1) + g0(1) = a1 g0(0)/(1-a0) + g1(0)", "curve system at a",
         DeRhamSystem.takagi(p.a), "T_a", lambda t: takagi_dyadic_exact(t, p.a)),
        ("profile", "seam condition, reducing to 2 a q = 1", "fluctuation system at q",
         fluctuation_system(p), "q x - T_a(x)/2", lambda t: f_closed(t, p)),
    )
    for name, statement, scope, sys_, _, _ in systems:
        ok, residual = derham_consistency(sys_)
        rep.add(f"{name}-system-consistent", statement, scope, 1, ok,
                None if ok else f"residual {residual}")
    grid = [Fraction(j, 64) for j in range(65)]
    for name, _, _, sys_, solution, reference in systems:
        rep.scan(
            f"solver-matches-{name}",
            f"branch unwinding reproduces {solution}",
            "t = j/64, exact",
            ((f"t={t}", derham_eval(sys_, t), reference(t)) for t in grid),
        )
    return rep


def _experiment(args, p: QParam):
    """theorem1_experiment on --r, --seed, --register-length, --grid-exponent
    and, for bridge, --state.

    NoStabilizingLevelError and RegisterOverflowError pass to _run, which
    reports them under the command's name with exit code 1; every usage
    error exits 2 before them.
    """
    g, length = args.grid_exponent, args.register_length
    _GRID_EXPONENT.charge(g)
    _REGISTER.charge(length)
    if g >= 0:
        _GRID_BITS.charge(length << g)
    q_bits = _term_bits(*p.q.as_integer_ratio())
    _REGISTER_Q_BITS.charge(length * q_bits, what="--register-length", q_bits=q_bits)
    r_list = _parse_run_lengths(args.r)
    _RUN_LENGTHS.charge(len(r_list))
    if length < 1:
        raise _CliError(f"--register-length must be >= 1, got {length}")
    zero = getattr(args, "state", None) == "zero"
    if not zero and args.seed is None:
        raise _CliError("bridge needs --seed or --state zero")
    if g < 0:
        raise _CliError(f"--grid-exponent must be >= 0, got {g}")
    if not Fraction(1, 2) < abs(p.q) < 1:
        raise _CliError(f"experiment needs 1/2 < |q| < 1, got q = {p.q}")
    longest = max(r_list)
    if longest > length:
        # the experiment's own outcome (exit 1), before any level is walked
        raise NoStabilizingLevelError(
            f"no run of {longest} zeros in the {length}-digit register"
        )
    return theorem1_experiment(
        args.seed,
        p,
        r_list,
        state=OdometerState.zeros(length) if zero else None,
        register_length=length,
        grid_exponent=g,
    )


def _suite_theorem1(p: QParam, args) -> VerificationReport:
    bridge = _experiment(args, p)
    rep = VerificationReport(
        "stabilising-level decay",
        params={
            "q": str(p.q),
            "seed": str(args.seed),
            "r": ",".join(str(lvl.run_length) for lvl in bridge.levels),
            "register_length": str(args.register_length),
        },
    )
    for lvl in bridge.levels:
        rep.notes.append(
            f"r={lvl.run_length}: level n={lvl.position},"
            f" sup distance {float(lvl.sup_distance)!r}"
        )
    rep.notes.extend(bridge.notes)
    pairs = zip(bridge.levels, bridge.levels[1:])
    for lo, hi in pairs:
        ok = hi.sup_distance < lo.sup_distance
        rep.add(
            f"decay-r{lo.run_length}-to-r{hi.run_length}",
            "sup distance to the target curve decreases strictly in r",
            f"r={lo.run_length} vs r={hi.run_length}",
            1,
            ok,
            None
            if ok
            else f"{float(lo.sup_distance)!r} -> {float(hi.sup_distance)!r}",
        )
    return rep


def _cmd_verify(args) -> int:
    p = _parse_qparam(args.q)
    if args.suite == "recurrences":
        # the scan reads the oracle out to 3 nmax + 2; past --budget it is
        # left to the oracle's own refusal
        if 3 * args.nmax + 2 <= args.budget:
            _charge_terms(_SCAN_WORK, "--nmax", args.nmax, p)
        rep = check_bit_recurrences(
            args.nmax, p, use_printed_forms=args.use_printed_forms,
            budget=args.budget,
        )
    elif args.suite == "gprofile":
        _charge_terms(_SCAN_WORK, "--nmax", args.nmax, p)
        rep = check_g_identities(args.nmax, p)
    elif args.suite == "prop1":
        rep = _suite_prop1(p, args.lmax)
    elif args.suite == "derham":
        rep = _suite_derham(p)
    else:
        rep = _suite_theorem1(p, args)
    if args.json:
        # json is imported only where JSON is written: eval, curve and a
        # text report start without it
        import json

        print(json.dumps(rep.to_dict(), indent=2))
    else:
        print("\n".join(rep.format_lines()))
    return 0 if rep.passed else 1


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

# curve writes its CSV this many rows a part, so that it never holds more
# of the text than one part; the default --l 4096 is one part
_CSV_ROWS = 1 << 14


def _svg_document(xs, phi, target=None):
    """A fixed-size SVG plot over xs in [0, 1]: axes, phi and a dashed target,
    in parts, each polyline's points one part of their own.

    The x coordinates are written by one %-format over the whole column
    into a template with a %s slot for each y.  Each distinct polyline's
    y strings are "%.3f" % y, the correctly rounded y, from one %-format
    over the column, or over its first half when it reads the same
    reversed (_mirrored).  A target that is phi, the same list, is
    measured and written once.
    """
    left, right, top, bottom = 50.0, 790.0, 20.0, 380.0
    xs = [left + (right - left) * x for x in xs]
    columns = [phi] if target is None or target is phi else [phi, target]
    lo = min(0.0, *map(min, columns))
    hi = max(0.0, *map(max, columns))
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    height, span = bottom - top, hi - lo
    axis = bottom - height * ((0.0 - lo) / span)

    def y_strings(vals):
        ys = [bottom - height * ((v - lo) / span) for v in vals]
        return ("%.3f " * len(ys) % tuple(ys)).split()

    # "x,%s x,%s ...", the xs written once for every polyline
    template = " ".join(["%.3f,%%s"] * len(xs)) % tuple(xs)
    points = [template % tuple(_mirrored(vals, y_strings)) for vals in columns]
    styles = ['stroke="#1f77b4" stroke-width="1.5"']
    if target is not None:
        styles.append('stroke="#d62728" stroke-width="1.5" stroke-dasharray="6 3"')
    yield '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 400">\n'
    yield (
        f'<line x1="{left:.3f}" y1="{axis:.3f}" x2="{right:.3f}"'
        f' y2="{axis:.3f}" stroke="#888888" stroke-width="1" />\n'
    )
    yield (
        f'<line x1="{left:.3f}" y1="{top:.3f}" x2="{left:.3f}"'
        f' y2="{bottom:.3f}" stroke="#888888" stroke-width="1" />\n'
    )
    # phi's points first, the target's last: the same when they are equal
    for style, column_points in zip(styles, (points[0], points[-1])):
        yield from (f'<polyline fill="none" {style} points="', column_points, '" />\n')
    yield "</svg>\n"


def _grid_strings(g: int) -> list[str]:
    """str(Fraction(j, 2^g)) for j = 0..2^g, one %-format a level, no gcd:
    the odd multiples of 2^(g-i) have lowest terms of denominator 2^i."""
    l = 1 << g
    cells = ["0"] * (l + 1)
    cells[l] = "1"
    for i in range(1, g + 1):
        step, odd = l >> i, range(1, 1 << i, 2)
        cells[step :: 2 * step] = (f"%d/{1 << i} " * len(odd) % tuple(odd)).split()
    return cells


def _mirrored(values, fn, *args) -> list:
    """fn(values, *args) for an fn that maps each entry on its own.

    When values reads the same reversed, as the zero-orbit polygon and
    -q T_a do on j/2^g, fn runs on the first half (with the middle entry)
    and its result is mirrored; any other values take fn whole.
    """
    n = len(values)
    if values[: n // 2] != values[: (n - 1) // 2 : -1]:
        return fn(values, *args)
    half = fn(values[: (n + 1) // 2], *args)
    return half + half[: n // 2][::-1]


def _ratio_strings(ints, factor: Fraction, digits) -> list[str]:
    """str(i * factor), or its --digits decimal, for each i; no Fraction per i."""
    num, den = factor.numerator, factor.denominator
    if digits is not None:
        return [_decimal_string(Fraction(i * num, den), digits) for i in ints]
    nums = [i * num for i in ints]
    reduced = zip(nums, map(math.gcd, nums, repeat(den)))
    return [str(n // g) if g == den else f"{n // g}/{den // g}" for n, g in reduced]


def _csv_parts(header: str, cells):
    """The CSV text of the columns cells under header, _CSV_ROWS rows a part."""
    yield header + "\n"
    rows = map(",".join, zip(*cells))
    for _start in range(0, len(cells[0]), _CSV_ROWS):
        yield "\n".join([*islice(rows, _CSV_ROWS), ""])


def _cmd_curve(args) -> int:
    p = _parse_qparam(args.q)
    l = args.l
    _check_level("--l", l, p)
    if not p.is_curve_regime and not args.explore:
        print(
            f"qdigits curve: no limiting curve for q = {p.q}; the regime"
            " requirement is |q| > 1/2.  Pass --explore to emit the"
            " normalised polygon anyway (no target column).",
            file=sys.stderr,
        )
        return 2
    if args.digits is not None:
        cells = (l + 1) * (3 if p.is_curve_regime else 2)
        cost = cells * (args.digits + 8)
        _DECIMAL_WORK.charge(cost, digits=args.digits, l=l, cells=cells)

    fhat_text = None
    if args.fhat_out is not None:
        # sampled before the curve, so that a bad f-hat input exits 2
        # before any output is written
        n = args.fhat_points
        if n < 1:
            raise _CliError(f"--fhat-points must be >= 1, got {n}")
        # a float in [1/2, 1] has a denominator of at most 2^53
        _terms, work = _series_work(p.a, DEFAULT_SERIES_TOL, 53)
        _FHAT_WORK.charge((n + 1) * work, n=n, points=n + 1, work=work)
        lines = ["u,fhat"]
        for i in range(n + 1):
            u = i / n
            lines.append(f"{u!r},{f_hat_float(u, p)!r}")
        fhat_text = "\n".join(lines) + "\n"

    # every column is (ints, factor), worth ints[j] * factor at t = j/l
    g = l.bit_length() - 1
    columns = [(range(l + 1), Fraction(1, l)), _zero_orbit_scaled(l, p, args.norm)]
    header = "t,phi"
    same = False
    if p.is_curve_regime:
        columns.append(_target_scaled(g, p))
        header += ",target"
        # identity (8): the analytic phi is the target, so format it once
        (devs, factor), (tak, tak_factor) = columns[1:]
        ds, ts, _den = _cross_scales(factor, tak_factor)
        same = _mirrored(devs, _scaled, ds) == _mirrored(tak, _scaled, ts)
    if same:
        del columns[2]
    if args.digits is None:
        cells = [_grid_strings(g)]
        cells += [_mirrored(ints, _ratio_strings, f, None) for ints, f in columns[1:]]
    else:
        cells = [_mirrored(ints, _ratio_strings, f, args.digits) for ints, f in columns]
    if same:
        cells.append(cells[1])
    _write_text(args.out, _csv_parts(header, cells))
    del cells

    if args.svg is not None:
        # int / int is correctly rounded, so each float equals float(Fraction)
        def quotients(ints, n, d):
            return [i * n / d for i in ints]

        floats = [_mirrored(ints, quotients, *f.as_integer_ratio()) for ints, f in columns]
        if same:
            floats.append(floats[1])
        _write_text(args.svg, _svg_document(*floats))

    if fhat_text is not None:
        _write_text(args.fhat_out, (fhat_text,))
    return 0


# ---------------------------------------------------------------------------
# bridge
# ---------------------------------------------------------------------------


def _cmd_bridge(args) -> int:
    p = _parse_qparam(args.q)
    if not Fraction(1, 2) < abs(p.q) < 1:
        print(
            f"qdigits bridge: the experiment needs 1/2 < |q| < 1, got q = {p.q}",
            file=sys.stderr,
        )
        return 2
    bridge = _experiment(args, p)
    doc = {
        "experiment": "limiting-curve decay",
        "q": str(bridge.q),
        "seed": bridge.seed,
        "state": bridge.description,
        "register_length": bridge.register_length,
        "grid_exponent": args.grid_exponent,
        "levels": [
            {
                "r": lvl.run_length,
                "n_j": lvl.position,
                "m_j": lvl.prefix_end,
                "l_j": str(1 << lvl.position),
                "ratio": float(lvl.ratio),
                "R": str(lvl.normalizer),
                "grid_points": (1 << lvl.grid_exponent) + 1,
                "sup_distance": float(lvl.sup_distance),
                "sup_distance_exact": str(lvl.sup_distance),
            }
            for lvl in bridge.levels
        ],
        "sup_distances": [float(d) for d in bridge.sup_distances],
        "strictly_decreasing": bridge.decay_strictly_decreasing,
        "notes": list(bridge.notes),
    }
    import json

    _write_text(args.out, (json.dumps(doc, indent=2) + "\n",))
    return 0 if bridge.decay_strictly_decreasing else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


# one parser for every main call: parse_args keeps no state between calls
# and argparse looks up sys.stdout and sys.stderr only when it prints
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdigits",
        description=(
            "Exact rational tools for weighted binary digit sums, their"
            " summatory closed forms, Takagi-Landsberg curves, and limiting"
            " curves of odometer ergodic sums."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate one quantity exactly")
    ev_sub = ev.add_subparsers(dest="target", required=True)

    ev_s = ev_sub.add_parser("s", help="weighted digit sum s_q(n)")
    ev_s.add_argument("--q", required=True, help='weight, e.g. "3/4"')
    ev_s.add_argument("--n", type=int, required=True)
    ev_s.add_argument("--digits", type=int, help="decimal output precision")

    ev_big_s = ev_sub.add_parser("S", help="summatory sum S_q(n)")
    ev_big_s.add_argument("--q", required=True, help='weight, e.g. "3/4"')
    ev_big_s.add_argument("--n", type=int, required=True)
    ev_big_s.add_argument(
        "--method",
        choices=["fast", "oracle"],
        default="fast",
        help="fast: binary splitting on the bits of n; oracle: definitional sum",
    )
    ev_big_s.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET)
    ev_big_s.add_argument("--digits", type=int, help="decimal output precision")

    ev_tak = ev_sub.add_parser("takagi", help="curve value T_a(x)")
    which = ev_tak.add_mutually_exclusive_group(required=True)
    which.add_argument("--a", help='curve parameter, e.g. "2/3"')
    which.add_argument("--q", help="weight; the curve parameter is 1/(2q)")
    ev_tak.add_argument("--x", required=True, help="argument in [0, 1]")
    ev_tak.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_SERIES_TOL,
        help="certified series tolerance for non-dyadic x",
    )
    ev_tak.add_argument("--digits", type=int, help="decimal output precision")

    ev_td = ev_sub.add_parser("td", help="average digit sum S_q(n)/n")
    ev_td.add_argument("--n", type=int, required=True)
    weight = ev_td.add_mutually_exclusive_group()
    weight.add_argument("--q", help='weight, e.g. "3/4"')
    weight.add_argument(
        "--classical",
        action="store_const",
        const="1",
        dest="q",
        help="plain popcount average, the same as --q 1",
    )
    ev_td.add_argument("--digits", type=int, help="decimal output precision")

    vf = sub.add_parser("verify", help="run an identity suite")
    vf.add_argument(
        "--suite",
        required=True,
        choices=["recurrences", "gprofile", "prop1", "derham", "theorem1"],
    )
    vf.add_argument("--q", required=True, help='weight, e.g. "3/4"')
    vf.add_argument("--nmax", type=int, default=64, help="scan ceiling")
    vf.add_argument(
        "--lmax", type=int, default=4096, help="largest level (power of two)"
    )
    vf.add_argument(
        "--use-printed-forms",
        action="store_true",
        help="scan the circulating variant exponents instead (they fail)",
    )
    vf.add_argument("--json", action="store_true", help="machine-readable report")
    vf.add_argument("--seed", type=int, default=42)
    vf.add_argument("--r", default="4,8,12", help="run lengths, comma separated")
    vf.add_argument("--register-length", type=int, default=8192)
    vf.add_argument("--grid-exponent", type=int, default=8)
    vf.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET)

    cv = sub.add_parser("curve", help="emit a fluctuation curve as CSV/SVG")
    cv.add_argument("--q", required=True, help='weight, e.g. "3/4"')
    cv.add_argument("--l", type=int, required=True, help="level (power of two)")
    cv.add_argument("--norm", choices=["analytic", "canonical"], default="analytic")
    cv.add_argument("--out", help="CSV path (stdout when omitted)")
    cv.add_argument("--svg", help="also render an SVG plot to this path")
    cv.add_argument("--digits", type=int, help="decimal output precision")
    cv.add_argument(
        "--explore",
        action="store_true",
        help="allow |q| <= 1/2 and emit the polygon without a target column",
    )
    cv.add_argument("--fhat-out", help="also sample the periodic factor to CSV")
    cv.add_argument("--fhat-points", type=int, default=256)

    br = sub.add_parser("bridge", help="stabilising-level decay experiment")
    br.add_argument("--q", required=True, help='weight with 1/2 < |q| < 1')
    start = br.add_mutually_exclusive_group()
    start.add_argument("--seed", type=int, help="seed for the random register")
    start.add_argument("--state", choices=["zero"], help="explicit start register")
    br.add_argument("--r", default="4,8,12", help="run lengths, comma separated")
    br.add_argument("--register-length", type=int, default=8192)
    br.add_argument("--grid-exponent", type=int, default=8)
    br.add_argument("--out", help="JSON path (stdout when omitted)")

    return parser


def main(argv=None) -> int:
    # exact answers routinely run past Python's 4300-digit limit on int
    # <-> str conversion; lift it for this call only, so that in-process
    # callers keep their own setting
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "eval": _cmd_eval,
        "verify": _cmd_verify,
        "curve": _cmd_curve,
        "bridge": _cmd_bridge,
    }
    try:
        digits = getattr(args, "digits", None)
        if digits is not None:
            if digits < 0:
                raise _CliError("--digits must be >= 0")
            _DIGITS.charge(digits)
        _ORACLE_BUDGET.charge(getattr(args, "budget", 0))
        return handlers[args.command](args)
    except (NoStabilizingLevelError, RegisterOverflowError) as exc:
        print(f"qdigits {args.command}: {exc}", file=sys.stderr)
        return 1
    except (_CliError, ValueError) as exc:
        print(f"qdigits: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
