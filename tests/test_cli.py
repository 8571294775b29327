"""End-to-end CLI contract: outputs, formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qdigits.cli as cli
import qdigits.digitsum as digitsum
from qdigits.cli import main
from qdigits.digitsum import QParam, partial_sum_fast, partial_sum_prefix, weighted_digit_sum
from qdigits.limiting_curve import (
    build_fluctuation_curve,
    canonical_normalizer,
    target_curve,
    theorem1_experiment,
)
from qdigits.odometer import OdometerState
from golden import COMMANDS, GOLDEN
from test_limiting_curve import level_polygon

FROZEN_CURVE_CSV = (
    "t,phi,target\n"
    "0,0,0\n"
    "1/4,-7/16,-7/16\n"
    "1/2,-3/8,-3/8\n"
    "3/4,-7/16,-7/16\n"
    "1,0,0\n"
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def svg_reference(xs, phi, target=None) -> str:
    """The SVG plot written one f-string per coordinate: the oracle for
    cli._svg_document's one %-format per column."""
    left, right, top, bottom = 50.0, 790.0, 20.0, 380.0
    xs = [f"{left + (right - left) * x:.3f}" for x in xs]
    series = [(phi, 'stroke="#1f77b4" stroke-width="1.5"')]
    if target is not None:
        series.append(
            (target, 'stroke="#d62728" stroke-width="1.5" stroke-dasharray="6 3"')
        )
    lo = min(0.0, *(min(vals) for vals, _style in series))
    hi = max(0.0, *(max(vals) for vals, _style in series))
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad
    height, span = bottom - top, hi - lo
    axis = bottom - height * ((0.0 - lo) / span)
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 400">']
    parts.append(
        f'<line x1="{left:.3f}" y1="{axis:.3f}" x2="{right:.3f}"'
        f' y2="{axis:.3f}" stroke="#888888" stroke-width="1" />'
    )
    parts.append(
        f'<line x1="{left:.3f}" y1="{top:.3f}" x2="{left:.3f}"'
        f' y2="{bottom:.3f}" stroke="#888888" stroke-width="1" />'
    )
    for vals, style in series:
        ys = [bottom - height * ((v - lo) / span) for v in vals]
        points = " ".join([f"{x},{y:.3f}" for x, y in zip(xs, ys)])
        parts.append(f'<polyline fill="none" {style} points="{points}" />')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def assert_curve_files(csv, svg, columns, digits):
    """csv and svg hold the Fraction columns t, phi (and target, when
    given): each cell str() or _decimal_string of its value, and the plot
    svg_reference over float() of the same values."""
    header = ",".join(["t", "phi", "target"][: len(columns)])
    if digits is None:
        cell = str
    else:
        def cell(v):
            return cli._decimal_string(v, digits)
    lines = [header] + [",".join(map(cell, row)) for row in zip(*columns)]
    assert csv.read_bytes() == "".join(f"{line}\n" for line in lines).encode()
    floats = [[float(v) for v in column] for column in columns]
    assert svg.read_bytes() == svg_reference(*floats).encode()


class TestEval:
    def test_summatory(self, capsys):
        code, out, _ = run(capsys, ["eval", "S", "--q", "3/4", "--n", "4"])
        assert (code, out) == (0, "21/8\n")

    def test_summatory_oracle_route(self, capsys):
        code, out, _ = run(
            capsys, ["eval", "S", "--q", "3/4", "--n", "4", "--method", "oracle"]
        )
        assert (code, out) == (0, "21/8\n")

    def test_digit_sum(self, capsys):
        code, out, _ = run(capsys, ["eval", "s", "--q", "3/4", "--n", "3"])
        assert (code, out) == (0, "21/16\n")

    def test_takagi_dyadic(self, capsys):
        code, out, _ = run(capsys, ["eval", "takagi", "--a", "1/4", "--x", "1/2"])
        assert (code, out) == (0, "1/2\n")

    def test_takagi_from_weight(self, capsys):
        code, out, _ = run(capsys, ["eval", "takagi", "--q", "3/4", "--x", "1/4"])
        assert (code, out) == (0, "7/12\n")

    def test_takagi_non_dyadic_certified(self, capsys):
        code, out, _ = run(capsys, ["eval", "takagi", "--a", "1/2", "--x", "1/3"])
        assert code == 0
        assert abs(float(out) - 2 / 3) <= 1e-11

    def test_takagi_non_dyadic_digits(self, capsys):
        # the certified series value is a float, so --digits formats a float
        argv = ["eval", "takagi", "--a", "2/3", "--x", "1/3", "--digits", "6"]
        assert run(capsys, argv) == (0, "1.000000\n", "")

    def test_takagi_at_a_zero(self, capsys):
        # T_0(x) is the distance from x to the nearest integer: one term
        argv = ["eval", "takagi", "--a", "0", "--x", "1/3"]
        assert run(capsys, argv) == (0, "0.3333333333333333\n", "")

    def test_td_classical(self, capsys):
        code, out, _ = run(capsys, ["eval", "td", "--classical", "--n", "3"])
        assert (code, out) == (0, "2/3\n")

    def test_td_weighted_decimal(self, capsys):
        code, out, _ = run(
            capsys, ["eval", "td", "--q", "3/4", "--n", "5", "--digits", "6"]
        )
        assert (code, out) == (0, "0.609375\n")

    def test_decimal_rounding_ties_to_even(self, capsys):
        code, out, _ = run(capsys, ["eval", "s", "--q", "1/8", "--n", "1", "--digits", "2"])
        assert (code, out) == (0, "0.12\n")

    def test_td_needs_weight_or_classical(self, capsys):
        code, _, err = run(capsys, ["eval", "td", "--n", "3"])
        assert code == 2
        assert "qdigits:" in err

    def test_td_weight_and_classical_exclude_each_other(self, capsys, monkeypatch):
        # --classical is --q 1, so the two together name two weights
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated with both --q and --classical")

        monkeypatch.setattr(cli, "td_generalized", refuse)
        code, out, err = run(capsys, ["eval", "td", "--classical", "--q", "3/4", "--n", "5"])
        assert (code, out) == (2, "")
        assert "not allowed with argument" in err

    def test_rejects_bad_weight(self, capsys):
        assert run(capsys, ["eval", "S", "--q", "abc", "--n", "4"])[0] == 2
        assert run(capsys, ["eval", "S", "--q", "0", "--n", "4"])[0] == 2

    @pytest.mark.parametrize("x", ["1/3", "1/4"])
    def test_negative_digits_before_evaluation(self, capsys, monkeypatch, x):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated before the --digits check")

        monkeypatch.setattr(cli, "takagi_series", refuse)
        monkeypatch.setattr(cli, "takagi_dyadic_exact", refuse)
        code, out, err = run(
            capsys, ["eval", "takagi", "--a", "2/3", "--x", x, "--digits", "-1"]
        )
        assert (code, out, err) == (2, "", "qdigits: --digits must be >= 0\n")

    @pytest.mark.parametrize(
        "command", [["takagi", "--a", "2/3", "--x", "1/3"], ["td", "--q", "3/4", "--n", "5"]]
    )
    def test_digits_over_bound_before_evaluation(self, capsys, monkeypatch, command):
        def refuse(*args, **kwargs):
            raise AssertionError("evaluated before the --digits check")

        for name in ("takagi_series", "takagi_dyadic_exact", "td_generalized"):
            monkeypatch.setattr(cli, name, refuse)
        code, out, err = run(capsys, ["eval", *command, "--digits", "100001"])
        assert (code, out, err) == (2, "", "qdigits: --digits must be <= 100000\n")

    def test_digits_at_bound(self, capsys):
        argv = ["eval", "S", "--q", "3/4", "--n", "4", "--digits", "100000"]
        code, out, _ = run(capsys, argv)
        assert (code, out) == (0, "2.625" + "0" * 99997 + "\n")  # S(4) = 21/8

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tol(self, capsys, tol):
        code, out, err = run(
            capsys, ["eval", "takagi", "--a", "2/3", "--x", "1/3", "--tol", tol]
        )
        assert (code, out) == (2, "")
        assert err.startswith("qdigits: tol must be positive and finite")

    def test_tol_at_zero_term_bound(self, capsys):
        # at a = 1/2 the empty sum is within 1/(2(1-|a|)) = 1 of T_a(x)
        code, out, err = run(
            capsys, ["eval", "takagi", "--a", "1/2", "--x", "1/3", "--tol", "1.5"]
        )
        assert (code, out) == (2, "")
        assert err.startswith("qdigits: tol must be below the zero-term bound")

    def test_usage_errors(self, capsys):
        assert main([]) == 2
        assert main(["eval", "S", "--q", "3/4"]) == 2  # missing --n
        assert main(["eval", "takagi", "--a", "1/4", "--q", "3/4", "--x", "0"]) == 2
        capsys.readouterr()

    def test_summatory_past_the_int_string_limit(self, capsys):
        # a 5000-digit n: parsing it and printing S_q(n) both exceed the
        # interpreter's default 4300-digit int <-> str limit (where the
        # interpreter has one)
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
        previous = get_limit()
        set_limit(0)
        try:
            n = 10**4999 + 12345
            n_text = str(n)
            want = str(partial_sum_fast(n, QParam(F(3, 4)))) + "\n"
            set_limit(4300)  # the interpreter default, which main must lift
            expected = get_limit()
            code, out, err = run(capsys, ["eval", "S", "--q", "3/4", "--n", n_text])
            restored = get_limit()
        finally:
            set_limit(previous)
        assert (code, err) == (0, "")
        assert out == want
        assert restored == expected  # main puts the caller's limit back

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestVerify:
    def test_recurrences_pass(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--suite", "recurrences", "--q", "3/4", "--nmax", "16"]
        )
        assert code == 0
        assert "ALL CHECKS PASS" in out

    def test_printed_forms_fail_with_counterexample(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "verify", "--suite", "recurrences", "--q", "3/4",
                "--nmax", "16", "--use-printed-forms",
            ],
        )
        assert code == 1
        assert "SOME CHECKS FAILED" in out
        assert "n=2:" in out

    def test_printed_forms_fail_at_q_one(self, capsys):
        # at q = 1 the variant closed form of S(2^k) is (k - 1) 2^(k-1)
        code, out, _ = run(
            capsys,
            [
                "verify", "--suite", "recurrences", "--q", "1",
                "--nmax", "8", "--use-printed-forms",
            ],
        )
        assert code == 1
        (line,) = [line for line in out.splitlines() if "S-pow2" in line]
        assert line.startswith("[FAIL] S-pow2:")
        assert line.endswith("first counterexample: k=2: 4 != 2")

    def test_json_report(self, capsys):
        code, out, _ = run(
            capsys,
            ["verify", "--suite", "recurrences", "--q", "3/4", "--nmax", "8", "--json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["checks"][0]["name"] == "s-even"
        assert set(doc) == {"title", "params", "passed", "checks", "notes"}

    def test_gprofile(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--suite", "gprofile", "--q", "3/4", "--nmax", "16"]
        )
        assert code == 0

    def test_prop1(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--suite", "prop1", "--q", "3/4", "--lmax", "16"]
        )
        assert code == 0
        assert "bridge-l-16" in out

    def test_prop1_rejects_non_power(self, capsys):
        assert run(capsys, ["verify", "--suite", "prop1", "--q", "3/4", "--lmax", "12"])[0] == 2

    def test_derham(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "derham", "--q", "3/4"])
        assert code == 0
        assert "solver-matches-curve" in out
        assert "solver-matches-profile" in out

    def test_theorem1_decay(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "verify", "--suite", "theorem1", "--q", "3/4", "--seed", "0",
                "--r", "2,4,6", "--register-length", "256",
            ],
        )
        assert code == 0
        assert "decay-r2-to-r4" in out
        assert "decay-r4-to-r6" in out

    def test_theorem1_no_level_is_failure_not_crash(self, capsys):
        code, _, err = run(
            capsys,
            [
                "verify", "--suite", "theorem1", "--q", "3/4", "--seed", "1",
                "--r", "12", "--register-length", "8",
            ],
        )
        assert code == 1
        assert "qdigits verify:" in err

    def test_theorem1_negative_grid_exponent(self, capsys):
        code, _, err = run(
            capsys,
            ["verify", "--suite", "theorem1", "--q", "3/4", "--grid-exponent", "-3"],
        )
        assert code == 2
        assert "--grid-exponent must be >= 0, got -3" in err

    def test_regime_guard(self, capsys):
        code, _, err = run(capsys, ["verify", "--suite", "prop1", "--q", "1/2"])
        assert code == 2
        assert "|q| > 1/2" in err


class TestCurve:
    def test_frozen_csv(self, capsys):
        code, out, _ = run(capsys, ["curve", "--q", "3/4", "--l", "4"])
        assert code == 0
        assert out == FROZEN_CURVE_CSV

    def test_canonical_norm_has_sup_one(self, capsys):
        code, out, _ = run(capsys, ["curve", "--q", "3/4", "--l", "4", "--norm", "canonical"])
        assert code == 0
        phys = [F(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert max(abs(v) for v in phys) == 1
        assert phys == [0, -1, F(-6, 7), -1, 0]

    @pytest.mark.parametrize("digits", [None, 0, 3, 25])
    @pytest.mark.parametrize("norm", ["analytic", "canonical"])
    @pytest.mark.parametrize("l", [2, 8, 64, 1024])
    @pytest.mark.parametrize(
        "q", ["3/4", "-3/4", "2/3", "-2/3", "9/10", "1", "2", "1/2", "-1/2", "2/5"]
    )
    def test_csv_round_trips_to_exact_values(self, capsys, tmp_path, q, l, norm, digits):
        # the CLI writes from the orbit walk's scaled integers; the oracle
        # is the definitional Fraction route: str() or _decimal_string of
        # the polygon of partial_sum_prefix over (2q)^(j-1) or its largest
        # deviation, and of target_curve, and svg_reference over float()
        # of the same values
        p = QParam(F(q))
        csv, svg = tmp_path / "c.csv", tmp_path / "c.svg"
        # negative weights need the --q=value spelling; a bare "-3/4"
        # looks like an option flag to the argument parser
        argv = ["curve", f"--q={q}", "--l", str(l), "--norm", norm]
        argv += ["--out", str(csv), "--svg", str(svg)]
        if not p.is_curve_regime:
            argv.append("--explore")
        if digits is not None:
            argv += ["--digits", str(digits)]
        assert run(capsys, argv) == (0, "", "")

        sums = partial_sum_prefix(l, p)
        if norm == "analytic":
            normalizer = (2 * p.q) ** (l.bit_length() - 2)
        else:
            normalizer = canonical_normalizer(sums, l)
        curve = build_fluctuation_curve(sums, l, normalizer)
        columns = [[F(j, l) for j in range(l + 1)], curve.values]
        if p.is_curve_regime:
            columns.append(target_curve(l, p).values)
        assert_curve_files(csv, svg, columns, digits)

    @pytest.mark.parametrize("digits", [None, 12])
    @pytest.mark.parametrize("l", [2, 4, 64])
    @pytest.mark.parametrize("q", ["3/4", "-2/3", "9/10"])
    def test_target_off_the_mirror_takes_the_full_path(
        self, capsys, monkeypatch, tmp_path, q, l, digits
    ):
        # real columns read the same reversed, so _mirrored formats half of
        # each; a target grid with one cell right of t = 1/2 moved is no
        # palindrome and no longer phi, and must be written whole
        p, row = QParam(F(q)), l // 2 + 1
        real_target_scaled = cli._target_scaled

        def moved_target_scaled(g, p):
            tak, factor = real_target_scaled(g, p)
            return [t + (j == row) for j, t in enumerate(tak)], factor

        monkeypatch.setattr(cli, "_target_scaled", moved_target_scaled)
        csv, svg = tmp_path / "c.csv", tmp_path / "c.svg"
        argv = ["curve", f"--q={q}", "--l", str(l), "--out", str(csv), "--svg", str(svg)]
        if digits is not None:
            argv += ["--digits", str(digits)]
        assert run(capsys, argv) == (0, "", "")

        phi = target_curve(l, p).values  # identity (8)
        target = list(phi)
        target[row] += real_target_scaled(l.bit_length() - 1, p)[1]
        assert_curve_files(csv, svg, [[F(j, l) for j in range(l + 1)], phi, target], digits)
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        assert [j for j, (_t, y, z) in enumerate(rows) if y != z] == [row]

    def test_digits_formatting(self, capsys):
        code, out, _ = run(capsys, ["curve", "--q", "3/4", "--l", "4", "--digits", "3"])
        assert code == 0
        assert out.splitlines()[2] == "0.250,-0.438,-0.438"

    def test_regime_refusal_mentions_explore(self, capsys):
        code, _, err = run(capsys, ["curve", "--q", "1/2", "--l", "4"])
        assert code == 2
        assert "|q| > 1/2" in err
        assert "--explore" in err

    def test_explore_drops_target(self, capsys):
        code, out, _ = run(capsys, ["curve", "--q", "1/2", "--l", "4", "--explore"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,phi"
        assert all(line.count(",") == 1 for line in lines)

    def test_rejects_non_power_level(self, capsys):
        assert run(capsys, ["curve", "--q", "3/4", "--l", "6"])[0] == 2

    def test_file_outputs(self, capsys, tmp_path):
        csv = tmp_path / "curve.csv"
        svg = tmp_path / "curve.svg"
        fhat = tmp_path / "fhat.csv"
        code, out, _ = run(
            capsys,
            [
                "curve", "--q", "3/4", "--l", "8",
                "--out", str(csv), "--svg", str(svg),
                "--fhat-out", str(fhat), "--fhat-points", "16",
            ],
        )
        assert code == 0
        assert out == ""

        text = csv.read_text()
        assert text.startswith("t,phi,target\n")
        assert len(text.splitlines()) == 10

        doc = svg.read_text()
        assert doc.startswith('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 400">')
        assert doc.count("<polyline") == 2
        assert doc.rstrip().endswith("</svg>")

        fh = fhat.read_text().splitlines()
        assert fh[0] == "u,fhat"
        assert len(fh) == 18
        first = fh[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[1])) <= 1e-12

    def test_unwritable_output(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, ["curve", "--q", "3/4", "--l", "4", "--out", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith(f"qdigits: cannot write {path}: ")

    def test_deterministic_output(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, ["curve", "--q", "2/3", "--l", "32", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--q", "3/4", "--fhat-points", "0"],
                "--fhat-points must be >= 1, got 0",
            ),
            (["--q=-3/4"], "float sampling needs q > 0 for real powers q^u"),
            (["--q", "1"], "float sampling needs q != 1: its main term divides by 1 - q"),
        ],
    )
    def test_bad_fhat_input_exits_before_any_output(self, capsys, tmp_path, argv, message):
        csv = tmp_path / "c.csv"
        svg = tmp_path / "c.svg"
        fhat = tmp_path / "fhat.csv"
        code, out, err = run(
            capsys,
            ["curve", "--l", "4", "--out", str(csv), "--svg", str(svg)]
            + ["--fhat-out", str(fhat)] + argv,
        )
        assert (code, out, err) == (2, "", f"qdigits: {message}\n")
        assert not csv.exists()
        assert not svg.exists()
        assert not fhat.exists()

    def test_negative_digits_before_the_curve(self, capsys, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("curve built before the --digits check")

        monkeypatch.setattr(cli, "_zero_orbit_scaled", refuse)
        csv = tmp_path / "c.csv"
        code, out, err = run(
            capsys,
            ["curve", "--q", "3/4", "--l", "4", "--digits", "-1", "--out", str(csv)],
        )
        assert (code, out, err) == (2, "", "qdigits: --digits must be >= 0\n")
        assert not csv.exists()


palindromes = st.tuples(
    st.lists(st.integers(-3, 3), max_size=12), st.lists(st.integers(-3, 3), max_size=1)
).map(lambda parts: parts[0] + parts[1] + parts[0][::-1])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(-3, 3), max_size=25), palindromes))
@example([5])
@example([5, 5])
@example([5, 6])
@example([5, 6, 5])
@example([5, 6, 7])
@example([5, 5, 6])
@example([])
def test_mirrored_matches_fn_on_the_whole_list(xs):
    # an elementwise fn (the CSV cell writer) on the whole list, which a
    # palindrome hands over only up to its middle entry
    seen = []

    def cells(ints, factor, digits):
        seen.append(len(ints))
        return cli._ratio_strings(ints, factor, digits)

    for digits in (None, 3):
        seen.clear()
        got = cli._mirrored(xs, cells, F(-7, 6), digits)
        assert got == cli._ratio_strings(xs, F(-7, 6), digits)
        assert seen == [(len(xs) + 1) // 2 if xs == xs[::-1] else len(xs)]


@pytest.mark.parametrize("g", range(1, 13))
def test_grid_strings_are_the_lowest_terms_of_the_grid(g):
    # curve's t column, written from the dyadic levels with no gcd
    assert cli._grid_strings(g) == [str(F(j, 2**g)) for j in range(2**g + 1)]


class Reached(Exception):
    """Raised by a stubbed evaluator: the CLI got past its input checks."""


@pytest.mark.parametrize(
    "command, evaluators",
    [
        (["curve", "--q", "3/4", "--l"], ["f_hat_float", "_zero_orbit_scaled"]),
        (["verify", "--suite", "prop1", "--q", "3/4", "--lmax"], ["_scan_identity_8"]),
    ],
    ids=["curve", "prop1"],
)
def test_level_bound(capsys, monkeypatch, tmp_path, command, evaluators):
    def refuse(*args, **kwargs):
        raise Reached

    for name in evaluators:
        monkeypatch.setattr(cli, name, refuse)
    paths = [tmp_path / "c.csv", tmp_path / "c.svg", tmp_path / "f.csv"]
    files = []
    if command[0] == "curve":
        for flag, path in zip(["--out", "--svg", "--fhat-out"], paths):
            files += [flag, str(path)]
    code, out, err = run(capsys, [*command, str(2**21), *files])
    assert (code, out, err) == (2, "", f"qdigits: {command[-1]} must be <= 1048576\n")
    assert not any(path.exists() for path in paths)
    with pytest.raises(Reached):
        main([*command, str(2**20), *files])


def wide_q(bits):
    """A weight just below 1 whose larger term, 2^(bits - 1), has bits bits."""
    return F((1 << bits - 1) - 1, 1 << bits - 1)


@pytest.mark.parametrize(
    "command, evaluators",
    [
        (["curve", "--l"], ["f_hat_float", "_zero_orbit_scaled", "_target_scaled"]),
        (["verify", "--suite", "prop1", "--lmax"], ["_scan_identity_8"]),
    ],
    ids=["curve", "prop1"],
)
def test_level_work_bound(capsys, monkeypatch, tmp_path, command, evaluators):
    # at --l 4096, (12 x bits(q) + 256)^2 x 4097 <= 2^37 up to a 461-bit q
    def refuse(*args, **kwargs):
        raise Reached

    for name in evaluators:
        monkeypatch.setattr(cli, name, refuse)
    paths = [tmp_path / "c.csv", tmp_path / "c.svg", tmp_path / "f.csv"]
    files = []
    if command[0] == "curve":
        for flag, path in zip(["--out", "--svg", "--fhat-out"], paths):
            files += [flag, str(path)]
    code, out, err = run(capsys, [*command, "4096", f"--q={wide_q(462)}", *files])
    assert (code, out) == (2, "")
    assert err == (
        f"qdigits: {command[-1]} 4096: 4097 points x (12 x 462 + 256)^2, 462 the bits"
        " of q's larger term, must be <= 137438953472\n"
    )
    assert not any(path.exists() for path in paths)
    with pytest.raises(Reached):
        main([*command, "4096", f"--q={wide_q(461)}", *files])


def test_derham_charges_the_bits_of_q(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "DeRhamSystem", type("Refused", (), {"takagi": refuse}))
    for name in ["derham_consistency", "derham_eval", "fluctuation_system"]:
        monkeypatch.setattr(cli, name, refuse)
    command = ["verify", "--suite", "derham"]
    code, out, err = run(capsys, [*command, f"--q={wide_q(4097)}"])
    assert (code, out) == (2, "")
    assert err == (
        "qdigits: --suite derham takes a q of at most 4096 bits in its larger term,"
        " got 4097\n"
    )
    with pytest.raises(Reached):
        main([*command, f"--q={wide_q(4096)}"])


@pytest.mark.parametrize(
    "argv, over, at, message",
    [
        # 51 cells over the budget at --digits 100000, 27 within it
        (["--q", "9/10", "--digits", "100000"], "16", "8", "51 cells"),
        # two columns without a target: 34 cells, within it
        (["--q", "1/2", "--explore", "--digits", "100000"], "32", "16", "66 cells"),
        (["--q", "9/10", "--digits", "0"], str(2**18), str(2**17), "786435 cells"),
    ],
    ids=["digits-max", "explore", "digits-zero"],
)
def test_decimal_budget(capsys, monkeypatch, tmp_path, argv, over, at, message):
    def refuse(*args, **kwargs):
        raise Reached

    for name in ["f_hat_float", "_zero_orbit_scaled"]:
        monkeypatch.setattr(cli, name, refuse)
    paths = [tmp_path / "c.csv", tmp_path / "c.svg", tmp_path / "f.csv"]
    files = []
    for flag, path in zip(["--out", "--svg", "--fhat-out"], paths):
        files += [flag, str(path)]
    code, out, err = run(capsys, ["curve", "--l", over, *argv, *files])
    digits = argv[-1]
    assert (code, out) == (2, "")
    assert err == (
        f"qdigits: --digits {digits} at --l {over}: {message} x (digits + 8)"
        " must be <= 4194304\n"
    )
    assert not any(path.exists() for path in paths)
    with pytest.raises(Reached):
        main(["curve", "--l", at, *argv, *files])


@pytest.mark.parametrize(
    "over, at, message",
    [
        (["--grid-exponent", "21"], ["--grid-exponent", "20", "--register-length", "512"],
         "--grid-exponent must be <= 20"),
        (["--register-length", str(2**17 + 1)], ["--register-length", str(2**17)],
         "--register-length must be <= 131072"),
        # 2^17 grid points on the default 8192-digit register, and 2^16
        (["--grid-exponent", "17"], ["--grid-exponent", "16"],
         "2^(--grid-exponent) * --register-length must be <= 536870912"),
        # 2^17 digits times 5 bits (9/17), and times 4 bits (9/10)
        (["--q", "9/17", "--register-length", str(2**17)],
         ["--q", "9/10", "--register-length", str(2**17)],
         "--register-length * 5 (the bits of q's larger term) must be <= 524288"),
        (["--r", ",".join(map(str, range(1, 10)))], ["--r", ",".join(map(str, range(1, 9)))],
         "--r takes at most 8 run lengths"),
    ],
    ids=["grid", "register", "product", "q-bits", "r-count"],
)
@pytest.mark.parametrize(
    "command",
    [["bridge", "--q", "3/4", "--seed", "1"], ["verify", "--suite", "theorem1", "--q", "3/4"]],
    ids=["bridge", "theorem1"],
)
def test_experiment_bounds(capsys, monkeypatch, command, over, at, message):
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "theorem1_experiment", refuse)
    assert run(capsys, [*command, *over]) == (2, "", f"qdigits: {message}\n")
    with pytest.raises(Reached):
        main([*command, *at])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--register-length", "-5"], "--register-length must be >= 1, got -5"),
        (["--register-length", "0"], "--register-length must be >= 1, got 0"),
        (["--register-length", "8", "--r", "9", "--grid-exponent", "-1"],
         "--grid-exponent must be >= 0, got -1"),
    ],
    ids=["register-negative", "register-zero", "grid-negative"],
)
@pytest.mark.parametrize(
    "command",
    [["bridge", "--q", "3/4", "--seed", "1"], ["verify", "--suite", "theorem1", "--q", "3/4"]],
    ids=["bridge", "theorem1"],
)
def test_experiment_usage_errors(capsys, monkeypatch, command, argv, message):
    # usage errors exit 2 before a run length too long for the register
    # (exit 1) is reported
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "theorem1_experiment", refuse)
    assert run(capsys, [*command, *argv]) == (2, "", f"qdigits: {message}\n")


@pytest.mark.parametrize(
    "command, stderr",
    [
        (["bridge", "--seed", "1"],
         "qdigits bridge: the experiment needs 1/2 < |q| < 1, got q = 1/3\n"),
        (["verify", "--suite", "theorem1"],
         "qdigits: experiment needs 1/2 < |q| < 1, got q = 1/3\n"),
    ],
    ids=["bridge", "theorem1"],
)
def test_experiment_usage_errors_weight_first(capsys, monkeypatch, command, stderr):
    # a weight outside 1/2 < |q| < 1 is a usage error, reported before a
    # run length too long for the register (exit 1); bridge keeps its own
    # earlier check and text
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "theorem1_experiment", refuse)
    argv = [*command, "--q", "1/3", "--register-length", "8", "--r", "9"]
    assert run(capsys, argv) == (2, "", stderr)


def test_bridge_without_a_register_is_a_usage_error(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "theorem1_experiment", refuse)
    argv = ["bridge", "--q", "3/4", "--register-length", "8", "--r", "9"]
    assert run(capsys, argv) == (2, "", "qdigits: bridge needs --seed or --state zero\n")


@pytest.mark.parametrize(
    "command",
    [["bridge", "--q", "3/4", "--seed", "1"], ["verify", "--suite", "theorem1", "--q", "3/4"]],
    ids=["bridge", "theorem1"],
)
def test_run_length_past_the_register_walks_no_level(capsys, monkeypatch, command):
    # no register holds a run longer than itself: the experiment's own
    # outcome, exit 1, reported before the level of r = 4 is walked
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "theorem1_experiment", refuse)
    code, out, err = run(capsys, [*command, "--register-length", "8", "--r", "4,9"])
    assert (code, out) == (1, "")
    assert err == f"qdigits {command[0]}: no run of 9 zeros in the 8-digit register\n"
    with pytest.raises(Reached):
        main([*command, "--register-length", "8", "--r", "4,8"])


def test_series_budget_before_summing(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "takagi_series", refuse)
    code, out, err = run(capsys, ["eval", "takagi", "--a", "999999/1000000", "--x", "1/3"])
    assert (code, out) == (2, "")
    assert err.startswith("qdigits: a = 999999/1000000 at --tol 1e-12 needs about 4075")
    # at a = 1023/1024 and x = 1/3, 27574 terms are charged 8589521592 and
    # 27575 terms 8590136425; each tol lies half a term inside its count
    argv = ["eval", "takagi", "--a", "1023/1024", "--x", "1/3", "--tol"]
    code, out, err = run(capsys, [*argv, "1.020416311944234e-09"])
    assert (code, out) == (2, "")
    assert err == (
        "qdigits: a = 1023/1024 at --tol 1.020416311944234e-09 needs about 27575"
        " series terms; terms x (terms x bits(a) + bits(x) + 8192) must be"
        " <= 8589934592\n"
    )
    with pytest.raises(Reached):
        main([*argv, "1.0214137863449637e-09"])


@pytest.mark.parametrize(
    "argv, evaluator, over, at, message",
    [
        # e^3 (bits(a) + 1)^2 at a = 2/3: e = 4961 within 2^40, 4962 past it
        (["eval", "takagi", "--a", "2/3", "--x"], "takagi_dyadic_exact",
         f"1/{2**4962}", f"3/{2**4961}", "--x walks 4962 bits at a = 2/3"),
        # a 64-bit a: e = 631 within, 632 past
        (["eval", "takagi", "--a", f"{2**64 - 1}/{2**64}", "--x"], "takagi_dyadic_exact",
         f"1/{2**632}", f"1/{2**631}", f"--x walks 632 bits at a = {2**64 - 1}/{2**64}"),
        # a = 1/(2q) = 2/3, over the bits of --n
        (["eval", "td", "--q", "3/4", "--n"], "td_generalized",
         str(2**4961), str(2**4961 - 1), "--n walks 4962 bits at a = 2/3"),
        (["eval", "td", "--classical", "--n"], "td_generalized",
         str(2**4961), str(2**4961 - 1), "--n walks 4962 bits at a = 1/2"),
    ],
    ids=["takagi", "takagi-64-bit-a", "td", "td-classical"],
)
def test_dyadic_budget(capsys, monkeypatch, argv, evaluator, over, at, message):
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, evaluator, refuse)
    assert run(capsys, [*argv, over]) == (
        2,
        "",
        f"qdigits: {message}; bits^3 x (bits(a) + 1)^2 must be <= 1099511627776\n",
    )
    with pytest.raises(Reached):
        main([*argv, at])


@pytest.mark.parametrize(
    "argv, evaluator",
    [
        (["eval", "s"], "_digit_sum_fast"),
        (["eval", "S"], "partial_sum_fast"),
        (["eval", "S", "--method", "oracle"], "partial_sum_bruteforce"),
    ],
    ids=["s", "S", "S-oracle"],
)
@pytest.mark.parametrize(
    "q, at_bits, q_bits",
    # 131072 bits x 4 is the bound itself; 330 x 1585 is 523050, 331 x 1585
    # is 524635
    [("9/10", 131072, 4), (f"1/{3**1000}", 330, 1585)],
    ids=["9/10", "1585-bit-q"],
)
def test_sum_size_bound(capsys, monkeypatch, argv, evaluator, q, at_bits, q_bits):
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, evaluator, refuse)
    # n's decimal text passes the interpreter's 4300-digit default limit
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    previous = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit(0)
    try:
        over, at = str(1 << at_bits), str((1 << at_bits) - 1)
    finally:
        set_limit(previous)
    assert run(capsys, [*argv, f"--q={q}", "--n", over]) == (
        2,
        "",
        f"qdigits: --n has {at_bits + 1} bits; bits(--n) * {q_bits} (the bits of"
        " q's larger term) must be <= 524288\n",
    )
    with pytest.raises(Reached):
        main([*argv, f"--q={q}", "--n", at])


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(0, 1 << 20), st.integers(0, 1 << 300)),
    q=st.sampled_from([F(3, 4), F(-3, 4), F(5, 8), F(9, 10), F(7, 12), F(2, 3), F(1), F(5, 2)]),
)
@example(n=(1 << 64) - 1, q=F(3, 4))
@example(n=1 << 64, q=F(9, 10))
def test_eval_digit_sum_matches_oracle(n, q):
    # eval s reads s_q(n) off the summatory kernel; weighted_digit_sum adds
    # one Fraction per bit
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval", "s", f"--q={q}", "--n", str(n)])
    assert (code, out.getvalue()) == (0, f"{weighted_digit_sum(n, QParam(q))}\n")


@pytest.mark.parametrize("over", ["14634", str(10**8)])
def test_fhat_points_budget(capsys, monkeypatch, tmp_path, over):
    # at q = 3/4 each point sums 70 terms: 70 * (70 * 2 + 53 + 8192) = 586950
    def refuse(*args, **kwargs):
        raise Reached

    for name in ["f_hat_float", "_zero_orbit_scaled"]:
        monkeypatch.setattr(cli, name, refuse)
    paths = [tmp_path / "c.csv", tmp_path / "c.svg", tmp_path / "f.csv"]
    files = []
    for flag, path in zip(["--out", "--svg", "--fhat-out"], paths):
        files += [flag, str(path)]
    argv = ["curve", "--q", "3/4", "--l", "4", *files, "--fhat-points"]
    code, out, err = run(capsys, [*argv, over])
    assert (code, out) == (2, "")
    assert err == (
        f"qdigits: --fhat-points {over}: {int(over) + 1} points x 586950 per point"
        " must be <= 8589934592\n"
    )
    assert not any(path.exists() for path in paths)
    with pytest.raises(Reached):
        main([*argv, "14633"])


def test_recurrence_budget_before_the_oracle(capsys, monkeypatch):
    # the oracle would list all 3 nmax + 2 checkpoints before its own check
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(digitsum, "partial_sum_bruteforce_at", refuse)
    command = ["verify", "--suite", "recurrences", "--q", "3/4", "--nmax"]
    code, out, err = run(capsys, [*command, str(10**8)])
    assert (code, out) == (2, "")
    assert err == "qdigits: brute-force request n=300000002 exceeds budget 1048576\n"
    assert run(capsys, [*command, "10", "--budget", "31"])[0] == 2
    with pytest.raises(Reached):
        main([*command, "10", "--budget", "32"])


@pytest.mark.parametrize(
    "argv, evaluator",
    [
        (["eval", "S", "--q", "3/4", "--n", "10", "--method", "oracle"],
         "partial_sum_bruteforce"),
        (["verify", "--suite", "recurrences", "--q", "3/4"], "check_bit_recurrences"),
    ],
    ids=["eval-S-oracle", "recurrences"],
)
def test_oracle_budget_bound(capsys, monkeypatch, argv, evaluator):
    # the oracle runs as many terms as --budget admits; the default 2^20 is
    # the bound
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, evaluator, refuse)
    for over in ["1048577", str(10**12)]:
        assert run(capsys, [*argv, "--budget", over]) == (
            2,
            "",
            "qdigits: --budget must be <= 1048576\n",
        )
    for at in [[], ["--budget", "1048576"]]:
        with pytest.raises(Reached):
            main([*argv, *at])


# a q whose larger term, 2^1585, has 1586 bits
WIDE_Q = f"{2**1584 + 1}/{2**1585}"


def term_bound_message(flag, terms, q_bits, limit):
    return (
        f"qdigits: {flag} {terms} x ({q_bits} + 64), {q_bits} the bits of q's"
        f" larger term, must be <= {limit}\n"
    )


@pytest.mark.parametrize(
    "suite, evaluator",
    [("gprofile", "check_g_identities"), ("recurrences", "check_bit_recurrences")],
)
@pytest.mark.parametrize("q, q_bits, at", [("3/4", 3, 3912), (WIDE_Q, 1586, 158)])
def test_scan_bound(capsys, monkeypatch, suite, evaluator, q, q_bits, at):
    # --nmax (bits(q) + 64) <= 2^18, before the scan starts; 349524 is the
    # largest --nmax the default --budget admits to the recurrences' oracle
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, evaluator, refuse)
    argv = ["verify", "--suite", suite, f"--q={q}", "--nmax"]
    for over in [at + 1, 349524]:
        assert run(capsys, [*argv, str(over)]) == (
            2,
            "",
            term_bound_message("--nmax", over, q_bits, 262144),
        )
    with pytest.raises(Reached):
        main([*argv, str(at)])


def test_oracle_charges_the_bits_of_q(capsys, monkeypatch):
    # n (bits(q) + 64) <= 2^27, before the oracle sums a term; an n past
    # --budget is left to the oracle, which refuses it itself
    def refuse(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, "partial_sum_bruteforce", refuse)
    argv = ["eval", "S", f"--q={WIDE_Q}", "--method", "oracle", "--n"]
    for over in [81345, 2**20]:
        assert run(capsys, [*argv, str(over)]) == (
            2,
            "",
            term_bound_message("--n", over, 1586, 134217728),
        )
    for at in [["81344"], [str(2**20 + 1)], ["81345", "--budget", "81344"]]:
        with pytest.raises(Reached):
            main([*argv, *at])
    # at q = 3/4 the bound lies past 2^20, so --budget binds first
    with pytest.raises(Reached):
        main(["eval", "S", "--q", "3/4", "--method", "oracle", "--n", str(2**20)])


def exponent_message(flag):
    return f"qdigits: {flag}'s decimal exponent must be between -524288 and 524288\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["eval", "S", "--n", "5"], "--q"),
        (["eval", "takagi", "--q", "3/4"], "--x"),
        (["eval", "takagi", "--x", "1/3"], "--a"),
    ],
    ids=["q", "x", "a"],
)
@pytest.mark.parametrize(
    # each within a second of Fraction's reach, so that a lost check fails fast
    "text", ["1e600000", "-1e-600000", " 2.5E+1_000_000 ", ".5e-524289"]
)
def test_decimal_exponent_bound(capsys, monkeypatch, argv, flag, text):
    # refused before Fraction expands 10^|E|
    parsed = []

    def fraction(*args):
        parsed.append(args)
        return F(*args)

    monkeypatch.setattr(cli, "Fraction", fraction)
    assert run(capsys, [*argv, f"{flag}={text}"]) == (2, "", exponent_message(flag))
    assert (text,) not in parsed


def test_decimal_exponent_at_the_bound(capsys):
    # 10^524288 has 1741648 bits: parsed, then refused by the size row
    for text in ["1e-524288", "1E524_288"]:
        assert run(capsys, ["eval", "S", "--q", text, "--n", "5"]) == (
            2,
            "",
            "qdigits: --n has 3 bits; bits(--n) * 1741648 (the bits of q's larger"
            " term) must be <= 524288\n",
        )
    # only a decimal exponent is priced: other spellings reach Fraction
    assert run(capsys, ["eval", "S", "--q", "75e-2", "--n", "4"]) == (0, "21/8\n", "")
    code, out, err = run(capsys, ["eval", "S", "--q", "1/2e9999999", "--n", "4"])
    assert (code, out) == (2, "")
    assert err.startswith("qdigits: invalid q: '1/2e9999999' (")


# every cli._Budget row: sample fields and the message they give; a row with
# no entry here fails test_budget_rows
BUDGET_MESSAGES = {
    "_EXPONENT": (
        {"flag": "--q"}, "--q's decimal exponent must be between -524288 and 524288"
    ),
    "_DIGITS": ({}, "--digits must be <= 100000"),
    "_LEVEL": ({"flag": "--lmax"}, "--lmax must be <= 1048576"),
    "_GRID_EXPONENT": ({}, "--grid-exponent must be <= 20"),
    "_DECIMAL_WORK": (
        {"digits": 100000, "l": 16, "cells": 51},
        "--digits 100000 at --l 16: 51 cells x (digits + 8) must be <= 4194304",
    ),
    "_REGISTER": ({}, "--register-length must be <= 131072"),
    "_GRID_BITS": ({}, "2^(--grid-exponent) * --register-length must be <= 536870912"),
    "_REGISTER_Q_BITS": (
        {"what": "--register-length", "q_bits": 5},
        "--register-length * 5 (the bits of q's larger term) must be <= 524288",
    ),
    "_RUN_LENGTHS": ({}, "--r takes at most 8 run lengths"),
    "_SERIES_WORK": (
        {"a": F(1023, 1024), "tol": 1e-09, "terms": 27575},
        "a = 1023/1024 at --tol 1e-09 needs about 27575 series terms; terms x"
        " (terms x bits(a) + bits(x) + 8192) must be <= 8589934592",
    ),
    "_FHAT_WORK": (
        {"n": 14634, "points": 14635, "work": 586950},
        "--fhat-points 14634: 14635 points x 586950 per point must be <= 8589934592",
    ),
    "_DYADIC_WORK": (
        {"what": "--x", "e": 4962, "a": F(2, 3)},
        "--x walks 4962 bits at a = 2/3; bits^3 x (bits(a) + 1)^2 must be"
        " <= 1099511627776",
    ),
    "_ORACLE_BUDGET": ({}, "--budget must be <= 1048576"),
    "_ORACLE_WORK": (
        {"flag": "--n", "terms": 81345, "q_bits": 1586},
        "--n 81345 x (1586 + 64), 1586 the bits of q's larger term, must be"
        " <= 134217728",
    ),
    "_SCAN_WORK": (
        {"flag": "--nmax", "terms": 3913, "q_bits": 3},
        "--nmax 3913 x (3 + 64), 3 the bits of q's larger term, must be <= 262144",
    ),
    "_LEVEL_WORK": (
        {"flag": "--l", "l": 4096, "points": 4097, "g": 12, "q_bits": 513},
        "--l 4096: 4097 points x (12 x 513 + 256)^2, 513 the bits of q's larger"
        " term, must be <= 137438953472",
    ),
    "_DERHAM_Q_BITS": (
        {"q_bits": 4097},
        "--suite derham takes a q of at most 4096 bits in its larger term, got 4097",
    ),
}


class Formatted(Exception):
    """Raised by Unformattable.__format__: a message was built."""


class Unformattable:
    def __format__(self, spec):
        raise Formatted


@pytest.mark.parametrize(
    "name", sorted(k for k, v in vars(cli).items() if isinstance(v, cli._Budget))
)
def test_budget_rows(name):
    row = getattr(cli, name)
    fields, message = BUDGET_MESSAGES[name]
    row.charge(row.limit, **fields)
    with pytest.raises(cli._CliError) as exc:
        row.charge(row.limit + 1, **fields)
    assert str(exc.value) == message
    # within the limit no field is formatted: a may be a huge Fraction
    lazy = dict.fromkeys(fields, Unformattable())
    row.charge(row.limit, **lazy)
    if fields:
        with pytest.raises(Formatted):
            row.charge(row.limit + 1, **lazy)


def test_one_parser_serves_every_call(capsys):
    argvs = [["curve", "--l", "4"], ["--help"], ["curve", "--q", "3/4", "--l", "4"]]
    alone = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        alone.append(run(capsys, argv))
    assert [code for code, _, _ in alone] == [2, 0, 0]
    cli.build_parser.cache_clear()
    assert [run(capsys, argv) for argv in argvs] == alone


class TestBridge:
    def test_zero_state_single_level(self, capsys):
        code, out, _ = run(
            capsys,
            ["bridge", "--q", "3/4", "--state", "zero", "--register-length", "64", "--r", "4"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["experiment"] == "limiting-curve decay"
        assert doc["q"] == "3/4"
        assert doc["seed"] is None
        assert doc["state"] == "zero"
        assert doc["sup_distances"] == [0.0]
        assert doc["strictly_decreasing"] is True
        lvl = doc["levels"][0]
        assert set(lvl) >= {"r", "n_j", "m_j", "l_j", "ratio", "R", "sup_distance"}
        assert (lvl["r"], lvl["n_j"], lvl["l_j"]) == (4, 4, "16")
        assert lvl["R"] == "27/8"
        assert lvl["sup_distance_exact"] == "0"

    def test_zero_state_cannot_decay_further(self, capsys):
        # both levels sit exactly on the limit curve; 0 is not < 0
        code, out, _ = run(
            capsys,
            ["bridge", "--q", "3/4", "--state", "zero", "--register-length", "64", "--r", "2,3"],
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["sup_distances"] == [0.0, 0.0]
        assert doc["strictly_decreasing"] is False

    def test_seeded_decay(self, capsys):
        code, out, _ = run(
            capsys,
            ["bridge", "--q", "3/4", "--seed", "0", "--r", "2,4,6", "--register-length", "256"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 0
        sups = doc["sup_distances"]
        assert sups[0] > sups[1] > sups[2]

    def test_deterministic_json(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            run(
                capsys,
                [
                    "bridge", "--q", "3/4", "--seed", "5",
                    "--r", "2,4", "--register-length", "256", "--out", str(path),
                ],
            )
        assert a.read_bytes() == b.read_bytes()

    def test_needs_seed_or_state(self, capsys):
        code, _, err = run(capsys, ["bridge", "--q", "3/4"])
        assert code == 2
        assert "--seed or --state" in err

    def test_seed_and_state_together(self, capsys, monkeypatch):
        # a zero register ignores any seed, so asking for both is a usage
        # error, reported by the parser before any work
        def refuse(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(cli, "theorem1_experiment", refuse)
        for argv in (
            ["bridge", "--q", "3/4", "--seed", "1", "--state", "zero"],
            ["bridge", "--q", "3/4", "--state", "zero", "--seed", "1"],
        ):
            code, out, err = run(capsys, argv)
            assert (code, out) == (2, "")
            assert "not allowed with argument" in err

    def test_regime_guard(self, capsys):
        code, _, err = run(capsys, ["bridge", "--q", "1/4", "--seed", "1"])
        assert code == 2
        assert "1/2 < |q| < 1" in err
        assert run(capsys, ["bridge", "--q", "1", "--seed", "1"])[0] == 2

    def test_impossible_run_length(self, capsys):
        code, _, err = run(
            capsys,
            ["bridge", "--q", "3/4", "--seed", "1", "--r", "12", "--register-length", "8"],
        )
        assert code == 1
        assert "qdigits bridge:" in err

    def test_bad_run_lengths(self, capsys):
        assert run(capsys, ["bridge", "--q", "3/4", "--seed", "1", "--r", "0"])[0] == 2
        assert run(capsys, ["bridge", "--q", "3/4", "--seed", "1", "--r", "a,b"])[0] == 2

    def test_negative_grid_exponent(self, capsys):
        code, _, err = run(
            capsys, ["bridge", "--q", "3/4", "--seed", "1", "--grid-exponent", "-1"]
        )
        assert code == 2
        assert "--grid-exponent must be >= 0, got -1" in err

    def test_grid_exponent_zero(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "bridge", "--q", "3/4", "--seed", "5", "--r", "2,4",
                "--register-length", "256", "--grid-exponent", "0",
            ],
        )
        assert code == 1  # 0 is not < 0
        doc = json.loads(out)
        assert [lvl["grid_points"] for lvl in doc["levels"]] == [2, 2]
        assert doc["sup_distances"] == [0.0, 0.0]

    @pytest.mark.parametrize(
        "source, r_list",
        [("zero", [2, 3]), (5, [2, 3, 4])],
    )
    def test_grid_points_of_clipped_levels(self, capsys, source, r_list):
        # levels below the default grid exponent 8 are sampled on 2^n + 1 points
        argv = ["bridge", "--q", "3/4", "--register-length", "64"]
        argv += ["--r", ",".join(map(str, r_list))]
        if source == "zero":
            argv += ["--state", "zero"]
            state = OdometerState.zeros(64)
        else:
            argv += ["--seed", str(source)]
            state = OdometerState.random_state(source, 64)
        bridge = theorem1_experiment(None, QParam(F(3, 4)), r_list, state=state)
        _, out, _ = run(capsys, argv)
        doc = json.loads(out)
        assert [lvl["grid_points"] for lvl in doc["levels"]] == [
            len(level_polygon(lvl, state.value, QParam(F(3, 4)))[0]) for lvl in bridge.levels
        ]
        assert any(lvl.grid_exponent < 8 for lvl in bridge.levels)


def sha256(data: str | bytes) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def golden_run(capsys, key, tmp_path=None):
    """run() of the golden command behind key, writing its "{out}" and
    "{svg}" files to tmp_path / "c.csv" and tmp_path / "c.svg"."""
    names = {"{out}": "c.csv", "{svg}": "c.svg"}
    argv = [str(tmp_path / names[a]) if a in names else a for a in COMMANDS[key][0]]
    return run(capsys, argv)


class TestGoldenOutputs:
    def test_curve_csv_and_svg(self, capsys, tmp_path):
        csv = tmp_path / "c.csv"
        svg = tmp_path / "c.svg"
        code, out, _ = golden_run(capsys, "curve-3/4-4096.csv", tmp_path)
        assert (code, out) == (0, "")
        assert sha256(csv.read_bytes()) == GOLDEN["curve-3/4-4096.csv"]
        assert sha256(svg.read_bytes()) == GOLDEN["curve-3/4-4096.svg"]

    @pytest.mark.parametrize("q", ["2/3", "9/10", "-2/3"])
    def test_curve_factors_with_odd_primes(self, capsys, tmp_path, q):
        csv = tmp_path / "c.csv"
        svg = tmp_path / "c.svg"
        code, out, _ = golden_run(capsys, f"curve-{q}-4096.csv", tmp_path)
        assert (code, out) == (0, "")
        assert sha256(csv.read_bytes()) == GOLDEN[f"curve-{q}-4096.csv"]
        assert sha256(svg.read_bytes()) == GOLDEN[f"curve-{q}-4096.svg"]

    def test_canonical_curve_negative_weight(self, capsys):
        code, out, _ = golden_run(capsys, "curve--3/4-64-canonical.csv")
        assert code == 0
        assert sha256(out) == GOLDEN["curve--3/4-64-canonical.csv"]

    # each case carries its argv as well, for the test's id
    @pytest.mark.parametrize(
        "argv, key",
        [
            (COMMANDS[key][0], key)
            for key in ("curve--3/4-64-canonical.svg", "curve-1/2-64-explore.svg")
        ],
    )
    def test_curve_svg_off_the_bridge_identity(self, capsys, tmp_path, argv, key):
        svg = tmp_path / "c.svg"
        code, _, _ = golden_run(capsys, key, tmp_path)
        assert code == 0
        assert sha256(svg.read_bytes()) == GOLDEN[key]

    def test_bridge(self, capsys):
        code, out, _ = golden_run(capsys, "bridge-3/4-seed-42.json")
        assert code == 0
        assert sha256(out) == GOLDEN["bridge-3/4-seed-42.json"]

    def test_bridge_weight_off_the_dyadic_denominators(self, capsys):
        code, out, _ = golden_run(capsys, "bridge-2/3-seed-9.json")
        assert code == 0
        assert sha256(out) == GOLDEN["bridge-2/3-seed-9.json"]

    @pytest.mark.parametrize(
        "argv, exit_code, key",
        [
            (*COMMANDS[key][:2], key)
            for key in (
                "bridge--3/4-seed-5-grid-7.json",
                "bridge--3/4-seed-5-grid-8.json",
                "bridge-9/10-seed-1.json",
                "bridge-3/4-seed-1-grid-0.json",
            )
        ],
    )
    def test_bridge_factor_from_exponents(self, capsys, argv, exit_code, key):
        code, out, _ = run(capsys, argv)
        assert code == exit_code
        assert sha256(out) == GOLDEN[key]

    def test_summatory_in_lowest_terms(self, capsys):
        code, out, _ = golden_run(capsys, "eval-S-9/10-5000-digits")
        assert code == 0
        assert sha256(out) == GOLDEN["eval-S-9/10-5000-digits"]

    def test_verify_theorem1_negative_weight_json(self, capsys):
        code, out, _ = golden_run(capsys, "verify-theorem1--2/3.json")
        assert code == 0
        assert sha256(out) == GOLDEN["verify-theorem1--2/3.json"]

    def test_verify_prop1_json(self, capsys):
        code, out, _ = golden_run(capsys, "verify-prop1-3/4.json")
        assert code == 0
        assert sha256(out) == GOLDEN["verify-prop1-3/4.json"]

    def test_verify_prop1_text(self, capsys):
        code, out, _ = golden_run(capsys, "verify-prop1-3/4.txt")
        assert code == 0
        assert sha256(out) == GOLDEN["verify-prop1-3/4.txt"]

    def test_verify_prop1_negative_weight_json(self, capsys):
        code, out, _ = golden_run(capsys, "verify-prop1--2/3.json")
        assert code == 0
        assert sha256(out) == GOLDEN["verify-prop1--2/3.json"]

    @pytest.mark.parametrize("key", ["eval-td-classical-4961-bits", "eval-td-1-4961-bits"])
    def test_classical_average_at_the_walk_bound(self, capsys, key):
        code, out, _ = golden_run(capsys, key)
        assert code == 0
        assert sha256(out) == GOLDEN[key]


def readme_examples():
    """(argv, output) for each README command that shows its full output.

    Commands with no output lines, or whose output is elided with "...",
    are left out.
    """
    text = (Path(__file__).parents[1] / "README.md").read_text()
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for command, output in re.findall(
            r"^\$ qdigits (.*)\n((?:(?!\$ ).*\n)*)", block, re.M
        ):
            if output and "...\n" not in output:
                examples.append((shlex.split(command, comments=True), output))
    return examples


def test_readme_examples(capsys):
    examples = readme_examples()
    # the five eval lines and the curve --l 4 block
    assert len(examples) == 6
    for argv, want in examples:
        assert run(capsys, argv) == (0, want, ""), argv
