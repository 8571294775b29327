"""Time the CLI's q-width budget rows at their costliest accepted inputs.

Run from the root of a source checkout:

    python3 tools/probe_budgets.py [--timeout 60] [--cap-mb 3072]

For `curve --svg`, `verify --suite prop1` and `verify --suite derham`, it
runs each input in a fresh `python -c` child that imports this checkout's
`src/qdigits`: a narrow q (3/4 and 9/10), and at each level the widest q
the budget rows admit, with a power-of-two denominator, (2^b - 1)/2^b, and
with an odd one, 2^b/(2^b + 1).  One input per row lies just past its
limit and should exit 2 at once.  Each child gets a wall-clock timeout and an
address-space cap (RLIMIT_AS) set on the child alone; the probe changes no
other setting.  It prints one line per input: the command, the bits of
q's larger term, the exit code, the wall time and the child's peak RSS
(ru_maxrss).  It checks nothing and exits 0; the `_Budget` row comments in
`src/qdigits/cli.py` quote its output.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qdigits import QParam, cli  # noqa: E402

LEVELS = (2**20, 2**16, 2**12, 2**8, 2**4, 2)
NARROW = ("3/4", "9/10")


def wide_q(b: int, odd: bool) -> Fraction:
    """A weight just below 1 whose larger term has b + 1 bits."""
    return Fraction(1 << b, (1 << b) + 1) if odd else Fraction((1 << b) - 1, 1 << b)


def widest(admits, odd: bool) -> int:
    """The largest b >= 1 with admits(wide_q(b, odd)), or 0 if none is admitted."""
    lo, hi = 0, 1
    while admits(wide_q(hi, odd)):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admits(wide_q(mid, odd)) else (lo, mid)
    return lo


def level_admits(flag: str, l: int):
    def admits(q: Fraction) -> bool:
        try:
            cli._check_level(flag, l, QParam(q))
        except cli._CliError:
            return False
        return True

    return admits


def derham_admits(q: Fraction) -> bool:
    return cli._term_bits(q.numerator, q.denominator) <= cli._DERHAM_Q_BITS.limit


# the child reads argv from stdin: a wide q is longer than one command-line
# argument may be
CHILD = "import json, sys; from qdigits.cli import main; sys.exit(main(json.load(sys.stdin)))"


def run_child(argv, timeout: float, cap: int):
    """(exit code, seconds, peak RSS in MB) of main(argv) in a fresh child."""

    def limit_child():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD],
        stdin=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        preexec_fn=limit_child,
        env=env,
    )
    timer = threading.Timer(timeout, child.kill)
    timer.start()
    with child.stdin:
        child.stdin.write(json.dumps(argv).encode())
    _pid, status, usage = os.wait4(child.pid, 0)
    timer.cancel()
    seconds = time.perf_counter() - start
    exit_code = os.waitstatus_to_exitcode(status)
    return ("killed" if exit_code < 0 else exit_code), seconds, usage.ru_maxrss / 1024


def cases(out: Path):
    """(row, q, argv): narrow and widest admitted q per level, then past each limit."""
    curve = ["curve", "--out", str(out / "c.csv"), "--svg", str(out / "c.svg")]
    commands = [
        ("curve", "--l", LEVELS, curve),
        # the most --digits that _DECIMAL_WORK admits at --l 8
        ("curve", "--l", (8,), [*curve, "--digits", "100000"]),
        ("prop1", "--lmax", LEVELS, ["verify", "--suite", "prop1"]),
    ]
    for name, flag, levels, command in commands:
        for l in levels:
            wide = [wide_q(b, odd) for odd in (False, True)
                    if (b := widest(level_admits(flag, l), odd))]
            for q in [*map(Fraction, NARROW), *wide]:
                yield name, q, [*command, f"--q={q}", flag, str(l)]
        past = wide_q(widest(level_admits(flag, levels[-1]), False) + 1, False)
        yield f"{name} past", past, [*command, f"--q={past}", flag, str(levels[-1])]
    derham = ["verify", "--suite", "derham"]
    widths = [widest(derham_admits, odd) for odd in (False, True)]
    for q in [*map(Fraction, NARROW), wide_q(widths[0], False), wide_q(widths[1], True)]:
        yield "derham", q, [*derham, f"--q={q}"]
    past = wide_q(widths[0] + 1, False)
    yield "derham past", past, [*derham, f"--q={past}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per child")
    parser.add_argument("--cap-mb", type=int, default=3072, help="RLIMIT_AS per child")
    args = parser.parse_args()
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # to write a wide q into argv
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} CPUs,"
          f" timeout {args.timeout:g} s, RLIMIT_AS {args.cap_mb} MB per child")
    print(f"{'row':<12} {'command':<34} {'bits(q)':>8} {'exit':>6} {'s':>7} {'MB':>7}")
    with tempfile.TemporaryDirectory() as tmp:
        for row, q, argv in cases(Path(tmp)):
            q_bits = cli._term_bits(q.numerator, q.denominator)
            shown = " ".join(a for a in argv if "/" not in a and a not in ("--out", "--svg"))
            code, seconds, mb = run_child(argv, args.timeout, args.cap_mb << 20)
            print(f"{row:<12} {shown:<34} {q_bits:>8} {code!s:>6} {seconds:>7.2f} {mb:>7.0f}",
                  flush=True)


if __name__ == "__main__":
    main()
