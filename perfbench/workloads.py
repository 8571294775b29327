"""The four benchmark workloads: seeded inputs, one timed op, and a check.

Each workload turns the benchmark seed into a list of op inputs (the
program sees only those), runs one op on an input, and checks answers by
a route independent of the code path the op took.  Checks run after the
timed region.  Ops go through qdigits' public entry points, looked up
on the module at call time so that a tracer can rebind them.

Checksums hash hex() of exact integers, never str(): Python refuses to
turn integers of more than 4300 digits into decimal strings, and the
benchmark must measure the program with that limit as shipped.
"""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import qdigits
import qdigits.cli

WEIGHTS = ("3/4", "2/3", "9/10", "-3/4", "-2/3")
PARAMS = {w: qdigits.QParam(Fraction(w)) for w in WEIGHTS}
Q34 = PARAMS["3/4"]

# Criterion-7 records: (r, n_j, float sup distance, sha256(sup_distance_exact)[:16])
# for the default experiment (8192 digits, r = 4,8,12, grid 2^8, q = 3/4).
DECAY_FIXTURES = {
    1: [
        (4, 43, 0.6015500114383122, "97d55a0e31bc8e26"),
        (8, 539, 0.14651195049378662, "c5e7fb34cddacd69"),
        (12, 8038, 0.009265922331018604, "6ae58de42c10aea9"),
    ],
    2: [
        (4, 160, 0.7180040510359164, "116c9c93f1ec68ff"),
        (8, 644, 0.09096514249047762, "b496bdc1497ef5dd"),
        (12, 6663, 0.007459427710446699, "60d549bf491425b0"),
    ],
    5: [
        (4, 42, 0.5949974730392518, "dd3d70c275ea10d9"),
        (8, 807, 0.14412380872575212, "b44af05995967089"),
        (12, 6409, 0.006218705230768383, "8b51251b95f1d0dd"),
    ],
    9: [
        (4, 23, 0.6691473944355629, "266a4a9fc7a3297a"),
        (8, 289, 0.13442819410271967, "cd279d4c37ff0dca"),
        (12, 4369, 0.005324498042146268, "1dd86965aa35e8b2"),
    ],
    42: [
        (4, 50, 0.5767472422614376, "eac3fc0d1d4f4286"),
        (8, 54, 0.11881788877314146, "770193ec2009b401"),
        (12, 7970, 0.005823243138357618, "c2e9f1b37ac083b4"),
    ],
}


def frac_digest(x: Fraction) -> str:
    return hashlib.sha256(f"{hex(x.numerator)}/{hex(x.denominator)}".encode()).hexdigest()


def text_digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode() if isinstance(part, int) else part.encode())
        h.update(b"\0")
    return h.hexdigest()


def run_cli(argv) -> tuple[int, str]:
    """qdigits.cli.main(argv) in-process, with stdout and stderr captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = qdigits.cli.main(argv)
    return rc, buf.getvalue()


def first_mismatch(pairs) -> str | None:
    for label, got, want in pairs:
        if got != want:
            return f"{label}: got {got!r}, want {want!r}"
    return None


def takagi_target(points: int, p, stride: int = 1) -> dict[int, Fraction]:
    """-q T_a(j/points) at every stride-th j, through the two-branch solver."""
    system = qdigits.DeRhamSystem.takagi(p.a)
    return {
        j: -p.q * qdigits.derham_eval(system, Fraction(j, points))
        for j in range(0, points + 1, stride)
    }


class Workload:
    """Base: answers are op results; collect() runs after the timed region."""

    name = ""

    def collect(self, pending):
        return pending

    def check(self, pairs):
        """One message per (input, answer), None when the answer is right.

        A malformed answer is a wrong answer, not a crash of the benchmark.
        """
        out = []
        for inp, answer in pairs:
            try:
                out.append(self._check(inp, answer))
            except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
                out.append(f"{inp!r:.80}: malformed answer ({exc!r:.200})")
        return out

    def bytes_out(self, answer) -> int:
        return 0


# ---------------------------------------------------------------------------
# bridge
# ---------------------------------------------------------------------------


def stabilizing_positions(x: int, length: int, runs) -> list[int] | None:
    """First level n for each run length r, or None if the experiment would
    stop: no run of r zero digits, or the 2^n orbit carries out of the
    register."""
    digits = format(x, f"0{length}b")[::-1]  # least significant first
    positions = []
    for r in runs:
        start = digits.find("0" * r)
        if start < 0:
            return None
        n = start + r
        if x + (1 << n) > (1 << length):
            return None
        positions.append(n)
    return positions


def digit_step(a: int, q: Fraction) -> Fraction:
    """s_q(a + 1) - s_q(a): the carry clears t trailing ones and sets bit t."""
    t = (a ^ (a + 1)).bit_length() - 1
    return q ** (t + 1) - sum(q ** (i + 1) for i in range(t))


class Bridge(Workload):
    name = "bridge"
    SEED_RANGE = 100
    POOL = 4

    def __init__(self):
        self.rejected_seeds = 0

    def inputs(self, seed, toy=False):
        length, runs, grid = (128, (2, 4), 3) if toy else (8192, (4, 8, 12), 8)
        rng = random.Random(seed)
        pool = []
        for exp_seed in rng.sample(range(1, self.SEED_RANGE + 1), self.SEED_RANGE):
            x = random.Random(exp_seed).getrandbits(length)
            positions = stabilizing_positions(x, length, runs)
            # A level below the grid exponent is sampled on a coarser grid,
            # and the op's cost grows with its deepest level (by a third
            # from n = 1500 to n = 8000 at full size); so that every op does
            # about the same work, keep seeds whose levels all reach the
            # grid exponent and whose deepest level lies in the upper half
            # of the register.
            if positions is None or min(positions) < grid or positions[-1] < length // 2:
                self.rejected_seeds += 1
                continue
            pool.append((exp_seed, length, runs, grid))
            if len(pool) == self.POOL:
                break
        return pool

    def op(self, inp, work, i):
        exp_seed, length, runs, grid = inp
        out = work / f"bridge-{i}.json"
        rc, captured = run_cli(
            [
                "bridge", "--q", "3/4", "--seed", str(exp_seed),
                "--register-length", str(length),
                "--r", ",".join(map(str, runs)),
                "--grid-exponent", str(grid),
                "--out", str(out),
            ]
        )
        return rc, captured, out

    def collect(self, pending):
        rc, captured, out = pending
        text = out.read_text(encoding="utf-8") if out.exists() else None
        out.unlink(missing_ok=True)
        return rc, captured, text

    def bytes_out(self, answer):
        rc, captured, text = answer
        return len(captured.encode()) + len((text or "").encode())

    def digest(self, answer):
        rc, captured, text = answer
        return text_digest(rc, captured, text or "")

    def _check(self, inp, answer):
        exp_seed, length, runs, grid = inp
        rc, captured, text = answer
        if rc not in (0, 1) or text is None:
            return f"seed {exp_seed}: exit {rc}: {captured.strip()[-300:]}"
        doc = json.loads(text)
        p, q = Q34, Q34.q
        x = random.Random(exp_seed).getrandbits(length)
        positions = stabilizing_positions(x, length, runs)
        s_x = qdigits.partial_sum_fast(x, p) if x else Fraction(0)
        targets = {}
        dists = []
        pairs = [("levels", len(doc["levels"]), len(runs))]
        for r, n, lvl in zip(runs, positions, doc["levels"]):
            g = min(grid, n)
            points, h = 1 << g, n - g
            a0, b = x >> h, x & ((1 << h) - 1)
            # S(A 2^h + B) = A S(2^h) + q^h 2^h S(A) + S(B) + B q^h s(A), so
            # D_j = S(x + j 2^h) - S(x) needs only S(2^h), s(a0) and carries.
            # One partial_sum_fast difference, D_1, fixes s(a0).
            pow2 = qdigits.partial_sum_pow2(h, p)
            scale = q**h * 2**h
            low = b * q**h
            d1 = qdigits.partial_sum_fast(x + (1 << h), p) - s_x
            s_a0 = (d1 - pow2 - low * digit_step(a0, q)) / scale
            diffs = [Fraction(0)]
            s_a, big_s, a = s_a0, Fraction(0), a0
            for j in range(1, points + 1):
                big_s += s_a
                s_a += digit_step(a, q)
                a += 1
                diffs.append(j * pow2 + scale * big_s + low * (s_a - s_a0))
            if points not in targets:
                targets[points] = takagi_target(points, p)
            norm = (2 * q) ** (n - 1)
            dist = max(
                abs((diffs[j] - Fraction(j, points) * diffs[-1]) / norm - targets[points][j])
                for j in range(points + 1)
            )
            dists.append(dist)
            pairs += [
                (f"r={r} r", lvl["r"], r),
                (f"r={r} n_j", lvl["n_j"], n),
                (f"r={r} m_j", lvl["m_j"], n - r),
                (f"r={r} l_j", int(lvl["l_j"]), 1 << n),
                (f"r={r} ratio", lvl["ratio"], float(Fraction(x & ((1 << n) - 1), 1 << n))),
                (f"r={r} R", Fraction(lvl["R"]), norm),
                (f"r={r} grid_points", lvl["grid_points"], points + 1),
                (f"r={r} sup_distance_exact", Fraction(lvl["sup_distance_exact"]), dist),
                (f"r={r} sup_distance", lvl["sup_distance"], float(dist)),
            ]
        decreasing = all(d0 > d1 for d0, d1 in zip(dists, dists[1:]))
        pairs += [
            ("q", doc["q"], "3/4"),
            ("seed", doc["seed"], exp_seed),
            ("register_length", doc["register_length"], length),
            ("grid_exponent", doc["grid_exponent"], grid),
            ("sup_distances", doc["sup_distances"], [float(d) for d in dists]),
            ("strictly_decreasing", doc["strictly_decreasing"], decreasing),
            ("exit code", rc, 0 if decreasing else 1),
        ]
        if (length, runs, grid) == (8192, (4, 8, 12), 8) and exp_seed in DECAY_FIXTURES:
            got = [
                (
                    lvl["r"],
                    lvl["n_j"],
                    lvl["sup_distance"],
                    hashlib.sha256(lvl["sup_distance_exact"].encode()).hexdigest()[:16],
                )
                for lvl in doc["levels"]
            ]
            pairs.append(("criterion-7 fixture", got, DECAY_FIXTURES[exp_seed]))
        bad = first_mismatch(pairs)
        return None if bad is None else f"seed {exp_seed}: {bad}"


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------


class Curves(Workload):
    """Ops alternate, per weight, between `curve` and `verify --suite prop1`."""

    name = "curves"

    def inputs(self, seed, toy=False):
        l = 16 if toy else 4096
        order = random.Random(seed).sample(WEIGHTS, len(WEIGHTS))
        return [(kind, w, l) for w in order for kind in ("curve", "prop1")]

    def op(self, inp, work, i):
        kind, w, l = inp
        if kind == "prop1":
            return run_cli(["verify", "--suite", "prop1", f"--q={w}", "--lmax", str(l)])
        csv, svg = work / f"curve-{i}.csv", work / f"curve-{i}.svg"
        rc, captured = run_cli(
            ["curve", f"--q={w}", "--l", str(l), "--out", str(csv), "--svg", str(svg)]
        )
        return rc, captured, csv, svg

    def collect(self, pending):
        if len(pending) == 2:
            return pending
        rc, captured, csv, svg = pending
        texts = []
        for path in (csv, svg):
            texts.append(path.read_text(encoding="utf-8") if path.exists() else "")
            path.unlink(missing_ok=True)
        return rc, captured, texts[0], texts[1]

    def bytes_out(self, answer):
        return sum(len(part.encode()) for part in answer if isinstance(part, str))

    def digest(self, answer):
        return text_digest(*answer)

    def _check(self, inp, answer):
        kind, w, l = inp
        rc, captured = answer[:2]
        if rc != 0:
            return f"q={w}: {kind} exit {rc}: {captured.strip()[-300:]}"
        if kind == "prop1":
            lines = captured.splitlines()
            passed = sum(line.startswith("[PASS] bridge-l-") for line in lines)
            if lines[-1] != "ALL CHECKS PASS" or passed != l.bit_length() - 1:
                return f"q={w}: prop1 report: {passed} PASS lines, verdict {lines[-1]!r}"
            return None
        csv, svg = answer[2:]
        rows = csv.split("\n")
        if rows[0] != "t,phi,target" or len(rows) != l + 3 or rows[-1] != "":
            return f"q={w}: CSV has {len(rows)} lines, header {rows[0]!r}"
        p = PARAMS[w]
        target = takagi_target(l, p, stride=max(l // 16, 1))
        for j, row in enumerate(rows[1:-1]):
            t, phi, tgt = (Fraction(v) for v in row.split(","))
            if t != Fraction(j, l) or phi != tgt:
                return f"q={w}: row {j}: {row}"
            if j in target and tgt != target[j]:
                return f"q={w}: row {j}: target {tgt} != -q T_a = {target[j]}"
        if not svg.startswith("<svg") or not svg.endswith("</svg>\n") or svg.count("<polyline") != 2:
            return f"q={w}: malformed SVG"
        return None


# ---------------------------------------------------------------------------
# big_s
# ---------------------------------------------------------------------------


class BigS(Workload):
    name = "big_s"
    POOL = 4

    def inputs(self, seed, toy=False):
        bits = 64 if toy else 16384
        rng = random.Random(seed)
        pool = []
        for _ in range(self.POOL):
            n = rng.getrandbits(bits) | (1 << (bits - 1))
            h = rng.randrange(bits * 3 // 4, bits * 7 // 8)  # split point for the check
            pool.append((n, h))
        return pool

    def op(self, inp, work, i):
        return qdigits.partial_sum_fast(inp[0], Q34)

    def digest(self, answer):
        return frac_digest(answer)

    def _check(self, inp, got):
        n, h = inp
        q = Q34.q
        a, b = n >> h, n & ((1 << h) - 1)
        s_b = qdigits.partial_sum_fast(b, Q34) if b else Fraction(0)
        want = (
            a * qdigits.partial_sum_pow2(h, Q34)
            + q**h * 2**h * qdigits.partial_sum_fast(a, Q34)
            + s_b
            + b * q**h * qdigits.weighted_digit_sum(a, Q34)
        )
        return None if got == want else f"n of {n.bit_length()} bits, h={h}: split identity disagrees"


# ---------------------------------------------------------------------------
# td_scan
# ---------------------------------------------------------------------------


class TdScan(Workload):
    name = "td_scan"
    POOL = 1024

    def inputs(self, seed, toy=False):
        top = 1 << (10 if toy else 20)
        rng = random.Random(seed)
        return [(rng.randint(1, top), rng.choice(WEIGHTS)) for _ in range(64 if toy else self.POOL)]

    def op(self, inp, work, i):
        n, w = inp
        p = PARAMS[w]
        return qdigits.td_generalized(n, p), qdigits.g_profile(n, p)

    def digest(self, answer):
        return text_digest(*(frac_digest(v) for v in answer))

    def check(self, pairs):
        # One definitional pass per weight covers every sampled n and the
        # octave base 2^k <= n that g_profile divides by.
        self.oracles = {}
        for w in {w for (_n, w), _ans in pairs}:
            ns = {n for (n, v), _ans in pairs if v == w}
            ns |= {1 << (n.bit_length() - 1) for n in ns}
            self.oracles[w] = qdigits.partial_sum_bruteforce_at(ns, PARAMS[w], budget=max(ns))
        return super().check(pairs)

    def _check(self, inp, answer):
        n, w = inp
        td, g = answer
        s = self.oracles[w]
        k = n.bit_length() - 1
        want_g = (s[n] - Fraction(n, 1 << k) * s[1 << k]) / ((1 << k) * PARAMS[w].q ** k)
        if n * td != s[n]:
            return f"n={n}, q={w}: n td = {n * td} != oracle {s[n]}"
        if g != want_g:
            return f"n={n}, q={w}: g_profile {g} != {want_g}"
        return None

WORKLOADS = {w.name: w for w in (Bridge, Curves, BigS, TdScan)}
