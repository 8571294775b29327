"""Self-test of the benchmark's checks, at toy sizes.

    python3 perfbench/selftest.py

For each workload: run a few ops on toy inputs, require the check to
accept every answer, then plant an off-by-one in each answer and require
the check to reject every planted one.  Exits 0 when every check behaves, 1 otherwise.
"""

import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import workloads  # noqa: E402


def plant_bridge(answer):
    rc, captured, text = answer
    doc = json.loads(text)
    exact = Fraction(doc["levels"][-1]["sup_distance_exact"])
    doc["levels"][-1]["sup_distance_exact"] = str(Fraction(exact.numerator + 1, exact.denominator))
    return rc, captured, json.dumps(doc, indent=2) + "\n"


def plant_curves(answer):
    if len(answer) == 2:  # a prop1 report
        rc, captured = answer
        return rc + 1, captured
    rc, captured, csv, svg = answer
    rows = csv.split("\n")
    t, phi, target = rows[2].split(",")
    rows[2] = ",".join([t, str(Fraction(phi) + 1), target])
    return rc, captured, "\n".join(rows), svg


def plant_big_s(answer):
    return answer + 1


def plant_td_scan(answer):
    td, g = answer
    return td + 1, g


PLANTS = {
    "bridge": plant_bridge,
    "curves": plant_curves,
    "big_s": plant_big_s,
    "td_scan": plant_td_scan,
}


def main():
    work = BENCH / "_out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    ok = True
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls()
            inputs = workload.inputs(seed=1, toy=True)[:3]
            answers = [
                (inp, workload.collect(workload.op(inp, work, i))) for i, inp in enumerate(inputs)
            ]
            clean = workload.check(answers)
            planted = workload.check([(inp, PLANTS[name](answer)) for inp, answer in answers])
            accepted = all(m is None for m in clean)
            rejected = None not in planted
            ok &= accepted and rejected
            print(f"{'ok  ' if accepted and rejected else 'FAIL'} {name}: {len(answers)} toy"
                  f" answers {'accepted' if accepted else clean}; each with a planted off-by-one"
                  f" {'rejected, e.g. ' + planted[-1] if rejected else 'ACCEPTED'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
