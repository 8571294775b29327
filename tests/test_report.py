"""The shared identity scanner, VerificationReport.scan."""

from fractions import Fraction as F

from qdigits.report import VerificationReport


def scanned(pairs):
    rep = VerificationReport("t")
    rep.scan("id", "lhs = rhs", "scope", pairs)
    return rep.checks[0]


class TestScan:
    def test_empty_passes(self):
        check = scanned([])
        assert check.checked == 0
        assert check.passed
        assert check.first_counterexample is None

    def test_all_equal(self):
        check = scanned((f"j={j}", j * j, j**2) for j in range(10))
        assert (check.checked, check.passed) == (10, True)
        assert check.first_counterexample is None

    def test_checked_stops_at_first_mismatch(self):
        pairs = [("a", 1, 1), ("b", 2, 3), ("c", 4, 5), ("d", 6, 6)]
        check = scanned(pairs)
        assert check.checked == 2
        assert not check.passed
        assert check.first_counterexample == "b: 2 != 3"

    def test_counterexample_format(self):
        check = scanned([("n=2", F(135, 32), F(9, 2))])
        assert check.first_counterexample == "n=2: 135/32 != 9/2"
        assert check.format_line() == (
            "[FAIL] id: lhs = rhs  (scope, 1 instances)"
            "  first counterexample: n=2: 135/32 != 9/2"
        )

    def test_later_pairs_never_drawn(self):
        drawn = []

        def pairs():
            for j in range(100):
                drawn.append(j)
                yield f"j={j}", j, 0 if j == 3 else j

        check = scanned(pairs())
        assert check.checked == 4
        assert drawn == [0, 1, 2, 3]

    def test_fields_and_report_verdict(self):
        rep = VerificationReport("t")
        rep.scan("ok", "s1", "r1", [("x", 1, 1)])
        rep.scan("bad", "s2", "r2", [("y", 1, 2)])
        assert [c.to_dict() for c in rep.checks] == [
            {
                "name": "ok",
                "statement": "s1",
                "scope": "r1",
                "checked": 1,
                "passed": True,
                "first_counterexample": None,
            },
            {
                "name": "bad",
                "statement": "s2",
                "scope": "r2",
                "checked": 1,
                "passed": False,
                "first_counterexample": "y: 1 != 2",
            },
        ]
        assert not rep.passed
