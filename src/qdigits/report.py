"""Plumbing for identity-verification reports.

A report is a flat list of identity checks, each with the formula that was
tested, the range it was tested over, and the first counterexample if one
was found.  Reports render to plain text lines or to a JSON-friendly dict
with a stable key order.
"""

from ._record import record


@record
class IdentityCheck:
    """Outcome of scanning one identity over a finite range."""

    name: str
    statement: str
    scope: str
    checked: int
    passed: bool
    first_counterexample: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statement": self.statement,
            "scope": self.scope,
            "checked": self.checked,
            "passed": self.passed,
            "first_counterexample": self.first_counterexample,
        }

    def format_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        line = f"[{mark}] {self.name}: {self.statement}  ({self.scope}, {self.checked} instances)"
        if not self.passed and self.first_counterexample:
            line += f"  first counterexample: {self.first_counterexample}"
        return line


@record
class VerificationReport:
    """A titled bundle of identity checks with shared parameters."""

    title: str
    params: dict[str, str] = ()
    checks: list[IdentityCheck] = ()
    notes: list[str] = ()

    def __post_init__(self):
        # fresh containers, which add, scan and notes.append grow in place
        self.__dict__.update(
            params=dict(self.params), checks=list(self.checks), notes=list(self.notes)
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name, statement, scope, checked, passed, first_counterexample=None):
        self.checks.append(
            IdentityCheck(name, statement, scope, checked, passed, first_counterexample)
        )

    def scan(self, name, statement, scope, pairs):
        """Add one check scanning (label, lhs, rhs) triples for lhs == rhs.

        Stops at the first mismatch, which counts as checked and is
        recorded as "label: lhs != rhs"; later triples are never drawn.
        """
        checked = 0
        first = None
        for label, lhs, rhs in pairs:
            checked += 1
            if lhs != rhs:
                first = f"{label}: {lhs} != {rhs}"
                break
        self.add(name, statement, scope, checked, first is None, first)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "params": dict(self.params),
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "notes": list(self.notes),
        }

    def format_lines(self) -> list[str]:
        header = self.title
        if self.params:
            header += " (" + ", ".join(f"{k}={v}" for k, v in self.params.items()) + ")"
        lines = [header]
        lines.extend(c.format_line() for c in self.checks)
        lines.extend(f"note: {n}" for n in self.notes)
        verdict = "ALL CHECKS PASS" if self.passed else "SOME CHECKS FAILED"
        lines.append(verdict)
        return lines
