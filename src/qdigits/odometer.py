"""The binary odometer on a finite register.

A state is a register of L binary digits x = (x_1, ..., x_L), least
significant first, held as one integer value = sum_i x_i 2^(i-1) with
0 <= value < 2^L; digit x_i is bit i-1 of value.  The odometer map is
addition of 1 with carry, i.e. value + 1; it is undefined on the
all-ones word value = 2^L - 1 (the register would overflow).  The
integer value of a prefix is Num(x_1..x_n) = value mod 2^n, so the
odometer successor adds exactly one to every prefix value it does not
carry out of.

The weighted digit sum of a state is sum_i x_i q^i; for |q| < 1 the
corresponding infinite-word sum converges and truncation at length L is
off by at most |q|^(L+1) / (1 - |q|).

A stabilising level for run length r is a position n such that the r
digits x_(n-r+1)..x_n are all zero; equivalently the prefix ratio
Num(x_1..x_n) / 2^n is below 2^(-r).  Orbits started at such states stay
close to the zero orbit at scale 2^n, which is what the limiting-curve
experiments exploit.
"""

import random
from fractions import Fraction

from ._record import record
from .digitsum import QParam, _lowest_terms, weighted_digit_sum


class RegisterOverflowError(OverflowError):
    """Successor or orbit would carry out of the register."""


class NoStabilizingLevelError(LookupError):
    """No zero run of the requested length exists in the register."""


@record(frozen=True)
class OdometerState:
    """An immutable register of length digits; bit i of value is digit i+1."""

    value: int
    length: int
    origin: str = "explicit"
    seed: int | None = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("value must be nonnegative")
        if self.value.bit_length() > self.length:
            raise ValueError(f"value {self.value} does not fit in {self.length} digits")
        if self.length < 1:
            raise ValueError("register must have at least one digit")

    def __repr__(self):
        # hex: a long register in decimal exceeds Python's int/str digit limit
        return (
            f"OdometerState(value={self.value:#x}, length={self.length},"
            f" origin={self.origin!r}, seed={self.seed!r})"
        )

    @classmethod
    def zeros(cls, length: int) -> "OdometerState":
        if length < 1:
            raise ValueError("length must be >= 1")
        return cls(0, length, origin="zero")

    @classmethod
    def random_state(cls, seed: int, length: int) -> "OdometerState":
        """Deterministic seeded register (independent draws per digit)."""
        if length < 1:
            raise ValueError("length must be >= 1")
        return cls(
            random.Random(seed).getrandbits(length),
            length,
            origin=f"seeded-random(seed={seed}, length={length})",
            seed=seed,
        )


def num_value(s: OdometerState, n: int | None = None) -> int:
    """Num(x_1..x_n) = sum_i x_i 2^(i-1); whole register when n is None."""
    if n is None:
        n = s.length
    if not 0 <= n <= s.length:
        raise ValueError(f"prefix length {n} outside register of length {s.length}")
    return s.value & ((1 << n) - 1)


def successor(s: OdometerState) -> OdometerState:
    """Add one with carry; raises RegisterOverflowError on all ones."""
    if s.value + 1 == 1 << s.length:
        raise RegisterOverflowError("successor of the all-ones register")
    return OdometerState(s.value + 1, s.length)


def orbit_partial_sums(s: OdometerState, p: QParam, count: int) -> list[Fraction]:
    """Partial sums 0, f(x), f(x) + f(Tx), ... of the state digit sum
    along the odometer orbit, count steps, literal stepping.

    The whole orbit must fit in the register: Num(x) + count <= 2^L.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if s.value + count > (1 << s.length):
        raise RegisterOverflowError(
            f"orbit of length {count} carries out of the {s.length}-digit register"
        )
    sums = [Fraction(0)]
    state = s
    for step in range(count):
        sums.append(sums[-1] + weighted_digit_sum(state.value, p))
        if step + 1 < count:
            state = successor(state)
    return sums


@record(frozen=True)
class StabilizingLevel:
    """A position whose trailing r digits are zero.

    position is the level n, prefix_end = n - r marks where the digits
    that may be nonzero stop, and ratio = Num(x_1..x_n)/2^n < 2^(-r).
    """

    position: int
    prefix_end: int
    run_length: int
    ratio: Fraction


def find_stabilizing_levels(
    s: OdometerState, r: int, max_levels: int = 1
) -> list[StabilizingLevel]:
    """Positions n <= L whose digits x_(n-r+1)..x_n are all zero.

    Returned in increasing order, at most max_levels of them.  Raises
    NoStabilizingLevelError if the register contains none at all.
    """
    if r < 1:
        raise ValueError("run length r must be >= 1")
    if max_levels < 1:
        raise ValueError("max_levels must be >= 1")
    # bit i of runs is set when the digits x_(i+1)..x_(i+r) are all zero:
    # the AND of the register's zero mask shifted by 0..r-1, by doubling
    runs = ~s.value & ((1 << s.length) - 1)
    width = 1
    while width < r and runs:
        shift = min(width, r - width)
        runs &= runs >> shift
        width += shift
    if not runs:
        raise NoStabilizingLevelError(
            f"no run of {r} zeros in the {s.length}-digit register"
        )
    levels: list[StabilizingLevel] = []
    while runs and len(levels) < max_levels:
        n = (runs & -runs).bit_length() - 1 + r
        # a dyadic pair shares only twos, so no gcd is needed
        ratio = _lowest_terms(s.value & ((1 << n) - 1), 1 << n, 2)
        assert ratio < Fraction(1, 1 << r)
        levels.append(StabilizingLevel(n, n - r, r, ratio))
        runs &= runs - 1
    return levels
