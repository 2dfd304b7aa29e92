"""Reference arithmetic for checking the program's outputs.

Nothing here calls the program.  Moments are exactly rounded sums
(``math.fsum``) over atoms, and the bounds and the m3 interval are written
out from their formulas.  Tolerances are relative to the scale
s = m4^(1/4) of the law being checked: a degree-j moment may be off by
``rel * s**j``, so every check reads the same at every scale.
"""

from __future__ import annotations

import math
from collections import Counter

QUARTER = (4.0 / 27.0) ** 0.25
#: Support of the law attaining the quarter bound at sigma = 1 is {-U, V}.
U_FACTOR = (math.sqrt(3.0) - 1.0) / math.sqrt(2.0)
V_FACTOR = (math.sqrt(3.0) + 1.0) / math.sqrt(2.0)

#: Relative slack on values the program computes in floating point.
VALUE_REL = 1e-7
#: Relative slack on moments recovered from a witness or certificate.
REPRODUCE_REL = 1e-4

#: Checks of the verdicts that the program reaches with absolute tolerances:
#: a bound reported tight, the witness it returns, the Hankel certificate.
VERDICT_CHECKS = ("tight_verdict", "witness", "certificate")
#: Scales s at which those absolute tolerances still act as relative ones.
#: A verdict miss outside it is the known scale defect; inside it, a fault.
NEAR_UNIT_SCALE = (1e-1, 1e1)
#: Misses that leave ``correct`` true.  They still count in ``failed``.
#: ``false_tight`` is a tight verdict, with a witness that does not reproduce
#: the law, on a law that does not attain the bound: the tolerance is absolute.
KNOWN_DEFECTS = frozenset(["false_tight", *(f"{check}_far_scale" for check in VERDICT_CHECKS)])


def moments(atoms) -> list[float]:
    """[m0, m1, m2, m3, m4] of the atoms (x, p), each an exactly rounded sum."""
    return [math.fsum(p * x**j for x, p in atoms) for j in range(5)]


def abs_moments(atoms) -> list[float]:
    return [math.fsum(abs(p * x**j) for x, p in atoms) for j in range(5)]


def sample_moments(xs) -> list[float]:
    n = len(xs)
    return [math.fsum(x**j for x in xs) / n for j in range(5)]


def scale_of(m: list[float]) -> float:
    return max(m[4], 0.0) ** 0.25


def same_moments(got, want, rel: float) -> bool:
    """Moments m1..m4 agree within ``rel * s**j`` with s the scale of ``want``."""
    s = scale_of(want)
    return all(abs(got[j] - want[j]) <= rel * s**j for j in range(1, 5))


def sqrt_bound(m: list[float]) -> float:
    return math.sqrt(max(0.0, m[4] * m[2] - m[2] ** 3))


def quarter_bound(m: list[float]) -> float:
    return QUARTER * m[4] ** 0.75


def interval(m1: float, m2: float, m4: float) -> tuple[float, float]:
    half = math.sqrt(max(0.0, m2 - m1 * m1) * max(0.0, m4 - m2 * m2))
    return m1 * m2 - half, m1 * m2 + half


def verdict_miss(check: str, m: list[float]) -> str:
    """The name under which a missed verdict check on the law ``m`` is counted."""
    lo, hi = NEAR_UNIT_SCALE
    return check if lo <= scale_of(m) <= hi else f"{check}_far_scale"


def near(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


class Ledger:
    """Operations attempted, operations with a missed check, and misses by check.

    An operation is recorded once, on its first pass; a later pass that
    misses other checks than the first is recorded as ``changed_on_repeat``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.hard = 0
        self.misses: Counter[str] = Counter()

    def record(self, misses: list[str]) -> None:
        self.attempted += 1
        if misses:
            self.failed += 1
            self.misses.update(misses)
            if not KNOWN_DEFECTS.issuperset(misses):
                self.hard += 1

    def record_changed(self) -> None:
        self.misses["changed_on_repeat"] += 1
        self.hard += 1

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.hard == 0
