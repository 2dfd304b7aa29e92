"""Raw moments of discrete distributions and Hankel feasibility checks.

A moment vector (m0, m1, m2, m3, m4) collects the raw moments E X^j of a
random variable X for j = 0..4, with m0 = 1 always.  Necessary for such a
vector to come from a real random variable is that the 3x3 Hankel matrix
H[i][j] = m_{i+j} is positive semidefinite.  ``feasibility`` decides that
exactly from the seven principal minors of H (Curto & Fialkow 1991),
computed on the standardized vector m_j / s^j with s = m4^(1/4), the
moments of X / s, and reports the decisive minor with its margin over the
tolerance.  Only ``hankel`` builds an array, so only it imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "InfeasibleMomentsError",
    "MomentVector",
    "DiscreteDistribution",
    "HankelMatrix",
    "FeasibilityReport",
    "moments_from_discrete",
    "moments_from_samples",
    "abs_third_moment",
    "hankel",
    "hankel_det",
    "hankel_det_closed_form",
    "psd_verdict",
    "feasibility",
    "scale_moments",
]

#: Weights must sum to 1 within this before renormalization.
WEIGHT_SUM_TOL = 1e-12

#: Default tolerance for PSD verdicts, on the standardized principal minors.
DEFAULT_PSD_TOL = 1e-10


class InfeasibleMomentsError(ValueError):
    """The given numbers cannot be moments of any real random variable."""


class CertificateError(RuntimeError):
    """The simplex found no optimum, or its optimum failed the primal-dual check."""


def floor_at(v, lo: float):
    """max(v, lo) for a float, elementwise for an array (v above -inf)."""
    return v * (v > lo) + lo * (v <= lo)


def root(v):
    """Correctly rounded square root of a float, elementwise of an array.

    A float's ``v ** 0.5`` is not always correctly rounded; an array's is
    numpy's ``sqrt``.
    """
    return math.sqrt(v) if isinstance(v, (float, int)) else v**0.5


def standardize(m1, m2, m3, m4):
    """(s, (m1/s, m2/s^2, m3/s^3, m4/s^4)) with s = m4^(1/4): the moments of X / s.

    The standardized moments of a law lie in [-1, 1], so tolerances on them
    are relative.  For m4 = 0, where X = 0 almost surely (up to underflow),
    s is 0 and the moments come back as they are.  Dividing by one factor
    of s at a time keeps every intermediate in range for any finite m4 >= 0.
    s is taken as two correctly rounded square roots, so floats and arrays
    agree bit for bit.  Floats or arrays.
    """
    s = root(root(m4))
    z = 1.0 / (s + (s == 0.0))
    return s, (m1 * z, m2 * z * z, m3 * z * z * z, m4 * z * z * z * z)


@dataclass(frozen=True)
class MomentVector:
    """Raw moments (m0, m1, m2, m3, m4) with m0 = 1.

    ``s`` and ``unit`` are the standardization ``standardize(m1, m2, m3, m4)``,
    computed once here: every verdict on the vector is reached on ``unit``.
    """

    m0: float
    m1: float
    m2: float
    m3: float
    m4: float
    s: float = field(init=False, repr=False, compare=False)
    unit: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        values = (self.m0, self.m1, self.m2, self.m3, self.m4)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("non-finite moment")
        if abs(self.m0 - 1.0) > WEIGHT_SUM_TOL:
            raise InfeasibleMomentsError("m0 must be 1")
        object.__setattr__(self, "m0", 1.0)
        if self.m2 < 0.0 or self.m4 < 0.0:
            raise InfeasibleMomentsError("even moments must be nonnegative")
        s, unit = standardize(self.m1, self.m2, self.m3, self.m4)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "unit", unit)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.m0, self.m1, self.m2, self.m3, self.m4)


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely many atoms (x, p) with p > 0 summing to 1.

    Construction drops zero-weight atoms, merges duplicate support points,
    renormalizes weights (rejected unless they already sum to 1 within
    1e-12), and sorts atoms ascending by support point.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        merged: dict[float, float] = {}
        for x, p in self.atoms:
            x = float(x)
            p = float(p)
            if not (math.isfinite(x) and math.isfinite(p)):
                raise ValueError("non-finite atom")
            if p < 0.0:
                raise ValueError("negative weight")
            if p == 0.0:
                continue
            merged[x] = merged.get(x, 0.0) + p
        if not merged:
            raise ValueError("empty distribution")
        total = math.fsum(merged.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights do not sum to 1")
        normalized = tuple(sorted((x, p / total) for x, p in merged.items()))
        object.__setattr__(self, "atoms", normalized)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "DiscreteDistribution":
        return cls(tuple(pairs))

    @classmethod
    def point_mass(cls, x: float) -> "DiscreteDistribution":
        return cls(((x, 1.0),))


def moments_from_discrete(dist: DiscreteDistribution) -> MomentVector:
    """Raw moments m_j = sum_i p_i x_i^j for j = 0..4.

    Atoms are already sorted ascending; each moment is a compensated
    (exactly rounded) sum, so the result is deterministic.  m0 is 1 by
    construction, honoring the convention 0^0 = 1 for an atom at zero.
    """
    atoms = dist.atoms
    m1 = math.fsum(p * x for x, p in atoms)
    m2 = math.fsum(p * x * x for x, p in atoms)
    m3 = math.fsum(p * x * x * x for x, p in atoms)
    m4 = math.fsum(p * x * x * x * x for x, p in atoms)
    return MomentVector(1.0, m1, m2, m3, m4)


def moments_from_samples(samples: Sequence[float]) -> MomentVector:
    """Empirical raw moments m_j = (1/n) sum_i x_i^j.

    Implemented as ``moments_from_discrete`` of the empirical distribution
    (duplicate samples merged), so the two routes agree exactly.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample set")
    if not all(math.isfinite(x) for x in samples):
        raise ValueError("non-finite sample")
    n = len(samples)
    return moments_from_discrete(DiscreteDistribution.from_pairs((x, 1.0 / n) for x in samples))


def abs_third_moment(dist: DiscreteDistribution) -> float:
    """E|X|^3 = sum_i p_i |x_i|^3; always at least |m3|.

    Terms are the absolute values of the exact terms summed by
    ``moments_from_discrete`` for m3, so domination survives rounding.
    """
    return math.fsum(abs(p * x * x * x) for x, p in dist.atoms)


@dataclass(frozen=True, eq=False)
class HankelMatrix:
    """3x3 Gram matrix of (1, X, X^2): H[i][j] = m_{i+j}."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)

    @classmethod
    def from_moments(cls, mv: MomentVector) -> "HankelMatrix":
        import numpy as np

        m = mv.as_tuple()
        h = np.array(
            [
                [m[0], m[1], m[2]],
                [m[1], m[2], m[3]],
                [m[2], m[3], m[4]],
            ]
        )
        return cls(h)


def hankel(mv: MomentVector) -> HankelMatrix:
    """Hankel (moment) matrix of mv."""
    return HankelMatrix.from_moments(mv)


def hankel_det(m1, m2, m3, m4):
    """det H as the explicit polynomial in m1..m4 (m0 = 1); floats or arrays.

    Products only, so floats and arrays round alike and nothing raises
    OverflowError.
    """
    return m4 * m2 - m2 * m2 * m2 - m1 * m1 * m4 + 2.0 * m1 * m2 * m3 - m3 * m3


def hankel_det_closed_form(mv: MomentVector) -> float:
    """det H as the explicit polynomial in m1..m4 (valid for m0 = 1)."""
    return hankel_det(mv.m1, mv.m2, mv.m3, mv.m4)


def principal_minors(m1, m2, m3, m4):
    """The seven principal minors of H, in the order
    1, m2, m4, m2 - m1^2, m4 - m2^2, m2 m4 - m3^2, det H; floats or arrays."""
    return (1.0, m2, m4, m2 - m1 * m1, m4 - m2 * m2, m2 * m4 - m3 * m3, hankel_det(m1, m2, m3, m4))


def psd_verdict(a1, a2, a3, a4, tol: float = DEFAULT_PSD_TOL):
    """(psd, minors): H is PSD iff every principal minor is nonnegative.

    Takes the standardized vector (see ``standardize``) and requires each
    of its principal minors to be at least -tol.  m4 = 0 forces X = 0 up
    to underflow (an atom at 1e-90 has m4 = 0 and m1 = 1e-90); there the
    standardization leaves the vector unscaled and its minors are held to
    the same -tol.  Floats or arrays of equal shape.
    """
    minors = principal_minors(a1, a2, a3, a4)
    psd = minors[1] >= -tol
    for d in minors[2:]:
        psd = psd & (d >= -tol)
    return psd, minors


@dataclass(frozen=True)
class FeasibilityReport:
    """PSD verdict on the Hankel matrix of a moment vector, and how it was reached.

    ``scale`` is the standardization scale s = m4^(1/4), ``minors`` the
    seven standardized principal minors (see ``principal_minors``; the
    last is the standardized det H), ``decisive_minor`` the smallest minor
    and ``margin`` its excess over -DEFAULT_PSD_TOL: psd iff margin >= 0.
    PSD-ness is a necessary condition for a representing distribution to
    exist; sufficiency (rank conditions of the truncated moment problem)
    is not certified here.
    """

    psd: bool
    scale: float
    minors: tuple[float, ...]
    decisive_minor: float
    margin: float


def feasibility(mv: MomentVector) -> FeasibilityReport:
    """Check whether the Hankel matrix of ``mv`` is positive semidefinite.

    The verdict is ``True`` iff every standardized principal minor is at
    least -DEFAULT_PSD_TOL (see ``psd_verdict``).  Infeasibility is
    reported, never raised.
    """
    psd, minors = psd_verdict(*mv.unit)
    decisive = min(minors)
    return FeasibilityReport(bool(psd), mv.s, minors, decisive, decisive + DEFAULT_PSD_TOL)


def scale_moments(mv: MomentVector, lam: float) -> MomentVector:
    """Moment vector of lam * X: (1, lam m1, lam^2 m2, lam^3 m3, lam^4 m4)."""
    if not math.isfinite(lam):
        raise ValueError("non-finite scale factor")
    return MomentVector(1.0, lam * mv.m1, lam**2 * mv.m2, lam**3 * mv.m3, lam**4 * mv.m4)
