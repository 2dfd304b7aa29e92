"""Raw moments of discrete distributions and Hankel feasibility checks.

A moment vector (m0, m1, m2, m3, m4) collects the raw moments E X^j of a
random variable X for j = 0..4, with m0 = 1 always.  Necessary for such a
vector to come from a real random variable is that the 3x3 Hankel matrix
H[i][j] = m_{i+j} is positive semidefinite; ``feasibility`` reports that
verdict together with the leading principal minors and the smallest
eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "InfeasibleMomentsError",
    "MomentVector",
    "DiscreteDistribution",
    "HankelMatrix",
    "FeasibilityReport",
    "moment_scale",
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

#: Default absolute tolerance (times ``moment_scale``) for PSD verdicts.
DEFAULT_PSD_TOL = 1e-10


class InfeasibleMomentsError(ValueError):
    """The given numbers cannot be moments of any real random variable."""


def floor_at(v, lo: float):
    """max(v, lo) for a float, elementwise for an array (v above -inf)."""
    return v * (v > lo) + lo * (v <= lo)


def root(v):
    """Correctly rounded square root of a float, elementwise of an array."""
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def moment_scale(m4):
    """Normalization for absolute tolerances: max(1, m4^(3/2)); float or array.

    The Hankel determinant is homogeneous of degree 6 in X, and m4^(3/2)
    carries the same degree, so tol * moment_scale(m4) is scale covariant.
    """
    return floor_at(m4**1.5, 1.0)


@dataclass(frozen=True)
class MomentVector:
    """Raw moments (m0, m1, m2, m3, m4) with m0 = 1."""

    m0: float
    m1: float
    m2: float
    m3: float
    m4: float

    def __post_init__(self) -> None:
        values = (self.m0, self.m1, self.m2, self.m3, self.m4)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("non-finite moment")
        if abs(self.m0 - 1.0) > WEIGHT_SUM_TOL:
            raise InfeasibleMomentsError("m0 must be 1")
        object.__setattr__(self, "m0", 1.0)
        if self.m2 < 0.0 or self.m4 < 0.0:
            raise InfeasibleMomentsError("even moments must be nonnegative")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.m0, self.m1, self.m2, self.m3, self.m4)

    @property
    def scale(self) -> float:
        return moment_scale(self.m4)


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
    """det H as the explicit polynomial in m1..m4 (m0 = 1); floats or arrays."""
    return m4 * m2 - m2**3 - m1 * m1 * m4 + 2.0 * m1 * m2 * m3 - m3 * m3


def hankel_det_closed_form(mv: MomentVector) -> float:
    """det H as the explicit polynomial in m1..m4 (valid for m0 = 1)."""
    return hankel_det(mv.m1, mv.m2, mv.m3, mv.m4)


def psd_verdict(m1, m2, m3, m4, min_eig, tol: float = DEFAULT_PSD_TOL):
    """(psd, d2, d3, scale) from the minors and the smallest eigenvalue of H.

    PSD iff d2 = m2 - m1^2, d3 = det H and min_eig are all at least
    -tol * scale (d1 = 1 always is).  Floats or arrays of equal shape.
    """
    d2 = m2 - m1 * m1
    d3 = hankel_det(m1, m2, m3, m4)
    scale = moment_scale(m4)
    cut = -tol * scale
    return (d2 >= cut) & (d3 >= cut) & (min_eig >= cut), d2, d3, scale


@dataclass(frozen=True)
class FeasibilityReport:
    """PSD verdict on the Hankel matrix of a moment vector.

    PSD-ness is a necessary condition for a representing distribution to
    exist; sufficiency (rank conditions of the truncated moment problem)
    is not certified here.
    """

    psd: bool
    det: float
    minors: tuple[float, float, float]
    min_eigenvalue: float
    scale: float


def feasibility(mv: MomentVector, tol: float = DEFAULT_PSD_TOL) -> FeasibilityReport:
    """Check whether the Hankel matrix of ``mv`` is positive semidefinite.

    The verdict is ``True`` iff every leading principal minor and the
    smallest eigenvalue are at least -tol * scale, with
    scale = max(1, m4^(3/2)).  Infeasibility is reported, never raised.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    min_eig = float(np.linalg.eigvalsh(hankel(mv).entries)[0])
    psd, d2, d3, scale = psd_verdict(mv.m1, mv.m2, mv.m3, mv.m4, min_eig, tol)
    return FeasibilityReport(psd=psd, det=d3, minors=(1.0, d2, d3), min_eigenvalue=min_eig, scale=scale)


def scale_moments(mv: MomentVector, lam: float) -> MomentVector:
    """Moment vector of lam * X: (1, lam m1, lam^2 m2, lam^3 m3, lam^4 m4)."""
    if not math.isfinite(lam):
        raise ValueError("non-finite scale factor")
    return MomentVector(1.0, lam * mv.m1, lam**2 * mv.m2, lam**3 * mv.m3, lam**4 * mv.m4)
