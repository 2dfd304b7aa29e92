"""Raw moments of discrete distributions and Hankel feasibility checks.

A moment vector (m0, m1, m2, m3, m4) collects the raw moments E X^j of a
random variable X for j = 0..4, with m0 = 1 always.  Necessary for such a
vector to come from a real random variable is that the 3x3 Hankel matrix
H[i][j] = m_{i+j} is positive semidefinite, that is, that the covariance
matrix of (X, X^2) is (see ``covariance``).  A ``MomentVector`` decides
that once, when built, on the standardized vector m_j / s^j, s = m4^(1/4),
the moments of X / s; ``feasibility`` reports the covariance with the
margin over the tolerance.  Standard library only.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from operator import mul

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable, Sequence

__all__ = [
    "InfeasibleMomentsError",
    "MomentVector",
    "DiscreteDistribution",
    "FeasibilityReport",
    "moments_from_discrete",
    "moments_from_samples",
    "abs_third_moment",
    "hankel",
    "psd_verdict",
    "feasibility",
]

#: A law's weights as given must sum to 1 within this, and a moment vector's m0 be 1.
WEIGHT_SUM_TOL = 1e-12

#: Default tolerance for PSD verdicts, on the standardized covariance.
DEFAULT_PSD_TOL = 1e-10


class InfeasibleMomentsError(ValueError):
    """The given numbers cannot be moments of any real random variable."""


class CertificateError(RuntimeError):
    """The simplex found no optimum, or its optimum failed the primal-dual check."""


def floor_at(v, lo: float):
    """max(v, lo) for a float, elementwise for an array in one pass; lo where
    v <= lo, so +0.0 for v = -0.0 and lo = 0.0 (on equal zeros numpy's
    maximum returns its second operand, lo)."""
    return (v if v > lo else lo) if isinstance(v, (float, int)) else v.clip(lo)


def root(v):
    """Correctly rounded square root of a float, elementwise of an array.

    A float's ``v ** 0.5`` is not always correctly rounded; an array's is
    numpy's ``sqrt``.
    """
    return math.sqrt(v) if isinstance(v, (float, int)) else v**0.5


def fourth_root(m4):
    """s = m4^(1/4) by two correctly rounded square roots: floats and arrays agree bit for bit."""
    return root(root(m4))


def standardize(m1, m2, m3, m4):
    """(s, (m1/s, m2/s^2, m3/s^3, m4/s^4)) with s = ``fourth_root(m4)``: the moments of X / s.

    The standardized moments of a law lie in [-1, 1], so tolerances on them
    are relative.  For m4 = 0, where X = 0 almost surely (up to underflow),
    s is 0 and the moments come back as they are.  Dividing by one factor
    of s at a time keeps every intermediate in range for any finite m4 >= 0.
    Floats or arrays.
    """
    s = fourth_root(m4)
    z = 1.0 / (s + (s == 0.0))
    return s, (m1 * z, m2 * z * z, m3 * z * z * z, m4 * z * z * z * z)


def covariance(m1, m2, m3, m4):
    """(a, b, c) = (Var X, Var X^2, Cov(X, X^2)) = (m2 - m1^2, m4 - m2^2, m3 - m1 m2),
    the Schur complement of H's corner m0 = 1: det H = a b - c^2, and H is
    PSD iff a >= 0, b >= 0 and |c| <= sqrt(ab) (the covariance inequality
    behind the sqrt bound; see ``cov_radius``).  Products only, so floats and
    arrays round alike and nothing raises OverflowError."""
    return m2 - m1 * m1, m4 - m2 * m2, m3 - m1 * m2


def cov_radius(unit, cov):
    """sqrt(ab) of a standardized vector's covariance, a and b raised by their
    rounding error, 8 ulps of the terms they subtract: the largest |c| that
    ``psd_verdict`` and ``m3_interval`` accept, and at m1 = 0 the sqrt bound
    (``bounds.sqrt_bound``).  The law on -0.5 - 1e-9 and
    0.5 - 1e-9 has b = 1.6e-17 and |c| = 4e-9, but its b rounds to 1 - 1 = 0;
    at b = 0 the Rademacher law gets 5.96e-8.  Floats or arrays."""
    (a1, a2, _, a4), (a, b, _) = unit, cov
    e = 8.0 * sys.float_info.epsilon
    return root(floor_at(a + e * (a2 + a1 * a1), 0.0) * floor_at(b + e * (a4 + a2 * a2), 0.0))


def psd_verdict(a1, a2, a3, a4, tol: float = DEFAULT_PSD_TOL):
    """(psd, (a, b, c), r): H is PSD iff its ``covariance`` is.

    Takes the standardized vector (see ``standardize``) and requires a, b
    and r - |c|, r = ``cov_radius``, to be at least -tol.  m4 = 0 forces
    X = 0 up to underflow (an atom at 1e-90 has m4 = 0 and m1 = 1e-90);
    there the standardization leaves the vector unscaled and its covariance
    is held to the same -tol.  Floats or arrays of equal shape; r is handed
    back for the falsifier, whose interval margins read it.
    """
    a, b, c = cov = covariance(a1, a2, a3, a4)
    r = cov_radius((a1, a2, a3, a4), cov)
    return (a >= -tol) & (b >= -tol) & (r - abs(c) >= -tol), cov, r


def psd_tol(m4: float) -> float:
    """The PSD tolerance on the standardized covariance, for ``MomentVector``
    and ``m3_interval``: DEFAULT_PSD_TOL, widened by m4's own rounding error
    4 * 2^-1074 / m4 when m4 is subnormal (a point mass at 6.89e-81 has
    m4 = 2.25e-321, good to ~3 digits, and Var X^2 near -5e-4)."""
    if 0.0 < m4 < sys.float_info.min:
        return DEFAULT_PSD_TOL + 4.0 * math.ulp(0.0) / m4
    return DEFAULT_PSD_TOL


def _validated_make(cls, iterable):
    """``_make``, and so ``_replace``, through a validating ``__new__``."""
    return cls(*iterable)


class MomentVector(namedtuple("MomentVector", "m0 m1 m2 m3 m4")):
    """Raw moments (m0, m1, m2, m3, m4) with m0 = 1.

    ``s`` and ``unit`` are the standardization ``standardize(m1, m2, m3, m4)``,
    and ``psd`` and ``cov`` the verdict ``psd_verdict(*unit, psd_tol(m4))``
    on it, all computed once here: every other layer reads them.  They are
    attributes in the instance dict, not fields: the tuple holds the five
    moments.  Like the fields, they cannot be assigned or deleted.
    """

    def __new__(cls, m0, m1, m2, m3, m4):
        if not all(math.isfinite(v) for v in (m0, m1, m2, m3, m4)):
            raise ValueError("non-finite moment")
        if abs(m0 - 1.0) > WEIGHT_SUM_TOL:
            raise InfeasibleMomentsError("m0 must be 1")
        if m2 < 0.0 or m4 < 0.0:
            raise InfeasibleMomentsError("even moments must be nonnegative")
        self = super().__new__(cls, 1.0, m1, m2, m3, m4)
        s, unit = standardize(m1, m2, m3, m4)
        psd, cov, _ = psd_verdict(*unit, psd_tol(m4))
        vars(self).update(s=s, unit=unit, psd=psd, cov=cov)
        return self

    _make = classmethod(_validated_make)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {type(self).__name__}.{name}")

    __delattr__ = __setattr__


class DiscreteDistribution(namedtuple("DiscreteDistribution", "atoms")):
    """Finitely many atoms (x, p), sorted by x, with p > 0 summing to 1.

    Construction reads ``atoms``, any iterable of (x, p) pairs, once.  The
    weights as given must sum to 1 within WEIGHT_SUM_TOL; zero weights are
    dropped, repeated points merged, the merged weights divided by their total.
    """

    __slots__ = ()

    def __new__(cls, atoms):
        merged: dict[float, float] = {}
        given: list[float] = []
        for x, p in atoms:
            x, p = float(x), float(p)
            given.append(p)
            if not (math.isfinite(x) and math.isfinite(p)):
                raise ValueError("non-finite atom")
            if p < 0.0:
                raise ValueError("negative weight")
            if p == 0.0:
                continue
            merged[x] = merged.get(x, 0.0) + p
        if not merged:
            raise ValueError("empty distribution")
        if abs(math.fsum(given) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights do not sum to 1")
        total = math.fsum(merged.values())
        return super().__new__(cls, tuple(sorted((x, p / total) for x, p in merged.items())))

    _make = classmethod(_validated_make)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> DiscreteDistribution:
        return cls(pairs)


def _raw_moments(xs, ws) -> MomentVector:
    """Moments m_j = sum_i w_i x_i^j of atoms xs with weights ws, each a
    correctly rounded ``fsum`` of the terms w x, (w x) x, ...: deterministic,
    whatever the atoms' order.  m4 bounds every term (w <= 1), so it is summed
    first, and OverflowError is raised when it is beyond double range."""
    t1 = list(map(mul, ws, xs))
    t2 = list(map(mul, t1, xs))
    t3 = list(map(mul, t2, xs))
    m4 = math.fsum(map(mul, t3, xs))
    if m4 == math.inf:
        raise OverflowError("the fourth moment is beyond double range")
    return MomentVector(1.0, math.fsum(t1), math.fsum(t2), math.fsum(t3), m4)


def moments_from_discrete(dist: DiscreteDistribution) -> MomentVector:
    """Raw moments m_j = sum_i p_i x_i^j for j = 0..4 (see ``_raw_moments``);
    m0 = 1 honors the convention 0^0 = 1 for an atom at zero."""
    return _raw_moments(*zip(*dist.atoms))


def moments_from_samples(samples: Sequence[float]) -> MomentVector:
    """Empirical raw moments m_j = (1/n) sum_i x_i^j.

    The sums of ``moments_from_discrete`` on the empirical distribution, term
    for term, without building it: the two routes agree exactly.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("empty sample set")
    if not all(map(math.isfinite, samples)):
        raise ValueError("non-finite sample")
    p = 1.0 / len(samples)
    merged: dict[float, float] = {}
    for x in map(float, samples):  # merged as the law merges: 0.0 + p + ... + p, the first of ±0.0 kept
        merged[x] = merged.get(x, 0.0) + p
    total = math.fsum(merged.values())
    return _raw_moments(list(merged), [w / total for w in merged.values()])


def abs_third_moment(dist: DiscreteDistribution) -> float:
    """E|X|^3 = sum_i p_i |x_i|^3; always at least |m3|.

    Terms are the absolute values of the exact terms summed by
    ``moments_from_discrete`` for m3, so domination survives rounding.
    """
    return math.fsum(abs(p * x * x * x) for x, p in dist.atoms)


def hankel(mv: MomentVector) -> tuple[tuple[float, float, float], ...]:
    """Rows of the 3x3 Hankel (moment) matrix of mv, the Gram matrix of
    (1, X, X^2): H[i][j] = m_{i+j}.  ``np.array(hankel(mv))`` for linear algebra."""
    m0, m1, m2, m3, m4 = mv
    return (m0, m1, m2), (m1, m2, m3), (m2, m3, m4)


class FeasibilityReport(namedtuple("FeasibilityReport", "psd scale covariance margin")):
    """PSD verdict on the Hankel matrix of a moment vector, and how it was reached.

    ``scale`` is the standardization scale s = m4^(1/4), ``covariance`` the
    (a, b, c) of X / s (see ``covariance``) and ``margin`` the least of a, b
    and r - |c| (r = ``cov_radius``), plus ``psd_tol(m4)``: psd iff margin >= 0.
    The margin's last digits move with scale where b is near 0: for the
    equal-weight law on -0.9999 and 1.00001 it is 1.1589264143734854e-10 at
    lam = 1 and 1.1791113760671143e-10 at lam = 10, both psd.
    PSD-ness is a necessary condition for a representing distribution to
    exist; sufficiency (rank conditions of the truncated moment problem)
    is not certified here.
    """

    __slots__ = ()


def feasibility(mv: MomentVector) -> FeasibilityReport:
    """Check whether the Hankel matrix of ``mv`` is positive semidefinite.

    Packages the verdict ``mv`` reached when it was built (see
    ``psd_verdict``).  Infeasibility is reported, never raised.
    """
    a, b, c = mv.cov
    return FeasibilityReport(mv.psd, mv.s, mv.cov, min(a, b, cov_radius(mv.unit, mv.cov) - abs(c)) + psd_tol(mv.m4))
