"""Sharp closed-form bounds on m3 and their extremal two-point distributions.

For any random variable with E X <= 0 and finite fourth moment,

    m3 <= sqrt(m4 m2 - m2^3) <= (4/27)^(1/4) m4^(3/4),

and both bounds are attained exactly by zero-mean two-point distributions.
This module evaluates the bounds, detects tightness, constructs the
attaining distributions, and extracts a support certificate from a
singular Hankel matrix.  Without the sign condition on m1, ``m3_interval``
gives the exact two-sided range of m3 compatible with (m1, m2, m4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .moments import (
    DiscreteDistribution,
    InfeasibleMomentsError,
    MomentVector,
    floor_at,
    psd_tol,
    root,
    standardize,
)

__all__ = [
    "QUARTER_CONSTANT",
    "EXTREMAL_U_FACTOR",
    "EXTREMAL_V_FACTOR",
    "BoundResult",
    "MomentInterval",
    "Certificate",
    "bound_trivial",
    "bound_sqrt",
    "bound_quarter",
    "m3_interval",
    "sqrt_bound",
    "quarter_bound",
    "interval_ends",
    "two_point_zero_mean",
    "extremal_from_sigma",
    "certificate_from_hankel",
]

#: The sharp constant (4/27)^(1/4) = 0.6204032394013997...
QUARTER_CONSTANT = (4.0 / 27.0) ** 0.25

#: Support points of the equality case are -u, v with u, v these multiples
#: of the free scale sigma.
EXTREMAL_U_FACTOR = (math.sqrt(3.0) - 1.0) / math.sqrt(2.0)
EXTREMAL_V_FACTOR = (math.sqrt(3.0) + 1.0) / math.sqrt(2.0)

#: Tolerance on the standardized slack (slack / s^3, s = m4^(1/4)) that
#: classifies a bound as tight.
DEFAULT_TIGHT_TOL = 1e-8

#: Rounding headroom on the m1 <= 0 precondition, relative to s: zero-mean
#: two-point constructions can carry a one-ulp positive mean after
#: normalization.
M1_PRECONDITION_TOL = 1e-12


def mean_nonpositive(mv: MomentVector) -> bool:
    """The precondition m1 <= 0 of the sharp bounds, to M1_PRECONDITION_TOL * s."""
    return mv.m1 <= M1_PRECONDITION_TOL * mv.s


def _check_mean_nonpositive(mv: MomentVector) -> None:
    if not mean_nonpositive(mv):
        raise ValueError("precondition m1 <= 0 violated (use m3_interval)")


@dataclass(frozen=True)
class BoundResult:
    """A bound on m3 with its slack and, when tight, the attaining witness.

    ``scaled_slack`` is slack / s^3 with s = m4^(1/4), the slack of X / s:
    the bound is tight iff its magnitude is at most the tolerance.
    """

    bound: float
    slack: float
    scaled_slack: float
    tight: bool
    witness: Optional[DiscreteDistribution] = None


@dataclass(frozen=True)
class MomentInterval:
    """Exact range [lo, hi] of m3 values compatible with (m1, m2, m4)."""

    lo: float
    hi: float

    def contains(self, m3: float, widen: float = 0.0) -> bool:
        """lo - widen <= m3 <= hi + widen; elementwise when the fields are arrays."""
        return (self.lo - widen <= m3) & (m3 <= self.hi + widen)


@dataclass(frozen=True)
class Certificate:
    """Null vector of a singular Hankel matrix and the distribution it pins down.

    coeffs is a unit vector (a0, a1, a2) with a0 + a1 X + a2 X^2 = 0 almost
    surely; its real roots are the support points of the unique boundary
    distribution, recovered with weights matching m0 and m1.
    """

    coeffs: tuple[float, float, float]
    roots: tuple[float, ...]
    recovered: DiscreteDistribution


def _require_feasible(mv: MomentVector) -> None:
    if not mv.psd:
        raise InfeasibleMomentsError("not a moment vector")


def sqrt_bound(m2, m4):
    """(sqrt(max(0, s2)), s2) with s2 = m4 m2 - m2^3; floats or arrays."""
    s2 = m4 * m2 - m2 * m2 * m2
    return root(floor_at(s2, 0.0)), s2


def quarter_bound(m4):
    """(4/27)^(1/4) m4^(3/4); float or array.

    m4^(3/4) is taken as r sqrt(r) with r = sqrt(m4), from correctly rounded
    square roots, so floats and arrays agree bit for bit (``x ** 0.75``
    rounds differently in libm and numpy).
    """
    r = root(m4)
    return QUARTER_CONSTANT * (r * root(r))


def interval_ends(m1, m2, m4):
    """(lo, hi, a, b): m3 ranges over m1 m2 -/+ sqrt(a b), a = Var X, b = Var X^2.

    Negative a or b are clamped to 0; floats or arrays.
    """
    a = m2 - m1 * m1
    b = m4 - m2 * m2
    half = root(floor_at(a, 0.0) * floor_at(b, 0.0))
    center = m1 * m2
    return center - half, center + half, a, b


def bound_trivial(mv: MomentVector) -> float:
    """The unconditional bound m4^(3/4) (best constant 1 without m1 <= 0)."""
    return mv.m4**0.75


def _bound_result(mv: MomentVector, unit_bound: float, tol: float, witness) -> BoundResult:
    """BoundResult from the bound of X / s; ``witness()`` builds the witness of X / s.

    For s = 0 (m4 = 0) both bounds and the witness are 0.
    """
    s = mv.s
    scaled_slack = unit_bound - mv.unit[2]
    bound = unit_bound * s * s * s
    tight = abs(scaled_slack) <= tol
    law = DiscreteDistribution(tuple((s * x, p) for x, p in witness().atoms)) if tight else None
    return BoundResult(bound, bound - mv.m3, scaled_slack, tight, law)


def bound_sqrt(mv: MomentVector, tol: float = DEFAULT_TIGHT_TOL) -> BoundResult:
    """The bound m3 <= sqrt(m4 m2 - m2^3), valid when m1 <= 0.

    Tight exactly for the zero-mean two-point distributions; when tight,
    the witness reconstructs (u, v) from m2 = uv and m3 = uv(v - u).
    The verdict and the witness are computed for X / s, s = m4^(1/4).
    """
    _check_mean_nonpositive(mv)
    _require_feasible(mv)
    _, a2, a3, a4 = mv.unit
    return _bound_result(mv, sqrt_bound(a2, a4)[0], tol, lambda: _sqrt_witness(a2, a3))


def _sqrt_witness(m2: float, m3: float) -> DiscreteDistribution:
    # Solve t^2 - (m3/m2) t - m2 = 0 for v > 0, then u = m2 / v.
    if m2 <= 0.0:
        return DiscreteDistribution.point_mass(0.0)
    r = m3 / m2
    v = 0.5 * (r + math.sqrt(r * r + 4.0 * m2))
    return two_point_zero_mean(m2 / v, v)


def bound_quarter(mv: MomentVector, tol: float = DEFAULT_TIGHT_TOL) -> BoundResult:
    """The sharp bound m3 <= (4/27)^(1/4) m4^(3/4), valid when m1 <= 0.

    Obtained from ``bound_sqrt`` by maximizing over m2, with maximizer
    m2 = sqrt(m4/3); tight exactly for ``extremal_from_sigma`` distributions.
    When tight, the witness is the one with the same m4 (3 sigma^4 = m4),
    which attains the bound.  The verdict and the witness are computed for
    X / s, s = m4^(1/4).
    """
    _check_mean_nonpositive(mv)
    _require_feasible(mv)
    a4 = mv.unit[3]

    def witness() -> DiscreteDistribution:
        if a4 > 0.0:
            return extremal_from_sigma((a4 / 3.0) ** 0.25)
        return DiscreteDistribution.point_mass(0.0)

    return _bound_result(mv, quarter_bound(a4), tol, witness)


def m3_interval(m1: float, m2: float, m4: float) -> MomentInterval:
    """Exact two-sided range of m3 given (m1, m2, m4), any sign of m1.

    The Hankel determinant, as a quadratic in m3, is nonnegative exactly on
    [m1 m2 - sqrt(D), m1 m2 + sqrt(D)] with D = (m2 - m1^2)(m4 - m2^2);
    equivalently Cov(X^2, X)^2 <= Var(X^2) Var(X).  Computed for X / s,
    s = m4^(1/4), whose variances are minors 3 and 4 of ``MomentVector.minors``
    and are held to the same ``psd_tol(m4)``.
    """
    if not all(math.isfinite(v) for v in (m1, m2, m4)):
        raise ValueError("non-finite moment")
    s, (a1, a2, _, a4) = standardize(m1, m2, 0.0, max(m4, 0.0))
    lo, hi, a, b = interval_ends(a1, a2, a4)
    tol = psd_tol(m4)
    if m4 < 0.0 or a < -tol or b < -tol:
        raise InfeasibleMomentsError("infeasible (m1, m2, m4) triple")
    return MomentInterval(lo=lo * s * s * s, hi=hi * s * s * s)


def two_point_zero_mean(u: float, v: float) -> DiscreteDistribution:
    """The unique zero-mean distribution on {-u, v}: P(X = v) = u/(u+v).

    Its moments are m2 = uv, m3 = uv(v - u), m4 = uv(u^2 - uv + v^2).
    """
    if not (u > 0.0 and v > 0.0 and math.isfinite(u) and math.isfinite(v)):
        raise ValueError("u, v must be positive")
    s = u + v
    return DiscreteDistribution.from_pairs([(-u, v / s), (v, u / s)])


def extremal_from_sigma(sigma: float) -> DiscreteDistribution:
    """The two-point distribution attaining the quarter bound at scale sigma.

    Its atoms are -u, v with u, v = EXTREMAL_U_FACTOR, EXTREMAL_V_FACTOR
    times sigma.  Moments: m2 = sigma^2, m3 = sqrt(2) sigma^3,
    m4 = 3 sigma^4, so that m3 = (4/27)^(1/4) m4^(3/4) and m2 = sqrt(m4/3)
    hold with equality.
    """
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise ValueError("sigma must be positive")
    return two_point_zero_mean(EXTREMAL_U_FACTOR * sigma, EXTREMAL_V_FACTOR * sigma)


def certificate_from_hankel(
    mv: MomentVector, tol: float = DEFAULT_TIGHT_TOL
) -> Certificate:
    """Extract the boundary distribution from a singular Hankel matrix.

    Requires the standardized det H to be 0 within tol (and H PSD): then
    some a0 + a1 X + a2 X^2 vanishes almost surely, and the polynomial's
    real roots carry all the mass.  The null vector is the largest cross
    product of two rows of the standardized H; when every cross product is
    within tol of 0, H has rank 1 and the law is the point mass at m1.
    Weights are solved from m0 = 1 and m1.
    """
    _require_feasible(mv)
    if abs(mv.minors[-1]) > tol:
        raise InfeasibleMomentsError("interior point: no finite-support certificate of order <= 2")
    a1, a2, a3, a4 = mv.unit
    rows = ((1.0, a1, a2), (a1, a2, a3), (a2, a3, a4))
    null = max((_cross(rows[i], rows[j]) for i, j in ((0, 1), (0, 2), (1, 2))), key=_norm)
    size = _norm(null)
    unit = mv.s if mv.s > 0.0 else 1.0
    if size <= tol:
        roots: tuple[float, ...] = (float(mv.m1),)
        coeffs = (-mv.m1, 1.0, 0.0)
    else:
        c0, c1, c2 = (c / size for c in null)
        roots = tuple(unit * r for r in _polynomial_support(c0, c1, c2))
        coeffs = (c0, c1 / unit, c2 / unit / unit)
    norm = _norm(coeffs)
    sign = next((1.0 if c > 0.0 else -1.0 for c in coeffs if abs(c) > 1e-12 * norm), 1.0)
    a0, a1, a2 = (sign * c / norm for c in coeffs)
    return Certificate(coeffs=(a0, a1, a2), roots=roots, recovered=_recover_distribution(mv, roots))


def _cross(p: tuple[float, float, float], q: tuple[float, float, float]) -> tuple[float, float, float]:
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _norm(v: tuple[float, ...]) -> float:
    return math.hypot(*v)


def _polynomial_support(a0: float, a1: float, a2: float) -> tuple[float, ...]:
    coeff_norm = max(abs(a0), abs(a1), abs(a2))
    if abs(a2) > 1e-10 * coeff_norm:
        disc = a1 * a1 - 4.0 * a2 * a0
        disc_scale = max(1.0, a1 * a1 + 4.0 * abs(a2 * a0))
        if disc < -1e-8 * disc_scale:
            raise InfeasibleMomentsError("inconsistent null vector")
        disc = max(0.0, disc)
        sq = math.sqrt(disc)
        r1 = (-a1 - sq) / (2.0 * a2)
        r2 = (-a1 + sq) / (2.0 * a2)
        lo, hi = min(r1, r2), max(r1, r2)
        if hi - lo <= 1e-10 * max(1.0, abs(lo), abs(hi)):
            return ((lo + hi) / 2.0,)
        return (lo, hi)
    if abs(a1) > 1e-10 * coeff_norm:
        return (-a0 / a1,)
    raise InfeasibleMomentsError("inconsistent null vector")


def _recover_distribution(
    mv: MomentVector, roots: tuple[float, ...]
) -> DiscreteDistribution:
    if len(roots) == 1:
        return DiscreteDistribution.point_mass(roots[0])
    x1, x2 = roots
    p1 = (x2 - mv.m1) / (x2 - x1)
    p1 = min(1.0, max(0.0, p1))
    return DiscreteDistribution.from_pairs([(x1, p1), (x2, 1.0 - p1)])
