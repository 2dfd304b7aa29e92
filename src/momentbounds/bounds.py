"""Sharp closed-form bounds on m3 and their extremal two-point distributions.

For any random variable with E X <= 0 and finite fourth moment,

    m3 <= sqrt(m4 m2 - m2^3) <= (4/27)^(1/4) m4^(3/4),

and both bounds are attained exactly by zero-mean two-point distributions.
This module evaluates the bounds, and one boundary law of X / s,
s = m4^(1/4), decides tightness, the attaining witnesses and the Hankel
certificate.  Without the sign condition on m1, ``m3_interval``
gives the two-sided range of m3 compatible with (m1, m2, m4), its ends
widened by the PSD verdict's rounding allowance (+-5.96e-8 s^3 for the
Rademacher law, whose exact range is {0}).  The sqrt bound carries the
same allowance, so for m1 <= 0 it is at least the interval's upper end.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .moments import (
    DiscreteDistribution,
    InfeasibleMomentsError,
    MomentVector,
    allowance,
    cov_radius,
    covariance,
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

#: Rounding headroom on the m1 <= 0 precondition, relative to s: zero-mean
#: two-point constructions can carry a one-ulp positive mean after
#: normalization.
M1_PRECONDITION_TOL = 1e-12


def mean_nonpositive(mv: MomentVector) -> bool:
    """The precondition m1 <= 0 of the sharp bounds, to M1_PRECONDITION_TOL * s."""
    return mv.m1 <= M1_PRECONDITION_TOL * mv.s


class BoundResult(namedtuple("BoundResult", "bound slack scaled_slack tight witness", defaults=(None,))):
    """A bound on m3 with its slack and, when tight, the attaining witness
    (a ``DiscreteDistribution``, else None).

    ``scaled_slack`` is slack / s^3 with s = m4^(1/4), the slack of X / s;
    tightness is judged on the law, not on it (see ``_bound_result``).
    """

    __slots__ = ()


class MomentInterval(namedtuple("MomentInterval", "lo hi")):
    """Range [lo, hi] of m3 given (m1, m2, m4), widened by the PSD rounding allowance (Rademacher: +-5.96e-8 s^3)."""

    __slots__ = ()


class Certificate(namedtuple("Certificate", "coeffs roots recovered")):
    """Null vector of a singular Hankel matrix and the distribution it pins down.

    ``recovered`` is the law on at most two points with the given moments,
    ``roots`` (a tuple) its support, and coeffs the unit vector (a0, a1, a2)
    with a0 + a1 X + a2 X^2 = 0 almost surely, its leading coefficient
    positive at any scale of X (a2 for two points, a1 with a2 = 0 for a
    point mass).
    """

    __slots__ = ()


def sqrt_bound(m2, m4):
    """sqrt(m4 m2 - m2^3) = sqrt(m2 Var X^2) of a zero-mean X as its
    ``cov_radius``, with the rounding allowance of the PSD verdict and of
    ``m3_interval``, whose upper end it bounds when m1 <= 0.  Where Var X^2
    is near 0 the allowance decides: the Rademacher law gets 5.96e-8 for 0.
    Floats or arrays."""
    unit = (0.0, m2, 0.0, m4)
    return cov_radius(unit, covariance(*unit))


def quarter_bound(m4):
    """(4/27)^(1/4) m4^(3/4); float or array.

    m4^(3/4) is taken as r sqrt(r) with r = sqrt(m4), from correctly rounded
    square roots, so floats and arrays agree bit for bit (``x ** 0.75``
    rounds differently in libm and numpy).
    """
    r = root(m4)
    return QUARTER_CONSTANT * (r * root(r))


def bound_trivial(mv: MomentVector) -> float:
    """The unconditional bound m4^(3/4) (best constant 1 without m1 <= 0)."""
    return mv.m4**0.75


def _boundary_law(mv: MomentVector):
    """Atoms (x, p) of X / s of the law on at most two points with mv's moments, or None.

    H is singular, the rank <= 2 case of Curto & Fialkow 1991, when
    d = ab - c^2, (a, b, c) = ``mv.cov``, is 0 within the ``allowance`` of
    its terms.  The law is then the point mass at m1 when a and b are 0
    within their own 8 ulps, else the law on two points with mean m1,
    variance a > 0 and third central moment c - 2 m1 a.
    """
    a1, a2, a3, a4 = mv.unit
    a, b, c = mv.cov
    if abs(a) <= allowance(a2 + a1 * a1) and abs(b) <= allowance(a4 + a2 * a2):
        return ((a1, 1.0),)
    terms = a * (a4 + a2 * a2) + abs(b) * (a2 + a1 * a1) + 2.0 * abs(c) * (abs(a3) + abs(a1 * a2))
    if a <= 0.0 or abs(a * b - c * c) > allowance(terms, mv.m4):
        return None
    return _two_point(a1, a, c - 2.0 * a1 * a)


def _bound_result(mv: MomentVector, unit_bound: float, attained: bool) -> BoundResult:
    """BoundResult from the bound of X / s, tight when ``attained`` and X / s
    has a ``_boundary_law`` with |m1| <= M1_PRECONDITION_TOL and c >= 0
    within the ``allowance`` of its terms (with c < 0 it sits at the lower
    end of its m3 range); the witness is that law, scaled back.  Checks the
    preconditions of both sharp bounds: m1 <= 0 and H PSD."""
    if not mean_nonpositive(mv):
        raise ValueError("precondition m1 <= 0 violated (use m3_interval)")
    if not mv.psd:
        raise InfeasibleMomentsError("not a moment vector")
    (a1, a2, a3, _), s = mv.unit, mv.s
    at_top = attained and abs(a1) <= M1_PRECONDITION_TOL and mv.cov[2] >= -allowance(abs(a3) + abs(a1 * a2), mv.m4)
    law = _boundary_law(mv) if at_top else None
    bound = unit_bound * s * s * s
    witness = law and DiscreteDistribution((x * (s or 1.0), p) for x, p in law)
    return BoundResult(bound, bound - mv.m3, unit_bound - a3, law is not None, witness)


def bound_sqrt(mv: MomentVector) -> BoundResult:
    """The bound m3 <= sqrt(m4 m2 - m2^3), valid when m1 <= 0.

    Tight exactly for the zero-mean two-point laws with m3 >= 0 and the
    point mass at 0, each its own witness (see ``_bound_result``).  The
    bound is ``sqrt_bound``, with the PSD verdict's rounding allowance
    (5.96e-8 s^3 for the Rademacher law, which is tight).
    """
    return _bound_result(mv, sqrt_bound(mv.unit[1], mv.unit[3]), True)


def _two_point(mean: float, var: float, k3: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """(x, p) pairs of the law on mean - u, mean + v with variance var > 0 and third central moment k3.

    -u and v are the roots of t^2 - (k3 / var) t - var; the one of larger magnitude
    is taken without cancellation, the other from their product -var.
    """
    r = k3 / var
    w = 0.5 * (abs(r) + math.sqrt(r * r + 4.0 * var))
    u, v = (w, var / w) if r < 0.0 else (var / w, w)
    return (mean - u, v / (u + v)), (mean + v, u / (u + v))


def bound_quarter(mv: MomentVector) -> BoundResult:
    """The sharp bound m3 <= (4/27)^(1/4) m4^(3/4), valid when m1 <= 0.

    Obtained from ``bound_sqrt`` by maximizing over m2, with maximizer
    m2 = sqrt(m4/3); tight exactly for ``extremal_from_sigma`` distributions:
    when ``bound_sqrt`` is and the bound of X / s is its m3 within their
    ``allowance``.  The witness is the law itself.
    """
    a3, a4 = mv.unit[2:]
    q = quarter_bound(a4)
    return _bound_result(mv, q, abs(q - a3) <= allowance(q + abs(a3), mv.m4))


def m3_interval(m1: float, m2: float, m4: float) -> MomentInterval:
    """Two-sided range of m3 given (m1, m2, m4), any sign of m1.

    H is PSD iff Cov(X, X^2) = m3 - m1 m2 is at most sqrt(Var X Var X^2)
    in magnitude (see ``covariance``).  Computed for X / s, s = m4^(1/4),
    whose Var X and Var X^2 are held to the same ``psd_tol(m4)`` as in
    ``MomentVector.cov``; the half-width is ``cov_radius``, so the ends carry
    the PSD verdict's rounding allowance: the Rademacher law (0, 1, 1), whose
    exact range is {0}, gets +-5.96e-8 s^3.  For m1 <= 0, hi is at most the
    sqrt bound, which carries the same allowance.
    """
    if not all(math.isfinite(v) for v in (m1, m2, m4)):
        raise ValueError("non-finite moment")
    s, unit = standardize(m1, m2, 0.0, max(m4, 0.0))
    a, b, _ = cov = covariance(*unit)
    tol = psd_tol(m4)
    if m4 < 0.0 or a < -tol or b < -tol:
        raise InfeasibleMomentsError("infeasible (m1, m2, m4) triple")
    half, center = cov_radius(unit, cov), unit[0] * unit[1]
    return MomentInterval(lo=(center - half) * s * s * s, hi=(center + half) * s * s * s)


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


def certificate_from_hankel(mv: MomentVector) -> Certificate:
    """The ``_boundary_law`` of a singular Hankel matrix, scaled back, and its
    quadratic; InfeasibleMomentsError when there is none."""
    if not mv.psd:
        raise InfeasibleMomentsError("not a moment vector")
    law = _boundary_law(mv)
    if law is None:
        if mv.cov[0] <= 0.0:
            raise InfeasibleMomentsError("singular Hankel matrix without a positive variance")
        raise InfeasibleMomentsError("interior point: no finite-support certificate of order <= 2")
    s = mv.s or 1.0  # s = 0 leaves the moments unscaled, as in ``standardize``
    roots = tuple(s * x for x, _ in law)
    if len(law) == 1:
        coeffs = (-roots[0], 1.0, 0.0)
    else:
        (lo, _), (hi, _) = law
        coeffs = (lo * hi, -(lo + hi) / s, 1.0 / s / s)
    norm = math.hypot(*coeffs)
    return Certificate(tuple(c / norm for c in coeffs), roots, DiscreteDistribution(zip(roots, (p for _, p in law))))
