"""Sharp closed-form bounds on m3 and their extremal two-point distributions.

For any random variable with E X <= 0 and finite fourth moment,

    m3 <= sqrt(m4 m2 - m2^3) <= (4/27)^(1/4) m4^(3/4),

and both bounds are attained exactly by zero-mean two-point distributions.
This module evaluates the bounds, detects tightness, constructs the
attaining distributions, and extracts a support certificate from a
singular Hankel matrix.  Without the sign condition on m1, ``m3_interval``
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
    cov_radius,
    covariance,
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

#: The tol of tightness verdicts and certificates, on quantities of X / s
#: (s = m4^(1/4)): the slack / s^3, det H and the reproduced moments.
DEFAULT_TIGHT_TOL = 1e-8

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
    tightness is judged on it (see ``bound_sqrt`` and ``bound_quarter``).
    """

    __slots__ = ()


class MomentInterval(namedtuple("MomentInterval", "lo hi")):
    """Range [lo, hi] of m3 given (m1, m2, m4), widened by the PSD rounding allowance (Rademacher: +-5.96e-8 s^3)."""

    __slots__ = ()


class Certificate(namedtuple("Certificate", "coeffs roots recovered")):
    """Null vector of a singular Hankel matrix and the distribution it pins down.

    coeffs is a unit vector (a0, a1, a2) with a0 + a1 X + a2 X^2 = 0 almost
    surely, its leading coefficient positive at any scale of X (a2 for two
    points, a1 with a2 = 0 for a point mass); its real roots (a tuple) are
    the support points of the unique boundary distribution, ``recovered``
    with the weights that match m0 to m3.
    """

    __slots__ = ()


def _require_feasible(mv: MomentVector) -> None:
    if not mv.psd:
        raise InfeasibleMomentsError("not a moment vector")


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


def _bound_result(mv: MomentVector, unit_bounds, witness) -> BoundResult:
    """BoundResult from the bound of X / s; ``witness()`` gives the atoms of the witness of X / s.

    ``unit_bounds`` is the bound of X / s and the same without its rounding
    allowance.  Tight when the standardized m3 is within tol of the range
    between them and the witness is finite and reproduces the standardized
    m2, m3 and m4 within tol: a small slack alone does not make a law attain
    the bound.  Checks the preconditions of both sharp bounds: m1 <= 0 and
    H PSD.  For s = 0 (m4 = 0) both bounds and the witness are 0.
    """
    if not mean_nonpositive(mv):
        raise ValueError("precondition m1 <= 0 violated (use m3_interval)")
    _require_feasible(mv)
    (unit_bound, plain), s = unit_bounds, mv.s
    scaled_slack = unit_bound - mv.unit[2]
    bound = unit_bound * s * s * s
    tol = DEFAULT_TIGHT_TOL
    atoms = witness() if -tol <= scaled_slack and plain - mv.unit[2] <= tol else ()
    tight = bool(atoms) and _reproduces(atoms, mv.unit)
    law = DiscreteDistribution((s * x, p) for x, p in atoms) if tight else None
    return BoundResult(bound, bound - mv.m3, scaled_slack, tight, law)


def _reproduces(atoms, unit) -> bool:
    """The atoms (x, p) have the m2, m3 and m4 of unit within tol; non-finite
    atoms never do (their sums are inf or nan)."""
    m2 = m3 = m4 = 0.0
    for x, p in atoms:
        t = p * x * x
        m2 += t
        m3 += t * x
        m4 += t * x * x
    _, a2, a3, a4 = unit
    tol = DEFAULT_TIGHT_TOL
    return abs(m2 - a2) <= tol and abs(m3 - a3) <= tol and abs(m4 - a4) <= tol


def bound_sqrt(mv: MomentVector) -> BoundResult:
    """The bound m3 <= sqrt(m4 m2 - m2^3), valid when m1 <= 0.

    Tight exactly for the zero-mean two-point distributions; when tight,
    the witness is the zero-mean law on two points with the given m2 and m3.
    The verdict and the witness are computed for X / s, s = m4^(1/4).  The
    bound is ``sqrt_bound``, with the PSD verdict's rounding allowance
    (5.96e-8 s^3 for the Rademacher law, which is tight).
    """
    _, a2, a3, a4 = mv.unit
    plain = root(floor_at(a4 * a2 - a2 * a2 * a2, 0.0))
    return _bound_result(mv, (sqrt_bound(a2, a4), plain), lambda: _two_point(0.0, a2, a3) if a2 > 0.0 else ((0.0, 1.0),))


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
    m2 = sqrt(m4/3); tight exactly for ``extremal_from_sigma`` distributions.
    When tight, the witness is the one with the same m4 (3 sigma^4 = m4),
    which attains the bound.  The verdict and the witness are computed for
    X / s, s = m4^(1/4).
    """
    a4 = mv.unit[3]

    def witness() -> tuple[tuple[float, float], ...]:
        return extremal_from_sigma((a4 / 3.0) ** 0.25).atoms if a4 > 0.0 else ((0.0, 1.0),)

    q = quarter_bound(a4)
    return _bound_result(mv, (q, q), witness)


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
    """Extract the boundary distribution from a singular Hankel matrix.

    Requires the standardized det H = a b - c^2, (a, b, c) = ``mv.cov``, to
    be 0 within tol (and H PSD): then the law sits on at most two points
    (the rank <= 2 case of Curto & Fialkow 1991), the roots of
    a0 + a1 X + a2 X^2.  When a and b are both within tol of 0, H has rank
    1 and the law is the point mass at m1.  Otherwise its variance a must
    be positive, and its mean, a and third central moment c - 2 m1 a fix
    its two atoms and weights (``_two_point``), which must reproduce the
    standardized m2, m3 and m4 within tol.
    """
    _require_feasible(mv)
    a, b, c = mv.cov
    tol = DEFAULT_TIGHT_TOL
    if abs(a * b - c * c) > tol:
        raise InfeasibleMomentsError("interior point: no finite-support certificate of order <= 2")
    if abs(a) <= tol and abs(b) <= tol:
        roots: tuple[float, ...] = (float(mv.m1),)
        coeffs = (-mv.m1, 1.0, 0.0)
        atoms: tuple[tuple[float, float], ...] = ((roots[0], 1.0),)
    elif a <= 0.0:
        raise InfeasibleMomentsError("singular Hankel matrix without a positive variance")
    else:
        a1 = mv.unit[0]
        s = mv.s or 1.0  # s = 0 leaves the moments unscaled, as in ``standardize``
        (lo, p), (hi, q) = unit_atoms = _two_point(a1, a, c - 2.0 * a1 * a)
        if not _reproduces(unit_atoms, mv.unit):
            raise InfeasibleMomentsError("singular Hankel matrix, but no law on two points has these moments")
        roots = (s * lo, s * hi)
        coeffs = (lo * hi, -(lo + hi) / s, 1.0 / s / s)
        atoms = ((roots[0], p), (roots[1], q))
    norm = math.hypot(*coeffs)
    return Certificate(tuple(c / norm for c in coeffs), roots, DiscreteDistribution(atoms))
