"""Helpers shared by the test modules."""

import math

from momentbounds import MomentVector
from momentbounds.moments import covariance


def tol_scale(mv):
    """max(1, m4^(3/2)), the scale of the tests' absolute tolerances."""
    return max(1.0, mv.m4**1.5)


def hankel_det_closed_form(mv):
    """det H = a b - c^2 from the raw ``covariance`` (valid for m0 = 1)."""
    a, b, c = covariance(mv.m1, mv.m2, mv.m3, mv.m4)
    return a * b - c * c


def scale_moments(mv, lam):
    """Moment vector of lam * X: (1, lam m1, lam^2 m2, lam^3 m3, lam^4 m4)."""
    if not math.isfinite(lam):
        raise ValueError("non-finite scale factor")
    return MomentVector(1.0, lam * mv.m1, lam**2 * mv.m2, lam**3 * mv.m3, lam**4 * mv.m4)
