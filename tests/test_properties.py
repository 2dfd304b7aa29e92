"""Property-based checks of the library invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from momentbounds import (
    DiscreteDistribution,
    abs_third_moment,
    bound_quarter,
    bound_sqrt,
    feasibility,
    hankel,
    hankel_det_closed_form,
    m3_interval,
    moments_from_discrete,
    scale_moments,
)


def tol_scale(mv):
    """max(1, m4^(3/2)), the scale of this module's absolute tolerances."""
    return max(1.0, mv.m4**1.5)


finite_x = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
positive_w = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


@st.composite
def distributions(draw, max_atoms=8):
    pairs = draw(
        st.lists(st.tuples(finite_x, positive_w), min_size=1, max_size=max_atoms)
    )
    total = math.fsum(w for _, w in pairs)
    return DiscreteDistribution.from_pairs((x, w / total) for x, w in pairs)


@st.composite
def nonpositive_mean_distributions(draw, max_atoms=8):
    d = draw(distributions(max_atoms))
    m1 = moments_from_discrete(d).m1
    shift = max(0.0, m1) + 1e-9
    return DiscreteDistribution.from_pairs((x - shift, p) for x, p in d.atoms)


@given(distributions())
def test_every_distribution_is_feasible(d):
    assert feasibility(moments_from_discrete(d)).psd


@given(distributions())
def test_det_closed_form_matches_numeric(d):
    import numpy as np

    mv = moments_from_discrete(d)
    numeric = float(np.linalg.det(hankel(mv).entries))
    assert abs(numeric - hankel_det_closed_form(mv)) <= 1e-12 * tol_scale(mv)


@given(distributions())
def test_abs_third_moment_dominates(d):
    assert abs_third_moment(d) >= abs(moments_from_discrete(d).m3) - 1e-15


@given(distributions())
def test_m3_lies_in_interval(d):
    mv = moments_from_discrete(d)
    iv = m3_interval(mv.m1, mv.m2, mv.m4)
    assert iv.contains(mv.m3, widen=1e-9 * tol_scale(mv))


@given(nonpositive_mean_distributions())
def test_bounds_are_sound(d):
    mv = moments_from_discrete(d)
    r1 = bound_sqrt(mv)
    r2 = bound_quarter(mv)
    assert r1.slack >= -1e-9 * tol_scale(mv)
    assert r2.slack >= -1e-9 * tol_scale(mv)
    # the sqrt bound never exceeds the quarter bound
    assert r1.bound <= r2.bound + 1e-9 * tol_scale(mv)
    # the interval's upper endpoint never exceeds the sqrt bound when m1 <= 0
    iv = m3_interval(mv.m1, mv.m2, mv.m4)
    assert iv.hi <= r1.bound + 1e-9 * tol_scale(mv)


@given(distributions(), st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0]))
@settings(max_examples=50)
def test_scale_covariance(d, lam):
    mv = moments_from_discrete(d)
    scaled_atoms = moments_from_discrete(
        DiscreteDistribution.from_pairs((lam * x, p) for x, p in d.atoms)
    )
    expected = scale_moments(mv, lam)
    for a, b in zip(expected.as_tuple(), scaled_atoms.as_tuple()):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))
