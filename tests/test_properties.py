"""Property-based checks of the library invariants."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from momentbounds import (
    DiscreteDistribution,
    InfeasibleMomentsError,
    MomentVector,
    abs_third_moment,
    bound_quarter,
    bound_sqrt,
    certificate_from_hankel,
    extremal_from_sigma,
    feasibility,
    hankel,
    m3_interval,
    moments_from_discrete,
    moments_from_samples,
    two_point_zero_mean,
)
from momentbounds.moments import psd_tol
from conftest import hankel_det_closed_form, scale_moments, tol_scale


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


@st.composite
def boundary_laws(draw):
    """Real laws on the boundary of the moment space, where Var X^2 or det H
    of X / s is near 0 and the rounding of the moments decides: zero-mean and
    near-symmetric two-point laws, the extremal law and Hankel-singular laws
    (any two points, or one), each atom moved by a relative 10^U[-12, -2] and
    the law scaled by 10^U[-6, 6]."""
    family = draw(st.sampled_from(["zero-mean", "near-symmetric", "extremal", "singular"]))
    if family == "zero-mean":
        atoms = two_point_zero_mean(*(10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(2))).atoms
    elif family == "near-symmetric":
        x = draw(st.floats(0.1, 2.0))
        atoms = ((-x, 0.5), (x, 0.5))
    elif family == "extremal":
        atoms = extremal_from_sigma(1.0).atoms
    else:  # p = 1 is the point mass at +-1
        p = draw(st.floats(1e-3, 1.0))
        atoms = ((draw(st.sampled_from([-1.0, 1.0])), p), (draw(st.floats(-2.0, 2.0)), 1.0 - p))
    lam = 10.0 ** draw(st.floats(-6.0, 6.0))
    return DiscreteDistribution.from_pairs(
        (lam * x * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -2.0))), p)
        for x, p in atoms
    )


def nonpositive_mean(d):
    """d shifted left past its mean, when that is positive, by 4 ulps of its
    largest atom, more than the rounding of the shifted atoms' mean."""
    m1 = moments_from_discrete(d).m1
    if m1 <= 0.0:
        return d
    shift = m1 + 4.0 * sys.float_info.epsilon * max(abs(x) for x, _ in d.atoms)
    return DiscreteDistribution.from_pairs((x - shift, p) for x, p in d.atoms)


@given(distributions())
def test_every_distribution_is_feasible(d):
    assert feasibility(moments_from_discrete(d)).psd


@given(distributions())
def test_det_closed_form_matches_numeric(d):
    import numpy as np

    mv = moments_from_discrete(d)
    numeric = float(np.linalg.det(hankel(mv)))
    assert abs(numeric - hankel_det_closed_form(mv)) <= 1e-12 * tol_scale(mv)


@given(distributions())
def test_abs_third_moment_dominates(d):
    assert abs_third_moment(d) >= abs(moments_from_discrete(d).m3) - 1e-15


@given(st.one_of(distributions(), boundary_laws()))
@example(DiscreteDistribution(((6.8903119051009e-81, 1.0),)))  # subnormal m4
@example(DiscreteDistribution.from_pairs([(-1.7353326886208245, 0.5), (1.7353326678279686, 0.5)]))  # Var X^2 near 0
def test_m3_lies_in_interval(d):
    mv = moments_from_discrete(d)
    iv = m3_interval(mv.m1, mv.m2, mv.m4)
    w = 1e-9 * tol_scale(mv)
    assert iv.lo - w <= mv.m3 <= iv.hi + w


@given(st.one_of(nonpositive_mean_distributions(), boundary_laws().map(nonpositive_mean)))
@example(DiscreteDistribution.from_pairs([(-1.7353326886208245, 0.5), (1.7353326678279686, 0.5)]))
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
    for a, b in zip(tuple(expected), tuple(scaled_atoms)):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@st.composite
def moment_vectors(draw):
    """Moment vectors at scales 1e-6..1e6 with Var X = a, Var X^2 = b and
    m3 = m1 m2 + t sqrt(|a b|): |a| and |b| are 1e-6..1, negative for about
    half of the draws, so PSD or not by far more than the tolerance, and m3
    is inside the interval for |t| <= 1.  m4 stays away from 0, where the
    vector is left unscaled (X = 0 up to underflow)."""
    lam = 10.0 ** draw(st.floats(-6.0, 6.0))
    a, b = (draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-6.0, 0.0)) for _ in range(2))
    m1 = draw(st.floats(-1.0, 1.0))
    m2 = a + m1 * m1
    m4 = b + m2 * m2
    assume(m2 >= 0.0 and m4 >= 1e-12)
    m3 = m1 * m2 + draw(st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-2.0, 2.0))) * math.sqrt(abs(a * b))
    return MomentVector(1.0, m1 * lam, m2 * lam**2, m3 * lam**3, m4 * lam**4)


def certifies(mv):
    try:
        certificate_from_hankel(mv)
    except InfeasibleMomentsError:
        return False
    return True


BOUNDARY_VECTOR = MomentVector(1.0, -1.3523981934326912e-10, 1.7166953307576283, -6.964968601863575e-10, 2.947042858645043)


@given(st.one_of(moment_vectors(), boundary_laws().map(moments_from_discrete)))
@example(MomentVector(1.0, 0.0, 1e-320, 5e-9, 1.0))  # m3 far outside its interval of +-1e-160
@example(BOUNDARY_VECTOR)  # PSD, Var X^2 near 0
def test_psd_iff_variances_and_m3_interval(mv):
    # PSD iff Var X and Var X^2 of X / s are at least -tol and m3 lies in
    # m3_interval widened by tol s^3; a band of 1e-11 s^3 around the widened
    # ends is left out, where rounding of the variances may decide
    tol, s3 = psd_tol(mv.m4), mv.s**3
    u1, u2, _, u4 = mv.unit
    variances = u2 - u1 * u1 >= -tol and u4 - u2 * u2 >= -tol
    try:
        iv = m3_interval(mv.m1, mv.m2, mv.m4)
    except InfeasibleMomentsError:
        assert not variances
        assert not mv.psd
        return
    assert variances
    inside = min(mv.m3 - iv.lo, iv.hi - mv.m3) / s3 + tol
    assume(abs(inside) > 1e-11)
    assert (iv.lo - tol * s3 <= mv.m3 <= iv.hi + tol * s3) == (inside > 0.0)
    assert mv.psd == (inside > 0.0)
    assert (feasibility(mv).margin >= 0.0) == mv.psd


@given(moment_vectors(), st.floats(-6.0, 6.0))
@example(MomentVector(1.0, 0.0, 1e-320, 5e-9, 1.0), 6.0)
@example(BOUNDARY_VECTOR, 6.0)
@example(MomentVector(1.0, 0.0, 1e-320, 5e-9, 1.0), -6.0)
def test_psd_margin_and_certificate_are_scale_free(mv, exponent):
    scaled = scale_moments(mv, 10.0**exponent)
    base, rep = feasibility(mv), feasibility(scaled)
    assume(abs(base.margin) > 1e-11)
    assert rep.psd == base.psd == mv.psd == scaled.psd
    assert (rep.margin >= 0.0) == (base.margin >= 0.0)
    assert rep.margin == pytest.approx(base.margin, rel=1e-6, abs=1e-12)
    assert certifies(scaled) == certifies(mv)


def seeded_laws(family, n, seed):
    """n seeded laws of a family at scale ~1: zero-mean and free two-point
    laws (the Rademacher law first), extremal laws, or laws on 3-5 atoms."""
    rng = random.Random(seed)
    if family == "two-point":
        yield two_point_zero_mean(1.0, 1.0)
    for k in range(n):
        if family == "two-point" and k % 2:
            x, y, p = rng.uniform(-3.0, 1.0), rng.uniform(-1.0, 3.0), rng.uniform(0.05, 0.95)
            yield DiscreteDistribution.from_pairs([(x, p), (y, 1.0 - p)])
        elif family == "two-point":
            yield two_point_zero_mean(10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1.0, 1.0))
        elif family == "extremal":
            yield extremal_from_sigma(10.0 ** rng.uniform(-1.0, 1.0))
        else:
            ws = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(3, 5))]
            yield DiscreteDistribution.from_pairs((rng.uniform(-3.0, 3.0), w / math.fsum(ws)) for w in ws)


def unit_outputs(d, lam):
    """Every scalar output for the law d times lam, in units of lam: verdicts
    and messages as they are, points / lam, m3 and its bounds / lam^3, the
    certificate's coefficients a_k lam^k renormalized (a scale-free vector
    whose signs are those of the a_k), and the recovered law / lam."""
    mv = moments_from_discrete(DiscreteDistribution.from_pairs((lam * x, p) for x, p in d.atoms))
    out = {"psd": feasibility(mv).psd, "interval": tuple(v / lam**3 for v in m3_interval(mv.m1, mv.m2, mv.m4))}
    for name, bound in (("sqrt", bound_sqrt), ("quarter", bound_quarter)):
        try:
            r = bound(mv)
        except ValueError as exc:
            out[name] = str(exc)
        else:
            witness = r.witness and tuple((x / lam, p) for x, p in r.witness.atoms)
            out[name] = (r.tight, r.bound / lam**3, r.slack / lam**3, witness)
    try:
        cert = certificate_from_hankel(mv)
    except InfeasibleMomentsError as exc:
        out["certificate"] = str(exc)
    else:
        unit = [a * lam**k for k, a in enumerate(cert.coeffs)]
        norm = math.hypot(*unit)
        out["certificate"] = (
            tuple(a / norm for a in unit),
            tuple(x / lam for x in cert.roots),
            tuple((x / lam, p) for x, p in cert.recovered.atoms),
        )
    return out


def assert_close(got, want, where):
    # values to 1e-8 in units of the law's scale: where Var X^2 of X / s is 0,
    # the PSD allowance in the bounds and the interval is the root of a
    # one-ulp residual, and moves by ~2e-9 s^3 with the rounding of the scale
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-8), where
    elif isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want), where
        for g, w in zip(got, want):
            assert_close(g, w, where)
    else:  # verdicts, messages and absent witnesses
        assert got == want, where


RADEMACHER_TIGHT_FLIPS = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="FOUND: the Rademacher law times 1e-5, 1e-3 or 1e-2 is not sqrt-tight, as it is at 1: the root of "
    "a one-ulp residual of a4 a2 - a2^3 exceeds the tight tolerance 1e-8",
)


@pytest.mark.parametrize("key", ["psd", "interval", "sqrt", "quarter", "certificate"])
@pytest.mark.parametrize("family, seed", [("two-point", 1), ("extremal", 2), ("3-5 atoms", 3)])
def test_every_output_is_scale_covariant(family, seed, key, request):
    # X -> lam X for lam = 1e-6..1e6: the same verdicts, and every value
    # covariant; the certificate's signs included, which a sign rule on the
    # raw coefficients would flip (the Rademacher law at 1e-6 against 1)
    if (family, key) == ("two-point", "sqrt"):
        request.applymarker(RADEMACHER_TIGHT_FLIPS)
    for d in seeded_laws(family, 30, seed):
        base = unit_outputs(d, 1.0)[key]
        for k in range(-6, 7):
            assert_close(unit_outputs(d, 10.0**k)[key], base, (d, k))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="FOUND: m4 = 0 leaves s = 0, so absolute tolerances judge the raw moments")
def test_zero_fourth_moment_is_judged_alike_at_every_scale():
    # m4 = 0 forces X = 0, so m2 = 1e-6 is no moment vector at any scale; it is
    # judged PSD, its certificate recovers {-0.001, 0.001}, whose m4 is 1e-12,
    # and the same vector times 1e3, (1, 0, 1, 0, 0), is judged not PSD
    mv = MomentVector(1.0, 0.0, 1e-6, 0.0, 0.0)
    assert scale_moments(mv, 1e3).psd == mv.psd
    assert not mv.psd

@st.composite
def sample_sets(draw):
    """1..500 samples at a scale in 1e-6..1e6: fresh floats, and repeats of a
    pool that mixes floats, zeros of both signs, subnormals, ints, bools and
    Fractions, in a drawn proportion."""
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    value = st.one_of(
        finite_x.map(lambda x: x * scale),
        st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]),
        st.integers(-1000, 1000),
        st.booleans(),
        st.fractions(-10, 10, max_denominator=1000),
    )
    pool = draw(st.lists(value, min_size=1, max_size=20))
    n, fresh = draw(st.integers(1, 500)), draw(st.floats(0.0, 1.0))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    return [scale * rnd.uniform(-10.0, 10.0) if rnd.random() < fresh else rnd.choice(pool) for _ in range(n)]


@given(sample_sets())
@settings(max_examples=200, deadline=None)
@example([-0.0, 0.0])
@example([0.0, -0.0, 1.0])
@example([5e-324] * 7)
@example([True, 1, 1.0, Fraction(1), 2, 0.5])
@example([k / 7.0 for k in range(1, 50)])  # 49 copies of 1/49 sum to 1 - 2^-53
@example([1.5] * 6 + [3.0])  # 1/7 added six times is not 6 * (1/7)
@example([1.0, 2.0, 2.0, -0.0, 0.0, 3.5])
def test_sample_moments_are_those_of_the_empirical_law(xs):
    # moments_from_samples builds no DiscreteDistribution; the law's moments pin it bit for bit
    n = len(xs)
    law = DiscreteDistribution.from_pairs((x, 1.0 / n) for x in xs)
    direct, via_law = moments_from_samples(xs), moments_from_discrete(law)
    assert tuple(direct) == tuple(via_law)
    assert list(map(float.hex, direct)) == list(map(float.hex, via_law))
