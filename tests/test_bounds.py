import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from momentbounds import moments
from momentbounds import (
    QUARTER_CONSTANT,
    DiscreteDistribution,
    InfeasibleMomentsError,
    MomentVector,
    bound_quarter,
    bound_sqrt,
    bound_trivial,
    certificate_from_hankel,
    extremal_from_sigma,
    feasibility,
    m3_interval,
    moments_from_discrete,
    quarter_bound,
    two_point_zero_mean,
)
from momentbounds.moments import DEFAULT_PSD_TOL
from conftest import scale_moments, tol_scale


class TestBoundTrivial:
    def test_values(self):
        assert bound_trivial(MomentVector(1, 0, 1, 0, 1)) == 1.0
        assert bound_trivial(MomentVector(1, 0, 4, 0, 16)) == 8.0
        assert bound_trivial(MomentVector(1, -1, 1.5, 1, 3)) == pytest.approx(3.0**0.75)

    def test_degenerate(self):
        assert bound_trivial(MomentVector(1, 0, 0, 0, 0)) == 0.0


class TestBoundSqrt:
    def test_rademacher_tight(self):
        # sqrt(m4 m2 - m2^3) = 0; the bound carries the PSD verdict's rounding
        # allowance, 4 sqrt(eps) at Var X = 1, Var X^2 = 0
        res = bound_sqrt(MomentVector(1, 0, 1, 0, 1))
        assert res.bound == 5.960464477539068e-08
        assert res.slack == 5.960464477539068e-08
        assert res.tight
        assert res.witness.atoms == ((-1.0, 0.5), (1.0, 0.5))
        # at every scale, as a law and as a vector: a one-ulp residual of
        # a4 a2 - a2^3 of X / s once flipped the verdict at 1e-5, 1e-3 and 1e-2
        for lam in (10.0**k for k in range(-6, 7)):
            law = DiscreteDistribution(((-lam, 0.5), (lam, 0.5)))
            for mv in (moments_from_discrete(law), MomentVector(1, 0, lam**2, 0, lam**4)):
                res = bound_sqrt(mv)
                assert res.tight, lam
                assert [v for atom in res.witness.atoms for v in atom] == pytest.approx([-lam, 0.5, lam, 0.5], rel=1e-15), lam

    def test_two_point_tight(self):
        res = bound_sqrt(MomentVector(1, 0, 2, 2, 6))
        assert res.bound == pytest.approx(2.0)
        assert res.tight
        xs = [x for x, _ in res.witness.atoms]
        ps = [p for _, p in res.witness.atoms]
        assert xs == pytest.approx([-1.0, 2.0])
        assert ps == pytest.approx([2.0 / 3.0, 1.0 / 3.0])

    @pytest.mark.parametrize("d", [5e-9, -5e-9, 1e-12])
    def test_near_symmetric_law_is_not_missed(self, d):
        # m4 m2 - m2^3 of the law on -1 and 1 + d cancels to 0, and the bound
        # without its rounding allowance was 0, below m3 = d for d > 0; for
        # d < 0, m3 = d s^3 is the lower end of the m3 range, not the upper
        mv = moments_from_discrete(two_point_zero_mean(1.0, 1.0 + d))
        res = bound_sqrt(mv)
        assert res.slack >= 0.0
        assert res.tight == (d > 0.0)
        # at m1 = 0 the bound is the upper end of the interval
        assert res.bound == pytest.approx(m3_interval(mv.m1, mv.m2, mv.m4).hi, abs=1e-15)

    def test_slack_case(self):
        # atoms {(-sqrt 2, 1/4), (0, 1/2), (sqrt 2, 1/4)} -> (1, 0, 1, 0, 2)
        res = bound_sqrt(MomentVector(1, 0, 1, 0, 2))
        assert res.bound == pytest.approx(1.0)
        assert res.slack == pytest.approx(1.0)
        assert not res.tight
        assert res.witness is None

    def test_rejects_positive_mean(self):
        with pytest.raises(ValueError, match="m1 <= 0"):
            bound_sqrt(MomentVector(1, 0.5, 1, 0, 2))

    @pytest.mark.parametrize("lam", [1.0, 1e3])
    def test_no_witness_misses_its_moments(self, lam):
        # m4 = 0 forces X = 0, so m2 = 1e-6 has no law; the witness came back as
        # the point mass at -0.0, whose m2 is 0 (times 1e3 the vector is not PSD)
        mv = scale_moments(MomentVector(1, 0, 1e-6, 0, 0), lam)
        for bound in (bound_sqrt, bound_quarter):
            try:
                res = bound(mv)
            except InfeasibleMomentsError:
                assert not mv.psd
            else:
                assert res.witness is None or tuple(moments_from_discrete(res.witness)) == tuple(mv)

    def test_rejects_infeasible(self):
        with pytest.raises(InfeasibleMomentsError, match="not a moment vector"):
            bound_sqrt(MomentVector(1, 0, 1, 0, 0.5))


class TestBoundQuarter:
    def test_constant_value(self):
        assert QUARTER_CONSTANT == pytest.approx(0.6204032394013997, rel=1e-15)
        res = bound_quarter(MomentVector(1, 0, 1 / math.sqrt(3), 0, 1))
        assert res.bound == pytest.approx(QUARTER_CONSTANT)

    def test_point_mass_tight(self):
        res = bound_quarter(MomentVector(1, 0, 0, 0, 0))
        assert res.bound == 0.0
        assert res.tight
        assert res.witness.atoms == ((0.0, 1.0),)

    def test_extremal_tight(self):
        sigma = 3.0**-0.25
        mv = moments_from_discrete(extremal_from_sigma(sigma))
        res = bound_quarter(mv)
        assert mv.m4 == pytest.approx(1.0, rel=1e-14)
        assert mv.m3 == pytest.approx(math.sqrt(2.0) * 3.0**-0.75, rel=1e-14)
        assert abs(res.slack) <= 1e-12
        assert res.tight
        assert res.witness is not None

    def test_dominates_sqrt_bound(self):
        # sqrt(m4 m2 - m2^3) <= (4/27)^(1/4) m4^(3/4), equality at m2 = sqrt(m4/3)
        m4 = 1.7
        quarter = QUARTER_CONSTANT * m4**0.75
        for m2 in np.linspace(0.0, math.sqrt(m4), 500):
            assert math.sqrt(max(0.0, m4 * m2 - m2**3)) <= quarter + 1e-12
        at_max = math.sqrt(m4 / 3.0)
        assert math.sqrt(m4 * at_max - at_max**3) == pytest.approx(quarter, rel=1e-12)

    def test_rejects_positive_mean(self):
        with pytest.raises(ValueError):
            bound_quarter(MomentVector(1, 1, 2, 0, 5))


class TestM3Interval:
    def test_degenerate(self):
        # the exact range is the point 0; the ends carry the PSD verdict's
        # rounding allowance, 4 sqrt(eps) at a = 1, b = 0
        iv = m3_interval(0.0, 1.0, 1.0)
        assert (iv.lo, iv.hi) == (-5.960464477539068e-08, 5.960464477539068e-08)

    def test_symmetric(self):
        iv = m3_interval(0.0, 1.0, 2.0)
        assert (iv.lo, iv.hi) == pytest.approx((-1.0, 1.0))

    def test_matches_sqrt_bound(self):
        iv = m3_interval(0.0, 2.0, 6.0)
        assert (iv.lo, iv.hi) == pytest.approx((-2.0, 2.0))
        assert iv.hi == pytest.approx(bound_sqrt(MomentVector(1, 0, 2, 2, 6)).bound)

    def test_nonzero_mean_center(self):
        iv = m3_interval(-0.5, 1.0, 2.0)
        center = -0.5 * 1.0
        assert iv.lo + iv.hi == pytest.approx(2 * center)

    def test_infeasible_triple(self):
        with pytest.raises(InfeasibleMomentsError, match="infeasible"):
            m3_interval(1.0, 0.5, 1.0)
        with pytest.raises(InfeasibleMomentsError, match="infeasible"):
            m3_interval(0.0, 2.0, 1.0)

    def test_infeasible_exactly_when_the_psd_verdict_fails_the_variances(self):
        # a and b of the moment vector's covariance are Var X and Var X^2 of X / s
        rng = np.random.default_rng(21)
        raised = 0
        for _ in range(2000):
            lam = 10.0 ** rng.uniform(-6.0, 6.0)
            m1 = lam * rng.uniform(-1.0, 1.0)
            m2 = (m1 * m1 + lam * lam * rng.choice([0.0, 1.0])) * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -8.0))
            m4 = m2 * m2 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -8.0))
            a, b, _ = MomentVector(1.0, m1, m2, 0.0, m4).cov
            infeasible = a < -DEFAULT_PSD_TOL or b < -DEFAULT_PSD_TOL
            try:
                m3_interval(m1, m2, m4)
            except InfeasibleMomentsError:
                assert infeasible
                raised += 1
            else:
                assert not infeasible
        assert 200 < raised < 1800


class TestTwoPointZeroMean:
    def test_rademacher(self):
        assert two_point_zero_mean(1.0, 1.0).atoms == ((-1.0, 0.5), (1.0, 0.5))

    def test_u1_v2(self):
        d = two_point_zero_mean(1.0, 2.0)
        assert d.atoms[0] == pytest.approx((-1.0, 2.0 / 3.0))
        assert d.atoms[1] == pytest.approx((2.0, 1.0 / 3.0))
        mv = moments_from_discrete(d)
        assert mv.m1 == pytest.approx(0.0, abs=5e-17)
        assert (mv.m2, mv.m3, mv.m4) == pytest.approx((2.0, 2.0, 6.0))

    def test_reflection_flips_odd_moments(self):
        a = moments_from_discrete(two_point_zero_mean(1.0, 2.0))
        b = moments_from_discrete(two_point_zero_mean(2.0, 1.0))
        assert b.m3 == pytest.approx(-a.m3)
        assert b.m2 == pytest.approx(a.m2)
        assert b.m4 == pytest.approx(a.m4)

    def test_moment_identities(self):
        rng = np.random.default_rng(3)
        for u, v in rng.uniform(0.1, 10.0, size=(50, 2)):
            mv = moments_from_discrete(two_point_zero_mean(u, v))
            assert mv.m1 == pytest.approx(0.0, abs=1e-13 * max(u, v))
            assert mv.m2 == pytest.approx(u * v, rel=1e-12)
            assert mv.m3 == pytest.approx(u * v * (v - u), rel=1e-12, abs=1e-12 * u * v)
            assert mv.m4 == pytest.approx(u * v * (u * u - u * v + v * v), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            two_point_zero_mean(-1.0, 2.0)
        with pytest.raises(ValueError, match="positive"):
            two_point_zero_mean(1.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            two_point_zero_mean(0.0, 1.0)


class TestExtremalFromSigma:
    def test_sigma_one(self):
        d = extremal_from_sigma(1.0)
        (x1, p1), (x2, p2) = d.atoms
        assert x1 == pytest.approx(-0.5176380902050415, rel=1e-12)
        assert x2 == pytest.approx(1.9318516525781366, rel=1e-12)
        assert p2 == pytest.approx((3.0 - math.sqrt(3.0)) / 6.0, rel=1e-12)
        mv = moments_from_discrete(d)
        assert mv.m4 == pytest.approx(3.0, rel=1e-13)
        assert mv.m3 == pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_spec_invariants(self):
        (x1, p1), (x2, p2) = extremal_from_sigma(2.5).atoms
        u, v = -x1, x2
        assert u == pytest.approx((math.sqrt(3) - 1) / math.sqrt(2) * 2.5, rel=1e-14)
        assert v == pytest.approx((math.sqrt(3) + 1) / math.sqrt(2) * 2.5, rel=1e-14)
        assert u * v == pytest.approx(2.5**2, rel=1e-14)
        assert (p1, p2) == pytest.approx((v / (u + v), u / (u + v)), rel=1e-14)

    def test_unit_fourth_moment_scale(self):
        mv = moments_from_discrete(extremal_from_sigma(3.0**-0.25))
        assert mv.m4 == pytest.approx(1.0, rel=1e-13)
        assert mv.m3 == pytest.approx(QUARTER_CONSTANT, rel=1e-13)

    def test_degree_one_homogeneity(self):
        base = moments_from_discrete(extremal_from_sigma(1.0))
        doubled = moments_from_discrete(extremal_from_sigma(2.0))
        for a, b in zip(tuple(scale_moments(base, 2.0)), tuple(doubled)):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            extremal_from_sigma(0.0)
        with pytest.raises(ValueError):
            extremal_from_sigma(-1.0)


class TestCertificate:
    def test_rademacher(self):
        cert = certificate_from_hankel(MomentVector(1, 0, 1, 0, 1))
        assert cert.roots == pytest.approx((-1.0, 1.0))
        assert [p for _, p in cert.recovered.atoms] == pytest.approx([0.5, 0.5])

    def test_two_point(self):
        cert = certificate_from_hankel(MomentVector(1, 0, 2, 2, 6))
        assert cert.roots == pytest.approx((-1.0, 2.0))
        assert [p for _, p in cert.recovered.atoms] == pytest.approx([2 / 3, 1 / 3])
        # null vector of [[1,0,2],[0,2,2],[2,2,6]] is proportional to (-2,-1,1), a2 > 0
        a0, a1, a2 = cert.coeffs
        assert (a0, a1, a2) == pytest.approx(tuple(np.array([-2, -1, 1]) / math.sqrt(6)), abs=1e-10)

    def test_two_point_off_zero_mean(self):
        # the law {1: 1/4, 3: 3/4}: its third central moment c - 2 m1 a is not c, so a slip in the 2 shows
        cert = certificate_from_hankel(MomentVector(1, 2.5, 7, 20.5, 61))
        assert cert.roots == pytest.approx((1.0, 3.0), rel=1e-12)
        assert [v for atom in cert.recovered.atoms for v in atom] == pytest.approx([1.0, 0.25, 3.0, 0.75], rel=1e-12)

    def test_point_mass_at_zero(self):
        cert = certificate_from_hankel(MomentVector(1, 0, 0, 0, 0))
        assert cert.roots == (0.0,)
        assert cert.recovered.atoms == ((0.0, 1.0),)

    def test_unit_norm_and_sign(self):
        # the leading coefficient is positive by construction, with no cut on the others:
        # two points (the Rademacher law at two scales), then point masses
        for mv, degree in [
            (MomentVector(1, 0, 2, 2, 6), 2),
            (MomentVector(1, 0, 1, 0, 1), 2),
            (MomentVector(1, 0, 1e-12, 0, 1e-24), 2),
            (MomentVector(1, -2.0, 4.0, -8.0, 16.0), 1),
            (MomentVector(1, 0, 0, 0, 0), 1),
        ]:
            cert = certificate_from_hankel(mv)
            assert np.linalg.norm(cert.coeffs) == pytest.approx(1.0)
            assert cert.coeffs[degree] > 0.0 and cert.coeffs[degree + 1:] == (0.0,) * (2 - degree), mv

    def test_null_vector_annihilates(self):
        from momentbounds import hankel

        mv = MomentVector(1, 0, 2, 2, 6)
        cert = certificate_from_hankel(mv)
        q = np.array(cert.coeffs) @ np.array(hankel(mv)) @ np.array(cert.coeffs)
        assert abs(q) <= 1e-10 * tol_scale(mv)

    def test_round_trip(self):
        for u, v in [(0.5, 1.5), (2.0, 3.0), (0.1, 9.0)]:
            mv = moments_from_discrete(two_point_zero_mean(u, v))
            cert = certificate_from_hankel(mv)
            back = moments_from_discrete(cert.recovered)
            for a, b in zip(tuple(mv), tuple(back)):
                assert abs(a - b) <= 1e-8 * tol_scale(mv)

    def test_interior_point_rejected(self):
        # the second, three close atoms, has det H = 7.8e-15 of X / s against an
        # allowance of 1.5e-18: no law on two points, though an absolute 1e-8 found one
        close = [(0.14075906868125476, 0.17931881722593587), (0.14112114837249698, 0.3858294686422853), (0.14295461882191937, 0.4348517141317788)]
        for mv in (MomentVector(1, 0, 1, 0, 2), moments_from_discrete(DiscreteDistribution(close))):
            with pytest.raises(InfeasibleMomentsError, match="interior point"):
                certificate_from_hankel(mv)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleMomentsError, match="not a moment vector"):
            certificate_from_hankel(MomentVector(1, 0, 1, 0, 0.5))


class TestProofBySquares:
    """The paper's proofs: for t, sigma > 0 and m1 <= 0, each bound is the
    expectation of a polynomial that lies above x^3 by a square, least at
    t^2 = (m4 - m2^2) / m2 and sigma^4 = 4 m4 / 3."""

    @staticmethod
    def rationals(n, seed):
        rng = random.Random(seed)
        for _ in range(n):
            x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            yield x, *(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) for _ in range(2))

    def test_sqrt_bound_identity(self):
        for x, t, m2 in self.rationals(200, 1):
            lhs = t * x**2 / 2 + (x**2 - m2) ** 2 / (2 * t) + m2 * x - x**3
            assert lhs == (x**2 - t * x - m2) ** 2 / (2 * t)

    def test_quarter_bound_identity(self):
        for x, sigma, _ in self.rationals(200, 2):
            lhs = x**4 / (2 * sigma) + sigma**2 * x / 2 + sigma**3 / 8 - x**3
            assert lhs == (x**2 - sigma * x - sigma**2 / 2) ** 2 / (2 * sigma)

    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    def test_optimal_square_gives_the_bounds(self, lam):
        # each value is exact for the rounded t or sigma, and above its least value by O(rounding^2)
        eps = sys.float_info.epsilon
        for k in range(1, 20):
            m2 = lam**2 * k / 7.0
            m4 = m2 * m2 * (1.0 + k / 3.0)
            sigma = (4.0 * m4 / 3.0) ** 0.25
            quarter = Fraction(m4) / (2 * Fraction(sigma)) + Fraction(sigma) ** 3 / 8
            assert quarter_bound(m4) == pytest.approx(float(quarter), rel=4 * eps, abs=0.0)
            t = math.sqrt((m4 - m2 * m2) / m2)
            plain = Fraction(t) * Fraction(m2) / 2 + (Fraction(m4) - Fraction(m2) ** 2) / (2 * Fraction(t))
            assert math.sqrt(m2 * m4 - m2**3) == pytest.approx(float(plain), rel=4 * eps, abs=0.0)

    @pytest.mark.parametrize("sigma", [1e-6, 0.01, 1.0, 3.0, 1e6])
    def test_certificate_is_the_square(self, sigma):
        # the extremal law with m4 = 3 sigma^4 sits on the roots of x^2 - s x - s^2 / 2, s^4 = 4 m4 / 3
        s = math.sqrt(2.0) * sigma
        a0, a1, a2 = certificate_from_hankel(moments_from_discrete(extremal_from_sigma(sigma))).coeffs
        assert (a1 / a2, a0 / a2) == pytest.approx((-s, -s * s / 2), rel=1e-14, abs=0.0)


def standardized_error(law, mv):
    """max_j |m_j(law) - m_j| / s^j over j = 0..4, s = m4^(1/4)."""
    got = tuple(moments_from_discrete(law))
    return max(abs(a - b) / mv.s**j for j, (a, b) in enumerate(zip(got, tuple(mv))))


def two_point_sweep(n, seed):
    """Seeded two-point laws: either sign of mean, weights in [1e-3, 1 - 1e-3],
    scales 10^U[-6, 6], and every fourth law with atoms 10^U[-9, -1] apart."""
    rng = random.Random(seed)
    for i in range(n):
        x = rng.uniform(-1.0, 1.0)
        y = x + 10.0 ** rng.uniform(-9.0, -1.0) if i % 4 == 0 else rng.uniform(-1.0, 1.0)
        p = rng.uniform(1e-3, 1.0 - 1e-3)
        lam = 10.0 ** rng.uniform(-6.0, 6.0)
        yield DiscreteDistribution.from_pairs([(lam * x, p), (lam * y, 1.0 - p)])


class TestTwoPointRecovery:
    def test_certificate_reproduces_two_point_laws(self):
        worst = 0.0
        for law in two_point_sweep(4000, seed=9):
            mv = moments_from_discrete(law)
            worst = max(worst, standardized_error(certificate_from_hankel(mv).recovered, mv))
        assert worst <= 1e-6

    def test_tiny_mass_far_out(self):
        # mass 1e-300 at -1, the rest at 0: Var X / s^2 = 1e-150 but Var X^2 / s^4 ~ 1
        law = DiscreteDistribution.from_pairs([(-1.0, 1e-300), (0.0, 1.0)])
        mv = moments_from_discrete(law)
        assert tuple(mv) == (1.0, -1e-300, 1e-300, -1e-300, 1e-300)
        cert = certificate_from_hankel(mv)
        assert cert.roots == (-1.0, 0.0)
        assert [p for _, p in cert.recovered.atoms] == pytest.approx([1e-300, 1.0], rel=1e-12, abs=0.0)
        assert tuple(moments_from_discrete(cert.recovered)) == tuple(mv)
        # m3 = -1e-300 is the lower end of its range [-1e-300, 1e-300]: 2e-75 s^3
        # below the sqrt bound, but the law sits there and attains nothing
        res = bound_sqrt(mv)
        assert not res.tight and res.witness is None

    @pytest.mark.parametrize("ratio", [1e-300, 1e-20, 1e-8, 1.0, 1e8, 1e20, 1e100])
    def test_zero_mean_law_at_extreme_skew(self, ratio):
        mv = moments_from_discrete(two_point_zero_mean(1.0, ratio))
        assert standardized_error(certificate_from_hankel(mv).recovered, mv) <= 1e-12
        res = bound_sqrt(mv)
        assert res.tight == (ratio >= 1.0)  # m3 = uv(v - u) attains the bound for v >= u
        if res.tight:
            assert standardized_error(res.witness, mv) <= 1e-12

    def test_mirrored_law_gives_mirrored_atoms(self):
        for law in two_point_sweep(200, seed=3):
            mirror = DiscreteDistribution.from_pairs((-x, p) for x, p in law.atoms)
            atoms = certificate_from_hankel(moments_from_discrete(law)).recovered.atoms
            back = certificate_from_hankel(moments_from_discrete(mirror)).recovered.atoms
            assert back == tuple((-x, p) for x, p in reversed(atoms))

    @pytest.mark.parametrize("m2", [1e-20, 1e-320])
    def test_small_slack_without_an_attaining_law_is_not_tight(self, m2):
        # m3 = 5e-11 lies within sqrt(m2 (m4 - m2^2)) + 1e-10 of 0: PSD; but
        # det H = m2 - m3^2 is 7.5e-21 (H positive definite) or -2.5e-21,
        # far outside its rounding allowance either way
        mv = MomentVector(1, 0, m2, 5e-11, 1)
        assert mv.psd
        res = bound_sqrt(mv)
        assert abs(res.scaled_slack) <= 1e-8
        assert not res.tight and res.witness is None
        with pytest.raises(InfeasibleMomentsError, match="interior point"):
            certificate_from_hankel(mv)

    def test_singular_without_positive_variance_rejected(self):
        # PSD only within tolerance: Var X / s^2 = -1e-12, but Var X^2 / s^4 ~ 0.94
        mv = MomentVector(1, 0.5, 0.25 - 1e-12, 0.125 - 1e-12, 1)
        a, b, c = mv.cov
        assert mv.psd and abs(a * b - c * c) <= 1e-8
        with pytest.raises(InfeasibleMomentsError, match="positive variance"):
            certificate_from_hankel(mv)


class TestScaleCovariance:
    def test_bounds_scale_cubically(self):
        mv = moments_from_discrete(
            DiscreteDistribution.from_pairs([(-2.0, 0.3), (-0.5, 0.3), (1.6, 0.4)])
        )
        for lam in (0.5, 2.0, 7.0):
            scaled = scale_moments(mv, lam)
            assert bound_quarter(scaled).bound == pytest.approx(
                lam**3 * bound_quarter(mv).bound, rel=1e-12
            )
            assert bound_sqrt(scaled).bound == pytest.approx(
                lam**3 * bound_sqrt(mv).bound, rel=1e-12
            )
            iv = m3_interval(mv.m1, mv.m2, mv.m4)
            ivs = m3_interval(scaled.m1, scaled.m2, scaled.m4)
            assert ivs.lo == pytest.approx(lam**3 * iv.lo, rel=1e-11, abs=1e-12)
            assert ivs.hi == pytest.approx(lam**3 * iv.hi, rel=1e-11, abs=1e-12)


#: The 3-point law {-2, 0, 1.5} with equal weights: m1 = -1/6, attains neither bound.
THREE_POINT = [(-2.0, 1 / 3), (0.0, 1 / 3), (1.5, 1 / 3)]


def scaled_law(pairs, lam):
    return DiscreteDistribution.from_pairs((lam * x, p) for x, p in pairs)


class TestScaleFreeVerdicts:
    @pytest.mark.parametrize("lam", [1e-3, 1e3])
    def test_three_point_law_is_not_tight(self, lam):
        mv = moments_from_discrete(scaled_law(THREE_POINT, lam))
        for res in (bound_sqrt(mv), bound_quarter(mv)):
            assert not res.tight and res.witness is None
            assert res.scaled_slack == pytest.approx(res.slack / mv.m4**0.75, rel=1e-12)
            assert res.scaled_slack > 0.5

    @pytest.mark.parametrize("lam", [1.0, 1e4])
    def test_certificate_recovers_wide_two_point_law(self, lam):
        law = scaled_law([(-100.0, 2 / 3), (200.0, 1 / 3)], lam)
        mv = moments_from_discrete(law)
        cert = certificate_from_hankel(mv)
        assert cert.roots == pytest.approx((-100.0 * lam, 200.0 * lam), rel=1e-12)
        assert [p for _, p in cert.recovered.atoms] == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
        assert np.linalg.norm(cert.coeffs) == pytest.approx(1.0)

    def test_certificate_of_point_mass_is_rank_one(self):
        for c in (-3.0, 1e-5, 7e20):
            cert = certificate_from_hankel(moments_from_discrete(DiscreteDistribution(((c, 1.0),))))
            assert cert.roots == pytest.approx((c,), rel=1e-12)
            assert cert.recovered.atoms[0][0] == pytest.approx(c, rel=1e-12)
            a0, a1, a2 = cert.coeffs
            assert a2 == 0.0 and a0 + a1 * c == pytest.approx(0.0, abs=1e-12)

    def test_mean_precondition_is_relative_to_scale(self):
        # m1 = 1e-9 s is a positive mean at any scale, 1e-14 s is rounding
        for lam in (1e-6, 1.0, 1e6):
            with pytest.raises(ValueError, match="m1 <= 0"):
                bound_sqrt(MomentVector(1, 1e-9 * lam, lam**2, 0, lam**4))
            bound_sqrt(MomentVector(1, 1e-14 * lam, lam**2, 0, lam**4))

    @pytest.mark.parametrize("lam", [1e-78, 1e-79])
    def test_laws_with_subnormal_m4_stay_tight_and_certified(self, lam):
        for law, tight in ((two_point_zero_mean(lam, 2.0 * lam), bound_sqrt), (extremal_from_sigma(lam), bound_quarter)):
            mv = moments_from_discrete(law)
            assert 0.0 < mv.m4 < sys.float_info.min and mv.psd
            assert tight(mv).tight
            cert = certificate_from_hankel(mv)
            assert cert.roots == pytest.approx([x for x, _ in law.atoms], rel=1e-9)

    def test_infeasible_interval_triple_at_any_scale(self):
        for lam in (1e-6, 1.0, 1e6):
            with pytest.raises(InfeasibleMomentsError):
                m3_interval(0.0, 2.0 * lam**2, lam**4)
        with pytest.raises(InfeasibleMomentsError):
            m3_interval(0.0, 0.0, -1.0)


def test_one_psd_decision_per_moment_vector(monkeypatch):
    calls, covariance = [], moments.covariance

    def counting(*args):
        calls.append(args)
        return covariance(*args)

    monkeypatch.setattr(moments, "covariance", counting)
    mv = MomentVector(1, 0, 2, 2, 6)
    feasibility(mv), bound_sqrt(mv), bound_quarter(mv), certificate_from_hankel(mv)
    assert len(calls) == 1
