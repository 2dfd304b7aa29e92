import math
import sys

import numpy as np
import pytest

from momentbounds import (
    DiscreteDistribution,
    InfeasibleMomentsError,
    MomentVector,
    abs_third_moment,
    feasibility,
    hankel,
    hankel_det_closed_form,
    moments_from_discrete,
    moments_from_samples,
    psd_verdict,
    quarter_bound,
    scale_moments,
)
from momentbounds.moments import psd_tol, root, standardize


def tol_scale(mv):
    """max(1, m4^(3/2)), the scale of this module's absolute tolerances."""
    return max(1.0, mv.m4**1.5)


def dist(*pairs):
    return DiscreteDistribution.from_pairs(pairs)


class TestMomentVector:
    def test_m0_forced_to_one(self):
        mv = MomentVector(1.0 + 1e-13, 0.0, 1.0, 0.0, 1.0)
        assert mv.m0 == 1.0

    def test_rejects_bad_m0(self):
        with pytest.raises(InfeasibleMomentsError):
            MomentVector(0.8, 0.0, 1.0, 0.0, 1.0)

    def test_rejects_negative_even_moments(self):
        with pytest.raises(InfeasibleMomentsError):
            MomentVector(1.0, 0.0, -1.0, 0.0, 1.0)
        with pytest.raises(InfeasibleMomentsError):
            MomentVector(1.0, 0.0, 1.0, 0.0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            MomentVector(1.0, math.nan, 1.0, 0.0, 1.0)

    def test_standardized_once_at_construction(self):
        mv = MomentVector(1, -2.0, 16.0, 8.0, 256.0)
        assert (mv.s, mv.unit) == standardize(-2.0, 16.0, 8.0, 256.0) == (4.0, (-0.5, 1.0, 0.125, 1.0))
        assert mv == MomentVector(1, -2.0, 16.0, 8.0, 256.0)
        assert repr(mv) == "MomentVector(m0=1.0, m1=-2.0, m2=16.0, m3=8.0, m4=256.0)"


class TestDiscreteDistribution:
    def test_sorted_and_normalized(self):
        d = dist((2.0, 0.25), (-1.0, 0.75))
        assert d.atoms == ((-1.0, 0.75), (2.0, 0.25))

    def test_merges_duplicates(self):
        d = dist((1.0, 0.25), (1.0, 0.25), (-1.0, 0.5))
        assert d.atoms == ((-1.0, 0.5), (1.0, 0.5))

    def test_drops_zero_weights(self):
        d = dist((0.0, 1.0), (5.0, 0.0))
        assert d.atoms == ((0.0, 1.0),)

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            dist((0.0, 0.8))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="negative"):
            dist((0.0, 1.2), (1.0, -0.2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            DiscreteDistribution.from_pairs([])


class TestMomentsFromDiscrete:
    def test_point_mass_at_zero(self):
        # exercises the 0^0 = 1 convention for m0
        mv = moments_from_discrete(dist((0.0, 1.0)))
        assert mv.as_tuple() == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_rademacher(self):
        mv = moments_from_discrete(dist((-1.0, 0.5), (1.0, 0.5)))
        assert mv.as_tuple() == (1.0, 0.0, 1.0, 0.0, 1.0)

    def test_two_point_u1_v2(self):
        # zero-mean on {-1, 2}: m2 = uv, m3 = uv(v-u), m4 = uv(u^2 - uv + v^2)
        mv = moments_from_discrete(dist((-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0)))
        assert mv.m1 == pytest.approx(0.0, abs=1e-15)
        assert mv.m2 == pytest.approx(2.0, rel=1e-15)
        assert mv.m3 == pytest.approx(2.0, rel=1e-15)
        assert mv.m4 == pytest.approx(6.0, rel=1e-15)

    @pytest.mark.parametrize(
        "pairs", [((1e200, 0.5), (1.0, 0.5)), ((-1e200, 0.5), (1e200, 0.5)), ((-1e80, 0.5), (1e80, 0.5))]
    )
    def test_overflow_raises_overflow_error(self, pairs):
        # the middle law's m3 terms overflow to -inf and +inf, which fsum would reject with ValueError
        with pytest.raises(OverflowError, match="beyond double range"):
            moments_from_discrete(dist(*pairs))

    def test_non_finite_moment_vector_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-finite moment"):
            MomentVector(1.0, 0.0, 1.0, 0.0, math.inf)


class TestMomentsFromSamples:
    def test_zeros(self):
        assert moments_from_samples([0.0, 0.0, 0.0]).as_tuple() == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_pm_one(self):
        assert moments_from_samples([-1.0, 1.0]).as_tuple() == (1.0, 0.0, 1.0, 0.0, 1.0)

    def test_one_two_three(self):
        mv = moments_from_samples([1.0, 2.0, 3.0])
        assert mv.m1 == pytest.approx(2.0, rel=1e-15)
        assert mv.m2 == pytest.approx(14.0 / 3.0, rel=1e-15)
        assert mv.m3 == pytest.approx(12.0, rel=1e-15)
        assert mv.m4 == pytest.approx(98.0 / 3.0, rel=1e-15)

    def test_matches_empirical_distribution(self):
        samples = [0.3, -1.7, 2.5, 0.9]
        empirical = dist(*((x, 0.25) for x in samples))
        assert moments_from_samples(samples) == moments_from_discrete(empirical)

    def test_errors(self):
        with pytest.raises(ValueError, match="empty sample set"):
            moments_from_samples([])
        with pytest.raises(ValueError, match="non-finite sample"):
            moments_from_samples([1.0, math.inf])


class TestAbsThirdMoment:
    def test_examples(self):
        assert abs_third_moment(dist((-1.0, 0.5), (1.0, 0.5))) == 1.0
        assert abs_third_moment(dist((0.0, 1.0))) == 0.0
        assert abs_third_moment(dist((-2.0, 0.25), (1.0, 0.75))) == pytest.approx(2.75)

    def test_dominates_m3(self):
        d = dist((-2.0, 0.25), (1.0, 0.75))
        mv = moments_from_discrete(d)
        assert abs_third_moment(d) >= abs(mv.m3)


class TestHankel:
    def test_rademacher(self):
        h = hankel(MomentVector(1, 0, 1, 0, 1)).entries
        np.testing.assert_array_equal(h, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])

    def test_point_mass(self):
        h = hankel(MomentVector(1, 0, 0, 0, 0)).entries
        np.testing.assert_array_equal(h, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])

    def test_two_point(self):
        h = hankel(MomentVector(1, 0, 2, 2, 6)).entries
        np.testing.assert_array_equal(h, [[1, 0, 2], [0, 2, 2], [2, 2, 6]])
        np.testing.assert_array_equal(h, h.T)

    def test_entries_read_only(self):
        h = hankel(MomentVector(1, 0, 1, 0, 1))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0


class TestFeasibility:
    def test_rademacher_boundary(self):
        rep = feasibility(MomentVector(1, 0, 1, 0, 1))
        assert rep.psd
        assert rep.minors[-1] == pytest.approx(0.0, abs=1e-14)

    def test_infeasible_vector(self):
        rep = feasibility(MomentVector(1, 0, 1, 0, 0.5))
        assert not rep.psd
        # det H = -1/2 = s^6 times the standardized det, s = 2^(-1/4)
        assert rep.minors[-1] == pytest.approx(-(2.0**0.5))

    def test_point_mass(self):
        rep = feasibility(MomentVector(1, 0, 0, 0, 0))
        assert rep.psd
        assert rep.minors[-1] == 0.0

    def test_det_matches_numeric(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            xs = rng.uniform(-5, 5, size=4)
            ps = rng.dirichlet(np.ones(4))
            mv = moments_from_discrete(dist(*zip(xs, ps)))
            numeric = float(np.linalg.det(hankel(mv).entries))
            closed = hankel_det_closed_form(mv)
            assert abs(numeric - closed) <= 1e-12 * tol_scale(mv)

    def test_two_point_rank_deficiency(self):
        # any zero-mean support of two points makes H singular
        for u, v in [(0.3, 0.7), (1.0, 2.0), (5.0, 0.2)]:
            s = u + v
            mv = moments_from_discrete(dist((-u, v / s), (v, u / s)))
            assert abs(hankel_det_closed_form(mv)) <= 1e-12 * tol_scale(mv)

    def test_reports_standardized_minors_and_margin(self):
        # (1, 0, 1, 0, 2): s = 2^(1/4), standardized (0, 2^(-1/2), 0, 1); the
        # decisive minor is det = 2^(-1/2) - 2^(-3/2) = 2^(-3/2)
        rep = feasibility(MomentVector(1, 0, 1, 0, 2))
        assert rep.scale == pytest.approx(2.0**0.25)
        assert len(rep.minors) == 7
        assert rep.decisive_minor == min(rep.minors) == rep.minors[-1]
        assert rep.decisive_minor == pytest.approx(2.0**-1.5)
        assert rep.margin == rep.decisive_minor + 1e-10
        assert rep.minors[-1] * rep.scale**6 == pytest.approx(1.0)

    def test_non_leading_minor_decides(self):
        # leading minors 1, 0, 0 are nonnegative, but m4 - m2^2 = -1/2 is not:
        # the leading minors alone would call H = [[1,1,1],[1,1,1],[1,1,1/2]] PSD
        mv = MomentVector(1, 1, 1, 1, 0.5)
        assert hankel_det_closed_form(mv) == 0.0
        assert np.linalg.eigvalsh(hankel(mv).entries)[0] < 0.0
        assert not feasibility(mv).psd

    def test_agrees_with_eigenvalues(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            m = rng.uniform(-1.0, 1.0, size=4)
            mv = MomentVector(1.0, m[0], abs(m[1]), m[2], abs(m[3]))
            std = [x / mv.m4 ** (j / 4) for j, x in enumerate(mv.as_tuple())]
            h = np.array([[std[i + j] for j in range(3)] for i in range(3)])
            min_eig = np.linalg.eigvalsh(h)[0]
            if abs(min_eig) > 1e-6:
                assert feasibility(mv).psd == (min_eig > 0.0)

    def test_array_verdict_matches_scalar(self):
        rng = np.random.default_rng(12)
        m1, m3 = rng.uniform(-1.0, 1.0, size=(2, 300))
        m2, m4 = rng.uniform(0.0, 1.0, size=(2, 300))
        s, std = standardize(m1, m2, m3, m4)
        psd, minors = psd_verdict(*std)
        for k in range(300):
            rep = feasibility(MomentVector(1.0, *(float(m[k]) for m in (m1, m2, m3, m4))))
            assert psd[k] == rep.psd
            assert s[k] == rep.scale
            assert [float(d if np.isscalar(d) else d[k]) for d in minors] == list(rep.minors)

    def test_verdict_invariant_under_scaling(self):
        for mv in (MomentVector(1, 0, 1, 0, 1), MomentVector(1, 0, 2, 2, 6), MomentVector(1, 0, 1, 0, 0.99)):
            base = feasibility(mv)
            for lam in 10.0 ** np.arange(-6.0, 7.0):
                rep = feasibility(scale_moments(mv, float(lam)))
                assert rep.psd == base.psd
                assert rep.decisive_minor == pytest.approx(base.decisive_minor, abs=1e-13)

    def test_verdict_is_reached_at_construction(self):
        for mv in (MomentVector(1, 0, 1, 0, 2), MomentVector(1, 0, 1, 0, 0.5), MomentVector(1, 0, 0, 0, 0)):
            assert (mv.psd, mv.minors) == psd_verdict(*mv.unit)
            rep = feasibility(mv)
            assert (rep.psd, rep.minors) == (mv.psd, mv.minors)

    @pytest.mark.parametrize("x", [1e-80, 6.89e-81, 6.8903119051009e-81, 3e-81, -3e-81])
    def test_point_mass_with_subnormal_m4_is_feasible(self, x):
        # m4 = x^4 carries ~3 significant digits: the verdict may miss by its rounding error
        mv = moments_from_discrete(dist((x, 1.0)))
        assert 0.0 < mv.m4 < sys.float_info.min
        rep = feasibility(mv)
        assert rep.psd and rep.margin >= 0.0
        assert psd_tol(mv.m4) == 1e-10 + 4.0 * 2.0**-1074 / mv.m4
        assert rep.margin == rep.decisive_minor + psd_tol(mv.m4)

    def test_subnormal_m4_forgives_only_its_rounding_error(self):
        rep = feasibility(MomentVector(1, 0, 1e-5, 0, 1e-310))
        assert not rep.psd and rep.margin < 0.0
        assert psd_tol(sys.float_info.min) == psd_tol(1.0) == psd_tol(0.0) == 1e-10

    def test_underflowed_point_mass_is_feasible(self):
        # an atom at 1e-100 has m4 = 0: X = 0 up to underflow, nothing to standardize
        rep = feasibility(moments_from_discrete(dist((1e-100, 1.0))))
        assert rep.psd and rep.scale == 0.0
        assert not feasibility(MomentVector(1, 0, 1, 0, 0)).psd


class TestStandardize:
    def test_unit_fourth_moment_and_range(self):
        for mv in (MomentVector(1, -1e70, 1e150, 1e220, 1e300), MomentVector(1, 1e-80, 1e-160, -1e-240, 1e-300)):
            s, (a1, a2, a3, a4) = standardize(mv.m1, mv.m2, mv.m3, mv.m4)
            assert s == pytest.approx(mv.m4**0.25)
            assert a4 == pytest.approx(1.0, rel=1e-15)
            assert (a1, a2, a3) == pytest.approx((mv.m1 / s, mv.m2 / s**2, mv.m3 / s**3), rel=1e-14)

    def test_zero_fourth_moment(self):
        assert standardize(0.0, 0.0, 0.0, 0.0) == (0.0, (0.0, 0.0, 0.0, 0.0))


def test_root_is_correctly_rounded():
    xs = np.random.default_rng(13).uniform(0.0, 1e6, size=2000)
    assert all(root(float(x)) == math.sqrt(x) for x in xs)
    np.testing.assert_array_equal(root(xs), np.sqrt(xs))


def test_quarter_bound_floats_and_arrays_agree():
    # libm and numpy round x ** 0.75 differently on ~5% of inputs
    rng = np.random.default_rng(14)
    for xs in (rng.uniform(0.0, 1e6, size=20_000), 1.0 + rng.uniform(-1e-12, 1e-12, size=2000)):
        np.testing.assert_array_equal(quarter_bound(xs), [quarter_bound(float(x)) for x in xs])


class TestScaleMoments:
    def test_examples(self):
        assert scale_moments(MomentVector(1, 0, 1, 0, 1), 2.0).as_tuple() == (1, 0, 4, 0, 16)
        mv = MomentVector(1, 0, 1, 0, 1)
        assert scale_moments(mv, 1.0) == mv
        assert scale_moments(MomentVector(1, 0, 2, 2, 6), -1.0).as_tuple() == (1, 0, 2, -2, 6)

    def test_matches_scaled_atoms(self):
        d = dist((-1.0, 2.0 / 3.0), (2.0, 1.0 / 3.0))
        mv = moments_from_discrete(d)
        for lam in (-2.0, -1.0, 0.5, 1.0, 3.0):
            scaled = moments_from_discrete(dist(*((lam * x, p) for x, p in d.atoms)))
            for a, b in zip(scale_moments(mv, lam).as_tuple(), scaled.as_tuple()):
                assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            scale_moments(MomentVector(1, 0, 1, 0, 1), math.inf)
