import math
import warnings
from fractions import Fraction
from itertools import combinations
from random import Random

import numpy as np
import pytest

from momentbounds import (
    QUARTER_CONSTANT,
    CertificateError,
    InfeasibleMomentsError,
    OracleConfig,
    bound_quarter,
    bound_sqrt,
    m3_interval,
    moments_from_discrete,
    oracle_extreme_m3_given,
    oracle_max_m3,
    random_falsifier,
    replay_trial,
    two_point_zero_mean,
)
from momentbounds import oracle
from momentbounds.oracle import check_certificate, lp_max
from conftest import tol_scale


COARSE = OracleConfig(grid_lo=-2.0, grid_hi=2.0, grid_step=0.1)

#: Every grid point of [-2, 2] at step 1/4, exactly.
QUARTER_GRID = [Fraction(k, 4) for k in range(-8, 9)]


def exact_solve(columns, rhs):
    """Weights w with sum_j w_j columns[j] = rhs in exact arithmetic, or None if singular."""
    m = len(rhs)
    rows = [[col[i] for col in columns] + [rhs[i]] for i in range(m)]
    for k in range(m):
        pivot = next((r for r in range(k, m) if rows[r][k] != 0), None)
        if pivot is None:
            return None
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for r in range(m):
            if r != k and rows[r][k] != 0:
                f = rows[r][k] / rows[k][k]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
    return [rows[k][m] / rows[k][k] for k in range(m)]


def basic_feasible_values(columns, costs, rhs):
    """Objective at every basic feasible solution, each basis solved in Fractions.

    The LP's optimum is the best of these: supports of size up to len(rhs).
    """
    values = []
    for basis in combinations(range(len(columns)), len(rhs)):
        w = exact_solve([columns[j] for j in basis], rhs)
        if w is not None and min(w) >= 0:
            values.append(sum(costs[j] * wj for j, wj in zip(basis, w)))
    return values


def exact_pair_optimum(m4_target, m1_max):
    """Max m3 over laws on at most two points of QUARTER_GRID with m4 = m4_target
    and m1 <= m1_max, in exact arithmetic; None if there is none."""
    target, t = Fraction(m4_target), Fraction(m1_max)
    best = None
    for xi, xj in combinations(QUARTER_GRID, 2):
        qi, qj = xi**4, xj**4
        if qi != qj:  # the weight p on xi is fixed by m4
            p = (target - qj) / (qi - qj)
            ok = 0 <= p <= 1 and p * xi + (1 - p) * xj <= t
        else:  # xi = -xj: m4 = qi for every p, and m3 falls as p grows
            p = max(Fraction(0), (xj - t) / (xj - xi))
            ok = qi == target and p <= 1
        if ok:
            m3 = p * xi**3 + (1 - p) * xj**3
            best = m3 if best is None else max(best, m3)
    return best


def certificate_parts(cfg):
    """The LP of oracle_max_m3 on cfg's grid, as the oracle builds it."""
    g = cfg.grid()
    A = np.hstack([np.vstack([np.ones_like(g), g, g**4]), [[0.0], [1.0], [0.0]]])
    return A, np.array([1.0, 0.0, cfg.m4_target]), np.r_[g**3, 0.0]


class TestOracleConfig:
    def test_defaults_valid(self):
        cfg = OracleConfig()
        g = cfg.grid()
        assert g[0] == pytest.approx(-3.0)
        assert g[-1] == pytest.approx(3.0)
        assert g.size == 601

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            OracleConfig(grid_step=-1.0)
        with pytest.raises(ValueError):
            OracleConfig(grid_lo=1.0, grid_hi=0.0)
        with pytest.raises(ValueError):
            OracleConfig(max_support=4)
        with pytest.raises(ValueError):
            OracleConfig(m4_target=0.0)

    def test_one_sided_grid_infeasible(self):
        cfg = OracleConfig(grid_lo=-3.0, grid_hi=3.0, grid_step=10.0)  # the one point -3
        for max_support in (2, 3):
            with pytest.raises(InfeasibleMomentsError):
                oracle_max_m3(cfg._replace(max_support=max_support))

    def test_one_sided_grids_are_left_to_the_lp(self):
        # all points negative: every law has m1 <= 0, and the best on [-3, -0.5] has negative m3
        res = oracle_max_m3(OracleConfig(grid_lo=-3.0, grid_hi=-0.5))
        assert res.max_m3 == -0.4362934362934363
        assert res.argmax.atoms == ((-3.0, 0.011583011583011582), (-0.5, 0.9884169884169884))
        assert oracle_max_m3(OracleConfig(grid_lo=-3.0, grid_hi=-0.5, max_support=2)).max_m3 == res.max_m3
        # all points positive: (1.5, 2.5, 8.5) is the law on {1, 2}, with m3 = 4.5
        lo, hi = oracle_extreme_m3_given(1.5, 2.5, 8.5, OracleConfig(grid_lo=0.5, grid_hi=3.0))
        assert (lo, hi) == pytest.approx((4.455465288035451, 4.50000000000018), abs=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_step": 1e-9},
            {"grid_step": 5e-324},
            {"grid_lo": -math.inf},
            {"grid_step": 0.001, "max_support": 2},
        ],
    )
    def test_oversized_grid_rejected_before_allocation(self, kwargs):
        with pytest.raises(ValueError, match="exceeds the cap"):
            OracleConfig(**kwargs)

    def test_grid_with_overflowing_fourth_power_rejected(self):
        assert OracleConfig(grid_lo=-1e77, grid_hi=1e77, grid_step=1e75).size == 201
        for lo, hi in ((-2e77, 1.0), (-1.0, 2e77)):
            with pytest.raises(OverflowError, match="fourth power"):
                OracleConfig(grid_lo=lo, grid_hi=hi, grid_step=1e75)

    def test_grid_overflowing_only_in_units_of_s_rejected(self):
        # the LP rows hold (x / s)^4, s = m4_target^(1/4): 1e77 / 3.2e-3 overflows
        with pytest.raises(OverflowError, match="fourth power"):
            OracleConfig(grid_lo=-1e77, grid_hi=1e77, grid_step=1e75, m4_target=1e-10)
        assert OracleConfig(grid_lo=-1e74, grid_hi=1e74, grid_step=1e72, m4_target=1e-10).size == 201

    def test_caps_are_per_path(self):
        assert OracleConfig(grid_step=0.001).size == 6001
        assert OracleConfig(grid_step=0.005, max_support=2).size == 1201


class TestOracleMaxM3:
    def test_rademacher_grid(self):
        res = oracle_max_m3(OracleConfig(grid_lo=-1.0, grid_hi=1.0, grid_step=2.0))
        assert res.max_m3 == 0.0
        assert res.argmax.atoms == ((-1.0, 0.5), (1.0, 0.5))

    def test_infeasible_m4_demand(self):
        # x^4 <= 16 on the grid
        with pytest.raises(InfeasibleMomentsError, match="infeasible configuration"):
            oracle_max_m3(
                OracleConfig(grid_lo=-2.0, grid_hi=2.0, grid_step=0.5, m4_target=100.0)
            )

    def test_target_reached_only_by_clamped_weights_is_infeasible(self):
        # m4 = 1 on points 0, +-1e75, ..., +-1e77 needs weights near 1e-300,
        # below the oracle's weight clamp: infeasible, not an uncertified optimum
        with pytest.raises(InfeasibleMomentsError, match="infeasible configuration"):
            oracle_max_m3(OracleConfig(-1e77, 1e77, 1e75))

    def test_round_off_on_a_basic_slack_is_no_dual_failure(self):
        # the mean row's slack is basic, so its dual y1 is 0; it came out as
        # -1.9e-17, which the dual check on the slack column refused
        res = oracle_max_m3(OracleConfig(-1.888130916106281, 0.5933211422066171, 0.00048439548676741065, 6.219150654675419))
        assert res.dual[1] == 0.0

    def test_weight_at_zero_certifies(self):
        # the column of x = 0 is (1, 0, 0) at cost 0, so y0 >= 0: it came out
        # as a round-off below 0, which the dual check on that column refused
        res = oracle_max_m3(OracleConfig(grid_lo=-3.0, grid_hi=2.5, grid_step=0.5, m4_target=0.0625))
        assert res.max_m3 == 0.04166666666666667
        assert [x for x, _ in res.argmax.atoms] == [-0.5, 0.0, 1.0]
        assert res.dual == (0.0, 0.3333333333333333, 0.6666666666666666)

    def test_unscalable_rows_are_infeasible(self):
        # (x / s)^4 is subnormal on this grid: its row cannot be scaled to unit size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleMomentsError):
                oracle_max_m3(OracleConfig(grid_lo=-3e-91, grid_hi=3e-91, grid_step=5e-93, m4_target=1e-53))

    def test_never_exceeds_quarter_bound(self):
        res = oracle_max_m3(COARSE)
        mv = moments_from_discrete(res.argmax)
        assert res.max_m3 <= bound_quarter(mv).bound + 1e-9 * tol_scale(mv)

    def test_argmax_moments_meet_constraints(self):
        res = oracle_max_m3(COARSE)
        mv = moments_from_discrete(res.argmax)
        assert mv.m0 == 1.0
        assert mv.m1 <= 0.0 + 1e-10
        assert abs(mv.m4 - 1.0) <= 1e-10
        assert res.max_m3 == pytest.approx(mv.m3, abs=1e-12)

    def test_deterministic(self):
        a = oracle_max_m3(COARSE)
        b = oracle_max_m3(COARSE)
        assert a.max_m3 == b.max_m3
        assert a.argmax == b.argmax
        assert a.candidates_examined == b.candidates_examined

    def test_default_grid_optimum_and_dual(self):
        cfg = OracleConfig()
        res = oracle_max_m3(cfg)
        # the optimum of exhaustive support enumeration on this grid
        assert res.max_m3 == pytest.approx(0.6203825005110042, abs=1e-12)
        assert [x for x, _ in res.argmax.atoms] == pytest.approx([-0.40, -0.39, 1.47], abs=1e-12)
        y0, y1, y2 = res.dual
        g = cfg.grid()
        assert (y0 + y1 * g + y2 * g**4 >= g**3 - 1e-9).all()
        assert y1 >= 0.0
        assert y0 + y2 * cfg.m4_target == pytest.approx(res.max_m3, abs=1e-12)
        assert res.pivots > 0
        assert res.candidates_examined >= (g.size + 1) * res.pivots

    @pytest.mark.parametrize("m4_target, m1_max", [(1.0, 0.0), (2.5, 0.0), (1.0, -0.25), (0.5, 0.5)])
    def test_matches_exact_brute_force(self, m4_target, m1_max):
        # the oracle's mean bound is 0; the LP kernel is also checked on nonzero mean rows
        cfg = OracleConfig(grid_lo=-2.0, grid_hi=2.0, grid_step=0.25, m4_target=m4_target)
        columns = [(1, x, x**4) for x in QUARTER_GRID] + [(0, 1, 0)]
        costs = [x**3 for x in QUARTER_GRID] + [0]
        rhs = (1, Fraction(m1_max), Fraction(m4_target))
        exact = max(basic_feasible_values(columns, costs, rhs))
        A, b, c = certificate_parts(cfg)
        b[1] = m1_max
        sol, = lp_max(A, b, c)
        check_certificate(A, b, c, sol.x, sol.y)
        assert c @ sol.x == pytest.approx(float(exact), abs=1e-12)
        if m1_max == 0.0:
            assert oracle_max_m3(cfg).max_m3 == pytest.approx(float(exact), abs=1e-12)

    def test_matches_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        cfg = OracleConfig()
        A, b, c = certificate_parts(cfg)
        ref = linprog(-c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert ref.status == 0
        assert oracle_max_m3(cfg).max_m3 == pytest.approx(-ref.fun, abs=1e-9)
        for triple in [(0.0, 1.0, 2.0), (-0.5, 1.0, 2.0)]:
            g = cfg.grid()
            A4 = np.vstack([np.ones_like(g), g, g**2, g**4])
            ends = [
                sign * linprog(-sign * g**3, A_eq=A4, b_eq=[1.0, *triple], bounds=(0, None), method="highs").fun
                for sign in (1.0, -1.0)
            ]
            assert oracle_extreme_m3_given(*triple, cfg) == pytest.approx((-ends[1], -ends[0]), abs=1e-9)

    @pytest.mark.parametrize("lam", [1e-3, 1e3])
    def test_scale_covariant(self, lam):
        # the LP is solved with rows scaled to unit size, so tolerances hold at any scale
        def cfg(s):
            return OracleConfig(grid_lo=-3.0 * s, grid_hi=3.0 * s, grid_step=0.01 * s, m4_target=s**4)

        assert oracle_max_m3(cfg(lam)).max_m3 == pytest.approx(lam**3 * oracle_max_m3(cfg(1.0)).max_m3, rel=1e-9)
        lo, hi = oracle_extreme_m3_given(0.0, lam**2, 2.0 * lam**4, cfg(lam))
        unit = oracle_extreme_m3_given(0.0, 1.0, 2.0, cfg(1.0))
        assert (lo, hi) == pytest.approx((lam**3 * unit[0], lam**3 * unit[1]), rel=1e-9)

    @pytest.mark.parametrize("lam", [1e-30, 1e-20, 1e77])
    def test_lp_oracle_is_scale_free(self, lam):
        # grid [-1, 1] at step 0.01 with m4 = 0.1, scaled by lam: at 1e77 the
        # grid ends are the largest whose fourth power fits a double
        def cfg(s):
            return OracleConfig(-s, s, 0.01 * s, 0.1 * s**4)

        unit, res = oracle_max_m3(cfg(1.0)), oracle_max_m3(cfg(lam))
        assert res.pivots == unit.pivots
        assert res.max_m3 == pytest.approx(lam**3 * unit.max_m3, rel=1e-9)
        got = [v for x, p in res.argmax.atoms for v in (x / lam, p)]
        assert got == pytest.approx([v for a in unit.argmax.atoms for v in a], rel=1e-9)
        y0, y1, y2 = res.dual
        assert [y0 / lam**3, y1 / lam**2, y2 * lam] == pytest.approx(unit.dual, rel=1e-9)

    @pytest.mark.parametrize("lam", [1e-30, 1e-20])
    def test_default_problem_at_small_scale(self, lam):
        res = oracle_max_m3(OracleConfig(-3 * lam, 3 * lam, 0.01 * lam, lam**4))
        assert res.pivots == 18
        assert res.max_m3 / lam**3 == pytest.approx(0.6203825005110035, rel=1e-9)

    @pytest.mark.parametrize(
        "lo, hi, step, m4",
        [
            (-0.0012531248766735358, 0.0016831049842557769, 5.582002723685248e-06, 1.5117364538376941e-12),
            (-0.0009608648027122831, 0.0009973839377670148, 0.00028108680310746155, 1.1369859257706048e-12),
            (-0.003066227188996534, 0.003229170098895171, 4.821039976873388e-05, 5.533586076422926e-10),
        ],
    )
    def test_tiny_scale_agrees_with_unit_scale(self, lo, hi, step, m4):
        # rows of very different sizes (x^4 ~ 1e-12 against mass 1) need the LP's row scaling;
        # the last two grids cannot reach m4 and must be found infeasible at both scales
        s = m4**0.25
        tiny = OracleConfig(grid_lo=lo, grid_hi=hi, grid_step=step, m4_target=m4)
        unit = OracleConfig(grid_lo=lo / s, grid_hi=hi / s, grid_step=step / s, m4_target=1.0)
        try:
            expected = oracle_max_m3(unit).max_m3 * s**3
        except InfeasibleMomentsError:
            with pytest.raises(InfeasibleMomentsError):
                oracle_max_m3(tiny)
        else:
            assert oracle_max_m3(tiny).max_m3 == pytest.approx(expected, rel=1e-9)

    def test_tampered_dual_fails_certificate(self):
        A, b, c = certificate_parts(COARSE)
        sol, = lp_max(A, b, c)
        check_certificate(A, b, c, sol.x, sol.y)
        lowered = sol.y - np.array([1e-6, 0.0, 0.0])  # below x^3 at the support
        with pytest.raises(CertificateError, match="dual"):
            check_certificate(A, b, c, sol.x, lowered)
        raised = sol.y + np.array([1e-6, 0.0, 0.0])  # feasible but not optimal
        with pytest.raises(CertificateError, match="gap"):
            check_certificate(A, b, c, sol.x, raised)
        moved = sol.x.copy()
        moved[np.flatnonzero(moved)[0]] += 1e-6
        with pytest.raises(CertificateError, match="primal"):
            check_certificate(A, b, c, moved, sol.y)

    def test_unbounded_lp_raises(self):
        # x0 = x1 >= 0 with objective x0 grows without bound
        with pytest.raises(CertificateError, match="unbounded linear program"):
            lp_max(np.array([[1.0, -1.0]]), np.array([0.0]), np.array([1.0, 0.0]))

    def test_oracle_refuses_uncertified_optimum(self, monkeypatch):
        # lp_max certifies every optimum it returns: here phase 2 stops at its first basis
        simplex = oracle._simplex

        def stopped(AT, abs_at, b, c, basis, n):
            if c[n:].any():  # phase 1 prices the artificial columns
                return simplex(AT, abs_at, b, c, basis, n)
            return 0, 0

        monkeypatch.setattr(oracle, "_simplex", stopped)
        with pytest.raises(CertificateError):
            oracle_max_m3(COARSE)
        with pytest.raises(CertificateError):
            oracle_extreme_m3_given(0.0, 1.0, 2.0, COARSE)

    def test_support_two_pairs_are_exactly_feasible(self):
        # the default grid, widened to reach m4_target = 1e30; at the three small
        # targets the near atom's weight rounds to 1, so m4 rests on the far atom's own weight
        for target in (1e-30, 1e-20, 1e-16, 1.0, 1e30):
            w = max(1.0, target**0.25)
            res = oracle_max_m3(OracleConfig(-3.0 * w, 3.0 * w, 0.01 * w, target, max_support=2))
            mv = moments_from_discrete(res.argmax)
            assert len(res.argmax.atoms) <= 2
            assert res.dual == ()
            assert mv.m1 <= 0.0
            assert abs(mv.m4 - target) <= 4e-16 * target, target
            assert res.max_m3 == pytest.approx(mv.m3, rel=1e-15, abs=1e-15 * target**0.75)

    @pytest.mark.xfail(strict=True, raises=InfeasibleMomentsError, reason="FOUND: WEIGHT_CLAMP drops the far weight")
    def test_support_three_certifies_what_support_two_finds(self):
        # the pair oracle's law {-3: 1.23e-22, 0: 1} meets m4 = 1e-20 to 1.5e-16,
        # but the certified LP on the same grid calls the configuration infeasible
        two = oracle_max_m3(OracleConfig(m4_target=1e-20, max_support=2))
        assert oracle_max_m3(OracleConfig(m4_target=1e-20)).max_m3 >= two.max_m3

    def test_support_three_refines_support_two(self):
        two = oracle_max_m3(
            OracleConfig(grid_lo=-2.0, grid_hi=2.0, grid_step=0.1, max_support=2)
        )
        three = oracle_max_m3(COARSE)
        assert three.max_m3 >= two.max_m3 - 1e-12
        # the true optimum is two-point, so the refinement is grid-resolution small
        assert three.max_m3 - two.max_m3 <= 0.05


class TestPinnedResults:
    """Exact results of the LP and pair kernels: a change to either kernel's
    arithmetic that moves an optimum, a tie-break or a count shows here."""

    def test_default_max_m3(self):
        res = oracle_max_m3(OracleConfig())
        assert res.max_m3 == 0.6203825005110035
        assert res.argmax.atoms == (
            (-0.3999999999999999, 0.0958241987263024),
            (-0.3900000000000001, 0.6939831980547388),
            (1.4699999999999998, 0.2101926032189587),
        )
        assert res.dual == (0.15707255978742188, 0.582333235674864, 0.4633099407235816)
        assert (res.pivots, res.candidates_examined) == (18, 13244)
        assert res._fields == ("max_m3", "argmax", "candidates_examined", "dual", "pivots")

    @pytest.mark.parametrize(
        "triple, ends",
        [
            ((0.0, 1.0, 2.0), (-0.9999606200000001, 0.9999606200000002)),
            ((0.0, 2.0, 6.0), (-2.0000000000000124, 2.0000000000000053)),
            ((-0.5, 1.0, 2.0), (-1.3660004347826087, 0.3659504347826086)),
        ],
    )
    def test_default_m3_range(self, triple, ends):
        assert oracle_extreme_m3_given(*triple, OracleConfig()) == ends

    @pytest.mark.parametrize(
        "kwargs, m3, atoms, priced",
        [
            ({"grid_lo": -2.0, "grid_hi": 3.5}, 0.6160595068594873,
             ((-0.3899999999999999, 0.7954087254686415), (1.48, 0.20459127453135845)), 70752),
            ({"grid_lo": -4.0, "grid_hi": 1.5, "grid_step": 0.02, "m4_target": 0.3}, 0.2507381891701561,
             ((-0.2799999999999998, 0.7984479943337564), (1.1000000000000005, 0.20155200566624365)), 15075),
            ({"grid_step": 0.1, "m4_target": 2.5}, 1.1875693930421907,
             ((-0.5, 0.8120605107327907), (1.9000000000000004, 0.18793948926720933)), 900),
            ({"grid_lo": -1.7, "grid_hi": 2.9, "grid_step": 0.05, "m4_target": 5.0}, 2.055292307692308,
             ((-0.5999999999999999, 0.790934065934066), (2.2, 0.20906593406593402)), 2006),
            ({"grid_lo": -3.0, "grid_hi": 3.0, "grid_step": 0.25, "m4_target": 16.0}, 4.908496732026144,
             ((-0.75, 0.8056160735899298), (3.0, 0.1943839264100702)), 170),
            # every {mass, m4} pair has m3 < 0; the best pair is {-1, 1} at mean 0,
            # which only the {mass, mean = 0} family prices (x^4 equal at both)
            ({"grid_lo": -2.0, "grid_hi": 1.0, "grid_step": 0.5}, 0.0, ((-1.0, 0.5), (1.0, 0.5)), 20),
        ],
    )
    def test_pair_oracle(self, kwargs, m3, atoms, priced):
        res = oracle_max_m3(OracleConfig(**kwargs, max_support=2))
        assert (res.max_m3, res.argmax.atoms, res.candidates_examined) == (m3, atoms, priced)

    def test_blands_rule_alone_reaches_the_same_optima(self, monkeypatch):
        # with no stall allowance every degenerate pivot hands entry to Bland's
        # rule, so that branch runs however round-off breaks degenerate ties
        best = oracle_max_m3(OracleConfig()).max_m3
        ends = oracle_extreme_m3_given(0.0, 2.0, 6.0, OracleConfig())
        monkeypatch.setattr(oracle, "STALLS_PER_ROW", 0)
        assert oracle_max_m3(OracleConfig()).max_m3 == pytest.approx(best, abs=1e-12)
        assert oracle_extreme_m3_given(0.0, 2.0, 6.0, OracleConfig()) == pytest.approx(ends, abs=1e-12)


class TestPairOracle:
    """``max_support=2``: the pairs of grid points that straddle m4_target."""

    @staticmethod
    def cfg(**kwargs):
        return OracleConfig(**{"max_support": 2, **kwargs})

    @pytest.mark.parametrize("m4_target, m1_max", [(1.0, 0.0), (2.5, 0.0)])
    def test_matches_exact_brute_force(self, m4_target, m1_max):
        # m1_max feeds only the exact reference: the oracle's mean bound is 0
        cfg = self.cfg(grid_lo=-2.0, grid_hi=2.0, grid_step=0.25, m4_target=m4_target)
        exact = exact_pair_optimum(m4_target, m1_max)
        assert oracle_max_m3(cfg).max_m3 == pytest.approx(float(exact), abs=1e-12)

    def test_rademacher_grid(self):
        # x^4 = m4_target at both atoms: only the {mass, mean} family prices this pair
        res = oracle_max_m3(self.cfg(grid_lo=-1.0, grid_hi=1.0, grid_step=2.0))
        assert res.max_m3 == 0.0
        assert res.argmax.atoms == ((-1.0, 0.5), (1.0, 0.5))

    def test_default_grid_pinned(self):
        res = oracle_max_m3(self.cfg())
        assert res.max_m3 == 0.6160595068594868
        assert res.argmax.atoms == ((-0.3900000000000001, 0.7954087254686418), (1.4800000000000004, 0.20459127453135817))
        # 402 outside points (x^4 >= 1, -1 and 1 included) x 201 inside points
        assert res.candidates_examined == 402 * 201

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_lo": -0.5, "grid_hi": 0.5, "grid_step": 0.25},  # every x^4 below m4_target
            {"grid_lo": -3.0, "grid_hi": 3.0, "grid_step": 2.0, "m4_target": 0.5},  # every x^4 above it
        ],
    )
    def test_infeasible(self, kwargs):
        with pytest.raises(InfeasibleMomentsError, match="infeasible configuration"):
            oracle_max_m3(self.cfg(**kwargs))

    @pytest.mark.parametrize("lam", [1e-3, 1e3])
    def test_scale_covariant(self, lam):
        def cfg(s):
            return self.cfg(grid_lo=-3.0 * s, grid_hi=3.0 * s, grid_step=0.01 * s, m4_target=s**4)

        assert oracle_max_m3(cfg(lam)).max_m3 == pytest.approx(lam**3 * oracle_max_m3(cfg(1.0)).max_m3, rel=1e-9)


class TestOracleExtremeGiven:
    def test_rademacher_forced(self):
        lo, hi = oracle_extreme_m3_given(
            0.0, 1.0, 1.0, OracleConfig(grid_lo=-2.0, grid_hi=2.0, grid_step=0.5)
        )
        assert lo == pytest.approx(0.0, abs=5e-3)
        assert hi == pytest.approx(0.0, abs=5e-3)

    def test_degenerate_boundary_triple_default_range(self):
        lo, hi = oracle_extreme_m3_given(0.0, 1.0, 1.0, OracleConfig(grid_step=0.5))
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("triple", [(0.0, 1.0, 2.0), (-0.5, 1.0, 2.0), (0.25, 1.5, 4.0)])
    def test_matches_exact_brute_force(self, triple):
        cfg = OracleConfig(grid_lo=-2.0, grid_hi=2.0, grid_step=0.25)
        columns = [(1, x, x * x, x**4) for x in QUARTER_GRID]
        costs = [x**3 for x in QUARTER_GRID]
        rhs = (1, *(Fraction(v) for v in triple))
        values = basic_feasible_values(columns, costs, rhs)
        assert oracle_extreme_m3_given(*triple, cfg) == pytest.approx((float(min(values)), float(max(values))), abs=1e-12)

    def test_range_inside_closed_form(self):
        for triple in [(0.0, 1.0, 2.0), (0.0, 2.0, 6.0), (-0.5, 1.0, 2.0)]:
            lo, hi = oracle_extreme_m3_given(*triple, OracleConfig())
            iv = m3_interval(*triple)
            assert iv.lo - 1e-12 <= lo <= hi <= iv.hi + 1e-12
            assert max(lo - iv.lo, iv.hi - hi) <= 1e-4

    def test_degenerate_min_vertex_certifies_quickly(self):
        # min m3 given (0, 2, 6) ends at the two-point law {-2, 1}: 2 atoms on
        # 4 rows, a degenerate vertex around which Bland's rule crawled
        g = OracleConfig().grid()
        A = np.vstack([np.ones_like(g), g, g**2, g**4])
        b = np.array([1.0, 0.0, 2.0, 6.0])
        c = -(g**3)
        sol, = lp_max(A, b, c)
        check_certificate(A, b, c, sol.x, sol.y)
        assert sol.pivots <= 40
        assert c @ sol.x == pytest.approx(2.0, abs=1e-9)

    def test_one_phase_one_serves_every_objective(self):
        # the two ends of the (0, 2, 6) range from one call, bit for bit as from two
        g = OracleConfig().grid()
        A = np.vstack([np.ones_like(g), g, g**2, g**4])
        b = np.array([1.0, 0.0, 2.0, 6.0])
        c = g**3
        both = lp_max(A, b, -c, c)
        apart = [lp_max(A, b, -c)[0], lp_max(A, b, c)[0]]
        assert len(both) == 2
        for one, other in zip(both, apart):
            assert one.x.tobytes() == other.x.tobytes() and one.y.tobytes() == other.y.tobytes()
            assert (one.pivots, one.priced) == (other.pivots, other.priced)
        assert lp_max(A, b) == []

    def test_exact_grid_pair(self):
        # (0, 2, 6) comes from the zero-mean distribution on {-1, 2}
        lo, hi = oracle_extreme_m3_given(0.0, 2.0, 6.0, COARSE)
        assert hi == pytest.approx(2.0, abs=5e-3)
        assert lo == pytest.approx(-2.0, abs=5e-3)

    @pytest.mark.parametrize(
        "triple, step, m3",
        [
            ((0.0, 1.2311608994957512, 1.8143153995017063), 0.00017059178227204726, -0.6062781788471598),
            ((0.0, 1.4877671822436702, 2.228200102321356), 0.0002809565332656919, 0.1481315289396473),
            ((0.0, 0.9827057192101795, 1.1874899655562605), 0.0001640713764171574, -0.466844641359175),
            ((0.0, 0.36944713389595446, 2.492680868064312), 0.00017262554597095278, -0.9329992097627593),
            # the law on -2.2026053314390723 and 2.202982740960654: its optimal
            # basis has condition 6.5e7, and the solved weights of its two
            # degenerate columns are -1.6e-9, past the clamp check
            pytest.param(
                (0.0, 4.852301530308198, 23.54483083218314), 0.0006988559759517332, 0.0018313047991247444,
                marks=pytest.mark.xfail(strict=True, raises=InfeasibleMomentsError),
            ),
        ],
    )
    def test_fine_grid_pair_is_represented(self, triple, step, m3):
        # zero-mean laws on two grid points of [-3, 3] with m3 as given: their
        # optimal weights, read through an explicit basis inverse, had
        # round-off below -WEIGHT_CLAMP and were refused as unrepresentable;
        # on the last, the rank-1-updated inverse priced a column with reduced
        # cost 1.7e-9 as not eligible (threshold 1.4e-11), and the dual check failed
        lo, hi = oracle_extreme_m3_given(*triple, OracleConfig(grid_step=step))
        iv = m3_interval(*triple)
        assert iv.lo - 1e-9 <= lo <= hi <= iv.hi + 1e-9
        assert min(abs(lo - m3), abs(hi - m3)) <= 1e-9

    def test_non_finite_moment_rejected(self):
        with pytest.raises(ValueError, match="non-finite moment"):
            oracle_extreme_m3_given(math.inf, 1.0, 2.0, COARSE)

    def test_infeasible_triple_propagates(self):
        with pytest.raises(InfeasibleMomentsError):
            oracle_extreme_m3_given(1.0, 0.5, 1.0, COARSE)

    def test_unrepresentable_triple(self):
        cfg = OracleConfig(grid_lo=-1.0, grid_hi=1.0, grid_step=2.0)
        with pytest.raises(InfeasibleMomentsError, match="grid cannot represent"):
            oracle_extreme_m3_given(0.0, 0.25, 0.2, cfg)

    @pytest.mark.parametrize(
        "lo, lam",
        [(-3e-157, 1e-75), (-3e-146, 10.0**17.5)],
        ids=["x-squared-subnormal", "m2-beyond-range-in-units-of-x-squared"],
    )
    def test_unscalable_rows_are_infeasible(self, lo, lam):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleMomentsError):
                oracle_extreme_m3_given(0.0, lam**2, 2 * lam**4, OracleConfig(lo, -lo, lo / -60))

    def test_grids_through_zero_certify(self):
        # laws on 0 and one or two grid points: the range of 10 of these 60
        # put weight on x = 0 and failed the dual check on a round-off of y0
        rng = Random(9)
        for _ in range(60):
            step = rng.choice([0.5, 0.25, 0.1, 0.05, 0.02, 0.01])
            ends = (-step * rng.randint(1, round(3 / step)), step * rng.randint(1, round(3 / step)))
            cfg = OracleConfig(*ends, grid_step=step)
            g = cfg.grid()
            xs = [0.0, *(float(g[rng.randrange(g.size)]) for _ in range(rng.choice([1, 2])))]
            ws = [rng.random() for _ in xs]
            m1, m2, m4 = (sum(w * x**k for x, w in zip(xs, ws)) / sum(ws) for k in (1, 2, 4))
            lo, hi = oracle_extreme_m3_given(m1, m2, m4, cfg)
            iv = m3_interval(m1, m2, m4)
            assert iv.lo - 1e-12 <= lo <= hi <= iv.hi + 1e-12

    def test_one_vertex_gives_one_m3(self):
        # both phase 2s end on the support {0, 0.5}, and read its weight on 0.5 1 ulp apart
        lo, hi = oracle_extreme_m3_given(0.10903837406351365, 0.05451918703175682, 0.013629796757939206,
                                         OracleConfig(-1.5, 1.5, 0.5))
        assert lo == hi == 0.027259593515878408

    def test_weight_at_zero_certifies(self):
        cfg = OracleConfig(grid_lo=-1.33, grid_hi=0.5800000000000001, grid_step=0.01)
        triple = (-0.20958080561398149, 0.2137724217262611, 0.22240882756400204)
        lo, hi = oracle_extreme_m3_given(*triple, cfg)
        assert lo == pytest.approx(m3_interval(*triple).lo, abs=1e-12)
        assert lo <= hi

    def test_small_target_left_uncovered_is_infeasible(self):
        # m4 / m2 = 1e-9 needs |x| ~ 3e-5, finer than the grid: phase 1 ends
        # with the m2 row's artificial at its whole (scaled) target 1.1e-11
        g = OracleConfig().grid()
        A, b = np.vstack([np.ones_like(g), g, g**2, g**4]), np.array([1.0, 0.0, 1e-10, 1e-19])
        assert lp_max(A, b) is None
        with pytest.raises(InfeasibleMomentsError, match="grid cannot represent"):
            oracle_extreme_m3_given(0.0, 1e-10, 1e-19, OracleConfig())


class TestRandomFalsifier:
    def test_no_violations(self):
        rep = random_falsifier(trials=2000, seed=7)
        assert rep.total_violations == 0
        assert rep.worst_scaled_slack >= -1e-9

    def test_reproducible(self):
        a = random_falsifier(trials=500, seed=123)
        b = random_falsifier(trials=500, seed=123)
        assert a == b

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_falsifier(trials=0, seed=1)
        with pytest.raises(ValueError):
            replay_trial(1, -1)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            random_falsifier(10, -1)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            replay_trial(-1, 0)
        with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
            random_falsifier(10, 2**64)
        with pytest.raises(ValueError, match=r"seed must be below 2\*\*64"):
            replay_trial(2**64, 0)
        with pytest.raises(TypeError):
            random_falsifier(10, 1.5)

    def test_trials_capped_before_allocation(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("allocated")

        monkeypatch.setattr(oracle, "_workspace", refuse)
        monkeypatch.setattr(oracle, "_uniforms", refuse)
        with pytest.raises(ValueError, match="trials must be in 1"):
            random_falsifier(oracle.MAX_TRIALS + 1, 0)
        # the seed is refused before allocation too
        with pytest.raises(ValueError, match="seed must be below"):
            random_falsifier(10, 2**64)
        with pytest.raises(ValueError, match="seed must be below"):
            replay_trial(2**64, 0)

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_uniforms_are_splitmix64(self, seed):
        def splitmix_uniform(seed, trial, r):  # the stream in Python ints, from Steele, Lea & Flood (2014)
            mask = 2**64 - 1
            z = (seed + (17 * trial + r + 1) * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z ^= z >> 31
            return (z >> 12) * 2.0**-52

        assert 2 * oracle.FALSIFIER_ATOMS + 1 == 17
        for start, size in ((0, 2), (4095, 2), (oracle.MAX_TRIALS - 1, 1)):  # trials 0, 1, 4095, 4096 and the last
            u = oracle._uniforms(seed, start, np.empty((17, size)), np.empty((17, size), dtype=np.uint64))
            want = [[splitmix_uniform(seed, start + i, r) for i in range(size)] for r in range(17)]
            assert u.tolist() == want

    def test_single_trial(self):
        rep = random_falsifier(1, 0)
        assert rep.trials == 1
        assert rep.worst_trial == 0
        assert rep.total_violations == 0

    @pytest.mark.parametrize("chunk", [1, 7, 999])  # a one-trial chunk is where numpy changes its summation order
    def test_chunk_size_does_not_matter(self, monkeypatch, chunk):
        whole = random_falsifier(trials=1000, seed=5)
        monkeypatch.setattr(oracle, "FALSIFIER_CHUNK", chunk)
        assert random_falsifier(trials=1000, seed=5) == whole

    def test_lists_violating_trials_across_chunks(self, monkeypatch):
        monkeypatch.setattr(oracle, "FALSIFIER_CHUNK", 3)
        # a cut of -1e3 flags every trial, since each scaled slack is below 2
        monkeypatch.setattr(oracle, "FALSIFIER_TOL", -1e3)
        rep = random_falsifier(trials=40, seed=2)
        assert rep.eq_quarter_violations == 40
        assert rep.violating_trials == tuple(range(oracle.LISTED_VIOLATIONS))

    #: Reports under the SplitMix64 stream (``test_uniforms_are_splitmix64``).
    PINNED = {
        (1, 0): oracle.FalsifierReport(1, 0, 0, 0, 0, 0.2475426946789022, 0, ()),
        (4097, 3): oracle.FalsifierReport(4097, 0, 0, 0, 0, 3.885780586188048e-16, 1820, ()),
        (30000, 7): oracle.FalsifierReport(30000, 0, 0, 0, 0, 1.8041124150158794e-16, 9652, ()),
    }

    @pytest.mark.parametrize("trials, seed", sorted(PINNED))
    def test_reports_are_pinned(self, trials, seed):
        rep = random_falsifier(trials, seed)
        assert rep == self.PINNED[trials, seed]  # worst_scaled_slack included
        assert replay_trial(seed, rep.worst_trial).scaled_margin == rep.worst_scaled_slack
        # numpy integers key the stream as Python ints do
        assert replay_trial(np.uint64(seed), np.int64(rep.worst_trial)).scaled_margin == rep.worst_scaled_slack

    def test_cut_network_sorts(self):
        # a comparator network sorts every input iff it sorts every 0-1 input
        for bits in range(2 ** (oracle.FALSIFIER_ATOMS - 1)):
            row = [(bits >> k) & 1 for k in range(oracle.FALSIFIER_ATOMS - 1)]
            for i, j in oracle._SORT_7:
                row[i], row[j] = min(row[i], row[j]), max(row[i], row[j])
            assert row == sorted(row)

    def test_replay_reproduces_worst_trial(self):
        rep = random_falsifier(trials=5000, seed=9)
        trial = replay_trial(9, rep.worst_trial)
        assert trial.scaled_margin == rep.worst_scaled_slack
        law = moments_from_discrete(trial.law)
        for a, b in zip(tuple(law), tuple(trial.moments)):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)
        mv = trial.moments
        iv = m3_interval(mv.m1, mv.m2, mv.m4)
        s3 = mv.s**3
        scalar = min(
            bound_sqrt(mv).scaled_slack,
            bound_quarter(mv).scaled_slack,
            (mv.m3 - iv.lo) / s3,
            (iv.hi - mv.m3) / s3,
        )
        assert scalar == pytest.approx(trial.scaled_margin, abs=1e-13)

    @pytest.mark.parametrize("seed, index", [(42, 0), (7, 9652), (3, 1820)])  # two PINNED worst trials
    def test_slack_rows_are_the_scalar_slacks(self, seed, index):
        mv = replay_trial(seed, index).moments
        slacks, flags = oracle._evaluate(*(np.array([m]) for m in mv[1:]))
        assert slacks[0, 0] == bound_sqrt(mv).scaled_slack
        assert slacks[1, 0] == bound_quarter(mv).scaled_slack
        iv = m3_interval(mv.m1, mv.m2, mv.m4)
        assert slacks[2, 0] == pytest.approx(min(mv.m3 - iv.lo, iv.hi - mv.m3) / mv.s**3, abs=1e-13)
        assert not flags.any()

    def test_two_point_draws_are_equality_cases(self):
        import numpy as np

        from momentbounds import bound_sqrt

        rng = np.random.default_rng(11)
        for _ in range(1000):
            u, v = sorted(rng.uniform(0.1, 10.0, size=2))
            # u <= v keeps m3 >= 0, the regime where equality obtains
            mv = moments_from_discrete(two_point_zero_mean(u, v))
            res = bound_sqrt(mv)
            assert abs(res.slack) <= 1e-10 * tol_scale(mv)
