"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

import json
import math
import time

import numpy as np
import pytest

from momentbounds import (
    QUARTER_CONSTANT,
    DiscreteDistribution,
    OracleConfig,
    bound_quarter,
    bound_sqrt,
    certificate_from_hankel,
    extremal_from_sigma,
    feasibility,
    hankel,
    m3_interval,
    moments_from_discrete,
    oracle_extreme_m3_given,
    random_falsifier,
    two_point_zero_mean,
)
from momentbounds.bounds import EXTREMAL_U_FACTOR, EXTREMAL_V_FACTOR
from momentbounds.cli import main
from conftest import hankel_det_closed_form, scale_moments, tol_scale


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_distribution(rng, max_atoms=8, nonpositive_mean=False):
    k = int(rng.integers(2, max_atoms + 1))
    xs = rng.uniform(-5.0, 5.0, size=k)
    ws = rng.dirichlet(np.ones(k))
    if nonpositive_mean:
        xs = xs - max(0.0, float(xs @ ws)) - 1e-9
    return DiscreteDistribution.from_pairs(zip(xs, ws))


def test_criterion_1_sharp_constant_reproduction(capsys):
    start = time.time()
    code = main(["verify", "--step", "0.01", "--trials", "2000", "--seed", "42"])
    out = json.loads(capsys.readouterr().out)
    elapsed = time.time() - start
    gap = abs(QUARTER_CONSTANT - out["oracle_max_m3"])
    targets = (-EXTREMAL_U_FACTOR * 3.0**-0.25, EXTREMAL_V_FACTOR * 3.0**-0.25)
    atoms = [(a["x"], a["p"]) for a in out["oracle_argmax"]]
    atoms_near = all(min(abs(x - t) for t in targets) <= 0.02 for x, _ in atoms)
    covered = all(any(abs(x - t) <= 0.02 for x, _ in atoms) for t in targets)
    ok = code == 0 and gap <= 5e-3 and atoms_near and covered and elapsed < 120.0
    with capsys.disabled():
        report(
            "criterion 1 (sharp constant via verify)",
            ok,
            f"gap={gap:.2e}, atoms={[round(x, 4) for x, _ in atoms]}, "
            f"targets={[round(t, 4) for t in targets]}, {elapsed:.1f}s",
        )


def test_criterion_2_equality_case_exactness(capsys):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for sigma in rng.uniform(0.1, 10.0, size=100):
        mv = moments_from_discrete(extremal_from_sigma(float(sigma)))
        m3_rel = abs(mv.m3 - QUARTER_CONSTANT * mv.m4**0.75) / (QUARTER_CONSTANT * mv.m4**0.75)
        m2_rel = abs(mv.m2 - math.sqrt(mv.m4 / 3.0)) / math.sqrt(mv.m4 / 3.0)
        worst = max(worst, m3_rel, m2_rel)
    ok = worst <= 1e-12
    with capsys.disabled():
        report("criterion 2 (equality-case exactness)", ok, f"worst rel err={worst:.2e}")


def test_criterion_3_soundness_sweep(capsys):
    start = time.time()
    rep = random_falsifier(trials=100_000, seed=42)
    elapsed = time.time() - start
    ok = rep.total_violations == 0 and elapsed < 60.0
    with capsys.disabled():
        report(
            "criterion 3 (soundness sweep, 1e5 trials)",
            ok,
            f"violations={rep.total_violations}, "
            f"worst scaled slack={rep.worst_scaled_slack:.2e}, {elapsed:.1f}s",
        )


def test_criterion_4_two_point_tightness(capsys):
    grid = np.logspace(-1.0, 1.0, 20)
    worst_slack = 0.0
    worst_root = 0.0
    for u in grid:
        for v in grid:
            mv = moments_from_discrete(two_point_zero_mean(float(u), float(v)))
            res = bound_sqrt(mv)
            # equality in the bound holds for m3 >= 0 (u <= v); for u > v the
            # attained value is the lower endpoint, so compare |m3| to the
            # bound.  The slack is measured in the squared (degree-6) form,
            # the one commensurate with the m4^(3/2) tolerance scale; the
            # direct difference bound - |m3| has a sqrt(ulp) floor ~1e-9 that
            # no double-precision computation can go below.
            sq_slack = abs(res.bound**2 - mv.m3**2)
            worst_slack = max(worst_slack, sq_slack / tol_scale(mv))
            cert = certificate_from_hankel(mv)
            r = sorted(cert.roots)
            err = max(abs(r[0] - -u) / u, abs(r[-1] - v) / v)
            worst_root = max(worst_root, err)
    ok = worst_slack <= 1e-10 and worst_root <= 1e-8
    with capsys.disabled():
        report(
            "criterion 4 (two-point tightness, 20x20 log grid)",
            ok,
            f"worst scaled slack={worst_slack:.2e}, worst root rel err={worst_root:.2e}",
        )


def test_criterion_5_interval_oracle_agreement(capsys):
    cfg = OracleConfig(grid_lo=-3.0, grid_hi=3.0, grid_step=0.01)
    worst = 0.0
    for m1, m2, m4 in [(0.0, 1.0, 2.0), (0.0, 2.0, 6.0)]:
        lo, hi = oracle_extreme_m3_given(m1, m2, m4, cfg)
        iv = m3_interval(m1, m2, m4)
        worst = max(worst, abs(lo - iv.lo), abs(hi - iv.hi))
    ok = worst <= 5e-3
    with capsys.disabled():
        report("criterion 5 (interval-oracle agreement)", ok, f"worst endpoint gap={worst:.2e}")


def test_criterion_6_determinant_identity(capsys):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10_000):
        mv = moments_from_discrete(random_distribution(rng))
        numeric = float(np.linalg.det(hankel(mv)))
        worst = max(worst, abs(numeric - hankel_det_closed_form(mv)) / tol_scale(mv))
    ok = worst <= 1e-12
    with capsys.disabled():
        report("criterion 6 (determinant identity, 1e4 vectors)", ok, f"worst scaled err={worst:.2e}")


def test_criterion_7_scale_covariance(capsys):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        d = random_distribution(rng, nonpositive_mean=True)
        mv = moments_from_discrete(d)
        base = bound_quarter(mv).bound
        for lam in (0.5, 2.0, 7.0):
            scaled = bound_quarter(scale_moments(mv, lam)).bound
            if base > 0.0:
                worst = max(worst, abs(scaled - lam**3 * base) / (lam**3 * base))
        flipped = moments_from_discrete(
            DiscreteDistribution.from_pairs((-x, p) for x, p in d.atoms)
        )
        expected = scale_moments(mv, -1.0)
        for a, b in zip(tuple(flipped), tuple(expected)):
            if abs(a - b) > 1e-12 * max(1.0, abs(a)):
                worst = max(worst, 1.0)
    ok = worst <= 1e-12
    with capsys.disabled():
        report("criterion 7 (scale covariance)", ok, f"worst rel err={worst:.2e}")


def test_criterion_7_wide_scale_invariance_of_verdicts(capsys):
    """Criterion 7 over lam in 10^[-6, 6] for psd, tight, witness and certificate.

    The laws: the extremal law (tight under both bounds), the zero-mean law
    on {-1, 2} (tight under the sqrt bound only) and {-2, 0, 1.5} with equal
    weights (tight under neither).  Witness and certificate moments must
    reproduce the law's to 1e-10 in standardized units.
    """
    laws = {
        "extremal": (extremal_from_sigma(1.0).atoms, ("sqrt", "quarter")),
        "two-point": (two_point_zero_mean(1.0, 2.0).atoms, ("sqrt",)),
        "three-point": (((-2.0, 1 / 3), (0.0, 1 / 3), (1.5, 1 / 3)), ()),
    }
    misses = []
    worst = 0.0
    for lam in np.logspace(-6.0, 6.0, 121):
        for name, (atoms, tight) in laws.items():
            mv = moments_from_discrete(DiscreteDistribution.from_pairs((lam * x, p) for x, p in atoms))
            s = mv.m4**0.25
            outputs = []
            if not feasibility(mv).psd:
                misses.append((name, lam, "psd"))
            for bound, res in (("sqrt", bound_sqrt(mv)), ("quarter", bound_quarter(mv))):
                if res.tight != (bound in tight):
                    misses.append((name, lam, f"{bound} tight={res.tight}"))
                if res.witness is not None:
                    outputs.append(res.witness)
            if tight:
                outputs.append(certificate_from_hankel(mv).recovered)
            for law in outputs:
                got = moments_from_discrete(law)
                err = max(abs(a - b) / s**j for j, (a, b) in enumerate(zip(tuple(got), tuple(mv))))
                worst = max(worst, err)
    ok = not misses and worst <= 1e-10
    with capsys.disabled():
        report(
            "criterion 7 (scale invariance of verdicts, lam in 1e-6..1e6)",
            ok,
            f"misses={misses[:5]}, worst standardized moment err={worst:.2e}",
        )
