"""Independent verification of the closed-form bounds.

``oracle_max_m3`` maximizes m3 over grid distributions under mass, mean and
fourth-moment constraints; ``oracle_extreme_m3_given`` finds the range of
m3 given (m1, m2, m4).  Both are linear programs in the grid weights,
and ``lp_max`` is their one judge: it runs phase 1 once, which decides
feasibility, and phase 2 per objective, and it certifies each optimum by LP
duality before it returns it (Karlin & Studden 1966, Tchebycheff Systems).
Any grid is accepted, one-sided grids included: the LP decides.  Neither
oracle consults the closed forms, which makes them an independent check of
the sharp constant (4/27)^(1/4).

``random_falsifier`` hammers the bounds with random discrete distributions,
drawn from a counter-based SplitMix64 stream and evaluated in bulk, and
counts violations (expected: none).

numpy loads with the first LP, pair block or falsifier chunk, not with this
module: its configuration, its records and its argument checks need none.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

from . import _ORACLE_NAMES
from .bounds import quarter_bound, sqrt_bound
from .moments import (
    CertificateError,
    DiscreteDistribution,
    InfeasibleMomentsError,
    MomentVector,
    _validated_make,
    fourth_root,
    psd_verdict,
    standardize,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

__all__ = list(_ORACLE_NAMES)

#: Basic weights at or below this are round-off of a degenerate vertex
#: (``lp_max`` checks that they carry no row).
WEIGHT_CLAMP = 1e-12

#: Relative round-off allowed in pricing (simplex) and in the certificate.
PRICE_TOL = 1e-11
CERTIFICATE_TOL = 1e-9

#: Degenerate pivots in a row, per row, after which the simplex enters by
#: Bland's rule.  At 1 per row the min-m3 LP of ``oracle_extreme_m3_given``
#: on (0, 2, 6) took 132 pivots, at 4 per row 36; any finite count keeps
#: the anti-cycling guarantee.
STALLS_PER_ROW = 4

#: Grid points accepted by the LP (O(n) memory) and by the support-2 pair
#: oracle (O(n^2) memory: at 1201 points it prices 321 602 pairs in ~6 ms,
#: ~11 ms as a process's first call, and that process peaks at ~38 MB RSS,
#: ~11 MB above numpy imported; 2-CPU x86-64 host, numpy 2.4).
MAX_GRID_POINTS = 1_000_001
MAX_PAIR_GRID_POINTS = 1_201

#: Trials the falsifier draws and evaluates together, and violating trials
#: a FalsifierReport lists by index.  One workspace of min(FALSIFIER_CHUNK,
#: trials) trials (1.5 MiB at 4096, one allocation) serves every chunk of a
#: call; it is atom-major, one row per uniform, weight or power sum, so each
#: step is a ufunc on contiguous rows.  Smaller chunks pay more per-call
#: overhead: 1024 took ~1.5x as long as 4096 for 3e4 trials (2-CPU x86-64,
#: numpy 2.4).
FALSIFIER_CHUNK = 4096
LISTED_VIOLATIONS = 10

#: Most trials in one falsifier call, refused before anything is allocated:
#: 10**8 take ~25 s at ~0.25 us per trial (1e6 in 0.25 s; 2-CPU x86-64, numpy 2.4).
MAX_TRIALS = 10**8

#: Most atoms in one falsifier trial, and the cut, in units of s^3, below
#: which a missed bound or interval end counts as a violation.
FALSIFIER_ATOMS = 8
FALSIFIER_TOL = 1e-9


def _checked_int(name: str, value, lo: int, hi: int) -> int:
    """``value`` as an int in lo..hi; otherwise a TypeError or ValueError that names it."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer") from None
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in {lo}..{hi}")
    return value


class OracleConfig(namedtuple("OracleConfig", "grid_lo grid_hi grid_step m4_target max_support")):
    """Grid and constraint parameters of the oracles.

    ``max_support=2`` restricts ``oracle_max_m3`` to pairs of grid points.
    Oversized grids are rejected before anything is allocated; whether a grid
    (one-sided or not) meets the constraints is left to the oracles.
    """

    __slots__ = ()

    def __new__(cls, grid_lo=-3.0, grid_hi=3.0, grid_step=0.01, m4_target=1.0, max_support=3):
        if not (grid_step > 0.0 and math.isfinite(grid_step)):
            raise ValueError("grid_step must be positive")
        if not grid_lo < grid_hi:
            raise ValueError("grid_lo must be below grid_hi")
        max_support = _checked_int("max_support", max_support, 2, 3)
        if not (m4_target > 0.0 and math.isfinite(m4_target)):
            raise ValueError("m4_target must be positive")
        self = super().__new__(cls, grid_lo, grid_hi, grid_step, m4_target, max_support)
        cap = MAX_PAIR_GRID_POINTS if max_support == 2 else MAX_GRID_POINTS
        span = (grid_hi - grid_lo) / grid_step + 1e-9
        if not span < cap:  # also rejects infinite and NaN grid ends
            raise ValueError(f"grid of {span + 1:.3g} points exceeds the cap of {cap} "
                             f"for max_support={max_support}")
        # The same arithmetic as grid()[-1], without building the grid.
        top = grid_lo + grid_step * (self.size - 1)
        big = max(-grid_lo, top)  # the largest |x| on the grid
        big = max(big, big / fourth_root(m4_target))  # pairs take x^4, the LPs (x / s)^4
        if big * big * big * big == math.inf:
            raise OverflowError("grid points whose fourth power is beyond double range")
        return self

    _make = classmethod(_validated_make)

    @property
    def size(self) -> int:
        return int(math.floor((self.grid_hi - self.grid_lo) / self.grid_step + 1e-9)) + 1

    def grid(self) -> np.ndarray:
        import numpy as np
        return self.grid_lo + self.grid_step * np.arange(self.size)


class OracleResult(namedtuple("OracleResult", "max_m3 argmax candidates_examined dual pivots", defaults=((), 0))):
    """Maximized m3 with the optimizing grid distribution ``argmax``, whose
    moments are ``moments_from_discrete(argmax)``.

    ``candidates_examined`` counts grid columns priced, summed over the
    simplex iterations; for ``max_support=2``, the pairs priced, a point
    with x^4 >= m4_target and one with x^4 <= m4_target (``_max_m3_pairs``).  ``dual``
    is the certificate (y0, y1, y2), empty for ``max_support=2``:
    y0 + y1 x + y2 x^4 >= x^3 on the grid, y1 >= 0, and
    y0 + y2 m4_target = max_m3.
    """

    __slots__ = ()


class LPSolution(namedtuple("LPSolution", "x y pivots priced")):
    """Primal weights x, duals y, simplex pivots and columns priced."""

    __slots__ = ()


def _simplex(AT, abs_at, b, c, basis, n):
    """Revised simplex from a feasible basis: max c @ x, A @ x = b, x >= 0,
    with A given as AT = A.T (contiguous) and abs_at = |AT[:n]|.

    Columns from ``n`` on are artificial: they never enter, and one at zero
    blocks any pivot that would move it.  The entering column has the
    largest reduced cost, except after more than STALLS_PER_ROW * m
    degenerate pivots in a row, where it has the lowest index (Bland's
    rule) until the objective moves again: only degenerate pivots can
    cycle, and Bland's rule cannot.  Ratio ties leave by lowest basis
    index.  Each pivot updates the basis inverse, used for pricing only, by
    a rank-1 (eta) update, which drifts: a basis so reached is inverted
    afresh and priced again before it is called optimal.  Leaves the
    optimal basis in ``basis`` and returns (pivots, columns priced).
    """
    import numpy as np
    m, abs_c = len(b), np.abs(c[:n])
    zero = PRICE_TOL * max(1.0, np.abs(b).max())
    inv, c_b, fresh = np.linalg.inv(AT[basis].T), c[basis], True
    pivots = priced = stalled = 0
    while True:
        y = c_b @ inv
        reduced = c[:n] - AT[:n] @ y
        reduced[[j for j in basis if j < n]] = 0.0
        priced += n
        eligible = reduced > PRICE_TOL * (abs_c + abs_at @ np.abs(y))
        j = int(np.argmax(eligible if stalled > STALLS_PER_ROW * m else np.where(eligible, reduced, -np.inf)))
        if not eligible[j]:
            if fresh:
                return pivots, priced
            inv, fresh = np.linalg.inv(AT[basis].T), True
            continue
        u = inv @ AT[j]
        big = PRICE_TOL * max(1.0, np.abs(u).max())
        ratios = [(max(xr, 0.0) / abs(ur), k, r) for r, (ur, xr, k) in enumerate(zip(u.tolist(), (inv @ b).tolist(), basis))
                  if abs(ur) > big and (ur > 0.0 or (k >= n and xr <= zero))]
        if not ratios:
            raise CertificateError("unbounded linear program")
        step, _, leave = min(ratios)
        stalled = stalled + 1 if step <= zero else 0
        row = inv[leave] / u[leave]
        inv -= u[:, None] * row
        inv[leave] = row
        basis[leave], c_b[leave] = j, c[j]
        pivots, fresh = pivots + 1, False
        if pivots > 10 * (m + n):
            raise CertificateError("simplex iteration limit reached")


def lp_max(A: np.ndarray, b: np.ndarray, *costs: np.ndarray) -> list[LPSolution] | None:
    """Maximize each c in ``costs`` over A @ x = b, x >= 0: one LPSolution per
    objective ([] for none, the feasibility test), each proved optimal by
    ``check_certificate`` (CertificateError if not); None if infeasible.

    Dense two-phase revised simplex.  Rows are scaled to unit magnitude (b
    nonnegative); None if one cannot be (its largest entry subnormal, or b
    beyond double range in units of it).  Phase 1 minimizes the sum of
    artificial columns, once for all objectives.  An artificial left basic
    must be within CERTIFICATE_TOL times its row's right-hand side (1 where
    that is 0): a small target left uncovered is not met (m2 = 1e-10,
    m4 = 1e-19 on the default grid).  Phase 2 runs from that basis per
    objective, scaled to unit magnitude; an artificial still basic at its end
    sits at zero on a redundant row (dual 0).  Basic weights at or below
    WEIGHT_CLAMP are dropped; None if they carry more than CERTIFICATE_TOL of
    a row's terms (5e-309 on x = 1e77 for m4 = 1).  Weights and duals are
    solved from the final basis: through an explicit inverse, a weight of
    9e-13 read -7.1e-9 on a basis of condition 4e5.  A zero-cost column with
    one nonzero entry makes its row's dual constraint a sign constraint (the
    mean-row slack of ``oracle_max_m3``, a grid point at x = 0): a dual of the
    wrong sign there is round-off, and is set to 0.  Deterministic.
    """
    import numpy as np
    m, n = A.shape
    row_max, tiny = np.abs(A).max(axis=1), np.finfo(float).tiny
    rows = np.where(b < 0.0, -1.0, 1.0) / np.where(row_max >= tiny, row_max, 1.0)
    with np.errstate(over="ignore"):
        b1 = b * rows
    if ((row_max > 0.0) & (row_max < tiny)).any() or not np.isfinite(b1).all():
        return None
    AT = np.vstack([A.T * rows, np.eye(m)])
    abs_at = np.abs(AT[:n])
    lone = np.count_nonzero(A, axis=0) == 1
    start = list(range(n, n + m))
    pivots1, priced1 = _simplex(AT, abs_at, b1, np.r_[np.zeros(n), -np.ones(m)], start, n)
    if any(v > CERTIFICATE_TOL * (b1[j - n] or 1.0) for v, j in zip(np.linalg.solve(AT[start].T, b1), start) if j >= n):
        return None
    solutions = []
    for c in costs:
        basis = list(start)
        size_c = max(np.abs(c).max(), tiny)
        c1 = np.r_[c / size_c, np.zeros(m)]
        pivots, priced = _simplex(AT, abs_at, b1, c1, basis, n)
        B = AT[basis].T
        x = np.zeros(n + m)
        x[basis] = np.linalg.solve(B, b1)
        kept = np.where(x[:n] > WEIGHT_CLAMP, x[:n], 0.0)
        if (np.abs(x[:n] - kept) @ abs_at > CERTIFICATE_TOL * (kept @ abs_at + b1)).any():
            return None
        y = np.linalg.solve(B.T, c1[basis]) * rows * size_c
        y[(A[:, lone & (c == 0.0)] * y[:, None] < 0.0).any(axis=1)] = 0.0
        check_certificate(A, b, c, kept, y)
        solutions.append(LPSolution(kept, y, pivots1 + pivots, priced1 + priced))
    return solutions


def check_certificate(A, b, c, x, y) -> None:
    """Raise CertificateError unless (x, y) prove x optimal for max c @ x, A x = b, x >= 0.

    Checks x >= 0, A x = b, A^T y >= c on every column and c @ x = b @ y,
    each to CERTIFICATE_TOL relative to the magnitudes of its terms.
    """
    import numpy as np
    tol = CERTIFICATE_TOL
    abs_a = np.abs(A)
    checks = {
        "primal": (x >= 0.0).all() and (np.abs(A @ x - b) <= tol * (abs_a @ x + np.abs(b))).all(),
        "dual": (y @ A - c >= -tol * (np.abs(c) + np.abs(y) @ abs_a)).all(),
        "gap": abs(c @ x - b @ y) <= tol * (np.abs(c) @ x + np.abs(b) @ np.abs(y)),
    }
    failed = [name for name, ok in checks.items() if not ok]
    if failed:
        raise CertificateError(f"LP certificate failed: {', '.join(failed)} check")


def oracle_max_m3(cfg: OracleConfig) -> OracleResult:
    """Maximize m3 over grid distributions with sum p = 1, m1 <= 0, m4 = m4_target.

    One LP, certified by ``lp_max``: rows mass, mean (plus a slack column,
    whose dual y1 is held at 0 or above by the sign rule) and m4, a column
    per grid point, solved for X / s, s = ``fourth_root(m4_target)``, so rows
    are of unit size at any scale (m3 and the dual are scaled back).
    ``max_support=2`` prices pairs instead.
    """
    import numpy as np
    g = cfg.grid()
    if cfg.max_support == 2:
        return _max_m3_pairs(cfg, g)
    s = fourth_root(cfg.m4_target)
    z = g / s
    A = np.hstack([np.vstack([np.ones_like(z), z, z**4]), [[0.0], [1.0], [0.0]]])
    b = np.array([1.0, 0.0, cfg.m4_target / s / s / s / s])
    c = np.r_[z**3, 0.0]
    found = lp_max(A, b, c)
    if found is None:
        raise InfeasibleMomentsError("infeasible configuration")
    sol, = found
    support = np.flatnonzero(sol.x[:-1])
    m3 = math.fsum(c[support] * sol.x[support]) * (s * s * s)
    y0, y1, y2 = (float(v) for v in sol.y)
    dual = (y0 * (s * s * s), y1 * (s * s), y2 / s)
    argmax = DiscreteDistribution.from_pairs(zip(g[support], sol.x[support]))
    return OracleResult(m3, argmax, sol.priced, dual, sol.pivots)


def _mix(p, a, b, out, tmp):
    """p * a + (1.0 - p) * b, rounded as that expression is, into ``out``."""
    import numpy as np
    return np.add(np.multiply(p, a, out=out), np.multiply(np.subtract(1.0, p, out=tmp), b, out=tmp), out=out)


def _max_m3_pairs(cfg: OracleConfig, g: np.ndarray) -> OracleResult:
    """Best law on at most two grid points, pricing only the pairs that can reach m4.

    m4 = m4_target needs an atom with x^4 >= m4_target and one with
    x^4 <= m4_target: the rows and the columns of one block, a point with
    x^4 = m4_target in both.  p, the weight of the row (far) atom, solves
    {mass, m4} (the mean then checked as an inequality) or {mass, mean = 0}
    (the m4 residual then required to be exactly 0); it does not round to 0
    when m4_target is tiny against the grid, so every admitted pair is a
    feasible point of the LP and the LP optimum dominates the result.  A
    point with itself gets p = 0/0 or x/0 and is never admitted.  Ties go to
    the first family, then to the first pair in (row, column) order.
    """
    import numpy as np
    with np.errstate(divide="ignore", invalid="ignore"):
        target = cfg.m4_target
        q, c = g**4, g**3
        rows, cols = np.flatnonzero(q >= target), np.flatnonzero(q <= target)
        xi, qi, ci, xj, qj, cj = g[rows, None], q[rows, None], c[rows, None], g[cols], q[cols], c[cols]
        p, t, u = np.empty((3, rows.size, cols.size))  # one allocation for both families; three were re-faulted per call
        found = [(np.inf, 0, 0, 0, 0.0)]  # (-m3, family, i, j, p): the least wins
        for family in (0, 1):
            if family == 0:  # p is in [0, 1] or NaN (0/0), which fails the mean test; about half the block passes
                ok = _mix(np.divide(target - qj, np.subtract(qi, qj, out=p), out=p), xi, xj, t, u) <= 0.0
                m3, cells = _mix(p, ci, cj, t, u), range(p.size)
                m3[~ok] = -np.inf
            else:  # few cells: m4 comes out exact only by chance or symmetry
                ok = (_mix(np.divide(xj, np.subtract(xj, xi, out=p), out=p), qi, qj, t, u) == target) & (p >= 0.0) & (p <= 1.0)
                cells = np.flatnonzero(ok)
                m3 = p.flat[cells] * ci.flat[cells // cols.size] + (1.0 - p.flat[cells]) * cj[cells % cols.size]
            if ok.any():
                k = int(np.argmax(m3))
                i, j = divmod(int(cells[k]), cols.size)
                found.append((-float(m3.flat[k]), family, int(rows[i]), int(cols[j]), float(p[i, j])))
        neg_m3, _, i, j, w = min(found)
        if neg_m3 == np.inf:
            raise InfeasibleMomentsError("infeasible configuration")
        return OracleResult(-neg_m3, DiscreteDistribution(((g[i], w), (g[j], 1.0 - w))), p.size)


def oracle_extreme_m3_given(
    m1: float, m2: float, m4: float, cfg: OracleConfig
) -> tuple[float, float]:
    """Min and max of m3 over grid distributions matching (m1, m2, m4) exactly.

    Two LPs (max m3, max -m3), certified by ``lp_max``, with rows mass, m1,
    m2 and m4, solved for X / s (see ``oracle_max_m3``) from one phase-1 basis; the
    range lies inside ``m3_interval`` and fills it as the grid is refined.
    Two optima on one support are one vertex, read once: then lo == hi.
    """
    if not all(math.isfinite(v) for v in (m1, m2, m4)):
        raise ValueError("non-finite moment")
    import numpy as np
    s = fourth_root(cfg.m4_target)
    z = cfg.grid() / s
    A = np.vstack([np.ones_like(z), z, z**2, z**4])
    b = np.array([1.0, m1 / s, m2 / s / s, m4 / s / s / s / s])
    c = z**3
    found = lp_max(A, b, -c, c)
    if found is None:
        raise InfeasibleMomentsError("grid cannot represent the moment triple")
    ends = found[:1] * 2 if np.array_equal(found[0].x > 0.0, found[1].x > 0.0) else found
    lo, hi = (math.fsum(c[sol.x > 0.0] * sol.x[sol.x > 0.0]) * (s * s * s) for sol in ends)
    return lo, hi


class FalsifierReport(namedtuple("FalsifierReport", "trials eq_sqrt_violations eq_quarter_violations interval_violations "
                                 "psd_violations worst_scaled_slack worst_trial violating_trials")):
    """Violation counts from randomized stress-testing of the bounds.

    ``worst_trial`` has the smallest scaled margin (``worst_scaled_slack``):
    the least of the two bounds' slacks and the m3 interval's two margins,
    each divided by s^3, s = m4^(1/4), like ``BoundResult.scaled_slack``.
    ``replay_trial`` rebuilds any trial from (seed, index); the
    ``violating_trials`` tuple lists the first LISTED_VIOLATIONS by index.
    """

    __slots__ = ()

    @property
    def total_violations(self) -> int:
        return (
            self.eq_sqrt_violations
            + self.eq_quarter_violations
            + self.interval_violations
            + self.psd_violations
        )


class ReplayedTrial(namedtuple("ReplayedTrial", "law moments scaled_margin")):
    """One falsifier trial: its law, the moments and scaled margin (slack / s^3)
    the falsifier computed."""

    __slots__ = ()


#: SplitMix64 (Steele, Lea & Flood 2014, OOPSLA): the state's increment
#: (the golden gamma) and the finalizer's two (shift, multiplier) rounds.
_GAMMA = 0x9E3779B97F4A7C15
_ROUNDS = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB))


def _uniforms(seed: int, start: int, u: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Uniforms on [0, 1) into u's rows: row r, column i gets uniform r of trial start + i.

    Uniform r of trial t is SplitMix64 output k = m t + r + 1 from state
    ``seed`` (m = u's rows, 2 FALSIFIER_ATOMS + 1): z = seed + k * _GAMMA mod
    2**64, then z ^= z >> 30, z *= 0xBF58476D1CE4E5B9, z ^= z >> 27,
    z *= 0x94D049BB133111EB, z ^= z >> 31, all mod 2**64; the uniform is
    (z >> 12) * 2**-52, built in place as the double 1.m - 1.  Keyed by
    (seed, t), so a trial is drawn without its predecessors, and Python ints
    reproduce it.  ``scratch`` is uint64, of u's shape.
    """
    import numpy as np
    m, size = u.shape
    z = u.view(np.uint64)
    base = np.array([(seed + (m * start + r + 1) * _GAMMA) % 2**64 for r in range(m)], dtype=np.uint64)
    np.multiply(np.arange(size, dtype=np.uint64), np.uint64(m * _GAMMA % 2**64), out=scratch[0])
    np.add(scratch[0], base[:, None], out=z)
    for shift, multiplier in _ROUNDS:  # as uint64 scalars: under numpy 1.x casting a Python int can leave uint64
        z ^= np.right_shift(z, np.uint64(shift), out=scratch)
        z *= np.uint64(multiplier)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    z >>= np.uint64(12)
    z |= np.uint64(0x3FF0000000000000)  # the exponent of [1, 2)
    u -= 1.0
    return u


#: Compare-exchanges that sort 7 rows (a 16-comparator network): the
#: FALSIFIER_ATOMS - 1 cut points, elementwise along each row.
_SORT_7 = ((0, 6), (2, 3), (4, 5), (0, 2), (1, 4), (3, 6), (0, 1), (2, 5),
           (3, 4), (1, 2), (4, 6), (2, 3), (4, 5), (1, 2), (3, 4), (5, 6))


def _workspace(size: int) -> np.ndarray:
    """One buffer for ``size`` trials, reused by every chunk of a call,
    atom-major, one column per trial: rows for the 2n + 1 uniforms, n
    weights, 4 power sums, 2 scratch rows and the 2n + 1 rows that
    ``_uniforms`` works in as uint64 (n = FALSIFIER_ATOMS).  As two
    allocations (float rows, uint64 scratch), a process calling the
    falsifier repeatedly re-faulted ~340 pages per 3e4-trial call against
    ~25 as one, and took ~15% longer (2-CPU x86-64, glibc, numpy 2.4)."""
    import numpy as np
    n = FALSIFIER_ATOMS
    return np.empty((5 * n + 8, size))


def _trial_laws(u: np.ndarray, ws: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Atoms (returned, in u's rows) and weights (into ws) of the trials in
    the columns of u; unused atoms get zero weight.

    u is atom-major, one row per uniform, n = FALSIFIER_ATOMS: row 0 picks
    the atom count k in 2..n, row 1 a jitter in [1e-9, 1e-6), the next n
    rows atoms uniform on [-5, 5), the last n - 1 cut points whose spacings
    are Dirichlet(1) weights (unused cuts sit at 1).  Atoms are shifted
    left until the mean is just below zero: unlike rejection, this keeps
    draws close to the m1 = 0 boundary where the bounds are sharp.  Works
    in place: u and spare are overwritten.
    """
    import numpy as np
    n = FALSIFIER_ATOMS
    xs, cuts = u[2 : 2 + n], list(u[2 + n :])
    t, tmp = spare
    np.multiply(u[0], n - 1, out=t)  # k = 2 + floor(t): cut j is used iff j <= t
    for j in range(1, n - 1):
        np.maximum(cuts[j], np.less(t, j, out=tmp), out=cuts[j])  # 1 where unused
    for i, j in _SORT_7:  # exact, so any sorting order gives the same values
        np.minimum(cuts[i], cuts[j], out=tmp)
        np.maximum(cuts[i], cuts[j], out=cuts[j])
        cuts[i], tmp = tmp, cuts[i]
    ws[0] = cuts[0]
    for j in range(1, n - 1):
        np.subtract(cuts[j], cuts[j - 1], out=ws[j])
    np.subtract(1.0, cuts[-1], out=ws[-1])
    np.multiply(xs, 10.0, out=xs)
    xs += -5.0
    mean = t
    np.multiply(ws[0], xs[0], out=mean)
    for j in range(1, n):  # added in a fixed order, so bit-reproducible
        mean += np.multiply(ws[j], xs[j], out=tmp)
    jitter = u[1]
    np.multiply(jitter, 1e-6 - 1e-9, out=jitter)
    jitter += 1e-9
    np.maximum(mean, 0.0, out=mean)
    mean += jitter
    xs -= mean
    return xs


def _power_sums(xs: np.ndarray, ws: np.ndarray, sums: np.ndarray, term: np.ndarray) -> np.ndarray:
    """sums[p - 1] = sum_j ws[j] xs[j]^p for p = 1..4, added atom by atom in
    a fixed order, so a trial's sums do not depend on its chunk."""
    import numpy as np
    np.multiply(ws[0], xs[0], out=sums[0])
    for p in range(1, 4):
        np.multiply(sums[p - 1], xs[0], out=sums[p])
    for x, w in zip(xs[1:], ws[1:]):
        np.multiply(w, x, out=term)
        sums[0] += term
        for total in sums[1:]:
            term *= x
            total += term
    return sums


def _evaluate(m1, m2, m3, m4):
    """Scaled slacks (rows sqrt, quarter, interval) and violation flags (those rows, then psd).

    The moments are standardized once, and the verdicts come from the
    formula helpers on the same standardized arguments the scalar API
    gives them, so the falsifier tests the shipped arithmetic; the PSD flag
    and the ends of ``m3_interval`` on X / s read one covariance and one
    radius.  Slacks and the cut FALSIFIER_TOL are in units of s^3.
    """
    import numpy as np
    _, (a1, a2, a3, a4) = standardize(m1, m2, m3, m4)
    (psd, _, r), center = psd_verdict(a1, a2, a3, a4), a1 * a2
    slacks = np.stack([sqrt_bound(a2, a4) - a3, quarter_bound(a4) - a3, np.minimum(a3 - (center - r), center + r - a3)])
    return slacks, np.vstack([slacks < -FALSIFIER_TOL, ~psd])


def _chunk(seed: int, start: int, work: np.ndarray, size: int):
    """Draw trials start..start + size - 1 of ``seed`` into ``work`` and evaluate
    them: (atoms, weights, power sums, slacks, flags), atom-major views of work."""
    import numpy as np
    n = FALSIFIER_ATOMS
    u, ws, sums, spare, scratch = np.split(work[:, :size], [2 * n + 1, 3 * n + 1, 3 * n + 5, 3 * n + 7])
    _uniforms(seed, start, u, scratch.view(np.uint64))
    xs = _trial_laws(u, ws, spare)
    _power_sums(xs, ws, sums, spare[0])
    return (xs, ws, sums, *_evaluate(*sums))


def random_falsifier(trials: int, seed: int) -> FalsifierReport:
    """Stress-test the bounds on random discrete distributions.

    Each trial draws up to FALSIFIER_ATOMS atoms (see ``_trial_laws``).  A
    bound or interval end is violated when it is missed by more than
    FALSIFIER_TOL s^3, s = m4^(1/4), the unit of ``BoundResult.scaled_slack``.
    Trials, at most MAX_TRIALS, go in chunks of FALSIFIER_CHUNK through one
    workspace; the result is the same for any chunk size and fully
    reproducible from ``seed``, 0 <= seed < 2**64 (``_uniforms``).
    """
    trials = _checked_int("trials", trials, 1, MAX_TRIALS)
    seed = _checked_int("seed", seed, 0, 2**64 - 1)
    import numpy as np
    work = _workspace(min(FALSIFIER_CHUNK, trials))
    counts = np.zeros(4, dtype=np.int64)
    worst, worst_trial = math.inf, 0
    listed: list[int] = []
    for start in range(0, trials, FALSIFIER_CHUNK):
        *_, slacks, flags = _chunk(seed, start, work, min(FALSIFIER_CHUNK, trials - start))
        counts += flags.sum(axis=1)
        margin = slacks.min(axis=0)
        k = int(np.argmin(margin))
        if margin[k] < worst:
            worst, worst_trial = float(margin[k]), start + k
        bad = np.flatnonzero(flags.any(axis=0))[: LISTED_VIOLATIONS - len(listed)]
        listed.extend(int(start + i) for i in bad)
    sqrt_v, quarter_v, interval_v, psd_v = (int(v) for v in counts)
    return FalsifierReport(trials, sqrt_v, quarter_v, interval_v, psd_v, worst, worst_trial, tuple(listed))


def replay_trial(seed: int, index: int) -> ReplayedTrial:
    """Trial ``index`` of ``random_falsifier(..., seed)``, 0 <= index < MAX_TRIALS, rebuilt
    by the falsifier's own arithmetic: its moments and margin are the ones seen."""
    seed, index = _checked_int("seed", seed, 0, 2**64 - 1), _checked_int("index", index, 0, MAX_TRIALS - 1)
    xs, ws, sums, slacks, _ = _chunk(seed, index, _workspace(1), 1)
    law = DiscreteDistribution(zip(xs[:, 0], ws[:, 0]))
    mv = MomentVector(1.0, *(float(m[0]) for m in sums))
    return ReplayedTrial(law, mv, float(slacks[:, 0].min()))
