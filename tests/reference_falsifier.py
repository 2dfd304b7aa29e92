"""A pure-Python twin of the falsifier: trial ``index`` of ``seed``, step by step.

It imports no numpy and nothing from ``momentbounds.oracle``.  It draws the
trial from SplitMix64 on Python ints (the README's formula), builds the law
and its power sums in the falsifier's order, and judges them with the
scalar formula helpers.  numpy's add, multiply, sqrt, minimum and maximum
round as Python's float operations do, so the bar is bit identity: a fault
in the falsifier's array code, such as a wrong row in its workspace split or
a power sum added out of order, shows as a different margin.
"""

import math

from momentbounds.bounds import quarter_bound, sqrt_bound
from momentbounds.moments import psd_verdict, standardize

#: The falsifier's atoms per trial, its violation cut in units of s^3 and
#: the violating trials its report lists.
ATOMS = 8
TOL = 1e-9
LISTED = 10

MASK = 2**64 - 1


def uniforms(seed, index):
    """Uniforms 0..2 ATOMS of the trial: SplitMix64 outputs 17 index + 1..17 index + 17."""
    m = 2 * ATOMS + 1
    out = []
    for r in range(m):
        z = (seed + (m * index + r + 1) * 0x9E3779B97F4A7C15) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(((z ^ (z >> 31)) >> 12) * 2.0**-52)
    return out


def trial_law(seed, index):
    """(atoms, weights) of the trial, unused atoms at weight 0.

    Uniform 0 picks k = 2 + floor(7 u) atoms, uniform 1 the jitter, the next
    ATOMS the atoms on [-5, 5), the last ATOMS - 1 the cut points whose
    spacings are the weights; cut j is used iff j <= 7 u, an unused one sits
    at 1.  ``sorted`` gives the cut points that any sorting network, such as
    the falsifier's, gives.  The atoms are then shifted left until the mean
    is just below zero.
    """
    u = uniforms(seed, index)
    t, jitter, xs = u[0] * (ATOMS - 1), u[1], u[2 : 2 + ATOMS]
    cuts = sorted(c if j <= t else 1.0 for j, c in enumerate(u[2 + ATOMS :]))
    ws = [b - a for a, b in zip([0.0, *cuts], [*cuts, 1.0])]
    xs = [x * 10.0 - 5.0 for x in xs]
    mean = ws[0] * xs[0]
    for w, x in zip(ws[1:], xs[1:]):  # not sum(), which compensates from Python 3.12 on
        mean += w * x
    shift = max(mean, 0.0) + (jitter * (1e-6 - 1e-9) + 1e-9)
    return [x - shift for x in xs], ws


def power_sums(xs, ws):
    """sum_j w_j x_j^p for p = 1..4, atom by atom, each term from the last."""
    term = ws[0] * xs[0]
    sums = [term]
    for _ in range(3):
        term *= xs[0]
        sums.append(term)
    for x, w in zip(xs[1:], ws[1:]):
        term = w * x
        sums[0] += term
        for p in (1, 2, 3):
            term *= x
            sums[p] += term
    return sums


def evaluate(m1, m2, m3, m4):
    """(slacks, flags): the scaled slacks of the sqrt bound, the quarter bound
    and the m3 interval, and the flags of those three and of PSD."""
    _, (a1, a2, a3, a4) = standardize(m1, m2, m3, m4)
    psd, _, r = psd_verdict(a1, a2, a3, a4)
    center = a1 * a2
    slacks = (sqrt_bound(a2, a4) - a3, quarter_bound(a4) - a3, min(a3 - (center - r), center + r - a3))
    return slacks, (*(s < -TOL for s in slacks), not psd)


def trial(seed, index):
    """(atoms, weights, power sums, slacks, flags) of trial ``index`` of ``seed``."""
    xs, ws = trial_law(seed, index)
    sums = power_sums(xs, ws)
    return xs, ws, sums, *evaluate(*sums)


def report(trials, seed):
    """The fields of ``random_falsifier(trials, seed)``: counts, worst margin
    and trial (the first of the least), and the first LISTED violating trials."""
    counts, worst, worst_trial, listed = [0] * 4, math.inf, 0, []
    for index in range(trials):
        *_, slacks, flags = trial(seed, index)
        counts = [c + f for c, f in zip(counts, flags)]
        if min(slacks) < worst:
            worst, worst_trial = min(slacks), index
        if any(flags) and len(listed) < LISTED:
            listed.append(index)
    return (trials, *counts, worst, worst_trial, tuple(listed))
