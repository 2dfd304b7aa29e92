"""The exact range of m3 once m1, m2, and m4 are known.

Without any sign condition on the mean, the Hankel determinant constraint
confines m3 to the interval m1 m2 +/- sqrt((m2 - m1^2)(m4 - m2^2)) -- an
instance of the Cauchy-Schwarz inequality for Cov(X^2, X).  The grid
oracle, two linear programs whose optima are certified by their duals,
finds distributions on the grid whose m3 comes within grid resolution of
both endpoints, from inside.
"""

from momentbounds import OracleConfig, m3_interval, oracle_extreme_m3_given

CASES = [
    (0.0, 1.0, 1.0),   # Rademacher forced: the interval collapses (to +-5.96e-8, the rounding allowance)
    (0.0, 1.0, 2.0),
    (0.0, 2.0, 6.0),
    (-0.5, 1.0, 2.0),  # nonzero mean shifts the center to m1 * m2
]

cfg = OracleConfig(grid_lo=-3.0, grid_hi=3.0, grid_step=0.02)

for m1, m2, m4 in CASES:
    iv = m3_interval(m1, m2, m4)
    print(f"(m1, m2, m4) = ({m1:+.2f}, {m2:.2f}, {m4:.2f})")
    print(f"  closed form : m3 in [{iv.lo:+.6f}, {iv.hi:+.6f}]")
    lo, hi = oracle_extreme_m3_given(m1, m2, m4, cfg)
    print(f"  grid oracle : m3 in [{lo:+.6f}, {hi:+.6f}]")
    print()
