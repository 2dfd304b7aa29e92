"""How much better than m4^(3/4) can a third-moment bound be?

For any random variable with E X <= 0, the best constant c in
m3 <= c * m4^(3/4) improves from 1 to (4/27)^(1/4) = 0.6204...  This
script walks through the claim numerically: it scans the intermediate
bound sqrt(m4 m2 - m2^3) over m2, locates its maximizer, and then lets
the grid oracle solve a linear program over *all* distributions on a grid,
with a dual certificate of optimality, to confirm nothing beats the
constant.
"""

import numpy as np

from momentbounds import (
    QUARTER_CONSTANT,
    OracleConfig,
    extremal_from_sigma,
    moments_from_discrete,
    oracle_max_m3,
)

print(f"sharp constant (4/27)^(1/4) = {QUARTER_CONSTANT:.10f}")

# Step 1: with m4 fixed at 1, the intermediate bound sqrt(m4 m2 - m2^3)
# is a function of m2 alone.  Scan it.
m2 = np.linspace(0.0, 1.0, 100_001)
inner = np.sqrt(np.maximum(0.0, m2 - m2**3))
k = int(np.argmax(inner))
print(f"\nscan of sqrt(m2 - m2^3) on [0, 1]:")
print(f"  maximum {inner[k]:.10f} at m2 = {m2[k]:.6f}")
print(f"  predicted maximizer sqrt(1/3) = {np.sqrt(1 / 3):.6f}")

# Step 2: the distribution attaining the maximum.  Its scale sigma is
# pinned by sigma^2 = m2 = sqrt(m4/3).
sigma = 3.0**-0.25
attainer = extremal_from_sigma(sigma)
mv = moments_from_discrete(attainer)
print(f"\nattaining two-point distribution (sigma = 3^(-1/4)):")
for x, p in attainer.atoms:
    print(f"  x = {x:+.6f}   p = {p:.6f}")
print(f"  moments: m1 = {mv.m1:+.2e}, m2 = {mv.m2:.6f}, m3 = {mv.m3:.10f}, m4 = {mv.m4:.6f}")

# Step 3: independent check.  Maximize m3 over every distribution on a
# grid with m1 <= 0 and m4 = 1: a linear program in the grid weights.  Its
# dual (y0, y1, y2) certifies the optimum: y0 + y1 x + y2 x^4 >= x^3 at
# every grid point, y1 >= 0, and y0 + y2 equals the maximum.
print("\nLP oracle on [-3, 3], step 0.01, m4 = 1, m1 <= 0 ...")
result = oracle_max_m3(OracleConfig())
print(f"  simplex pivots: {result.pivots}, grid columns priced: {result.candidates_examined:,}")
print(f"  dual certificate (y0, y1, y2) = ({', '.join(f'{y:.6f}' for y in result.dual)})")
print(f"  oracle max m3 = {result.max_m3:.10f}")
print(f"  gap to sharp constant = {QUARTER_CONSTANT - result.max_m3:.2e}")
print("  optimizing atoms:")
for x, p in result.argmax.atoms:
    print(f"    x = {x:+.6f}   p = {p:.6f}")
