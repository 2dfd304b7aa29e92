"""Reading the support of a distribution off a singular moment matrix.

When the Hankel matrix H[i][j] = m_{i+j} of a moment vector is singular
(and PSD), some polynomial a0 + a1 x + a2 x^2 vanishes on the whole
support, so the support has at most two points: the polynomial's roots.
This demo builds a two-point distribution, forgets it, and recovers it
from its moments alone.
"""

import numpy as np

from momentbounds import (
    bound_sqrt,
    certificate_from_hankel,
    feasibility,
    hankel,
    moments_from_discrete,
    two_point_zero_mean,
)

secret = two_point_zero_mean(0.7, 1.9)
print("secret distribution:")
for x, p in secret.atoms:
    print(f"  x = {x:+.4f}   p = {p:.6f}")

mv = moments_from_discrete(secret)
print(f"\npublished moments: {tuple(mv)}")

print("\nHankel matrix:")
print(np.array_str(np.array(hankel(mv)), precision=6))

rep = feasibility(mv)
var_x, var_x2, cov = rep.covariance
print(f"\nVar X, Var X^2, Cov(X, X^2) of X / s: {var_x:.6f}, {var_x2:.6f}, {cov:.6f}")
print(f"PSD: {rep.psd}, standardized det = Var X Var X^2 - Cov^2 = {var_x * var_x2 - cov * cov:.3e}"
      "  (singular: boundary case)")

cert = certificate_from_hankel(mv)
a0, a1, a2 = cert.coeffs
print(f"\nnull vector (a0, a1, a2) = ({a0:+.6f}, {a1:+.6f}, {a2:+.6f})")
print(f"annihilating polynomial: {a0:+.4f} {a1:+.4f} x {a2:+.4f} x^2 = 0")
print(f"roots (recovered support): {cert.roots}")
print("recovered distribution:")
for x, p in cert.recovered.atoms:
    print(f"  x = {x:+.4f}   p = {p:.6f}")

res = bound_sqrt(mv)
print(f"\nsqrt bound on m3: {res.bound:.6f}, slack {res.slack:.2e}, tight: {res.tight}")
print("two-point zero-mean distributions are exactly the equality cases.")
