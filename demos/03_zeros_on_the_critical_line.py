"""
Zeros on the critical line
==========================

The completed function Lambda(s) = (7/2pi)^s Gamma(s + 2n - 3/2) L(s)
for the family member chi^(4n-3) is real on s = 1/2 + it, giving a
Hardy Z-function whose sign changes locate zeros.
"""

import numpy as np

from hecke7 import central
from hecke7.specfun import PrecisionContext

ctx = PrecisionContext(25)

# The float64 engine (one per family member) evaluates Z(t) as a
# cosine dot product over precomputed Gauss-Legendre data.  The mpmath
# route cross-checks it independently: it sums complex-order incomplete
# gamma values (the smoothed approximate functional equation).
ts = np.array([0.5, 3.0, 7.5])
for t, zf in zip(ts, central.get_engine(1).z_many(ts)):
    zm = float(central.hardy_Z(1, t, ctx))
    print(f"Z_1({t}) = {zf:+.12f}   (mp route {zm:+.12f})")

# A grid scan plus Anderson-Bjorck (regula falsi) refinement of each sign change
# returns ordinates; scaled by log(2n)/pi the mean spacing is 1.
print("\nfamily n = 1, zeros up to T = 10:")
rec = central.zeros_up_to(1, 10.0, ctx)
for i, (g, s) in enumerate(zip(rec.gammas, rec.scaled), 1):
    print(f"  gamma_{i} = {g:.9f}   scaled {s:.6f}")

# The count tracks the main term (T/pi) log(2n).
for n in (1, 10, 50):
    rec = central.zeros_up_to(n, 10.0, ctx)
    main = central.zero_count_main_term(n, 10.0)
    print(f"n = {n:3d}: {len(rec.gammas):3d} zeros vs main term {main:.2f}")

# Small first ordinates are not missed: the scan grid is anchored at
# t = 0, where Z > 0 by the family's central nonvanishing.
rec24 = central.zeros_up_to(24, 2.0, ctx)
print("\nfamily n = 24 has a very low first zero:", np.round(rec24.gammas, 6))
