"""
Hecke coefficients and the incomplete-gamma series
==================================================

The ring Z[eta], eta = (1+sqrt(-7))/2, supplies the character values:
chi^(k)(m) is a half-sum of eps * z^k over lattice points of norm m.
The central value follows from a rapidly convergent series in the
regularized incomplete gamma function Q(n, x).
"""

from mpmath import mp

from hecke7 import central, field, vz
from hecke7.specfun import PrecisionContext, reg_gamma_Q

ctx = PrecisionContext(30)

# Exact coefficients are plain integers; normalization divides m^(k/2).
tab = field.coeff_table(k=1, maxM=12, digits=20)
print(" m   chi^(1)(m)   a(m) = chi/m^(1/2)")
for m in range(1, 13):
    print(f"{m:3d}  {tab.exact[m]:10d}   {float(tab.normalized[m]):+.6f}")

# Splitting of rational primes drives the coefficient pattern: split
# primes carry angle data, inert primes vanish at odd powers.
for p in (2, 3, 5, 7, 11):
    print(f"p = {p:2d}: {field.prime_class(p)}")

# The series L(1/2, chi^(2n-1)) = 2 sum a(m) Q(n, 2 pi m / 7) / sqrt(m)
# truncates with a rigorous, certified tail bound.
print("\n n   series value                     tail bound   M")
for n in (1, 5, 9):
    M = central.series_truncation(n, ctx.digits)
    cv = central.central_value_series(n, ctx)
    print(f"{n:3d}  {mp.nstr(cv.value, 25):32s} {mp.nstr(cv.tail_bound, 2):12s} {M}")

# Agreement with the exact rational route is at working precision.
for n in (1, 5, 9):
    cv = central.central_value_series(n, ctx)
    ec = vz.central_value_exact(n, ctx)
    print(f"n={n}: |series - exact| =", mp.nstr(abs(cv.value - ec.L), 3))

# Q(n, x) itself: the finite Poisson sum e^(-x) sum_{k<n} x^k/k!, summed
# in fixed point at the context precision.
print("\nQ(5, 2.5) =", mp.nstr(reg_gamma_Q(5, 2.5, ctx), 25))
print("Q(5, 0)   =", reg_gamma_Q(5, 0, ctx), "(exactly 1 at x = 0)")
