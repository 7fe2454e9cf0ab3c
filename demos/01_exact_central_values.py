"""
Exact central values from the rational recursion
================================================

L(1/2, chi^(2n-1)) for the Grossencharacters of Q(sqrt(-7)) has a
closed form 2 (2pi/sqrt7)^n Omega^(2n-1) A(n) / (n-1)! with A(n) an
exact rational, A(n) = B(n)^2.  This script builds the B-sequence from
its polynomial recursion and reproduces the classical table.
"""

from hecke7 import field, vz
from hecke7.specfun import PrecisionContext

ctx = PrecisionContext(30)

# The b-polynomials start from b_0 = 1/2, b_1 = 1; each B(n) is the
# constant coefficient b_{(n-1)/2}(0).
print("first b-polynomials (coefficient tuples, ascending powers):")
for k in range(4):
    print(f"  b_{k} =", vz.b_poly(k).u)

# A(n) = B(n)^2 vanishes for even n by the odd functional equation and
# is a perfect (half-integer) square for odd n.
print("\n n   B(n)                 A(n) factored        L(1/2, chi^(2n-1))")
for n in range(1, 34, 2):
    ec = vz.central_value_exact(n, ctx)
    B = ec.B
    if B.denominator == 1:
        fac = field.factorint(abs(int(B)))
        shown = "*".join(f"{p}^{e}" if e > 1 else f"{p}" for p, e in sorted(fac.items())) or "1"
    else:
        shown = str(B)
    print(f"{n:3d}  {str(B):20s} ({shown})^2".ljust(48) + f" {float(ec.L):.6f}")

# The same A(n) arrives by a second, independent recursion in the ring
# u + v*sqrt((1+x)(1-27x)); agreement is a strong structural check.
assert all(vz.A_from_a_path(n) == vz.A_of(n) for n in range(1, 34, 2))
print("\na-path recursion reproduces every A(n) above: ok")

# B(n) = -n (mod 4) for odd n > 1, so B(n) is never zero: the family's
# central values never vanish.
rows = vz.congruence_check(301)
print(f"congruence B(n) = -n (mod 4) holds for all {len(rows)} odd n <= 301:",
      all(ok for (_, _, ok) in rows))
