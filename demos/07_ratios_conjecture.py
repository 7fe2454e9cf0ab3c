"""
Ratios-conjecture route to the one-level density
================================================

The averaged ratio L(1/2+alpha)/L(1/2+gamma) over the family has a
closed prediction A(alpha, gamma) times zeta factors; differentiating
and contour-shifting turns it into a second, independent formula for
the one-level density.  Here we check the A normalization, inspect the
integrand, and compare the two routes at N = 20.
"""

from hecke7 import density
from hecke7.specfun import PrecisionContext

ctx = PrecisionContext(25)

# A(r, r) = 1 is the normalization that pins the Euler product.
for r in (0.0, 0.05, -0.1):
    val = density.ratios_A(r, r, ctx=ctx)
    print(f"A({r:5.2f}, {r:5.2f}) = {val.real:.13f}")

# Local factors of A at distinct shifts (at equal shifts each factor
# is identically 1): quotients of the product at consecutive prime
# cutoffs, against a brute Dirichlet average of coefficient products
# (split, inert, and ramified cases).
inf = float("inf")
al, ga = 0.05, -0.1
for p in (2, 3, 7):
    below = 1.0 if p == 2 else density.ratios_A(al, ga, ctx, P=p - 1, tol=inf)
    closed = density.ratios_A(al, ga, ctx, P=p, tol=inf) / below
    brute = density.ratios_local_brute(p, al, ga, cutoff=400, ctx=ctx)
    print(f"p = {p}: closed {closed.real:.12f}, diff from brute {abs(closed - complex(brute)):.2e}")

# The density integrand is even and regular through the origin.
for t in (0.0, 0.5, 1.5):
    print(f"integrand(n=1) at t = {t}: {density.ratios_one_level_integrand(1, t, ctx):+.10f}")

# Route comparison at N = 20 with the gaussian test function: the
# ratios prediction and the explicit formula agree to a few percent,
# the discrepancy being the uncomputed lower-order terms.
g = density.gaussian(2.0)
rr = density.ratios_one_level_density(20, g, ctx=ctx)
ef = density.empirical_one_level(20, g, ctx=ctx).explicit_formula
print(f"\nratios route    {rr:.6f}")
print(f"explicit route  {ef:.6f}")
print(f"difference      {abs(rr - ef):.4f}")
