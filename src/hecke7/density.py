"""One-level density of low-lying zeros across the family chi^(4n-3).

Test functions: the Fejer kernel and the Gaussian, told apart only by
_scaled, which refuses any other kind.

Pipelines:
  * empirical: scaled zeros from the Hardy-Z scans, averaged against an
    even test function;
  * explicit formula: archimedean (digamma) term minus the von Mangoldt
    prime sum, both per family member;
  * RMT: even-orthogonal prediction int f(y)(1 + sin(2pi y)/(2pi y)) dy;
  * ratios: the density integrand predicted by the one-ratio conjecture,
    with the arithmetic factor A(alpha,gamma) as an Euler product, each
    height evaluated once for the integrand and its truncation bound.

Archimedean integrals use the exact resummation

    (1/2pi) int phi(t) [2 log(7/2pi) + psi(c+it) + psi(c-it)] dt
      = (phihat(0)/pi)(log(7/2pi) + psi(c))
        + 2 int_0^inf (phihat(0) - phihat(x)) e^(-2pi c x)/(1 - e^(-2pi x)) dx

(c = 2n-1), which converges on the support of phihat and avoids the
slowly decaying t-tails of kernel-type test functions.  phihat is a
float64 function, so the integral is a float64 Gauss-Legendre sum on
panels graded to the decay of e^(-2pi c x), with psi(c) from
specfun.digamma_f64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, exp, factorial, inf, isfinite, log, pi as fpi, sqrt as fsqrt
from sys import float_info

import numpy as np
import mpmath
from mpmath import mp, mpf, mpc

from . import field
from .central import LOG_Q, T_CAP, _engine, _member, _panel_rule, _zeros_block, zeros_up_to
from .moments import _check_shift, _local_double_sum, brute_cutoff_for, delta_mu
from .specfun import CHI7, PrecisionContext, DEFAULT_CTX, ConvergenceError, _series_index, digamma_f64, loggamma_f64

L1_CHI7 = fpi / fsqrt(7.0)  # L(1, chi_{-7}) = pi/sqrt(7): class number 1
_SCAN_BLOCK = 8  # members per zero scan and prime-sum call of empirical_one_level


@dataclass(frozen=True)
class TestFunction:
    """Even test function with its Fourier transform
    (convention fhat(x) = int f(u) e(-ux) du)."""

    kind: str
    f: callable
    fhat: callable
    param: float

    def describe(self) -> str:
        return f"{self.kind}({self.param:g})"


def fejer(alpha: float = 1.0) -> TestFunction:
    """f(y) = (sin(pi alpha y)/(pi alpha y))^2 >= 0 with triangular
    fhat(x) = (1 - |x|/alpha)/alpha on [-alpha, alpha]; both take scalars
    or arrays.  Needs 1e-6 <= alpha < inf.  rmt_prediction is exact for
    every positive float, so the floor is an entry bound far above the
    first float64 failure (arch_term overflows near alpha = 1e-154 at
    N = 2); at the floor arch_term's order check holds for every member
    at N = 2, 10, 50, 100 and 200."""
    if not 1e-6 <= alpha < inf:  # also refuses nan
        raise ValueError(f"support alpha must be positive, finite and at least 1e-6, got {alpha}")
    a = float(alpha)

    def f(y):
        return (np.sinc(a * np.asarray(y, dtype=float)) ** 2)[()]

    def fhat(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return np.where(ax <= a, (1.0 - ax / a) / a, 0.0)[()]

    return TestFunction(kind="fejer", f=f, fhat=fhat, param=a)


def _zero_density(n: int, T: float) -> float:
    """(1/pi) log(1.1141 (2n + T + 5)), member n's zero density near height T."""
    return log(1.1141 * (2 * n + T + 5)) / fpi


# The widest gaussian whose float64 arithmetic stays finite in every run
# empirical_one_level accepts: fhat(0) = w sqrt(pi), and the gaussian
# tail-mass bound's largest intermediate 2 pi dens w sqrt(pi)/log N, which
# peaks at N = n = 2 and T = T_CAP.
GAUSSIAN_W_MAX = float_info.max / (fsqrt(fpi) * max(1.0, 2.0 * fpi * _zero_density(2, T_CAP) / log(2.0)))


def gaussian(width: float = 2.0) -> TestFunction:
    """f(y) = exp(-(y/w)^2), fhat(x) = w sqrt(pi) exp(-(pi w x)^2); both
    take scalars or arrays.  Needs 0 < width <= GAUSSIAN_W_MAX (8.4e306),
    past which fhat(0) or the tail-mass bound overflows.  A narrow width
    has a wide fhat, refused once its prime-sum cutoff passes
    field.PRIME_TABLE_CAP (see _scaled)."""
    if not 0 < width <= GAUSSIAN_W_MAX:  # also refuses nan
        raise ValueError(f"width must be positive and at most {GAUSSIAN_W_MAX:.3g}, got {width}")
    w = float(width)

    def f(y):
        return np.exp(-((np.asarray(y, dtype=float) / w) ** 2))[()]

    def fhat(x):
        return w * fsqrt(fpi) * np.exp(-((fpi * w * np.asarray(x, dtype=float)) ** 2))[()]

    return TestFunction(kind="gaussian", f=f, fhat=fhat, param=w)


@dataclass(frozen=True)
class DensityReport:
    N: int
    testfn: str
    empirical: float
    explicit_formula: float
    rmt: float
    nonvanishing_lower_bound: float
    t_height: float
    discarded_mass_bound: float


# ---------------------------------------------------------------------------
# explicit formula
# ---------------------------------------------------------------------------


def arch_term(n: int, phihat, x_end: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """(1/2pi) int phi(t)[2 log(7/2pi) + psi(2n-1+it) + psi(2n-1-it)] dt
    via the resummed fhat-side representation (see module docstring).

    The correction integral is a float64 Gauss-Legendre sum on panels
    graded to resolve e^(-2pi c x): edges 0, 1/(2pi c), doubling below
    x_end/2, then x_end/2 and x_end (the edge of supp phihat, where it
    may kink), then x_end plus min(1/(2pi c), x_end), doubling below
    45/(2pi c), and x_end + 45/(2pi c), where e^(-2pi c (x - x_end)) has
    fallen to e^-45.  Grading the tail keeps each panel no wider than its
    distance from the pole of 1/(1 - e^(-2pi x)) at x = 0.  Orders 24 and
    16 must agree within max(1e-12, eps (S_24 + S_16)), or
    ConvergenceError: S_d is the sum of the magnitudes of order d's terms,
    and each float64 dot product rounds by about eps S_d, one spacing of
    the correction where its terms share a sign (the tolerance is 1e-12
    while S_24 + S_16 < 4.5e3).  A non-finite correction, as from an
    overflowing phihat, fails the check without numpy warnings.  `ctx` is
    accepted for API compatibility; the result is float64.
    """
    c = _member(n).c
    ph0 = float(phihat(0.0))
    w = 1.0 / (2.0 * fpi * c)
    edges = [0.0]
    e = w
    while e < x_end / 2:
        edges.append(e)
        e *= 2.0
    edges += [x_end / 2, x_end]
    tail = 45.0 * w  # e^(-2pi c (x - x_end)) = e^-45 ~ 3e-20 at the end
    e = min(w, x_end)
    while e < tail:
        edges.append(x_end + e)
        e *= 2.0
    edges.append(x_end + tail)
    corr, size = [], 0.0
    for order in (24, 16):
        xs, ws = _panel_rule(edges, order)
        with np.errstate(over="ignore", invalid="ignore"):
            g = 2.0 * (ph0 - phihat(xs)) * np.exp(-2.0 * fpi * c * xs) / -np.expm1(-2.0 * fpi * xs)
        corr.append(float(np.dot(ws, g)))
        size += float(np.dot(ws, np.abs(g)))
    diff, tol = abs(corr[0] - corr[1]), max(1e-12, float_info.epsilon * size)
    if not diff <= tol:  # also refuses nan and inf
        raise ConvergenceError(f"arch_term n={n}: Gauss-Legendre orders 24 and 16 differ by {diff:.1e} (tolerance {tol:.1e})")
    lead = ph0 / fpi * (LOG_Q + float(digamma_f64(c).real))
    return lead + corr[0]


def prime_sum(n: int, phihat, k_max: int) -> float:
    """(1/pi) sum_{p^r <= k_max} Lambda_{4n-3}(p^r)/p^(r/2)
    * phihat(log(p^r)/2pi)."""
    return _prime_sums(field.prime_table(k_max), [_member(n).k], phihat)[0]


def _prime_sums(table: field.PrimeTable, ks, phihat) -> list[float]:
    """prime_sum at k_max = table.P for each character exponent ks[i],
    from one PrimeTable.powers call over all of them."""
    p, q, c = table.powers(np.asarray(ks), 2.0)
    w = phihat(np.log(q) / (2.0 * fpi))
    return [float(np.dot(row, w)) / fpi for row in np.log(p) * c / np.sqrt(q)]


def _scaled(phi: TestFunction, s: float):
    """(phihat, x_end, k_max, tail) for phi(t) = f(t s/pi): phihat(x) = (pi/s)
    fhat(pi x/s), arch_term's edge x_end, the prime cutoff k_max =
    floor(e^(2pi x_max)) (x_max: the Fejer support edge, or where the gaussian
    falls to 1e-14) and tail(n, T), bounding 2 sum_{gamma > T} f(gamma s/pi).
    The explicit formula's one test of the kind: ValueError unless fejer or gaussian.
    ConvergenceError, on the exponent before exp, if k_max passes field.PRIME_TABLE_CAP."""
    phihat = lambda x: (fpi / s) * phi.fhat(fpi * x / s)
    if phi.kind == "fejer":
        a = phi.param
        x_max = a * (s / fpi)
        # f(t s/pi) <= 1/(a s t)^2, so the tail is <= 2 int_T dens/(a s t)^2 dt
        tail = lambda n, T: 2.0 * _zero_density(n, T) / ((a * s) ** 2 * T)
    elif phi.kind == "gaussian":  # phihat(x) ~ exp(-(pi W x)^2) with W = pi w/s
        w = phi.param
        x_max = fsqrt(max(0.0, -log(1e-14 / (w * fsqrt(fpi))))) / (fpi * (fpi * w / s))
        def tail(n: int, T: float) -> float:
            # envelope exp(-(Ts/(pi w))^2) decays fast; crude integral bound
            u = T * s / (fpi * w)
            return 2.0 * _zero_density(n, T) * fpi * w / s * fsqrt(fpi) / 2 * exp(-u * u)
    else:
        raise ValueError(f"no explicit formula for the {phi.kind} test function")
    if not 2.0 * fpi * x_max < log(field.PRIME_TABLE_CAP + 1):
        raise ConvergenceError(f"prime sum cutoff e^{2 * fpi * x_max:.4g} too large for test function {phi.describe()}")
    k_max = int(exp(2.0 * fpi * x_max))
    x_end = x_max if phi.kind == "fejer" else log(max(k_max, 3)) / (2.0 * fpi) * 1.5 + 0.5
    return phihat, x_end, k_max, tail


def explicit_formula_sum(
    n: int,
    phi: TestFunction,
    ctx: PrecisionContext = DEFAULT_CTX,
    scale: float = 0.0,
) -> float:
    """Formula side of sum_gamma phi(gamma) for L(s, chi^(4n-3)), with
    phi(t) = f(t s/pi): s = log N matches the scaled zero statistic, and
    scale = 0 means s = pi, the test function itself (phi = f).

    Equals arch_term - prime_sum with phihat(x) = (pi/s) fhat(pi x/s),
    summed over p^r with |phihat(log p^r/2pi)| > 1e-14 (see _scaled).
    """
    phihat, x_end, k_max, _ = _scaled(phi, float(scale) or fpi)
    return arch_term(n, phihat, x_end, ctx) - prime_sum(n, phihat, k_max)


def zero_side_sum(n: int, phi: TestFunction, T: float, scale: float = 0.0) -> float:
    """sum over zeros (both signs) with |gamma| <= T of phi(gamma) =
    f(gamma s/pi); scale = 0 means s = pi, as in explicit_formula_sum."""
    return _zero_side(zeros_up_to(n, T), phi, float(scale) or fpi)


def _zero_side(rec, phi: TestFunction, s: float) -> float:
    """zero_side_sum over the zeros of rec at the scale s."""
    g = np.array(rec.gammas) * (s / fpi)
    return 2.0 * float(np.sum(phi.f(g)))


# ---------------------------------------------------------------------------
# RMT prediction and the empirical statistic
# ---------------------------------------------------------------------------


def rmt_prediction(f: TestFunction, ctx: PrecisionContext = DEFAULT_CTX):
    """int f(y)(1 + sin(2pi y)/(2pi y)) dy = fhat(0) + (1/2)int_{-1}^{1} fhat.

    Exact rational 1/a + (m/a)(1 - m/(2a)), m = min(a, 1), for Fejer(a)
    with a the exact value of its float support,
    closed form w sqrt(pi) + erf(pi w)/2 for the gaussian.
    """
    if f.kind == "fejer":
        a = Fraction(f.param)
        m = min(a, 1)  # (1/2) int_{-m}^{m} (1-|x|/a)/a dx = (m/a)(1 - m/(2a))
        return 1 / a + (m / a) * (1 - m / (2 * a))
    if f.kind != "gaussian":
        raise ValueError(f"no closed form for the {f.kind} test function")
    with mp.workdps(ctx.working_dps):
        w = mpf(f.param)
        return +(w * mp.sqrt(mp.pi) + mpmath.erf(mp.pi * w) / 2)


def rmt_prediction_quad(f: TestFunction, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Direct y-side quadrature of int f(y)(1 + sin(2pi y)/(2pi y)) dy,
    the dual route to rmt_prediction (agreement is a transform identity).

    int f = fhat(0) exactly, so only the sinc part is a quadrature: a
    float64 Gauss-Legendre sum of order 24 on the 80 unit panels of
    [-40, 40].  The Fejer kernel's oscillatory 1/y^3 tail past y = 40
    is left out (about 3e-8).  `ctx` is accepted for API compatibility.
    """
    ys, ws = _panel_rule(np.arange(-40.0, 41.0), 24)
    return float(f.fhat(0.0)) + float(np.dot(ws, f.f(ys) * np.sinc(2.0 * ys)))


def empirical_one_level(
    N: int,
    f: TestFunction,
    T: float = T_CAP,
    ctx: PrecisionContext = DEFAULT_CTX,
) -> DensityReport:
    """(1/N) sum_n sum_gamma f(gamma log N/pi) from computed zeros, with
    the explicit-formula counterpart and the RMT prediction.

    Zeros enter up to height min(T, per-n float64 reliability ceiling);
    the report records the discarded-mass bound for the dropped tail.
    The members are walked in blocks of _SCAN_BLOCK: each block reads its
    engines from one `central._engine` call, which builds the missing
    ones together (one `central._ladder` call), makes one zero scan
    (`central._zeros_block`, one refinement run over its brackets) and
    one PrimeTable.powers call for its prime sums, on the prime table
    read once before the loop.
    """
    if N < 2 or N > 200:
        raise ValueError("N must be in [2, 200] (desk scale)")
    if not T > 0:  # also refuses nan
        raise ValueError("T must be positive")
    if T > T_CAP:
        raise ValueError(f"T={T} beyond desk-scale cap {T_CAP}")
    s = log(N)
    phihat, x_end, k_max, tail = _scaled(f, s)
    table = field.prime_table(k_max)
    emp_total = 0.0
    mass_bound = 0.0
    ef_total = 0.0
    t_min = float("inf")
    for first in range(1, N + 1, _SCAN_BLOCK):
        ns = range(first, min(first + _SCAN_BLOCK, N + 1))
        # the block's engines, its missing ones built together
        ts = [min(T, engine.t_reliable) for engine in _engine(*ns)]
        records = _zeros_block(ns, ts)
        psums = _prime_sums(table, _member(np.array(ns)).k, phihat)
        for n, t_n, rec, ps in zip(ns, ts, records, psums):
            t_min = min(t_min, t_n)
            emp_total += _zero_side(rec, f, s)
            mass_bound += tail(n, t_n)
            ef_total += arch_term(n, phihat, x_end, ctx) - ps
    empirical = emp_total / N
    mass_bound /= N
    explicit = ef_total / N
    v = float(rmt_prediction(f, ctx))
    bound = min(1.0, max(0.0, (2.0 - v) / 2.0))
    return DensityReport(
        N=N,
        testfn=f.describe(),
        empirical=empirical,
        explicit_formula=explicit,
        rmt=v,
        nonvanishing_lower_bound=bound,
        t_height=t_min,
        discarded_mass_bound=mass_bound,
    )


# ---------------------------------------------------------------------------
# ratios-conjecture route
# ---------------------------------------------------------------------------


def ratios_A(alpha, gamma, ctx: PrecisionContext = DEFAULT_CTX, P: int = 100_000, tol: float = 1e-3) -> complex:
    """The convergent Euler product A(alpha,gamma) of the one-ratio
    conjecture, truncated at p <= P (tail O(1/P)).

    Per-prime simplifications of the displayed factors (the delta_mu
    bracket times its normalizing prefix), all checked against
    ratios_local_brute:
      split: (1-y)(1+y-2w)/(1-w)^2, inert: (1-y^2)/(1-w^2),
      p = 7: (1-y)/(1-w),
    with y = p^(-1-2 gamma), w = p^(-1-alpha-gamma).
    """
    _check_shift(alpha, gamma)
    return _ratios_rows([alpha], [gamma], P, tol)[0][0]


def _ratios_classes(P: int):
    """(log p, split, inert, ramified) over the primes p <= P, the last
    three as index arrays where chi is 1, -1 and 0: the class split that
    _ratios_rows reads once per call.  The primes and classes are
    field.prime_classes(P)'s, so the shared prime table neither grows nor
    takes an atan2.  ValueError unless P is an integer >= 2 (the tail
    estimate divides by log P)."""
    P = _series_index(P, "prime bound P")
    if P < 2:
        raise ValueError(f"prime bound P must be >= 2, got {P}")
    primes, chi = field.prime_classes(P)
    split, inert, ram = (np.flatnonzero(chi == c) for c in (1, -1, 0))
    return np.log(primes), split, inert, ram


def _ratios_rows(a, g, P: int, tol: float = 1e-3) -> list[tuple[complex, complex]]:
    """(A(a[i], g[i]), A'(g[i], g[i])) at each shift pair, one row at a
    time: ratios_A, and ratios_A_prime's closed form at r = g.  A 2-D
    block of rows costs memory and buys no time (BENCH_family_loops).

    Both read y = p^(-1-2g), which is the w of A' bit for bit.  A's
    w = p^(-1-a-g) and its split, inert and ramified denominators are
    formed again only when a + g changes, so the density's mirrored rows
    (-it, it) share one w = 1/p.  (A zero part of the sum 1 + a + g is
    always +0.0, so equal exponents are equal bits.)  ConvergenceError
    where A's tail estimate exceeds tol."""
    lp, split, inert, ram = _ratios_classes(P)
    lpi, lpr = lp[inert], lp[ram]
    out = []
    w_exp = None
    for ai, gi in zip(map(complex, a), map(complex, g)):
        tail_est = _ratios_A_tail(ai, gi, P)
        if tail_est > tol:
            raise ConvergenceError(f"tail estimate {tail_est:.2e} exceeds tol {tol:.2e}")
        s = -(1 + ai + gi)
        if s != w_exp:
            w_exp = s
            w = np.exp(s * lp)
            ws = w[split]
            den_split, den_inert, den_ram = (1 - ws) ** 2, 1 - w[inert] ** 2, 1 - w[ram]
        y = np.exp(-(1 + 2 * gi) * lp)
        ys, yi, yr = y[split], y[inert], y[ram]
        yi2 = yi**2
        fac = np.empty_like(y)
        fac[split] = (1 - ys) * (1 + ys - 2 * ws) / den_split
        fac[inert] = (1 - yi2) / den_inert
        fac[ram] = (1 - yr) / den_ram
        prime = -np.sum(2 * lpi * yi2 / (1 - yi2)) - np.sum(lpr * yr / (1 - yr))
        out.append((complex(np.prod(fac)), complex(prime)))
    return out


def _ratios_A_tail(a: complex, g: complex, P: int) -> float:
    """Estimate of sum_{p>P} |log of the local factor of A(a, g)|: each is
    at most 6 p^(-2 sigma), sigma = 1 + min Re shift sum."""
    sigma = 1.0 + min(2 * g.real, a.real + g.real)
    return 6.0 * P ** (1.0 - 2.0 * sigma) / (max(2.0 * sigma - 1.0, 0.05) * log(P))


def ratios_local_brute(p: int, alpha, gamma, cutoff: int | None = None, ctx: PrecisionContext = DEFAULT_CTX):
    """Local factor of A at p assembled from the delta_mu double sum over
    i <= cutoff (default brute_cutoff_for(p, min Re shift)), j <= 2: the
    independent oracle for ratios_A, on its domain |Re| < 1/4 (the series
    converges for Re alpha > -1/2)."""
    _check_shift(alpha, gamma)
    chi = field._prime_chi(p)
    p = int(p)  # a numpy integer prime, once accepted, is its int
    with mp.workdps(ctx.working_dps):
        a = mpmath.mpmathify(alpha)
        g = mpmath.mpmathify(gamma)
        if cutoff is None:
            cutoff = brute_cutoff_for(p, float(min(mpmath.re(a), mpmath.re(g))))
        xa = mpf(p) ** (-(mpf(1) / 2 + a))
        xg = mpf(p) ** (-(mpf(1) / 2 + g))
        bracket = _local_double_sum(xa, xg, [[delta_mu(p, i, j) for j in range(3)] for i in range(cutoff + 1)])
        u = mpf(p) ** (-1 - 2 * a)
        y = mpf(p) ** (-1 - 2 * g)
        w = mpf(p) ** (-1 - a - g)
        if chi == 0:
            norm = 1  # delta_mu vanishes off (0, 0) at p = 7, so the bracket is 1
        elif chi == 1:
            norm = (1 - u) / (1 - w)
        else:
            norm = (1 + u) / (1 + w)
        return mpc((1 - y) / (1 - w) * norm * bracket)


def ratios_A_prime(t: float, ctx: PrecisionContext = DEFAULT_CTX, P: int = 100_000) -> complex:
    """A'(it,it) = d/d alpha A(alpha, gamma)|_{alpha=gamma=it} over p <= P.

    A(r,r) = 1 and every split factor is stationary in alpha on the
    diagonal, so the derivative is the closed form
      A'(r,r) = -sum_{inert p} 2 log p w^2/(1-w^2) - log 7 w/(1-w),
    w = p^(-1-2r), with r = it, which must pass _check_shift (t finite).
    `ctx` is accepted for API compatibility; the result is float64.
    """
    r = 1j * float(t)
    _check_shift(r)
    return _ratios_rows([r], [r], P, tol=inf)[0][1]


# B_{2j}/(2j)! for j = 1..15: the Euler-Maclaurin corrections of the
# Hurwitz zeta sums below use j <= _EM_J, and j = _EM_J + 1 bounds the
# remainder.
_EM_COEFFS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
)
_EM_J = 14
# Taylor coefficients of h(u) = expm1(u)/u and h'(u) at u = 0, highest
# degree first for np.polyval: 1/(k+1)! and (k+1)/(k+2)!, k = 15..0
# (tail below 1e-16 for |u| < 0.5).
_H_TAYLOR = np.array([1.0 / factorial(k + 1) for k in range(15, -1, -1)])
_DH_TAYLOR = np.array([(k + 1.0) / factorial(k + 2) for k in range(15, -1, -1)])
# zeta(s) = zeta(s, 1) and L(s, chi_{-7}) = 7^(-s) sum_r chi(r) zeta(s, r/7)
_HURWITZ_A = np.array([1.0] + [r / 7.0 for r in range(1, 7)])
_CHI7 = np.array([CHI7[r] for r in range(1, 7)], dtype=float)
_T_MAX_BLOCK = 1e5  # the direct sums grow with |t|; see _zeta_L_block


def _hurwitz_regular(s: np.ndarray, a: np.ndarray, M: int):
    """R_a(s) = zeta(s, a) - 1/(s-1) and its s-derivative R_a'(s) on
    s = 1 + 2it, in float64, for every s (shape S) and a (shape A) at
    once; both results have shape S + A.

    Euler-Maclaurin with M direct terms and _EM_J corrections at
    X = M + a.  The pole is removed analytically: the term
    X^(1-s)/(s-1) - 1/(s-1) is -log X h(u) with h(u) = expm1(u)/u and
    u = -(s-1) log X, and its s-derivative is (log X)^2 h'(u), both from
    their Taylor series where |u| < 0.5.  ConvergenceError if the first
    omitted correction, times Johansson's factor |s+2J+1|/(Re s+2J+1)
    and the derivative's log X + sum 1/|s+i|, exceeds 1e-16 |s|, the
    float64 rounding of the direct sums' phases."""
    s = s[..., None]
    x = np.arange(M)[:, None] + a  # (M, A)
    lx = np.log(x)
    terms = np.exp(-s[..., None, :] * lx)  # (S, M, A)
    R = terms.sum(axis=-2)
    dR = -(terms * lx).sum(axis=-2)
    X = M + a
    lX = np.log(X)
    u = -(s - 1.0) * lX
    small = np.abs(u) < 0.5
    us = np.where(small, u, 0.0)
    h = np.where(small, np.polyval(_H_TAYLOR, us), np.expm1(u) / np.where(small, 1.0, u))
    dh = np.where(
        small,
        np.polyval(_DH_TAYLOR, us),
        (np.exp(u) * (u - 1.0) + 1.0) / np.where(small, 1.0, u) ** 2,
    )
    Xs = np.exp(-s * lX)
    R += -lX * h + Xs / 2.0
    dR += lX**2 * dh - lX * Xs / 2.0
    # p_j = s(s+1)...(s+2j-2) X^(-s-2j+1), q_j = sum_{i<=2j-2} 1/(s+i)
    p = s * Xs / X
    q = 1.0 / s
    for j in range(1, _EM_J + 1):
        c = _EM_COEFFS[j - 1]
        R += c * p
        dR += c * p * (q - lX)
        p = p * (s + 2 * j - 1) * (s + 2 * j) / X**2
        q = q + 1.0 / (s + 2 * j - 1) + 1.0 / (s + 2 * j)
    qabs = sum(1.0 / np.abs(s + i) for i in range(2 * _EM_J + 1))
    omitted = np.abs(_EM_COEFFS[_EM_J] * p) * np.abs(s + 2 * _EM_J + 1) / (s.real + 2 * _EM_J + 1)
    err = omitted * (1.0 + lX + qabs) / np.abs(s)
    if not np.all(err <= 1e-16):
        raise ConvergenceError(f"Euler-Maclaurin remainder {np.max(err):.1e} |s| at M = {M} exceeds 1e-16 |s|")
    return R, dR


def _zeta_L_block(t):
    """(-zeta'/zeta + L'/L)(1+2it) and zeta(1+2it) L(1-2it)/L(1), in
    float64, for a height t or an array of heights (one result each).

    Both come from _hurwitz_regular at a = 1 and a = r/7 with
    M = 32 + 16 ceil(max |t|/16) direct terms, enough for the corrections
    to converge at every height; rounding M up to a multiple of 16 gives
    the heights of a batch the truncation of a one-height call whenever
    they share that multiple.  With e = s - 1 = 2it and R = R_1,
    -zeta'/zeta = (1 - e^2 R')/(e(1 + e R)), so the 1/(2it) pole is
    exact; L = 7^(-s) sum_r chi(r) R_{r/7} has no pole because
    sum_r chi(r) = 0.  L(1-2it) = conj L(1+2it) because chi_{-7} is real,
    and L(1) = pi/sqrt(7) by the class number formula (h = 1, w = 2).
    The float64 phases 2t log(k+a) limit the error to about 1e-16 |t|
    relative, and the direct sums grow with |t|: ConvergenceError for
    |t| > 1e5."""
    t = np.asarray(t, dtype=float)
    t_max = float(np.max(np.abs(t), initial=0.0))
    if not t_max <= _T_MAX_BLOCK:
        raise ConvergenceError(f"zeta/L block needs |t| <= {_T_MAX_BLOCK:g}, got {t_max:g}")
    e = 2j * t
    R, dR = _hurwitz_regular(1.0 + e, _HURWITZ_A, 32 + 16 * ceil(t_max / 16))
    R1, dR1 = R[..., 0], dR[..., 0]
    chiR = (R[..., 1:] * _CHI7).sum(axis=-1)
    chidR = (dR[..., 1:] * _CHI7).sum(axis=-1)
    block = (1.0 - e * e * dR1) / (e * (1.0 + e * R1)) + chidR / chiR - log(7.0)
    L = np.exp(-(1.0 + e) * log(7.0)) * chiR
    xblock = (1.0 / e + R1) * np.conj(L) / L1_CHI7
    return block[()], xblock[()]


def ratios_one_level_integrand(n: int, t: float, ctx: PrecisionContext = DEFAULT_CTX, P: int = 100_000) -> float:
    """Real value of the ratios-conjecture density integrand at height t:

      2 log(7/2pi) + 2 Re psi(2n-1+it)
      + 2 Re[-zeta'/zeta(1+2it) + L'/L(1+2it) + A'(it,it)
             - (7/2pi)^(-2it) Gamma(2n-1-it)/Gamma(2n-1+it)
               * zeta(1+2it) L(1-2it)/L(1) * A(-it,it)]

    The zeta(1+2it) pole cancels in the bracket; below |t| = 1e-4 the even
    limit is taken (see _ratios_point).  `ctx` is accepted for API
    compatibility; the result is float64."""
    return _ratios_point(n, t, P)[0]


def ratios_integrand_abs_err(t: float) -> float:
    """Bound on how far the default truncation at p <= P = 10^5 moves
    ratios_one_level_integrand at height t, for any member (_ratios_point)."""
    return _ratios_point(1, t)[1]


def _ratios_record(t, P: int):
    """(block, xblock, A(-it, it), A'(it, it)) at a height t, or at each of
    an array of heights: one _zeta_L_block and one _ratios_rows call, the
    arithmetic of the ratios integrand.  A height stays a scalar call,
    whose block bits a one-entry array would move."""
    block, ts = _zeta_L_block(t), np.ravel(t).tolist()  # the block first: it refuses heights past its cap
    rows = _ratios_rows([-1j * u for u in ts], [1j * u for u in ts], P)
    return block + (rows[0] if np.ndim(t) == 0 else tuple(zip(*rows)))


def _ratios_point(n: int, t: float, P: int = 100_000) -> tuple[float, float]:
    """(integrand I, error bound E) of member n at height t, both from one
    _ratios_record per evaluated height and both even in t (nan or +-inf:
    ValueError).
    Below |t| = 1e-4 the limit is Richardson's (4 I(t0/2) - I(t0))/3 from
    t0 = 2e-4 (error O(t0^4)), with the bound (4 E(t0/2) + E(t0))/3.  E is
    twice the A'(it,it) tail, at most sum_{p>P} 2 log p/(p^2 - 1) < 4.08/P
    for P >= 17 by partial summation with theta(x) < 1.01624 x, plus twice
    ratios_A's tail estimate times |zeta(1+2it) L(1-2it)/L(1) A(-it,it)|."""
    c = _member(n).c
    t = float(t)
    if not isfinite(t):
        raise ValueError(f"height t must be a finite number, got {t}")
    t = abs(t)

    def at(h: float) -> tuple[float, float]:
        rec = _ratios_record(h, P)
        a_err = _ratios_A_tail(-1j * h, 1j * h, P) * abs(rec[1]) * abs(rec[2])
        return float(_ratios_integrand_direct(c, h, rec)), float(2.0 * (a_err + 4.08 / P))

    if t >= 1e-4:
        return at(t)
    (i1, e1), (i2, e2) = at(2e-4), at(1e-4)
    return (4.0 * i2 - i1) / 3.0, (4.0 * e2 + e1) / 3.0


def _ratios_integrand_direct(c, t: float, arith):
    """The integrand at height t from arith, its _ratios_record, for the
    member with Gamma shift c or each entry of an array of shifts; c is read
    through np.asarray, so one shift takes an array entry's arithmetic."""
    block, xblock, a_mir, ap = arith
    c = np.asarray(c)
    # Gamma(c-it)/Gamma(c+it) = exp(-2i Im log Gamma(c+it)) for real c
    e_factor = np.exp(-2j * (loggamma_f64(c, t).imag + t * LOG_Q))
    bracket = block + ap - e_factor * xblock * a_mir
    arch = 2.0 * LOG_Q + 2.0 * digamma_f64(c, t).real
    return arch + 2.0 * bracket.real


def ratios_one_level_density(N: int, f: TestFunction, ctx: PrecisionContext = DEFAULT_CTX, P: int = 100_000) -> float:
    """(1/2pi N) int f(t log N/pi) sum_n integrand(n, t) dt, the scaled
    one-level density predicted by the ratios conjecture.

    The integrand is even, so the integral is twice a 48-point
    Gauss-Legendre sum on the two panels [0, t_end/2], [t_end/2, t_end],
    with f(t_end log N/pi) = 1e-12.  One _ratios_record over all the
    nodes gives their arithmetic: one _zeta_L_block call, and one
    _ratios_rows call, which forms w = 1/p once for all of them.  `ctx`
    is accepted for API compatibility; the result is float64."""
    if f.kind != "gaussian":
        raise ValueError("ratios-route density implemented for gaussian f")
    if N < 2:
        raise ValueError("N must be >= 2: the scale log N vanishes at N = 1")
    s = log(N)
    t_end = fpi * f.param * fsqrt(-log(1e-12)) / s
    ts, ws = _panel_rule([0.0, t_end / 2.0, t_end], 48)
    cs = _member(np.arange(1, N + 1)).c
    total = 0.0
    for t, wt, rec in zip(ts.tolist(), ws.tolist(), zip(*_ratios_record(ts, P))):
        total += wt * float(f.f(t * s / fpi)) * float(np.sum(_ratios_integrand_direct(cs, t, rec)))
    return 2.0 * total / (2.0 * fpi * N)
