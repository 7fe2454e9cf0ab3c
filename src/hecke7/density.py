"""One-level density of low-lying zeros across the family chi^(4n-3).

Pipelines:
  * empirical: scaled zeros from the Hardy-Z scans, averaged against an
    even test function;
  * explicit formula: archimedean (digamma) term minus the von Mangoldt
    prime sum, both per family member;
  * RMT: even-orthogonal prediction int f(y)(1 + sin(2pi y)/(2pi y)) dy;
  * ratios: the density integrand predicted by the one-ratio conjecture,
    with the arithmetic factor A(alpha,gamma) as an Euler product.

Archimedean integrals use the exact resummation

    (1/2pi) int phi(t) [2 log(7/2pi) + psi(c+it) + psi(c-it)] dt
      = (phihat(0)/pi)(log(7/2pi) + psi(c))
        + 2 int_0^inf (phihat(0) - phihat(x)) e^(-2pi c x)/(1 - e^(-2pi x)) dx

(c = 2n-1), which converges on the support of phihat and avoids the
slowly decaying t-tails of kernel-type test functions.  phihat is a
float64 function, so the integral is a float64 Gauss-Legendre sum on
panels graded to the decay of e^(-2pi c x), with psi(c) from scipy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import exp, log, pi as fpi, sqrt as fsqrt

import numpy as np
import mpmath
from mpmath import mp, mpf, mpc
from scipy.special import digamma as c_digamma, loggamma as c_loggamma

from . import field
from .central import T_CAP, _panel_rule, t_reliable, zeros_up_to
from .specfun import (
    PrecisionContext,
    DEFAULT_CTX,
    ConvergenceError,
    _L_chi7_any,
)

LOG_Q7 = log(7.0 / (2.0 * fpi))
L1_CHI7 = fpi / fsqrt(7.0)  # L(1, chi_{-7}) = pi/sqrt(7): class number 1


@dataclass(frozen=True)
class TestFunction:
    """Even test function with its Fourier transform
    (convention fhat(x) = int f(u) e(-ux) du)."""

    kind: str
    f: callable
    fhat: callable
    support: float | None  # half-width of supp fhat, None if unbounded
    param: float

    def describe(self) -> str:
        return f"{self.kind}({self.param:g})"


def fejer(alpha: float = 1.0) -> TestFunction:
    """f(y) = (sin(pi alpha y)/(pi alpha y))^2 >= 0 with triangular
    fhat(x) = (1 - |x|/alpha)/alpha on [-alpha, alpha]; both take scalars
    or arrays."""
    if alpha <= 0:
        raise ValueError("support alpha must be positive")
    a = float(alpha)

    def f(y):
        z = fpi * a * np.asarray(y, dtype=float)
        out = np.ones_like(z)
        nz = np.abs(z) >= 1e-8
        out[nz] = (np.sin(z[nz]) / z[nz]) ** 2
        out[~nz] = 1.0 - z[~nz] ** 2 / 3.0
        return out[()]

    def fhat(x):
        ax = np.abs(np.asarray(x, dtype=float))
        return np.where(ax <= a, (1.0 - ax / a) / a, 0.0)[()]

    return TestFunction(kind="fejer", f=f, fhat=fhat, support=a, param=a)


def gaussian(width: float = 2.0) -> TestFunction:
    """f(y) = exp(-(y/w)^2), fhat(x) = w sqrt(pi) exp(-(pi w x)^2); both
    take scalars or arrays."""
    if width <= 0:
        raise ValueError("width must be positive")
    w = float(width)

    def f(y):
        return np.exp(-((np.asarray(y, dtype=float) / w) ** 2))[()]

    def fhat(x):
        return w * fsqrt(fpi) * np.exp(-((fpi * w * np.asarray(x, dtype=float)) ** 2))[()]

    return TestFunction(kind="gaussian", f=f, fhat=fhat, support=None, param=w)


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
# von Mangoldt data
# ---------------------------------------------------------------------------


def lambda_vm(n: int, p: int, r: int, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """Lambda_{4n-3}(p^r) = log p (alpha^r + conj(alpha)^r): the
    T-Chebyshev value log(p) c_r with c_0 = 2, c_1 = a(p),
    c_{r+1} = a(p)c_r - c_{r-1}.  Inert: 0 at odd r, 2 log p (-1)^(r/2)
    at even r.  Returns 0 at p = 7."""
    if r < 1:
        raise ValueError("r must be >= 1")
    field.prime_class(p)  # ValueError unless p is prime
    return log(p) * float(field.prime_table(p).chebyshev(4 * n - 3, r, 2.0)[-1, r])


# ---------------------------------------------------------------------------
# explicit formula
# ---------------------------------------------------------------------------


def arch_term(n: int, phihat, x_end: float, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """(1/2pi) int phi(t)[2 log(7/2pi) + psi(2n-1+it) + psi(2n-1-it)] dt
    via the resummed fhat-side representation (see module docstring).

    The correction integral is a float64 Gauss-Legendre sum on panels
    graded to resolve e^(-2pi c x): edges 0, 1/(2pi c), doubling below
    x_end/2, then x_end/2, x_end (the edge of supp phihat, where it may
    kink) and x_end + 3.  Orders 24 and 16 must agree within 1e-12, or
    ConvergenceError.  `ctx` is accepted for API compatibility; the
    result is float64.
    """
    c = 2 * n - 1
    ph0 = float(phihat(0.0))
    edges = [0.0]
    e = 1.0 / (2.0 * fpi * c)
    while e < x_end / 2:
        edges.append(e)
        e *= 2.0
    edges += [x_end / 2, x_end, x_end + 3.0]
    corr = []
    for order in (24, 16):
        xs, ws = _panel_rule(edges, order)
        ph = phihat(xs)
        g = 2.0 * (ph0 - ph) * np.exp(-2.0 * fpi * c * xs) / -np.expm1(-2.0 * fpi * xs)
        corr.append(float(np.dot(ws, g)))
    if abs(corr[0] - corr[1]) > 1e-12:
        raise ConvergenceError(
            f"arch_term n={n}: Gauss-Legendre orders 24 and 16 differ by {abs(corr[0] - corr[1]):.1e}"
        )
    lead = ph0 / fpi * (LOG_Q7 + float(c_digamma(c)))
    return lead + corr[0]


def prime_sum(n: int, phihat, k_max: int) -> float:
    """(1/pi) sum_{p^r <= k_max} Lambda_{4n-3}(p^r)/p^(r/2)
    * phihat(log(p^r)/2pi)."""
    p, q, c = field.prime_table(k_max).powers(4 * n - 3, 2.0)
    w = phihat(np.log(q) / (2.0 * fpi))
    return float(np.dot(np.log(p) * c / np.sqrt(q), w)) / fpi


def _phihat_cutoff(phi: TestFunction, scale: float, tol: float = 1e-14) -> int:
    """Largest integer k with |phihat(log k / 2pi)| above tol, where
    phihat(x) = (pi/scale) fhat(pi x/scale) if scale else fhat(x)."""
    if phi.support is not None:
        alpha = phi.support
        x_max = alpha * scale / fpi if scale else alpha
        return int(np.floor(exp(2.0 * fpi * x_max))) if x_max * 2 * fpi < 60 else 10**9
    # gaussian: phihat(x) ~ exp(-(pi W x)^2), W = w unscaled, pi w/scale scaled
    w = phi.param
    W = fpi * w / scale if scale else w
    x_max = fsqrt(max(0.0, -log(tol / (w * fsqrt(fpi))))) / (fpi * W)
    return int(np.floor(exp(2.0 * fpi * x_max)))


def explicit_formula_sum(
    n: int,
    phi: TestFunction,
    ctx: PrecisionContext = DEFAULT_CTX,
    scale: float = 0.0,
) -> float:
    """Formula side of sum_gamma phi(gamma) for L(s, chi^(4n-3)).

    With scale = 0 the test function is used directly (phi(t) = f(t));
    with scale = log N it is phi(t) = f(t scale/pi), matching the scaled
    zero statistic.  Equals arch_term - prime_sum with
    phihat(x) = (pi/scale) fhat(pi x/scale) under scaling.
    """
    if scale:
        s = float(scale)
        phihat = lambda x: (fpi / s) * phi.fhat(fpi * x / s)
    else:
        phihat = phi.fhat
    k_max = _phihat_cutoff(phi, scale)
    if k_max > field.PRIME_TABLE_CAP:
        raise ConvergenceError(
            f"prime sum cutoff {k_max} too large for test function {phi.describe()}"
        )
    if phi.support is not None:
        x_end = phi.support * (scale / fpi if scale else 1.0)
    else:
        x_end = log(max(k_max, 3)) / (2.0 * fpi) * 1.5 + 0.5
    return arch_term(n, phihat, x_end, ctx) - prime_sum(n, phihat, k_max)


def zero_side_sum(n: int, phi: TestFunction, T: float, scale: float = 0.0) -> float:
    """sum over zeros (both signs) of phi(gamma), truncated at |gamma| <= T."""
    rec = zeros_up_to(n, T)
    g = np.array(rec.gammas)
    if scale:
        g = g * (scale / fpi)
    if len(g) == 0:
        return 0.0
    return 2.0 * float(np.sum(phi.f(g)))


# ---------------------------------------------------------------------------
# RMT prediction and the empirical statistic
# ---------------------------------------------------------------------------


def rmt_prediction(f: TestFunction, ctx: PrecisionContext = DEFAULT_CTX):
    """int f(y)(1 + sin(2pi y)/(2pi y)) dy = fhat(0) + (1/2)int_{-1}^{1} fhat.

    Exact rational for the Fejer kernel (1/alpha + 1/2 when alpha <= 1),
    closed form w sqrt(pi) + erf(pi w)/2 for the gaussian.
    """
    if f.kind == "fejer":
        a = Fraction(f.param).limit_denominator(10**6)
        if a <= 1:
            return Fraction(1, 1) / a + Fraction(1, 2)
        # (1/2) int_{-1}^{1} (1-|x|/a)/a dx = (1/a)(1 - 1/(2a))
        return 1 / a + (1 / a) * (1 - 1 / (2 * a))
    if f.kind == "gaussian":
        with mp.workdps(ctx.working_dps):
            w = mpf(f.param)
            return +(w * mp.sqrt(mp.pi) + mpmath.erf(mp.pi * w) / 2)
    # generic: quadrature on the fhat side
    with mp.workdps(ctx.working_dps):
        val = mpf(f.fhat(0.0)) + mpmath.quad(lambda x: f.fhat(x), [-1, 0, 1]) / 2
        return +val


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
    """
    if N < 1 or N > 200:
        raise ValueError("N must be in [1, 200] (desk scale)")
    s = log(N)
    emp_total = 0.0
    mass_bound = 0.0
    t_min = float("inf")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in range(1, N + 1):
            t_n = min(T, t_reliable(n))
            t_min = min(t_min, t_n)
            emp_total += zero_side_sum(n, f, t_n, scale=s)
            mass_bound += _tail_mass_bound(n, f, t_n, s)
    empirical = emp_total / N
    mass_bound /= N
    ef_total = 0.0
    for n in range(1, N + 1):
        ef_total += explicit_formula_sum(n, f, ctx, scale=s)
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


def _tail_mass_bound(n: int, f: TestFunction, T: float, s: float) -> float:
    """Bound on 2 sum_{gamma > T} f(gamma s/pi) using zero density
    (1/pi) log(1.1141(2n+t)) and the kernel envelope."""
    if f.kind == "gaussian":
        w = f.param
        # envelope exp(-(Ts/(pi w))^2) decays fast; crude integral bound
        u = T * s / (fpi * w)
        dens = log(1.1141 * (2 * n + T + 5)) / fpi
        return 2.0 * dens * fpi * w / s * fsqrt(fpi) / 2 * exp(-u * u)
    a = f.support or 1.0
    dens = log(1.1141 * (2 * n + T + 5)) / fpi
    # f(t s/pi) <= 1/(a s t)^2, so the tail is <= 2 int_T dens/(a s t)^2 dt
    return 2.0 * dens / ((a * s) ** 2 * T)


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
    a = complex(alpha)
    g = complex(gamma)
    if abs(a.real) >= 0.25 or abs(g.real) >= 0.25:
        raise ValueError("shifts outside the conjecture domain")
    table = field.prime_table(P)
    lp, cls = np.log(table.primes), table.classes
    tail_est = _ratios_A_tail(a, g, P)
    if tail_est > tol:
        raise ConvergenceError(f"tail estimate {tail_est:.2e} exceeds tol {tol:.2e}")
    y = np.exp(-(1 + 2 * g) * lp)
    w = np.exp(-(1 + a + g) * lp)
    fac = np.ones(len(lp), dtype=complex)
    split, inert, ram = cls == "split", cls == "inert", cls == "ramified"
    fac[split] = (1 - y[split]) * (1 + y[split] - 2 * w[split]) / (1 - w[split]) ** 2
    fac[inert] = (1 - y[inert] ** 2) / (1 - w[inert] ** 2)
    fac[ram] = (1 - y[ram]) / (1 - w[ram])
    return complex(np.prod(fac))


def _ratios_A_tail(a: complex, g: complex, P: int) -> float:
    """Estimate of sum_{p>P} |log of the local factor of A(a, g)|: each is
    at most 6 p^(-2 sigma), sigma = 1 + min Re shift sum."""
    sigma = 1.0 + min(2 * g.real, a.real + g.real)
    return 6.0 * P ** (1.0 - 2.0 * sigma) / (max(2.0 * sigma - 1.0, 0.05) * log(P))


def ratios_local_brute(p: int, alpha, gamma, cutoff: int = 120, ctx: PrecisionContext = DEFAULT_CTX):
    """Local factor of A at p assembled from the delta_mu double sum
    (independent oracle for the simplified closed forms)."""
    from .moments import delta_mu

    with mp.workdps(ctx.working_dps):
        a = mpmath.mpmathify(alpha)
        g = mpmath.mpmathify(gamma)
        xa = mpf(p) ** (-(mpf(1) / 2 + a))
        xg = mpf(p) ** (-(mpf(1) / 2 + g))
        bracket = mpc(0)
        for m_exp in range(cutoff + 1):
            for l_exp in range(3):
                d = delta_mu(p, m_exp, l_exp)
                if d:
                    bracket += d * xa**m_exp * xg**l_exp
        u = mpf(p) ** (-1 - 2 * a)
        y = mpf(p) ** (-1 - 2 * g)
        w = mpf(p) ** (-1 - a - g)
        line1 = (1 - y) / (1 - w)
        if p == 7:
            return mpc(line1)  # bracket is 1 by the p=7 vanishing
        if field.prime_class(p) == "split":
            norm = (1 - u) / (1 - w)
        else:
            norm = (1 + u) / (1 + w)
        return mpc(line1 * norm * bracket)


def ratios_A_prime(t: float, ctx: PrecisionContext = DEFAULT_CTX, P: int = 100_000) -> complex:
    """A'(it,it) = d/d alpha A(alpha, gamma)|_{alpha=gamma=it} over p <= P.

    A(r,r) = 1 and every split factor is stationary in alpha on the
    diagonal, so the derivative is the closed form
      A'(r,r) = -sum_{inert p} 2 log p w^2/(1-w^2) - log 7 w/(1-w),
    w = p^(-1-2r), with r = it.  `ctx` is accepted for API
    compatibility; the result is float64.
    """
    table = field.prime_table(P)
    lp, cls = np.log(table.primes), table.classes
    w = np.exp(-(1 + 2j * float(t)) * lp)
    inert, ram = cls == "inert", cls == "ramified"
    wi, wr = w[inert], w[ram]
    return complex(-np.sum(2 * lp[inert] * wi**2 / (1 - wi**2)) - np.sum(lp[ram] * wr / (1 - wr)))


def _zeta_L_block(t: float):
    """(-zeta'/zeta + L'/L)(1+2it) and zeta(1+2it) L(1-2it)/L(1) as
    Python complex values.

    mpmath runs at 20 digits: float64's 16 plus the at most 4 lost where
    the 1/(2it) poles cancel for |t| >= 1e-4.  zeta(1+2it) is computed
    once, L and L' come from one pass over the Hurwitz values,
    L(1-2it) = conj L(1+2it) because chi_{-7} is real, and
    L(1) = pi/sqrt(7) by the class number formula (h = 1, w = 2)."""
    with mp.workdps(20):
        s = 1 + 2j * mpf(t)
        zeta_val = mpmath.zeta(s)
        Lv, dLv = _L_chi7_any(s, 1)
        block = -mpmath.zeta(s, derivative=1) / zeta_val + dLv / Lv
        return complex(block), complex(zeta_val * mpmath.conj(Lv)) / L1_CHI7


def ratios_one_level_integrand(n: int, t: float, ctx: PrecisionContext = DEFAULT_CTX, P: int = 100_000) -> float:
    """Real value of the ratios-conjecture density integrand at height t:

      2 log(7/2pi) + 2 Re psi(2n-1+it)
      + 2 Re[-zeta'/zeta(1+2it) + L'/L(1+2it) + A'(it,it)
             - (7/2pi)^(-2it) Gamma(2n-1-it)/Gamma(2n-1+it)
               * zeta(1+2it) L(1-2it)/L(1) * A(-it,it)]

    The zeta(1+2it) pole cancels in the bracket; below |t| = 1e-4 the
    even analytic limit is taken by Richardson extrapolation from
    t0 = 2e-4 and t0/2 (error O(t0^4)).  `ctx` is accepted for API
    compatibility; the result is float64."""
    t = float(t)
    if abs(t) < 1e-4:
        t0 = 2e-4
        i1 = _ratios_integrand_direct(n, t0, P)
        i2 = _ratios_integrand_direct(n, t0 / 2, P)
        return float((4.0 * i2 - i1) / 3.0)
    return float(_ratios_integrand_direct(n, t, P))


def ratios_integrand_abs_err(t: float) -> float:
    """Bound on how far the default truncation at p <= P = 10^5 moves
    ratios_one_level_integrand at height t: twice the A'(it,it) tail plus
    twice ratios_A's tail estimate times |zeta(1+2it) L(1-2it)/L(1) A|.

    The A' tail is at most sum_{p>P} 2 log p/(p^2 - 1) < 4.08/P for
    P >= 17, by partial summation with theta(x) < 1.01624 x.  Below
    |t| = 1e-4 the bound follows the Richardson combination of the
    integrand."""
    t, P = abs(float(t)), 100_000
    if t < 1e-4:
        return (4.0 * ratios_integrand_abs_err(1e-4) + ratios_integrand_abs_err(2e-4)) / 3.0
    _, xblock = _zeta_L_block(t)
    a_err = _ratios_A_tail(-1j * t, 1j * t, P) * abs(xblock) * abs(ratios_A(-1j * t, 1j * t, P=P))
    return 2.0 * (a_err + 4.08 / P)


def _ratios_integrand_direct(n, t: float, P: int):
    """The integrand at height t for the family index n, or for each
    entry of an array of indices (the arithmetic factors are shared)."""
    block, xblock = _zeta_L_block(t)
    ap = ratios_A_prime(t, P=P)
    a_mir = ratios_A(-1j * t, 1j * t, P=P)
    c = 2 * np.asarray(n) - 1
    e_factor = np.exp(c_loggamma(c - 1j * t) - c_loggamma(c + 1j * t) - 2j * t * LOG_Q7)
    bracket = block + ap - e_factor * xblock * a_mir
    arch = 2.0 * LOG_Q7 + 2.0 * c_digamma(c + 1j * t).real
    return arch + 2.0 * bracket.real


def ratios_one_level_density(N: int, f: TestFunction, ctx: PrecisionContext = DEFAULT_CTX, P: int = 100_000) -> float:
    """(1/2pi N) int f(t log N/pi) sum_n integrand(n, t) dt, the scaled
    one-level density predicted by the ratios conjecture.

    The integrand is even, so the integral is twice a 48-point
    Gauss-Legendre sum on the two panels [0, t_end/2], [t_end/2, t_end],
    with f(t_end log N/pi) = 1e-12.  `ctx` is accepted for API
    compatibility; the result is float64."""
    if f.kind != "gaussian":
        raise ValueError("ratios-route density implemented for gaussian f")
    s = log(N)
    t_end = fpi * f.param * fsqrt(-log(1e-12)) / s
    ts, ws = _panel_rule([0.0, t_end / 2.0, t_end], 48)
    ns = np.arange(1, N + 1)
    total = 0.0
    for t, wt in zip(ts.tolist(), ws.tolist()):
        total += wt * float(f.f(t * s / fpi)) * float(np.sum(_ratios_integrand_direct(ns, t, P)))
    return 2.0 * total / (2.0 * fpi * N)
