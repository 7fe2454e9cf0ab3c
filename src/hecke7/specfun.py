"""Special functions used throughout the lab, at two precisions.

Arbitrary precision: these take a PrecisionContext (decimal digits +
guard digits) and return mpmath values rounded at the requested
precision.  erfc, digamma, Hurwitz zeta and Gamma are mpmath's
Euler-Maclaurin / asymptotic-series methods; this module fixes their
working precision and the lab's conventions around them.  The incomplete
gamma is one fixed-point kernel, _upper_gamma_scaled(c, t, xs) =
x^(-s) Gamma(s, x) for s = c + it, which sums Python ints at the working
precision plus guard bits:
  * at integer order (t = 0), the finite Poisson sum
    e^(-x) sum_{k<c} x^k/k!, summed outward from its largest term;
    reg_gamma_Q(n, x) rescales it to Q(n, x);
  * at complex order, the terms of the Hardy-Z series: Gamma(s) less the
    lower series below a switch, Legendre's continued fraction above it.

Float64, in plain numpy, for the float64 stages (zero engine, one-level
density, ratios integrand, central-value sweep):
  * loggamma_f64(c, t) = log Gamma(c+it) and digamma_f64(c, t) =
    psi(c+it) for real c >= 1: Stirling's series with 7 Bernoulli terms
    after an upward shift to Re >= 12;
  * reg_gamma_Q_f64(c_max, x): Q(c, x) for c = 1, ..., c_max as a running
    sum of Poisson masses e^(-x) x^c/c!, each in the saddle-point form of
    C. Loader, "Fast and accurate computation of binomial probabilities"
    (2000), which neither underflows nor cancels for large x; the masses
    of a block of c are one 2-D array round.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, log, pi as fpi, sqrt as fsqrt

import mpmath
import numpy as np
from mpmath import mp, mpc, mpf
from mpmath.libmp import to_fixed

MAX_DIGITS = 100_000

# chi_{-7}(r) = Legendre symbol (r/7): quadratic residues mod 7 are
# {1, 2, 4}; 0 at r = 0.
CHI7 = {0: 0, 1: 1, 2: 1, 3: -1, 4: 1, 5: -1, 6: -1}


class PrecisionError(ValueError):
    """Requested precision is below the floor or above the configured cap."""


class ComputeCapError(RuntimeError):
    """A computation would exceed the configured compute cap."""


class ConvergenceError(RuntimeError):
    """An iteration failed to meet its tolerance within its budget."""


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision: `digits` requested decimal digits plus `guard`."""

    digits: int = 64
    guard: int = 10

    def __post_init__(self):
        if self.digits < 15:
            raise PrecisionError(f"digits={self.digits} below the floor of 15")
        if self.digits > MAX_DIGITS:
            raise PrecisionError(f"digits={self.digits} exceeds cap {MAX_DIGITS}")
        if self.guard < 0:
            raise PrecisionError("guard digits must be nonnegative")

    @property
    def working_dps(self) -> int:
        return self.digits + self.guard

    @property
    def eps(self) -> mpf:
        return mpf(10) ** (-self.digits)


DEFAULT_CTX = PrecisionContext()


def _series_index(n, name: str = "series index n") -> int:
    """An integer argument (a series index, a prime) as an int, a numpy
    integer read as the int; ValueError for anything else, bools and
    integral floats included.  Range checks stay with the callers."""
    if type(n) is not int:
        if not isinstance(n, np.integer):
            raise ValueError(f"{name} must be an integer, got {n!r}")
        n = int(n)
    return n


def reg_gamma_Q(n: int, x, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """Regularized upper incomplete gamma Q(n, x) = Gamma(n,x)/Gamma(n)
    for a positive integer n and x >= 0: the finite Poisson sum
    e^(-x) sum_{k<n} x^k/k!, as x^n/(n-1)! times _upper_gamma_scaled at
    t = 0, at working precision plus 10 guard digits."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    n = int(n)
    with mp.workdps(ctx.working_dps + 10):
        x = mpf(x)
        if x < 0:
            raise ValueError("x must be nonnegative")
        if not x:
            return mpf(1)
        return x**n / mpmath.factorial(n - 1) * _upper_gamma_scaled(n, 0, [x])[0]


# The incomplete-gamma kernel sums Python ints scaled by 2^p, p the
# current mpmath precision plus guard bits.  Every loop stops on a bound
# for what it leaves out and rounds by a few units of 2^-p per step; the
# open-ended ones raise ConvergenceError after _KERNEL_STEPS steps, and
# the finite Poisson sum has fewer than c.  So _GUARD_BITS + bit_length(c)
# guard bits cover the rounding of every run.
_KERNEL_STEPS = 1 << 16
_GUARD_BITS = _KERNEL_STEPS.bit_length() + 3


def _upper_gamma_scaled(c: int, t, xs) -> list:
    """x^(-s) Gamma(s, x) for s = c + it (an integer c >= 1, real t) at
    each mpf x > 0 of xs, at the current precision prec: to a few ulps at
    t = 0, else within a few units of Gamma(c) x^(-c) 2^(-prec).

    That absolute error is what a sum of such terms needs: |gamma(s, x)|
    <= gamma(c, x) <= Gamma(c), and the cancellation down to |Gamma(s)|
    is the caller's to pay for in prec.  Each regime is one loop over
    fixed-point ints, outward from the largest term:

      * t = 0, x >= c - 1: the finite Poisson sum e^(-x)/x
        sum_{j<c} (c-1)!/(c-1-j)! x^(-j) (_poisson_down);
      * t = 0, x < c - 1: (c-1)! x^(-c) less the upper Poisson tail
        e^(-x)/c sum_j x^j c!/(c+j)! (_poisson_up);
      * t != 0, x < |s + 1|: Gamma(s) x^(-s) - e^(-x) sum_k x^k/(s)_(k+1)
        (DLMF 8.7.1, _lower_series), with Gamma(s) computed once per call;
      * t != 0, x >= |s + 1|: e^(-x) times Legendre's continued fraction
        (DLMF 8.9.2, _legendre_cf).

    The switch |s + 1| is where every ratio x/|s + k| of the lower series
    has modulus below 1.  Above it the continued fraction converges within
    a few hundred steps at 200 bits; well below it its stopping test can
    pass while it is still off by O(1) (at c = 191, x = 30 and 60).
    """
    guard = _GUARD_BITS + c.bit_length()
    prec = mp.prec + guard
    tol = 1 << (guard - 2)  # truncation: 2^(-2) ulp of the caller's precision
    T = to_fixed(mpf(t)._mpf_, prec)
    invs = []  # fixed-point 1/(s + k), k = 1, 2, ..., shared by every lower series
    out = []
    with mp.workprec(prec):
        s = mpc(c, t)
        gamma_c = mpmath.factorial(c - 1)
        gamma_s = mpmath.gamma(s) if t else gamma_c
        for x in xs:
            X = to_fixed(x._mpf_, prec)
            if not t:
                if X >= (c - 1) << prec:
                    out.append(mpmath.exp(-x) / x * mpf((_poisson_down(c, X, prec, tol), -prec)))
                else:
                    tail = mpf((_poisson_up(c, X, prec, tol), -prec))
                    out.append(gamma_c / x**c - mpmath.exp(-x) / c * tail)
            elif x < abs(s + 1):
                xc = x**c
                lead = xc * mpmath.exp(-x) / (gamma_c * s)  # e^(-x)/s in units of Gamma(c) x^(-c)
                sr, si = _lower_series(T, X, lead, invs, c, prec, tol)
                lower = gamma_c * mpc(mpf((sr, -prec)), mpf((si, -prec)))
                out.append((x ** mpc(0, -t) * gamma_s - lower) / xc)
            else:
                hr, hi = _legendre_cf(c, T, X, prec, tol)
                out.append(mpmath.exp(-x) * mpc(mpf((hr, -prec)), mpf((hi, -prec))))
    return out


def _poisson_down(c: int, X: int, prec: int, tol: int) -> int:
    """sum_{j<c} (c-1)!/(c-1-j)! x^(-j) scaled by 2^prec, for x = X 2^-prec
    >= c - 1: terms t_0 = 1 and t_(j+1) = t_j k/x with k = c-1-j, which
    do not grow.  The terms left after t_j sum to at most t_j k/(x - k),
    so the loop stops once k (t_j + tol) < tol floor(x), that bound below
    tol units.  1/x is one division, to prec bits relative."""
    xl = X >> prec
    shift = prec + xl.bit_length() + 1
    inv = (1 << (prec + shift)) // X  # 2^shift/x
    term = total = 1 << prec
    limit = tol * xl
    for k in range(c - 1, 0, -1):
        if term < limit and k * (term + tol) < limit:
            break
        term = term * k * inv >> shift
        total += term
    return total


def _poisson_up(c: int, X: int, prec: int, tol: int) -> int:
    """sum_{j>=0} x^j c!/(c+j)! scaled by 2^prec, for x = X 2^-prec
    < c - 1: terms t_0 = 1 and t_j = t_(j-1) x/a with a = c + j, falling.
    The terms left after t_j sum to at most t_j x/(a + 1 - x), so the
    loop stops once ceil(x) (t_j + tol) < tol a, that bound below tol
    units, with a = c + j + 1 the next divisor."""
    xu = -(-X >> prec)
    term = total = 1 << prec
    for a in range(c + 1, c + _KERNEL_STEPS):
        if term < tol * a and xu * (term + tol) < tol * a:
            return total
        term = (term * X >> prec) // a
        total += term
    raise ConvergenceError(f"Poisson tail at c = {c} exceeds {_KERNEL_STEPS} terms")


def _lower_series(T: int, X: int, lead, invs: list, c: int, prec: int, tol: int) -> tuple[int, int]:
    """sum_k v_k, v_0 = lead and v_k = v_(k-1) x/(s+k), in fixed point
    at prec bits (x = X 2^-prec, t = T 2^-prec), with invs[k-1] = 1/(s+k)
    kept and extended across calls.  The ratios have modulus x/|s+k| < 1,
    falling in k, so the terms left after v_k sum to at most
    |v_k| r/(1 - r) for the next ratio's modulus r; the loop stops once
    that is below tol units, tested as (|v_k| + tol) r < tol with r at
    most ceil(x)/|c + k + 1 + i floor(|t|)|.  A floored negative term
    stays at -1, never 0, so the bound, not a zero term, ends the loop."""
    vr, vi = to_fixed(mpmath.re(lead)._mpf_, prec), to_fixed(mpmath.im(lead)._mpf_, prec)
    sr, si = vr, vi
    xu = -(-X >> prec)  # ceil(x)
    tl2 = (abs(T) >> prec) ** 2  # floor(|t|)^2
    for k in range(_KERNEL_STEPS):
        a = c + k + 1
        bound = (abs(vr) + abs(vi) + tol) * xu
        if bound * bound < tol * tol * (a * a + tl2):
            return sr, si
        if k == len(invs):
            A = a << prec
            den = A * A + T * T
            invs.append(((A << 2 * prec) // den, -(T << 2 * prec) // den))
        ir, ii = invs[k]
        qr, qi = X * ir >> prec, X * ii >> prec  # x/(s + k + 1)
        vr, vi = (vr * qr - vi * qi) >> prec, (vr * qi + vi * qr) >> prec
        sr += vr
        si += vi
    raise ConvergenceError(f"lower incomplete gamma series at c = {c} exceeds {_KERNEL_STEPS} terms")


def _cdiv(ar: int, ai: int, br: int, bi: int, prec: int) -> tuple[int, int]:
    """a/b for complex fixed-point numbers scaled by 2^prec (floored)."""
    den = br * br + bi * bi
    return ((ar * br + ai * bi) << prec) // den, ((ai * br - ar * bi) << prec) // den


def _legendre_cf(c: int, T: int, X: int, prec: int, tol: int) -> tuple[int, int]:
    """1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))) = e^x x^(-s) Gamma(s, x) with
    b_i = x + 2i + 1 - s and a_i = -i(i - s), the even part of Legendre's
    continued fraction, in fixed point at prec bits, by modified Lentz
    from C_0 = inf.  D_i is kept as its reciprocal E_i = b_i + a_i/E_(i-1),
    which like C_i = b_i + a_i/C_(i-1) stays of the size of b_i, so each
    step rounds by a few units relative.  The value is h_0 = 1/b_0 times
    the step factors d_i = C_i/E_i; the loop stops once the estimate
    |d_i - 1| r/(1 - r) of the factors left, r the ratio of the last two
    |d - 1|, is below tol units."""
    one = 1 << prec
    br, bi = X + (1 - c) * one, -T
    er, ei = br, bi
    hr, hi = _cdiv(one, 0, br, bi, prec)
    cr = ci = prev = None
    for i in range(1, _KERNEL_STEPS):
        ar, ai = i * (c - i) * one, i * T
        br += 2 * one
        qr, qi = _cdiv(ar, ai, er, ei, prec)
        er, ei = br + qr, bi + qi
        if cr is None:  # C_1 = b_1 + a_1/C_0 with C_0 = inf
            cr, ci = br, bi
        else:
            qr, qi = _cdiv(ar, ai, cr, ci, prec)
            cr, ci = br + qr, bi + qi
        dr, di = _cdiv(cr, ci, er, ei, prec)
        hr, hi = (hr * dr - hi * di) >> prec, (hr * di + hi * dr) >> prec
        eps = abs(dr - one) + abs(di)
        if prev is not None and eps * eps <= tol * (prev - eps):
            return hr, hi
        prev = eps
    raise ConvergenceError(f"Legendre continued fraction at c = {c} exceeds {_KERNEL_STEPS} steps")


def erfc(y, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """Complementary error function (2/sqrt(pi)) int_y^inf e^(-t^2) dt.

    Standard normalization, so erfc(-y) = 2 - erfc(y).  (The source
    lemma's 'erfc(-y) = 1 - erfc(y)' line is a typo for this.)
    """
    with mp.workdps(ctx.working_dps):
        return +mpmath.erfc(mpf(y))


def tricomi_lhs(n: int, y, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """gamma(n+1, n - y*sqrt(2n)) / Gamma(n+1), the exact side of the
    transition-region lemma."""
    with mp.workdps(ctx.working_dps + 10):
        x = n - mpf(y) * mpmath.sqrt(2 * n)
        if x < 0:
            raise ValueError("argument n - y*sqrt(2n) must be nonnegative")
        return +(mpf(1) - reg_gamma_Q(n + 1, x, ctx))


def tricomi_rhs(n: int, y, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """erfc(y)/2 - (sqrt(2)/(3 sqrt(pi n))) (1+y^2) e^(-y^2); matches
    tricomi_lhs to O(1/n) uniformly on |y| <= 3."""
    with mp.workdps(ctx.working_dps + 10):
        y = mpf(y)
        corr = mpmath.sqrt(2) / (3 * mpmath.sqrt(mp.pi * n)) * (1 + y * y) * mpmath.exp(-y * y)
        return +(erfc(y, ctx) / 2 - corr)


def gamma_rational(j: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """Gamma(j/7) for j in 1..6."""
    if not 1 <= j <= 6:
        raise ValueError("j must be in 1..6")
    with mp.workdps(ctx.working_dps):
        return +mpmath.gamma(mpf(j) / 7)


def digamma(x, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    with mp.workdps(ctx.working_dps):
        x = mpf(x)
        if x <= 0:
            raise ValueError("x must be positive")
        return +mpmath.psi(0, x)


def _L_chi7_any(s, order: int = 0):
    """L(s, chi_{-7}) (order 0), or the pair (L(s), L'(s)) from one pass
    over the Hurwitz values (order 1), at the current working precision,
    via the Hurwitz decomposition L(s) = 7^(-s) sum_r chi(r) zeta(s, r/7).

    s may be complex.  At s = 1 each zeta(s, r/7) has a simple pole but
    sum_r chi(r) = 0, so L(1) is the sum of the constant terms -psi(r/7).
    L'(1) comes from s = 0 by the functional equation of the odd
    character: Lerch's zeta'(0, a) = log Gamma(a) - log(2pi)/2 gives
    L(0) = 1 and L'(0) = sum_r chi(r) log Gamma(r/7) - log 7, and
    L'/L(1) = -L'/L(0) - log(7/pi) + gamma + log 2.
    """
    s = mpmath.mpmathify(s)
    if s == 1:
        L1 = mpmath.fsum(CHI7[r] * (-mpmath.psi(0, mpf(r) / 7)) for r in range(1, 7)) / 7
        if order == 0:
            return L1
        dL0 = mpmath.fsum(CHI7[r] * mpmath.loggamma(mpf(r) / 7) for r in range(1, 7)) - mpmath.log(7)
        return L1, L1 * (-dL0 - mpmath.log(7 / mp.pi) + mp.euler + mpmath.log(2))
    base = mpmath.fsum(CHI7[r] * mpmath.zeta(s, mpf(r) / 7) for r in range(1, 7))
    p = mpmath.power(7, -s)
    if order == 0:
        return p * base
    dbase = mpmath.fsum(CHI7[r] * mpmath.zeta(s, mpf(r) / 7, 1) for r in range(1, 7))
    return p * base, p * (dbase - mpmath.log(7) * base)


def dirichlet_L_chi7(s, order: int = 0, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """L(s, chi_{-7}) (order=0) or L'(s, chi_{-7}) (order=1) for real s > 0."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    with mp.workdps(ctx.working_dps + 5):
        s = mpf(s)
        if s <= 0:
            raise ValueError("s must be positive")
        value = _L_chi7_any(s, order)
        return +mpmath.re(value[1] if order else value)


@lru_cache(maxsize=None)
def _constants_cached(digits: int, guard: int):
    ctx = PrecisionContext(digits, guard)
    with mp.workdps(ctx.working_dps + 5):
        omega = (
            gamma_rational(1, ctx) * gamma_rational(2, ctx) * gamma_rational(4, ctx)
            / (4 * mp.pi**2)
        )
        vals = {
            "euler_gamma": +mp.euler,
            "zeta_prime_at_2": +mpmath.zeta(2, derivative=1),
            "omega": +omega,
            "two_pi_over_sqrt7": +(2 * mp.pi / mpmath.sqrt(7)),
            "three_pi_over_sqrt7": +(3 * mp.pi / mpmath.sqrt(7)),
        }
    return vals


def constants(ctx: PrecisionContext = DEFAULT_CTX) -> dict:
    """Named constants of the lab at the context precision.

    euler_gamma and zeta'(2) come from mpmath's Brent-McMillan and
    Euler-Maclaurin implementations; omega is the Chowla-Selberg-type
    period Gamma(1/7)Gamma(2/7)Gamma(4/7)/(4 pi^2).
    """
    return dict(_constants_cached(ctx.digits, ctx.guard))


# ---------------------------------------------------------------------------
# float64 kernels
# ---------------------------------------------------------------------------

# B_2k/(2k(2k-1)), k = 1..7: log Gamma(w) = (w-1/2) log w - w + log(2pi)/2
# + sum_{k<=K} _STIRLING[k-1] w^(1-2k) + R_K with |R_K| <= |a_{K+1}|
# sec^(2K+2)(arg w/2)/|w|^(2K+1) <= |a_{K+1}|/(Re w)^(2K+1), since
# cos^(2K+1)(x)/cos^(2K+2)(x/2) <= 1 on [0, pi/2).  That is below 2e-18
# once Re w >= _ENOUGH[-K]: 6, 5, 4 and 3 terms from Re w = 15.6, 23, 42
# and 117, all 7 from 12 (a_8 = B_16/240).  Differentiated, psi(w) =
# log w - 1/(2w) - sum_k _PSI[k-1] w^(-2k), with a remainder (2K+1)/Re w
# times as large, below 3e-18.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_PSI = tuple((2 * k - 1) * a for k, a in enumerate(_STIRLING, start=1))
_ENOUGH = tuple(
    (abs(a) / 2e-18) ** (1 / (2 * k + 1)) for k, a in enumerate(_STIRLING[1:] + (3617 / 122400,), start=1)
)[::-1]  # ascending: Re w >= _ENOUGH[-K] suffices for K terms
_STIRLING_MIN = 12
_HALF_LOG_2PI = 0.5 * log(2.0 * fpi)


def _stirling_setup(c, t):
    """z = c + it, the one shift k = max(0, ceil(12 - min c)) that every
    entry of z takes, w = z + k, so that Re w >= 12, and the number of
    series terms that Re w needs.  ValueError unless c >= 1."""
    low = c.min() if isinstance(c, np.ndarray) else c
    if low < 1:
        raise ValueError("c must be >= 1")
    k = max(0, ceil(_STIRLING_MIN - low))
    terms = len(_ENOUGH) + 1 - bisect(_ENOUGH, max(_STIRLING_MIN, low))  # low bounds Re w
    z = c + 1j * t
    return z, k, z + k, terms


def _shifted(value, f, z, k):
    """value - sum_{j < k} f(z + j), with the one shift k of every entry."""
    for j in range(k):
        value = value - f(z + j)
    return value


def _horner(coeffs, r2):
    """sum_k coeffs[k] r2^k."""
    acc = coeffs[-1]
    for a in coeffs[-2::-1]:
        acc = a + r2 * acc
    return acc


def _stirling_sum(w, terms=len(_STIRLING)):
    """sum_{k<=terms} _STIRLING[k-1] w^(1-2k)."""
    r = 1.0 / w
    return r * _horner(_STIRLING[:terms], r * r)


def loggamma_f64(c, t):
    """log Gamma(c + it) in float64, on the branch continuous from the
    positive real axis (mpmath's loggamma), for real c >= 1.

    c is a scalar, or an array when t is a scalar; c and t broadcast.
    Stirling's series, with as many terms as Re w needs, at w = z + k
    with Re w >= 12, less the principal logs sum_{j<k} log(z+j), each of
    which is on that branch because Re(z + j) > 0.  The series'
    truncation error is below 2e-18; float64 rounding adds a few ulp of
    |w log w| and of each shift log."""
    z, k, w, terms = _stirling_setup(c, t)
    return _shifted((w - 0.5) * np.log(w) - w + _HALF_LOG_2PI + _stirling_sum(w, terms), np.log, z, k)


def digamma_f64(c, t=0.0):
    """psi(c + it) = Gamma'/Gamma in float64 for real c >= 1, complex:
    the derivative of loggamma_f64's series at w = z + k, less
    sum_{j<k} 1/(z+j).  c is a scalar, or an array when t is a scalar."""
    z, k, w, terms = _stirling_setup(c, t)
    r2 = 1.0 / (w * w)
    return _shifted(np.log(w) - 0.5 / w - r2 * _horner(_PSI[:terms], r2), np.reciprocal, z, k)


# stirlerr(n) = log n! - log(sqrt(2pi n) (n/e)^n) for n = 0..15 (Loader's
# table, to 17 digits); above 15 it is _stirling_sum(n), whose first
# omitted term is below 5e-18 of the sum.
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)


def _bd0(c, x: np.ndarray) -> np.ndarray:
    """Loader's deviance c log(c/x) + x - c, for a scalar c or an array c
    that broadcasts against x.  Where |c - x| < 0.1 (c + x) the direct
    form cancels, so there it is (c-x) v + 2c sum_j v^(2j+1)/(2j+1) with
    v = (c-x)/(c+x); 8 terms leave a relative remainder below
    2 * 0.1^17/19 < 1.1e-18.  Each entry is the same float arithmetic
    whatever the shapes, so an array of c gives the rows of the scalar
    calls bit for bit."""
    d = c * np.log(c / x) + x - c
    near = np.abs(c - x) < 0.1 * (c + x)
    if near.any():
        cn, xn = np.broadcast_to(c, d.shape)[near], np.broadcast_to(x, d.shape)[near]
        v = (cn - xn) / (cn + xn)
        v2 = v * v
        s = (cn - xn) * v
        e = 2.0 * cn * v
        for j in range(1, 9):
            e = e * v2
            s = s + e / (2 * j + 1)
        d[near] = s
    return d


_Q_BLOCK = 32  # Poisson masses of reg_gamma_Q_f64 formed in one 2-D round


def reg_gamma_Q_f64(c_max: int, x):
    """Q(c, x) = Gamma(c, x)/Gamma(c) in float64 at the array x > 0 for
    c = 1, 2, ..., c_max, yielded in order as fresh arrays; ValueError
    for c_max < 1.

    Q(1, x) = e^(-x) and Q(c+1, x) = Q(c, x) + e^(-x) x^c/c!, a sum of
    positive terms.  Each Poisson mass is Loader's
    exp(-stirlerr(c) - bd0(c, x))/sqrt(2pi c), correct to a few ulp
    times bd0 where e^(-x) x/c recurrences would underflow (x > 745).
    The masses of _Q_BLOCK consecutive c are one (c, x) array round of
    _bd0 and exp, added to the running sum row by row, so every Q is the
    one-c-at-a-time ladder's bit for bit."""
    if c_max < 1:
        raise ValueError(f"c_max must be >= 1, got {c_max}")
    return _q_ladder(int(c_max), np.asarray(x, dtype=float))


def _q_ladder(c_max: int, x: np.ndarray):
    """reg_gamma_Q_f64's generator, once c_max is checked."""
    q = np.exp(-x)
    yield q
    for lo in range(1, c_max, _Q_BLOCK):
        cs = range(lo, min(lo + _Q_BLOCK, c_max))
        err = [_STIRLERR[c] if c < len(_STIRLERR) else float(_stirling_sum(float(c))) for c in cs]
        c = np.array(cs, dtype=float)[:, None]
        masses = np.exp(-np.array(err)[:, None] - _bd0(c, x)) / np.sqrt(2.0 * fpi * c)
        for mass in masses:
            q = q + mass
            yield q
