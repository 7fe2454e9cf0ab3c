"""Special functions used throughout the lab, at two precisions.

Arbitrary precision: these take a PrecisionContext (decimal digits +
guard digits) and return mpmath values rounded at the requested
precision.  erfc, digamma, Hurwitz zeta and Gamma are mpmath's
Euler-Maclaurin / asymptotic-series methods; this module fixes their
working precision and the lab's conventions around them.  The incomplete
gamma is one fixed-point kernel (_Kernel) for x^(-s) Gamma(s, x),
s = c + it, which sums Python ints at the working precision plus guard
bits:
  * at integer order (t = 0), the finite Poisson sum
    e^(-x) sum_{k<c} x^k/k!, summed outward from its largest term;
  * at complex order, Gamma(s) less the lower series below a switch
    placed by cost, Legendre's continued fraction above it.
_upper_gamma_scaled runs it at single points x (reg_gamma_Q rescales it
to Q(n, x)); _upper_gamma_series sums it over x_m = rate m with integer
weights, the series of the central values and of the mp Hardy Z, with
every e^(-x_m) from one ladder and no mpf formed per term at t = 0.

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


# The incomplete-gamma kernel sums Python ints scaled by 2^prec, prec the
# current precision plus guard bits.  Every loop stops on a bound for
# what it leaves out and rounds by a few units of 2^-prec per step; the
# open-ended ones raise ConvergenceError after _KERNEL_STEPS steps, and
# the finite Poisson sum has fewer than c.  So _GUARD_BITS + bit_length(c)
# guard bits cover the rounding of one term, and bit_length(M) more that
# of M terms.
_KERNEL_STEPS = 1 << 16
_GUARD_BITS = _KERNEL_STEPS.bit_length() + 3
# The lower series takes about x - c + 1.3 sqrt(2 B x) steps at x, for
# B = log 2 times the current precision, and Legendre's fraction about
# B^2/(16 x) + 8 (Gautschi's exp(-4 sqrt(n x)) rate), each step costing
# about three series steps (measured at c = 3 and 5, t = 2.4 to 10, 25 to
# 60 digits).  At small c the two costs meet near x = B/5, past |s + 1|.
_SERIES_REACH = 0.2


class _Kernel:
    """One call's fixed point for x^(-s) Gamma(s, x), s = c + it (an
    integer c >= 1, real t), at the current precision plus guard bits
    for `terms` terms.

    term(X, lead, one) is w x^(-s) Gamma(s, x)/(Gamma(c) x^(-c)) scaled by
    2^prec for x = X 2^-prec and a weight w > 0 of the caller's, from
    lead = w mu, mu = e^(-x) x^(c-1)/(c-1)!, and from one(), which gives
    w x^(-it) Gamma(s)/Gamma(c) and is called only below the cut:

      * t = 0, x >= c - 1: the finite Poisson sum
        mu sum_{j<c} (c-1)!/(c-1-j)! x^(-j) (_poisson_down);
      * t = 0, x < c - 1: one() less mu x/c sum_j x^j c!/(c+j)!
        (_poisson_up);
      * t != 0, x < switch: one() less mu x sum_k x^k/(s)_(k+1)
        (DLMF 8.7.1, _lower_series);
      * t != 0, x >= switch: mu x times Legendre's continued fraction
        (DLMF 8.9.2, _legendre_cf).

    Each loop stops once what it leaves out is below tol units of 2^-prec,
    absolute, so a term of small weight stops early.  As
    |gamma(s, x)| <= gamma(c, x) <= Gamma(c), a term of weight 1 is within
    a few units of Gamma(c) x^(-c) 2^-prec; the cancellation of a sum down
    to |Gamma(s)| is the caller's to pay for in the current precision.

    The switch is the larger of |s + 1|, below which the fraction's
    stopping test can pass while it is still off by O(1) (at c = 191,
    x = 30 and 60), and _SERIES_REACH B, below which the lower series is
    the cheaper.  Up to the switch the lower series' terms can first grow,
    by the product G of their ratios x/|s + j| > 1, and every floor
    rounded before grows with them, so prec has log2 G more guard bits.
    """

    def __init__(self, c: int, t, terms: int = 1):
        bits = mp.prec
        switch = max(abs(complex(c + 1, t)), _SERIES_REACH * bits * log(2)) if t else c - 1
        growth = sum(max(0.0, log(switch / abs(complex(c + j, t)))) for j in range(1, int(switch) + 1)) if t else 0
        spare = _GUARD_BITS + c.bit_length()
        self.prec = prec = bits + spare + ceil(growth / log(2)) + terms.bit_length()
        self.tol = 1 << (spare - 2)  # truncation: 2^(-2) ulp of the current precision over all terms
        self.c, self.T, self.cut = c, to_fixed(mpf(t)._mpf_, prec), to_fixed(mpf(switch)._mpf_, prec)
        self.invs = []  # fixed-point 1/(s + k), k = 1, 2, ..., shared by every lower series

    def term(self, X: int, lead: int, one) -> tuple[int, int]:
        c, T, prec, tol = self.c, self.T, self.prec, self.tol
        lx = lead * X >> prec  # w mu x
        if X >= self.cut:
            if T:
                return _legendre_cf(c, T, X, lx, prec, tol)
            return _poisson_down(c, X, lead, prec, tol), 0
        if not T:
            return one()[0] - _poisson_up(c, X, lx // c, prec, tol), 0
        vr, vi = _cdiv(lx, 0, c << prec, T, prec)  # w mu x/s
        sr, si = _lower_series(T, X, vr, vi, self.invs, c, prec, tol)
        wr, wi = one()
        return wr - sr, wi - si


def _fixed(z, prec: int) -> tuple[int, int]:
    """(re z, im z) as ints scaled by 2^prec (floored)."""
    z = mpc(z)
    return to_fixed(z.real._mpf_, prec), to_fixed(z.imag._mpf_, prec)


def _upper_gamma_scaled(c: int, t, xs) -> list:
    """x^(-s) Gamma(s, x) for s = c + it (an integer c >= 1, real t) at
    each mpf x > 0 of xs, at the current precision prec: to a few ulps at
    t = 0, else within a few units of Gamma(c) x^(-c) 2^(-prec).

    Each x is one _Kernel term, with mu, e^(-x) and x^(-it) Gamma(s) from
    mpmath: of weight 1 below the cut (at t = 0, Q(c, x) > 1/2 there),
    of weight 1/mu above it, where the loops then run relative to the
    value."""
    kernel = _Kernel(c, t)
    prec = kernel.prec
    out = []
    with mp.workprec(prec):
        gamma_c = mpmath.factorial(c - 1)
        ratio = mpmath.gamma(mpc(c, t)) / gamma_c if t else 1
        for x in xs:
            X = to_fixed(x._mpf_, prec)
            if X >= kernel.cut:
                scale, lead = mpmath.exp(-x) / x, 1 << prec  # scale = Gamma(c) x^(-c) mu
            else:
                scale, lead = gamma_c / x**c, to_fixed((mpmath.exp(-x) * x ** (c - 1) / gamma_c)._mpf_, prec)
            vr, vi = kernel.term(X, lead, lambda: _fixed(x ** mpc(0, -t) * ratio, prec))
            out.append(scale * (mpc(mpf((vr, -prec)), mpf((vi, -prec))) if t else mpf((vr, -prec))))
    return out


def _upper_gamma_series(c: int, t, rate, coeffs):
    """sum_{m<=M} a_m x_m^(-s) Gamma(s, x_m) / (Gamma(c) rate^(-c)), an mpf
    at t = 0, else an mpc, for s = c + it, x_m = rate m, rate() in (0, 1)
    at the current precision, and the integers a_m = coeffs[m],
    m = 1, ..., M = len(coeffs).  Each term is within a few units of
    2^-prec, prec the current precision plus guard bits (see _Kernel).

    Term m is the _Kernel term of weight |a_m| m^(-c), with its sign, and
    no mpf is formed per term at t = 0:
      * x_m is m times one fixed-point rate at bit_length(M) more bits;
      * its lead, |a_m| m^(-c) mu(x_m) = |a_m| E_m/m, takes
        E_m = e^(-rate m) rate^(c-1)/(c-1)! from one ladder, a W-bit
        mantissa and its binary exponent multiplied by e^(-rate) and
        renormalized at each m.  A step rounds by under 2^(4-W) relative,
        so W = prec + bit_length(M) + 4 keeps M steps under 2^-prec;
      * the weight |a_m| m^(-c), asked for only below the cut, is one
        scaled-int division by m^c cut to W bits (_pow_top; M > c, so W
        has the bits of c that its error needs);
      * at t != 0 below the switch, x_m^(-it) Gamma(s)/Gamma(c) is one
        mpmath exponential of t log m.
    """
    M = len(coeffs)
    kernel = _Kernel(c, t, M)
    prec, g = kernel.prec, M.bit_length()
    W = prec + g + 4
    with mp.workprec(W + 8):
        rate = rate()
        B, step = to_fixed(rate._mpf_, prec + g), to_fixed(mpmath.exp(-rate)._mpf_, W)
        mant, e = mpmath.frexp(rate ** (c - 1) / mpmath.factorial(c - 1))
        E, R = to_fixed(mant._mpf_, W), W - e  # E_0 = E 2^-R
        ratio = rate ** mpc(0, -t) * mpmath.gamma(mpc(c, t)) / mpmath.factorial(c - 1) if t else None
    sr = si = 0
    with mp.workprec(prec):
        for m in range(1, M + 1):
            E = E * step >> W
            shift = W - E.bit_length()
            E, R = E << shift, R + shift
            a = coeffs[m]
            if not a:
                continue

            def one():
                F, e = _pow_top(m, c, W)
                w = (abs(a) << prec) // (F << e)
                if not t:
                    return w, 0
                zr, zi = _fixed(ratio * mpmath.expj(-t * mpmath.log(m)), prec)
                return w * zr >> prec, w * zi >> prec

            vr, vi = kernel.term(m * B >> g, (abs(a) * E >> (R - prec)) // m, one)
            sr, si = (sr + vr, si + vi) if a > 0 else (sr - vr, si - vi)
    return mpc(mpf((sr, -prec)), mpf((si, -prec))) if t else mpf((sr, -prec))


def _pow_top(m: int, c: int, W: int) -> tuple[int, int]:
    """(F, e) with F 2^e = m^c, F cut to its top W bits after each square
    and multiply.  A cut rounds by under 2^(1-W) relative and each later
    square doubles that, so the error is under 2^(2-W) c relative."""
    F, e = 1, 0
    for bit in bin(c)[2:]:
        F, e = F * F * (m if bit == "1" else 1), 2 * e
        cut = max(0, F.bit_length() - W)
        F, e = F >> cut, e + cut
    return F, e


def _poisson_down(c: int, X: int, lead: int, prec: int, tol: int) -> int:
    """lead sum_{j<c} (c-1)!/(c-1-j)! x^(-j) scaled by 2^prec, for
    x = X 2^-prec >= c - 1 and lead >= 0: terms t_0 = lead and
    t_(j+1) = t_j k/x with k = c-1-j, which do not grow.  The terms left
    after t_j sum to at most t_j k/(x - k), so the loop stops once
    k (t_j + tol) < tol floor(x), that bound below tol units.  1/x is one
    division, to prec bits relative."""
    xl = X >> prec
    shift = prec + xl.bit_length() + 1
    inv = (1 << (prec + shift)) // X  # 2^shift/x
    term = total = lead
    limit = tol * xl
    for k in range(c - 1, 0, -1):
        if term < limit and k * (term + tol) < limit:
            break
        term = term * k * inv >> shift
        total += term
    return total


def _poisson_up(c: int, X: int, lead: int, prec: int, tol: int) -> int:
    """lead sum_{j>=0} x^j c!/(c+j)! scaled by 2^prec, for
    x = X 2^-prec < c - 1 and lead >= 0: terms t_0 = lead and
    t_j = t_(j-1) x/a with a = c + j, falling.  The terms left after t_j
    sum to at most t_j x/(a + 1 - x), so the loop stops once
    ceil(x) (t_j + tol) < tol a, that bound below tol units, with
    a = c + j + 1 the next divisor."""
    xu = -(-X >> prec)
    term = total = lead
    for a in range(c + 1, c + _KERNEL_STEPS):
        if term < tol * a and xu * (term + tol) < tol * a:
            return total
        term = (term * X >> prec) // a
        total += term
    raise ConvergenceError(f"Poisson tail at c = {c} exceeds {_KERNEL_STEPS} terms")


def _lower_series(T: int, X: int, vr: int, vi: int, invs: list, c: int, prec: int, tol: int) -> tuple[int, int]:
    """sum_k v_k, v_0 = vr + i vi and v_k = v_(k-1) x/(s+k), in fixed
    point at prec bits (x = X 2^-prec, t = T 2^-prec), with
    invs[k-1] = 1/(s+k) kept and extended across calls.  Past the first
    k with |s + k| > x the ratios have modulus x/|s+k| < 1, falling in k,
    so the terms left after v_k sum to at most |v_k| r/(1 - r) for the
    next ratio's modulus r; the loop stops once that is below tol units,
    tested as (|v_k| + tol) r < tol with r at most
    ceil(x)/|c + k + 1 + i floor(|t|)|.  A floored negative term stays
    at -1, never 0, so the bound, not a zero term, ends the loop."""
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


def _legendre_cf(c: int, T: int, X: int, lead: int, prec: int, tol: int) -> tuple[int, int]:
    """lead/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))) = lead e^x x^(-s) Gamma(s, x)
    with b_i = x + 2i + 1 - s and a_i = -i(i - s), the even part of
    Legendre's continued fraction, in fixed point at prec bits, by
    modified Lentz from C_0 = inf.  D_i is kept as its reciprocal
    E_i = b_i + a_i/E_(i-1), which like C_i = b_i + a_i/C_(i-1) stays of
    the size of b_i, so each step rounds by a few units relative.  The
    value is h_0 = lead/b_0 times the step factors d_i = C_i/E_i; the
    loop stops once the estimate |h| |d_i - 1| r/(1 - r) of what the
    factors left change, r the ratio of the last two |d - 1|, is below
    tol units."""
    if not lead:
        return 0, 0
    one = 1 << prec
    br, bi = X + (1 - c) * one, -T
    er, ei = br, bi
    hr, hi = _cdiv(lead, 0, br, bi, prec)
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
        if prev is not None and eps * eps * (abs(hr) + abs(hi)) <= (tol * (prev - eps)) << prec:
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
