"""Arbitrary-precision special functions used throughout the lab.

Everything takes a PrecisionContext (decimal digits + guard digits) and
returns mpmath values rounded at the requested precision.  The pieces
are mpmath's: the regularized incomplete gamma Q(n,x) is its gammainc,
and erfc, digamma, Hurwitz zeta and Gamma use its Euler-Maclaurin /
asymptotic-series methods.  This module fixes their working precision
and the lab's conventions around them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import mpmath
from mpmath import mp, mpf

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


def policy_digits(k: int, base: int = 64) -> int:
    """Precision policy for character exponent k: digits >= 40 + 0.02*k."""
    return max(base, 40 + ceil(0.02 * k))


def reg_gamma_Q(n: int, x, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """Regularized upper incomplete gamma Q(n, x) = Gamma(n,x)/Gamma(n)
    for a positive integer n and x >= 0, by mpmath's gammainc at
    working precision plus 10 guard digits."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    with mp.workdps(ctx.working_dps + 10):
        x = mpf(x)
        if x < 0:
            raise ValueError("x must be nonnegative")
        return mpmath.gammainc(int(n), x, regularized=True)


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
