"""Exact central values via the A(n)/B(n) polynomial recursions.

The b-sequence is the canonical path: rational polynomials with

    21 b_{k+1}(x) = ((32kx - 56k + 42) - (x-7)(64x-7) d/dx) b_k(x)
                    - 2k(2k-1)(11x+7) b_{k-1}(x),   b_0 = 1/2, b_1 = 1,

giving B(2n+1) = b_n(0), A(n) = B(n)^2, and the exact central value

    L(1/2, chi^(2n-1)) = 2 (2pi/sqrt7)^n Omega^(2n-1) A(n) / (n-1)!.

The a-sequence lives in the quadratic extension u(x) + v(x)*s with
s^2 = (1+x)(1-27x):

    a_{k+1} = s (x d/dx - (2k+1)/3) a_k - (k^2/9)(1-5x) a_{k-1},
    a_0 = 1, a_1 = -s/3,

and gives A(n) = a_{n-1}(-1)/4, an independent cross-check of the
b-sequence; evaluating at x = -1 kills the s-component since s^2
vanishes there.  The printed initial value a_1 = -(1/3) sqrt((1-x)(1+27x))
carries a typo'd radicand: only s^2 = (1+x)(1-27x) throughout reproduces
the A(n) table (the other variant already fails at A(3)), so that is what
we use.

The recursion steps run in scaled integers: the stores hold

    beta_k = 2 * 21^k * b_k,   alpha_k = 9^k * a_k,

which have integer coefficients and obey integer recursions (see
_b_step and _a_step), so a step does no Fraction arithmetic.  Each step
works on object arrays of Python ints (index = degree) through
numpy.polynomial.polynomial, whose routines keep the object dtype and
trim trailing zeros.  Both sequences are stored as tuples of ints in
grow-only lists, extended one recursion step at a time to the largest
index asked for; readers divide by the scale once, at the end.  The
store payload grows about as k^3, so an index above K_CAP raises
ComputeCapError before any step: B(n) and the exact central value take
odd n <= 1501, the a-path n <= 751.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from threading import Lock

import numpy as np
from mpmath import mp, mpf, factorial, pi, sqrt as mpsqrt
from numpy.polynomial import polynomial as P

from .specfun import ComputeCapError, PrecisionContext, DEFAULT_CTX, _series_index, constants

@dataclass(frozen=True)
class VZPoly:
    """Element u(x) + v(x)*s of the recursion ring, s^2 = (1+x)(1-27x).

    Coefficients are exact rationals.  The b-sequence uses v = 0.
    """

    u: tuple
    v: tuple

    @staticmethod
    def make(u, v=None) -> "VZPoly":
        return VZPoly(tuple(u), tuple(v if v is not None else [Fraction(0)]))

    def eval_at(self, x) -> tuple[Fraction, Fraction]:
        """(u(x), v(x)); the element's value is u(x) + v(x)*s(x)."""
        x = Fraction(x)
        return P.polyval(x, self.u), P.polyval(x, self.v)


@dataclass(frozen=True)
class ExactCentral:
    """Exact A(n), B(n) and the floating central value L(1/2, chi^(2n-1))."""

    n: int
    A: Fraction
    B: Fraction
    L: mpf


def _ints(*coeffs) -> np.ndarray:
    """Object array of Python int coefficients, index = degree.

    The object dtype keeps the arithmetic exact: numpy.polynomial's
    polyder turns an int64 array into float64, and int64 would overflow.
    """
    return np.array(coeffs, dtype=object)


# (x-7)(64x-7) = 64x^2 - 455x + 49
_QUAD = _ints(49, -455, 64)
# the a-path radicand R = s^2 = (1+x)(1-27x) and R'/2
_R = _ints(1, -26, -27)
_HALF_DR = _ints(-13, -27)
_X = _ints(0, 1)
_11X_7 = _ints(7, 11)
_1_5X = _ints(1, -5)

# Largest index either store grows to, for a 200 MB peak-RSS budget per
# store: measured peaks 158 MB (b-store, k = 750, B(1501)) and 170 MB
# (a-store, k = 750, A(751)), against 331 MB for the b-store at k = 1000.
K_CAP = 750
_LOCK = Lock()  # guards the growth of _B and _A
_B = [(1,), (42,)]  # beta_k = 2 * 21^k * b_k as coefficient tuples
_A = [((1,), (0,)), ((0,), (-3,))]  # alpha_k = 9^k * a_k as (u, v)


def _b_step(k: int, bk: tuple, bk1: tuple) -> tuple:
    """beta_{k+1} from beta_k and beta_{k-1}.

    beta_{k+1} = ((32kx - 56k + 42) - (x-7)(64x-7) d/dx) beta_k
                 - 21 * 2k(2k-1)(11x+7) beta_{k-1}
    """
    bk, bk1 = _ints(*bk), _ints(*bk1)
    term = P.polysub(P.polymul(_ints(42 - 56 * k, 32 * k), bk), P.polymul(_QUAD, P.polyder(bk)))
    term = P.polysub(term, P.polymul(_11X_7, bk1) * (21 * 2 * k * (2 * k - 1)))
    return tuple(term)


def _a_step(k: int, ak: tuple, ak1: tuple) -> tuple:
    """alpha_{k+1} = (u, v) from alpha_k and alpha_{k-1} in the ring u + v*s.

    alpha_{k+1} = s (9x d/dx - 3(2k+1)) alpha_k - 9k^2 (1-5x) alpha_{k-1}
    """
    (u, v), (u1, v1) = [(_ints(*p), _ints(*q)) for p, q in (ak, ak1)]
    c = 3 * (2 * k + 1)
    # s*(9x d/dx - c)(u + v s) = [9x(v'R + vR'/2) - cvR] + [9xu' - cu]s
    new_u = P.polysub(
        P.polymul(_X, P.polyadd(P.polymul(P.polyder(v), _R), P.polymul(v, _HALF_DR))) * 9,
        P.polymul(v, _R) * c,
    )
    new_v = P.polysub(P.polymul(_X, P.polyder(u)) * 9, u * c)
    corr = 9 * k * k
    new_u = P.polysub(new_u, P.polymul(_1_5X, u1) * corr)
    new_v = P.polysub(new_v, P.polymul(_1_5X, v1) * corr)
    return tuple(new_u), tuple(new_v)


def _grow(seq: list, step, k: int) -> tuple:
    """seq[k], first extending seq one step at a time up to index k;
    ComputeCapError, before any step, for k > K_CAP."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > K_CAP:
        raise ComputeCapError(f"recursion index {k} exceeds cap {K_CAP}")
    with _LOCK:
        while len(seq) <= k:
            j = len(seq) - 1
            seq.append(step(j, seq[j], seq[j - 1]))
    return seq[k]


def _scaled(coeffs: tuple, scale: int) -> tuple:
    """The stored integer coefficients divided by the store's scale."""
    return tuple(Fraction(c, scale) for c in coeffs)


def b_poly(k: int) -> VZPoly:
    """The exact rational polynomial b_k(x)."""
    return VZPoly.make(_scaled(_grow(_B, _b_step, k), 2 * 21**k))


def a_poly(k: int) -> VZPoly:
    """The a-sequence element a_k = u + v*s (cross-check path)."""
    u, v = _grow(_A, _a_step, k)
    return VZPoly.make(_scaled(u, 9**k), _scaled(v, 9**k))


def A_from_a_path(n: int) -> Fraction:
    """A(n) = a_{n-1}(-1)/4 for odd n, via the quadratic-extension path.

    At x = -1 the radicand (1+x)(1-27x) vanishes, so the limit is just
    the u-component there.
    """
    n = _series_index(n)
    if n % 2 == 0:
        return Fraction(0)
    u = _grow(_A, _a_step, n - 1)[0]
    return Fraction(sum(u[0::2]) - sum(u[1::2]), 4 * 9 ** (n - 1))


def B_of(n: int) -> Fraction:
    """B(n) = b_{(n-1)/2}(0) for odd n; B(1) = 1/2, integer for n > 1."""
    n = _series_index(n)
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be an odd positive integer")
    k = (n - 1) // 2
    return Fraction(_grow(_B, _b_step, k)[0], 2 * 21**k)


def A_of(n: int) -> Fraction:
    """A(n): zero for even n (odd functional equation), else B(n)^2."""
    n = _series_index(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n % 2 == 0:
        return Fraction(0)
    b = B_of(n)
    return b * b


def central_value_exact(n: int, ctx: PrecisionContext = DEFAULT_CTX) -> ExactCentral:
    """L(1/2, chi^(2n-1)) = 2 (2pi/sqrt7)^n Omega^(2n-1) A(n)/(n-1)!."""
    n = _series_index(n)
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be an odd positive integer")
    A = A_of(n)
    B = B_of(n)
    omega = constants(ctx)["omega"]
    with mp.workdps(ctx.working_dps):
        L = 2 * (2 * pi / mpsqrt(7)) ** n * omega ** (2 * n - 1) / factorial(n - 1)
        L = L * mpf(A.numerator) / mpf(A.denominator)
        return ExactCentral(n=n, A=A, B=B, L=+L)


def congruence_check(max_n: int) -> list[tuple[int, int, bool]]:
    """B(n) = -n (mod 4) for odd 1 < n <= max_n: the nonvanishing sweep."""
    max_n = _series_index(max_n, "series index max_n")
    if max_n % 2 == 0:
        raise ValueError("max_n must be odd")
    out = []
    for n in range(3, max_n + 1, 2):
        B = B_of(n)
        ok = B.denominator == 1 and (B.numerator - (-n)) % 4 == 0
        out.append((n, B.numerator % 4 if B.denominator == 1 else -1, ok))
    return out
