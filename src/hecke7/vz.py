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
is one pass over lists of Python ints (index = degree): every new
coefficient is a short sum of neighbouring old ones, with the fixed
polynomials (x-7)(64x-7), 11x+7, R, R'/2 and 1-5x and the derivative
folded into integer weights, and trailing zeros trimmed.  Both
sequences are stored as tuples of ints in grow-only lists, extended one
recursion step at a time to the largest index asked for; readers divide
by the scale once, at the end.  The store payload grows about as k^3, so
an index above K_CAP raises ComputeCapError before any step: B(n) and the
exact central value take odd n <= 1501, the a-path n <= 751.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from threading import Lock

from mpmath import mp, mpf, factorial, pi, sqrt as mpsqrt

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
        return _horner(self.u, x), _horner(self.v, x)


def _horner(coeffs: tuple, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class ExactCentral:
    """Exact A(n), B(n) and the floating central value L(1/2, chi^(2n-1))."""

    n: int
    A: Fraction
    B: Fraction
    L: mpf


def _padded(p: tuple, lead: int, n: int) -> list:
    """p_{-lead}, ..., p_n as a list, zero off p's range: p_i sits at
    index lead + i."""
    return [0] * lead + [*p] + [0] * (n + 1 - len(p))


def _trimmed(out: list) -> tuple:
    """out without trailing zeros; the zero polynomial keeps one."""
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


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

    Coefficient by coefficient, with b = beta_k, e = beta_{k-1} and
    m = 21 * 2k(2k-1), where (x-7)(64x-7) = 49 - 455x + 64x^2 acting on
    b'_i = (i+1) b_{i+1} gives the terms in i:

    out_i = (42 - 56k + 455i) b_i + (32k - 64(i-1)) b_{i-1} - 49(i+1) b_{i+1}
            - m (7 e_i + 11 e_{i-1})
    """
    m = 21 * 2 * k * (2 * k - 1)
    n = max(len(bk), len(bk1))  # out has degree <= n
    b, e = _padded(bk, 1, n + 1), _padded(bk1, 1, n)
    return _trimmed([
        (42 - 56 * k + 455 * i) * b[i + 1] + (32 * k - 64 * (i - 1)) * b[i]
        - 49 * (i + 1) * b[i + 2] - m * (7 * e[i + 1] + 11 * e[i])
        for i in range(n + 1)
    ])


def _a_step(k: int, ak: tuple, ak1: tuple) -> tuple:
    """alpha_{k+1} = (u, v) from alpha_k and alpha_{k-1} in the ring u + v*s.

    alpha_{k+1} = s (9x d/dx - 3(2k+1)) alpha_k - 9k^2 (1-5x) alpha_{k-1}

    With c = 3(2k+1), s (9x d/dx - c)(u + v s) is
    [9x(v'R + vR'/2) - cvR] + [9xu' - cu] s, and with R = 1 - 26x - 27x^2,
    R'/2 = -13 - 27x, coefficient by coefficient (alpha_{k-1} = u1 + v1 s):

    u_new_i = (9i - c) v_i + (26c + 117 - 234i) v_{i-1}
              + (27c + 243 - 243i) v_{i-2} - 9k^2 (u1_i - 5 u1_{i-1})
    v_new_i = (9i - c) u_i - 9k^2 (v1_i - 5 v1_{i-1})
    """
    (u, v), (u1, v1) = ak, ak1
    c, m = 3 * (2 * k + 1), 9 * k * k
    nu, nv = max(len(v) + 1, len(u1)), max(len(u) - 1, len(v1))  # degrees
    vp, u1p = _padded(v, 2, nu), _padded(u1, 1, nu)
    up, v1p = _padded(u, 0, nv), _padded(v1, 1, nv)
    new_u = [
        (9 * i - c) * vp[i + 2] + (26 * c + 117 - 234 * i) * vp[i + 1]
        + (27 * c + 243 - 243 * i) * vp[i] - m * (u1p[i + 1] - 5 * u1p[i])
        for i in range(nu + 1)
    ]
    new_v = [(9 * i - c) * up[i] - m * (v1p[i + 1] - 5 * v1p[i]) for i in range(nv + 1)]
    return _trimmed(new_u), _trimmed(new_v)


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
    if n < 1:
        raise ValueError("n must be a positive integer")
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
