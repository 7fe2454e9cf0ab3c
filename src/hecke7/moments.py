"""Family moments of central values and the shifted-moment arithmetic.

The family is L(1/2, chi^(4n-3)), n = 1..N (always even functional
equation).  Moments:

    M_r(N) = (1/N) sum_{n<=N} L(1/2, chi^(4n-3))^r.

The sweep evaluates the incomplete-gamma series in float64 (coefficients
from the shared prime table, Q from specfun.reg_gamma_Q_f64) into a
read-only module store, rebuilt for a larger N and validated against the
arbitrary-precision series route on a fixed subsample.  The module also
houses the multiplicative averages delta(m), delta(l,m), delta_mu(p^m, p^l), a
family-average oracle for them over the prime table, and the
local/global Euler factors F(alpha,beta) of the shifted second moment.
Every shift of F, of the ratios product A (density) and of their brute
oracles is read by _shift.  Both brute oracles read their arguments
through _oracle_args and run one body, _brute_sum, on integer rows:
delta(p^i, p^j), j = 0..J, for F, and _mu_row's delta_mu(p^i, p^j),
j = 0, 1, 2, for A.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import islice
from math import exp, isqrt, log
from operator import mul

import numpy as np
import mpmath
from mpmath import mp, mpf, mpc
from mpmath.libmp import from_man_exp, to_fixed

from . import field
from .central import BETA, _member, central_value_series, series_truncation
from .specfun import (
    CHI7,
    PrecisionContext,
    DEFAULT_CTX,
    PrecisionError,
    constants,
    digamma,
    dirichlet_L_chi7,
    reg_gamma_Q_f64,
    _finite,
    _integer,
    _L_chi7_any,
)

SWEEP_CAP = 2000  # family-size cap for the desk-scale sweep
_VALIDATION_SUBSAMPLE = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 469, 610, 987, 1597, SWEEP_CAP)
_VALIDATION_TOL = 1e-9
_SWEEP_BLOCK = 32  # members whose coefficient rows the sweep reads at once


@dataclass(frozen=True)
class MomentReport:
    r: int
    N: int
    empirical: float
    predicted_main: float
    predicted_constant_form: float
    residual: float


@dataclass(frozen=True)
class EulerFactorValue:
    p: int
    closed: complex
    brute: complex | None
    cutoff: int | None


# ---------------------------------------------------------------------------
# fast central-value sweep
# ---------------------------------------------------------------------------


def _build_sweep(N: int) -> np.ndarray:
    """The first N central values, read-only; PrecisionError unless those
    in _VALIDATION_SUBSAMPLE match the 20-digit series route.

    Member n's value is 2 sum_{m<=M} a(m) m^(-1/2) Q(c, beta m), one
    np.dot over m = 1..M.  The Q ladder runs only on the table's support,
    about a quarter of the m, and each Q(c) is scattered into a zero row of
    length M: off the support a(m) is an exact zero, so the products and
    the dot are those of Q on every m, bit for bit.  Coefficient rows
    come _SWEEP_BLOCK members at a time."""
    c_max = _member(N).c
    M = series_truncation(c_max, 11)
    table = field.prime_table(M)
    ms = table.support()
    inv_sqrt_m = 1.0 / np.sqrt(np.arange(1, M + 1))
    qs = islice(reg_gamma_Q_f64(c_max, BETA * ms), 0, None, 2)  # Q(c, x_m) at each member nu's c
    q = np.zeros(M)
    out = np.zeros(N)
    for lo in range(0, N, _SWEEP_BLOCK):
        block = table.coeffs(_member(np.arange(lo + 1, min(lo + _SWEEP_BLOCK, N) + 1)).k)[:, 1:]
        for i, (a, q_support) in enumerate(zip(block, qs), start=lo):
            q[ms - 1] = q_support
            out[i] = 2.0 * float(np.dot(a * inv_sqrt_m, q))
    ctx = PrecisionContext(digits=20)
    for nu in _VALIDATION_SUBSAMPLE:
        if nu > N:
            break
        err = abs(out[nu - 1] - float(central_value_series(_member(nu).c, ctx).value))
        if err > _VALIDATION_TOL:
            raise PrecisionError(f"sweep validation failed at n={nu}: |fast - mp| = {err:.3e}")
    out.setflags(write=False)
    return out


_SWEEP = np.zeros(0)
_SWEEP_LOCK = threading.Lock()


def sweep_central_values(N: int) -> np.ndarray:
    """L(1/2, chi^(4n-3)) for n = 1..N in float64: a read-only view of the
    shared store _SWEEP, which is rebuilt and validated for every member
    whenever a larger N is asked for."""
    global _SWEEP
    N = _integer(N, "N", hi=SWEEP_CAP)
    with _SWEEP_LOCK:
        if len(_SWEEP) < N:
            _SWEEP = _build_sweep(N)
        return _SWEEP[:N]


def empirical_moment(r: int, N: int, ctx: PrecisionContext = DEFAULT_CTX) -> MomentReport:
    """M_r(N) with its prediction: 2pi/sqrt(7) for r=1, the exact-digamma
    conjecture form for r=2 (reduced log N + C form reported alongside).
    r and then N (by sweep_central_values) are read before any work."""
    r = _integer(r, "moment order r", hi=2)
    vals = sweep_central_values(N)
    N = len(vals)
    emp = float(np.mean(vals**r))
    if r == 1:
        pred = float(constants(ctx)["two_pi_over_sqrt7"])
        pred_const = pred
    else:
        displayed, reduced = m2_conjecture_main(N, ctx)
        pred, pred_const = float(displayed), float(reduced)
    return MomentReport(
        r=r,
        N=N,
        empirical=emp,
        predicted_main=pred,
        predicted_constant_form=pred_const,
        residual=emp - pred,
    )


def m2_conjecture_main(N: int, ctx: PrecisionContext = DEFAULT_CTX):
    """Second-moment main term, both shapes.

    displayed: (3pi/sqrt7)(gamma + f1/f0 - log(2pi/7) + (1/N) sum_{n<=N}
               psi(2n-1)), f1/f0 = 3L'/L(1) - 2 zeta'/zeta(2) + log7/8,
    reduced:   (3pi/sqrt7)(log N + C),
    C = 4 gamma - 3 log(Gamma(1/7)Gamma(2/7)Gamma(4/7) /
        (Gamma(3/7)Gamma(5/7)Gamma(6/7))) - 2 zeta'/zeta(2) + log7/8
        + log 7 pi^2 + 3 log 2 - 1.

    Returns (displayed, reduced) as mpf and asserts they agree within the
    digamma-average finite-size gap (O(log N / N), margin 20x).

    The shifts 2n - 1 are odd, and psi(c + 1) = psi(c) + 1/c, so
    psi(2n - 1) = psi(1) + H_(2n-2) and the average is psi(1) plus
    (1/N) sum_{j <= 2N-2} (N - ceil(j/2))/j: one digamma call and one
    fsum of rationals, in place of N digamma calls.
    """
    N = _integer(N, "N")
    with mp.workdps(ctx.working_dps):
        cs = constants(ctx)
        g = mp.euler
        zpz2 = cs["zeta_prime_at_2"] / mp.zeta(2)
        lead = cs["three_pi_over_sqrt7"]
        harmonic = mpmath.fsum(mpf(N - (j + 1) // 2) / j for j in range(1, 2 * N - 1))
        psi_avg = digamma(1, ctx) + harmonic / N
        displayed = lead * (g + f1_constant(ctx) / f0_constant(ctx) - mp.log(2 * mp.pi / 7) + psi_avg)
        gprod = (
            mp.gamma(mpf(1) / 7) * mp.gamma(mpf(2) / 7) * mp.gamma(mpf(4) / 7)
        ) / (mp.gamma(mpf(3) / 7) * mp.gamma(mpf(5) / 7) * mp.gamma(mpf(6) / 7))
        C = (
            4 * g
            - 3 * mp.log(gprod)
            - 2 * zpz2
            + mp.log(7) / 8
            + mp.log(7 * mp.pi**2)
            + 3 * mp.log(2)
            - 1
        )
        reduced = lead * (mp.log(N) + C)
        gap = abs(displayed - reduced)
        allowance = 20 * mp.log(N + 2) / N
        if gap > allowance:
            raise AssertionError(
                f"conjecture forms disagree at N={N}: gap {float(gap):.4f} "
                f"> allowance {float(allowance):.4f}"
            )
        return +displayed, +reduced


# ---------------------------------------------------------------------------
# multiplicative averages delta
# ---------------------------------------------------------------------------


def delta_one(m: int) -> int:
    """<a_n(m)>: 0 at non-squares, else the Legendre symbol (sqrt(m)/7)."""
    m = _integer(m, "m")
    r = isqrt(m)
    if r * r != m:
        return 0
    return CHI7[r % 7]


def _delta_row(chi: int, i: int, J: int) -> list[int]:
    """delta(p^i, p^j) for j = 0..J at a prime p with chi = chi_{-7}(p):
    min(i, j) + 1 when split (chi = 1) and i + j is even, (-1)^((i+j)/2)
    when inert (chi = -1) and i, j are even, 1 at (0, 0) when ramified
    (chi = 0), and 0 elsewhere."""
    row = [0] * (J + 1)
    if chi == 1:
        row[i % 2 :: 2] = [min(i, j) + 1 for j in range(i % 2, J + 1, 2)]
    elif chi == -1 and i % 2 == 0:
        row[::2] = [(-1) ** ((i + j) // 2) for j in range(0, J + 1, 2)]
    elif i == 0:
        row[0] = 1
    return row


def delta_two(l: int, m: int) -> int:
    """<a_n(l) a_n(m)>, assembled multiplicatively from the prime-power table."""
    l, m = _integer(l, "l"), _integer(m, "m")
    fl, fm = field.factorint(l), field.factorint(m)
    out = 1
    for p in set(fl) | set(fm):
        out *= _delta_row(CHI7[p % 7], fl.get(p, 0), fm.get(p, 0))[-1]
        if out == 0:
            return 0
    return out


def _mu_row(chi: int, i: int) -> list[int]:
    """delta_mu(p^i, p^j) for j = 0, 1, 2 at a prime p with chi =
    chi_{-7}(p): off p = 7, mu_n(p) = -a_n(p) and mu_n(p^2) = 1, so the row
    is (d_0, -d_1, d_0) for d = _delta_row(chi, i, 1); at p = 7 only the
    (0, 0) entry, 1, is kept."""
    d = _delta_row(chi, i, 1)
    return [d[0], -d[1], d[0] if chi else 0]


def delta_mu(p: int, m_exp: int, l_exp: int) -> int:
    """<a_n(p^m) mu_n(p^l)>: _mu_row's entry, and 0 for l >= 3, where
    mu_n(p^l) = 0."""
    m_exp, l_exp = _integer(m_exp, "m_exp", lo=0), _integer(l_exp, "l_exp", lo=0)
    chi = field._prime_chi(p)
    return _mu_row(chi, m_exp)[l_exp] if l_exp < 3 else 0


def empirical_delta_oracle(m: int, l: int, N: int, ctx: PrecisionContext = DEFAULT_CTX) -> float:
    """(1/N) sum_{n<=N} a_n(m) a_n(l), with a_n(m) read from the shared
    prime table as the product over p^e || m of its U-sequence value at
    exponent 4n - 3; converges to the closed forms at rate O(1/N)."""
    m, l, N = _integer(m, "m", hi=130), _integer(l, "l", hi=130), _integer(N, "N", hi=10**4)
    ks = _member(np.arange(1, N + 1)).k

    def coeffs(x: int) -> np.ndarray:
        a = np.ones(N)
        for p, e in field.factorint(x).items():
            # the last row of the cut to p is p's own
            a *= field.prime_table(p)[-1:].chebyshev(ks, e, 1.0)[:, 0, e]
        return a

    am = coeffs(m)
    al = am if l == m else coeffs(l)
    return float(np.mean(am * al))


# ---------------------------------------------------------------------------
# shifted-moment Euler factors
# ---------------------------------------------------------------------------


def _shift(s):
    """s as an mpmath number (mpmathify, at the current precision), once
    it is a number, finite, with |Re s| < 1/4: the one reader of the
    shifts of F, A and their brute oracles, called at each entry before
    any work.  ValueError for bools and strings, which mpmathify would
    read as numbers, and for a shift outside the domain."""
    if isinstance(s, (bool, str)):
        raise ValueError(f"shift must be a number, got {s!r}")
    v = mpmath.mpmathify(s)
    if not (mpmath.isfinite(v) and abs(mpmath.re(v)) < 0.25):
        raise ValueError(f"shift {s} outside |Re| < 1/4 or not finite")
    return v


def F_shift(alpha, beta, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """F(alpha,beta) = L(1+2a)L(1+2b)L(1+a+b)(1-7^(-1-a-b)) /
    (zeta(2+2a+2b)(1-7^(-2-2a-2b))), the arithmetic factor of the
    shifted second moment; F(0,0) = 3pi/(4 sqrt 7)."""
    with mp.workdps(ctx.working_dps):
        a, b = _shift(alpha), _shift(beta)
        La = _L_chi7_any(1 + 2 * a, 0)
        Lb = _L_chi7_any(1 + 2 * b, 0)
        Lab = _L_chi7_any(1 + a + b, 0)
        num = La * Lb * Lab * (1 - mpf(7) ** (-1 - a - b))
        den = mp.zeta(2 + 2 * a + 2 * b) * (1 - mpf(7) ** (-2 - 2 * a - 2 * b))
        return mpc(num / den)


def f0_constant(ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """f0 = F(0,0) = 3 pi / (4 sqrt 7)."""
    with mp.workdps(ctx.working_dps):
        return +(3 * mp.pi / (4 * mp.sqrt(7)))


def f1_constant(ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """f1 = f0 (3 L'/L(1) - 2 zeta'/zeta(2) + log 7 / 8), the shift
    derivative dF/dalpha at (0,0)."""
    with mp.workdps(ctx.working_dps):
        L1 = dirichlet_L_chi7(1, 0, ctx)
        L1p = dirichlet_L_chi7(1, 1, ctx)
        zpz2 = constants(ctx)["zeta_prime_at_2"] / mp.zeta(2)
        return +(f0_constant(ctx) * (3 * L1p / L1 - 2 * zpz2 + mp.log(7) / 8))


def _local_double_sum(x, y, rows) -> mpc:
    """sum_{i<=I, j<=J} rows[i][j] x^i y^j for I + 1 equal-length integer
    rows of J + 1 entries each: the brute Dirichlet series of one Euler
    factor, which visits every term.

    Let prec = mp.prec + 32.  The powers x^i and y^j come from repeated
    multiplication at prec + 20 bits, so for I, J < 2^19 each is within
    2^-prec of exact, relative.  Each y^j is then truncated to a multiple
    of 2^-prec in both parts, so for |y| <= 1 it is within 2.5 * 2^-prec
    of exact.  Each row sum_j rows[i][j] y^j is summed exactly in Python
    ints, and one mpmath.fdot of the rows against the x^i rounds once, to
    mp.prec.  Before that rounding the result is within

        4 (J+1) max|rows| sum_{i<=I} |x|^i 2^-prec

    of the exact sum.
    """
    if not rows:
        raise ValueError("cutoff must be nonnegative")
    prec = mp.prec + 32
    with mp.workprec(prec + 20):
        xs, ys = [mp.one], [mpc(1)]
        for _ in range(len(rows) - 1):
            xs.append(xs[-1] * x)
        for _ in range(len(rows[0]) - 1):
            ys.append(ys[-1] * y)
    yre = [to_fixed(v._mpc_[0], prec) for v in ys]
    yim = [to_fixed(v._mpc_[1], prec) for v in ys]
    sums = [
        mp.make_mpc((from_man_exp(sum(map(mul, row, yre)), -prec), from_man_exp(sum(map(mul, row, yim)), -prec)))
        for row in rows
    ]
    return mpmath.fdot(sums, xs)


def _closed_local(p: int, chi: int, a, b):
    """local_factor's closed form at p of class chi, for mpmath shifts
    a, b: u = p^(-1-2a), y = p^(-1-2b) and w = p^(-1-a-b) are products
    of p^(-a) and p^(-b), one exponential of log p each."""
    if chi == 0:
        return mpf(1)
    lp = mpmath.log(p)
    pa, pb = mpmath.exp(-a * lp), mpmath.exp(-b * lp)
    u, y = pa * pa / p, pb * pb / p
    if chi == 1:
        w = pa * pb / p
        return (1 + w) / ((1 - u) * (1 - w) * (1 - y))
    return 1 / ((1 + u) * (1 + y))


def local_factor(
    p: int,
    alpha,
    beta,
    mode: str = "closed",
    cutoff: int | None = None,
    ctx: PrecisionContext = DEFAULT_CTX,
) -> EulerFactorValue:
    """Local factor of sum delta(l,m) l^(-1/2-a) m^(-1/2-b) at p, for
    shifts with |Re| < 1/4.

    closed: split (1+w)/((1-u)(1-w)(1-y)) with u,y,w = p^(-1-2a),
    p^(-1-2b), p^(-1-a-b); inert ((1+u)(1+y))^(-1); p=7 gives 1.
    brute: the truncated double sum over delta(p^i, p^j), i,j <= cutoff,
    by default brute_cutoff_for(p, min Re shift).
    """
    if mode not in ("closed", "brute"):
        raise ValueError("mode must be 'closed' or 'brute'")
    with mp.workdps(ctx.working_dps):
        a, b, chi, p, cutoff = _oracle_args(p, alpha, beta, cutoff)
        closed = mpc(_closed_local(p, chi, a, b))
        if mode == "closed":
            return EulerFactorValue(p=p, closed=closed, brute=None, cutoff=None)
        cutoff, brute = _brute_sum(p, a, b, cutoff, lambda i, J: _delta_row(chi, i, J))
        return EulerFactorValue(p=p, closed=closed, brute=brute, cutoff=cutoff)


def _oracle_args(p, alpha, beta, cutoff):
    """(a, b, chi, p, cutoff): the arguments of both brute oracles
    (local_factor and density.ratios_local_brute), read in this order
    before any work: the shifts by _shift, at the current precision, p as
    an int prime of class chi = chi_{-7}(p) (field._prime_chi), and the
    cutoff as an integer >= 0, or None."""
    a, b = _shift(alpha), _shift(beta)
    return a, b, field._prime_chi(p), int(p), None if cutoff is None else _integer(cutoff, "cutoff", lo=0)


def _brute_sum(p: int, a, b, cutoff: int | None, row):
    """(cutoff, brute sum): the one body of both brute oracles.  The cutoff
    I is brute_cutoff_for(p, min Re shift) when None; the sum is
    _local_double_sum of x = p^(-1/2-a) and y = p^(-1/2-b) against the
    integer rows row(i, I), i = 0..I, all of one length, at the current
    precision."""
    if cutoff is None:
        cutoff = brute_cutoff_for(p, float(min(mpmath.re(a), mpmath.re(b))))
    x, y = (mpf(p) ** (-(mpf(1) / 2 + s)) for s in (a, b))
    return cutoff, _local_double_sum(x, y, [row(i, cutoff) for i in range(cutoff + 1)])


def brute_cutoff_for(p: int, min_re_shift: float, tol: float = 1e-13) -> int:
    """Smallest cutoff (floor 60) whose geometric tail in the brute double
    sum is below tol: axis decay rate p^(-(1/2+min_re_shift)) per step,
    which the shift domain |Re| < 1/4 keeps below 1.  Both brute oracles
    take it as their default cutoff.  p is an integer >= 2, min_re_shift a
    real shift (_shift) and tol finite and positive, all read before the
    loop."""
    p = _integer(p, "prime p", lo=2)
    s = _shift(min_re_shift)
    if not _finite(tol, "tol") > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    rate = (0.5 + float(s)) * log(p)
    c = 60
    while True:
        # tail over max(i,j) > c: (min+1) growth absorbed by factor (c+2)^2
        bound = 3.0 * (c + 2) ** 2 * exp(-rate * (c + 1)) / (1 - exp(-rate))
        if bound < tol:
            return c
        c += 4


def delta_series_product(alpha, beta, P: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """prod_{p<=P} local_factor(p).closed; converges (conditionally, at
    edge-of-critical-strip speed) to F(alpha,beta) zeta(1+alpha+beta).
    It reads p and its class from field.prime_classes(P), whose errors it
    raises, and leaves the shared prime table as it is."""
    with mp.workdps(ctx.working_dps):
        a, b = _shift(alpha), _shift(beta)
        primes, classes = field.prime_classes(P)
        acc = mpc(1)
        for p, chi in zip(primes.tolist(), classes.tolist()):
            acc *= _closed_local(p, chi, a, b)
        return acc
