"""Incomplete gamma kernels, transition-region lemma, Dirichlet L, constants,
and the float64 log Gamma, psi and Q(c, x) kernels against scipy and mpmath."""

from math import log

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.special import digamma as sp_digamma, gammaincc as sp_gammaincc, loggamma as sp_loggamma

from hecke7.central import BETA, T_CAP, series_truncation
from hecke7.specfun import (
    DEFAULT_CTX,
    MAX_DIGITS,
    PrecisionContext,
    PrecisionError,
    constants,
    digamma,
    digamma_f64,
    dirichlet_L_chi7,
    erfc,
    gamma_rational,
    loggamma_f64,
    reg_gamma_Q,
    reg_gamma_Q_f64,
    tricomi_lhs,
    tricomi_rhs,
    _STIRLERR,
    _stirling_sum,
    _upper_gamma_scaled,
)

CTX30 = PrecisionContext(30)
EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal
NORMAL = np.finfo(float).tiny
# the ranges the float64 kernels serve: c = 2n - 1 for n <= SWEEP_CAP = 2000
ODD_C = np.arange(1, 4000, 2)
TS = np.arange(0.0, 200.5, 0.5)


def test_precision_context_validation():
    with pytest.raises(PrecisionError):
        PrecisionContext(14)
    with pytest.raises(PrecisionError):
        PrecisionContext(MAX_DIGITS + 1)
    with pytest.raises(PrecisionError):
        PrecisionContext(30, guard=-1)
    ctx = PrecisionContext(20, guard=5)
    assert ctx.working_dps == 25
    assert ctx.eps == mpf(10) ** -20


def test_Q_boundary_and_base_cases():
    assert reg_gamma_Q(1, 0, CTX30) == 1
    with mp.workdps(40):
        for x in ("0.5", "3", "20"):
            assert abs(reg_gamma_Q(1, mpf(x), CTX30) - mpmath.exp(-mpf(x))) < mpf(
                10
            ) ** -29
    with pytest.raises(ValueError):
        reg_gamma_Q(0, 1.0)
    with pytest.raises(ValueError):
        reg_gamma_Q(3, -0.5)


def test_Q_against_mpmath():
    # two references: the finite sum e^(-x) sum_{i<n} x^i/i! summed term
    # by term in mpmath (all terms positive, no cancellation), and
    # mpmath's gammainc, a route independent of the kernel's fixed point
    with mp.workdps(60):
        for n in (1, 2, 7, 40, 250):
            for x in (mpf("0.1"), mpf(n) / 2, mpf(n), 2 * mpf(n)):
                got = reg_gamma_Q(n, x, CTX30)
                for want in (
                    mpmath.exp(-x) * mpmath.fsum(x**i / mpmath.factorial(i) for i in range(n)),
                    mpmath.gammainc(n, x, regularized=True),
                ):
                    assert abs(got - want) < mpf(10) ** -28, (n, x)


# The incomplete-gamma kernel at KERNEL_DPS digits against mpmath's
# gammainc at 20 digits more.  The bounds are 16 units of the kernel's
# working precision 2^-prec: relative at integer order, and in units of
# Gamma(c) x^(-c) at complex order (see _upper_gamma_scaled).
KERNEL_DPS = 60


def _gammainc_scaled(s, x):
    """x^(-s) Gamma(s, x) by mpmath at KERNEL_DPS + 20 digits."""
    with mp.workdps(KERNEL_DPS + 20):
        return mpmath.gammainc(s, x) * mpmath.power(x, -s)


def test_integer_order_kernel_against_gammainc():
    # both runs of the Poisson sum (down from k = n-1 for x >= n-1, else 1
    # less the tail up from k = n) at and beside the switch, at n/2 and
    # 2n, and at the series' last x = beta M; n = 3999 is the sweep's top
    with mp.workdps(KERNEL_DPS):
        unit = mpf(2) ** (4 - mp.prec)
        beta = 2 * mp.pi / 7
        for n in (1, 2, 7, 40, 250, 937, 3999):
            M = series_truncation(n, KERNEL_DPS)
            xs = [x for x in (mpf(n) / 2, mpf(n - 1), mpf(n), mpf(n + 1), 2 * mpf(n), beta * M) if x > 0]
            for x, got in zip(xs, _upper_gamma_scaled(n, 0, xs)):
                assert abs(got - _gammainc_scaled(n, x)) <= unit * _gammainc_scaled(n, x), (n, x)
                q = reg_gamma_Q(n, x, PrecisionContext(KERNEL_DPS - 10, guard=0))
                with mp.workdps(KERNEL_DPS + 20):
                    want = mpmath.gammainc(n, x, regularized=True)
                assert abs(q - want) <= unit * want, (n, x)


def test_complex_order_kernel_against_gammainc():
    # x = beta m on both sides of |s + 1|, where every ratio of the lower
    # series falls below 1: next to it, at m = 1 and m/3, and 3 m past
    # it; and on both sides of the switch between the lower series and
    # the continued fraction, which at c <= 5 and t < 27 sits at x = 28.1
    # (0.2 B, B = 203 log 2), past |s + 1|, where the lower series' terms
    # first grow.  Its complex
    # terms go negative, where >> floors to -1 and never reaches 0.
    # Below |s + 1| at c = 191 (x = 64 at m/3) the continued fraction's
    # stopping test passes while it is still off by O(1), so a switch
    # capped at x = 30 fails here
    for c in (1, 3, 5, 47, 191):
        for t in (0.3, 2.4, 9.7, 30.0, 50.0):
            with mp.workdps(KERNEL_DPS):
                unit = mpf(2) ** (4 - mp.prec) * mpmath.factorial(c - 1)
                beta = 2 * mp.pi / 7
                m = int(abs(mpmath.mpc(c + 1, t)) / beta)  # beta m < |s + 1| <= beta (m + 1)
                w = int(0.2 * mp.prec * log(2) / beta)  # beta w < 0.2 B <= beta (w + 1)
                xs = [beta * k for k in sorted({1, m // 3, m, m + 1, 3 * (m + 1), w, w + 1} - {0})]
                for x, got in zip(xs, _upper_gamma_scaled(c, t, xs)):
                    err = abs(got - _gammainc_scaled(mpmath.mpc(c, t), x))
                    assert err <= unit * x ** -c, (c, t, x, err)


def test_Q_recurrence_identity():
    # Q(n+1,x) - Q(n,x) = x^n e^(-x) / n!
    with mp.workdps(45):
        for n in (1, 5, 33, 120):
            for x in (mpf("0.7"), mpf(n), 3 * mpf(n)):
                diff = reg_gamma_Q(n + 1, x, CTX30) - reg_gamma_Q(n, x, CTX30)
                want = mpmath.exp(n * mpmath.log(x) - x - mpmath.loggamma(n + 1))
                assert abs(diff - want) < mpf(10) ** -27, (n, x)


def test_Q_monotone_in_x():
    with mp.workdps(35):
        xs = [mpf(i) / 2 for i in range(1, 40)]
        vals = [reg_gamma_Q(9, x, CTX30) for x in xs]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(0 <= v <= 1 for v in vals)


def test_erfc_standard_normalization():
    with mp.workdps(40):
        assert abs(erfc(0, CTX30) - 1) < mpf(10) ** -29
        for y in (mpf("0.3"), mpf(2), mpf(-1)):
            assert abs(erfc(y, CTX30) + erfc(-y, CTX30) - 2) < mpf(10) ** -29
            assert abs(erfc(y, CTX30) - mpmath.erfc(y)) < mpf(10) ** -29


def test_tricomi_transition_lemma():
    # the erfc approximation with the (1+y^2)e^(-y^2) correction is
    # accurate to O(1/n) uniformly on |y| <= 3; check a safe multiple
    for n in (100, 400, 1600):
        for y in (-2, -1, 0, 1, 2):
            resid = abs(tricomi_lhs(n, y, CTX30) - tricomi_rhs(n, y, CTX30))
            assert resid < 10.0 / n, (n, y, resid)


def test_gamma_rational_reflection():
    # Gamma(j/7) Gamma(1-j/7) = pi / sin(pi j/7)
    with mp.workdps(40):
        for j in (1, 2, 3):
            prod = gamma_rational(j, CTX30) * gamma_rational(7 - j, CTX30)
            want = mp.pi / mpmath.sin(mp.pi * j / 7)
            assert abs(prod - want) < mpf(10) ** -28
    with pytest.raises(ValueError):
        gamma_rational(7)


def test_digamma():
    with mp.workdps(40):
        assert abs(digamma(1, CTX30) + mp.euler) < mpf(10) ** -29
        # functional equation psi(x+1) = psi(x) + 1/x
        for x in (mpf("0.25"), mpf(3), mpf("12.5")):
            assert abs(digamma(x + 1, CTX30) - digamma(x, CTX30) - 1 / x) < mpf(10) ** -28
    with pytest.raises(ValueError):
        digamma(0)


def test_L_chi7_class_number_anchor():
    # L(1, chi_{-7}) = pi / sqrt(7)
    with mp.workdps(40):
        want = mp.pi / mpmath.sqrt(7)
        assert abs(dirichlet_L_chi7(1, ctx=CTX30) - want) < mpf(10) ** -28


def test_L_chi7_direct_sum_oracle():
    # float64 partial sum of sum chi(n)/n^2, tail below 1e-12
    N = 2_000_000
    n = np.arange(1, N + 1)
    chi = np.array([0, 1, 1, -1, 1, -1, -1], dtype=np.float64)[n % 7]
    ref = float(np.sum(chi / n.astype(np.float64) ** 2))
    assert abs(float(dirichlet_L_chi7(2, ctx=CTX30)) - ref) < 1e-9


def test_L_chi7_derivative_dual_route():
    # order=1 at s=1 goes through Lerch's formula at s=0 and the
    # functional equation; compare against a central difference of the
    # generic-s Hurwitz route
    with mp.workdps(60):
        h = mpf(10) ** -15
        num = (dirichlet_L_chi7(1 + h, ctx=PrecisionContext(45)) -
               dirichlet_L_chi7(1 - h, ctx=PrecisionContext(45))) / (2 * h)
        got = dirichlet_L_chi7(1, order=1, ctx=PrecisionContext(45))
        assert abs(num - got) < mpf(10) ** -25
    with pytest.raises(ValueError):
        dirichlet_L_chi7(1, order=2)
    with pytest.raises(ValueError):
        dirichlet_L_chi7(-1)


def test_constants_catalog():
    vals = constants(CTX30)
    with mp.workdps(40):
        assert abs(vals["omega"] - mpf("0.81408739831171111285614972379066")) < mpf(10) ** -28
        assert abs(vals["euler_gamma"] - mp.euler) < mpf(10) ** -29
        assert abs(vals["two_pi_over_sqrt7"] - 2 * mp.pi / mpmath.sqrt(7)) < mpf(10) ** -29
        assert abs(vals["three_pi_over_sqrt7"] - 3 * mp.pi / mpmath.sqrt(7)) < mpf(10) ** -29
        assert abs(vals["zeta_prime_at_2"] - mpmath.zeta(2, derivative=1)) < mpf(10) ** -29
    # catalog is a copy; mutating it must not poison the cache
    vals["omega"] = 0
    assert constants(CTX30)["omega"] != 0


# Rounding bounds for the float64 kernels.  log Gamma is the rounded sum
# (w-1/2) log w - w + log(2pi)/2 + series - sum_{j<k} log(z+j), w = z + k:
# each log, product and sum errs by at most an ulp of its largest part, so
# four ulp of the scale below bound the kernel, and eight the difference
# from scipy, which rounds the same parts.  psi likewise, with the scale
# |log w| + 1/|2w| + sum_j 1/|z+j|.


def _scale(c, t, main, shift_part):
    """main(w) + sum_{j<k} |shift_part(z + j)| + 1 at z = c + it, with
    the shift k = max(0, ceil(12 - c)) the kernels take at a scalar c,
    and w = z + k."""
    z = c + 1j * t
    k = np.maximum(0, np.ceil(12 - c))
    scale = main(z + k) + 1.0
    for j in range(int(np.max(k))):
        scale += np.where(j < k, np.abs(shift_part(z + j)), 0.0)
    return scale


def _loggamma_scale(c, t):
    return _scale(c, t, lambda w: np.abs(w - 0.5) * np.abs(np.log(w)) + np.abs(w), np.log)


def _digamma_scale(c, t):
    return _scale(c, t, lambda w: np.abs(np.log(w)) + 0.5 / np.abs(w), np.reciprocal)


def test_loggamma_f64_against_scipy():
    for c in ODD_C.tolist():
        err = np.abs(loggamma_f64(c, TS) - sp_loggamma(c + 1j * TS))
        assert np.all(err <= 8 * EPS * _loggamma_scale(c, TS)), (c, err.max())


def test_loggamma_f64_against_mpmath():
    cs = (1, 3, 5, 7, 9, 11, 13, 15, 61, 191, 999, 3957, 3999)
    with mp.workdps(30):
        for c in cs:
            for t in (0.0, 0.5, 2.5, 10.0, T_CAP, 142.0, 200.0):
                want = complex(mpmath.loggamma(mpmath.mpc(c, t)))
                got = complex(loggamma_f64(c, t))
                tol = 4 * EPS * float(_loggamma_scale(c, t))
                assert abs(got.real - want.real) <= tol, (c, t)
                assert abs(got.imag - want.imag) <= tol, (c, t)
        # Im at the scan cap on mpmath's branch (continuous from t = 0),
        # where a wrong branch would be off by a multiple of 2 pi
        got = loggamma_f64(ODD_C.astype(float), T_CAP).imag
        want = np.array([float(mpmath.loggamma(mpmath.mpc(int(c), T_CAP)).imag) for c in ODD_C])
    assert np.all(np.abs(got - want) <= 4 * EPS * _loggamma_scale(ODD_C, T_CAP))


def test_digamma_f64_against_scipy_and_mpmath():
    for c in ODD_C.tolist():
        err = np.abs(digamma_f64(c, TS) - sp_digamma(c + 1j * TS))
        assert np.all(err <= 8 * EPS * _digamma_scale(c, TS)), (c, err.max())
    with mp.workdps(30):
        for c in (1, 3, 11, 13, 61, 999, 3999):
            for t in (0.0, 0.5, 2.5, T_CAP, 200.0):
                want = complex(mpmath.digamma(mpmath.mpc(c, t)))
                assert abs(complex(digamma_f64(c, t)) - want) <= 4 * EPS * float(_digamma_scale(c, t)), (c, t)


def test_f64_kernels_array_c_matches_scalar_c():
    # an array of c against the scalar kernel entry by entry; the array
    # takes the one shift and the series terms its smallest c needs, so
    # the two round differently, each within the bound of the scipy tests
    for t in (0.0, 0.3, 7.5, 100.0):
        for f, scale in ((loggamma_f64, _loggamma_scale), (digamma_f64, _digamma_scale)):
            err = np.abs(f(ODD_C, t) - [f(c, t) for c in ODD_C.tolist()])
            assert np.all(err <= 8 * EPS * scale(ODD_C, t)), (f.__name__, t)
    for c in (0.5, np.array([3.0, 0.9])):
        with pytest.raises(ValueError):
            loggamma_f64(c, 1.0)
        with pytest.raises(ValueError):
            digamma_f64(c, 1.0)


def test_stirlerr_table_and_tail():
    # stirlerr(n) = log n! - log(sqrt(2 pi n) (n/e)^n): the table holds the
    # correctly rounded values, the series tail is within an ulp above it
    with mp.workdps(30):
        def exact(n):
            n = mpf(n)
            return mpmath.loggamma(n + 1) - (n + mpf(1) / 2) * mpmath.log(n) + n - mpmath.log(2 * mp.pi) / 2

        assert _STIRLERR[0] == 0.0
        assert all(_STIRLERR[n] == float(exact(n)) for n in range(1, len(_STIRLERR)))
        for n in (16, 17, 50, 999, 3998):
            assert abs(float(_stirling_sum(float(n))) - float(exact(n))) <= 2 * EPS * float(exact(n)), n


def test_reg_gamma_Q_f64_on_the_sweep_grid():
    # The N = 2000 sweep's grid, x_m = 2 pi m/7 for m <= M, and c <= 3999.
    # Rounding bound: the addition that makes Q(i+1) rounds by at most
    # eps/2 Q(i+1), and the Poisson mass p_j = e^(-x) x^j/j! is exp of a
    # rounded argument, so it errs relatively by eps (4 |argument's parts|
    # + 4): the parts are at most j |log(j/x)| + x + j in the direct form
    # of bd0 and 1.1 (j-x)^2/(j+x) in its series, where |j-x| < 0.1 (j+x).
    # scipy forms the prefactor e^(-x) x^c/Gamma(c) as exp(c log x - x -
    # lgamma(c)) away from x = c, so its own value errs relatively by up to
    # eps (4 (c |log x| + x + c log c) + 4): 7e-12 in the far tail, where
    # 30-digit mpmath sides with the running sum (within 1.4e-13), and it
    # flushes values below the normal range (2.2e-308) to 0.  There each
    # operation of the running sum rounds to a multiple of 2^-1074
    # instead, so it may also be off by c of those.
    x = BETA * np.arange(1, series_truncation(3999, 11) + 1)
    assert x[-1] > 5000  # far past e^(-x) underflow
    picks = dict.fromkeys((1, 2, 15, 16, 17, 101, 999, 2001, 3999))
    for c, q in enumerate(reg_gamma_Q_f64(3999, x), start=1):
        if c == 1:
            err = q * (4.0 * x + 4.0)
        else:
            j = c - 1
            near = np.abs(j - x) < 0.1 * (j + x)
            parts = np.where(near, 1.1 * (j - x) ** 2 / (j + x), j * np.abs(np.log(j / x)) + x + j)
            err = err + (q - prev) * (4.0 * parts + 4.0) + 0.5 * q
        tol = EPS * err + c * TINY
        if c % 2:
            ref = sp_gammaincc(c, x)
            ref_tol = EPS * (4.0 * (c * np.abs(np.log(x)) + x + c * log(c)) + 4.0) * ref
            assert np.all(np.abs(q - ref) <= tol + ref_tol + NORMAL), c
        if c in picks:
            picks[c] = (q, tol)
        prev = q
    with mp.workdps(30):
        for c, (q, tol) in picks.items():
            for m in {0, len(x) - 1, *np.searchsorted(x, [0.5 * c, 0.9 * c, c, 1.1 * c, 2 * c]).tolist()} - {len(x)}:
                want = float(mpmath.gammainc(c, mpf(float(x[m])), regularized=True))
                assert abs(q[m] - want) <= tol[m], (c, m)


def _q_ladder_per_c(c_max, x):
    # the one-c-at-a-time ladder the blocked one replaced, kept as the oracle
    from hecke7.specfun import _bd0

    q = np.exp(-x)
    yield q
    for c in range(1, c_max):
        err = _STIRLERR[c] if c < len(_STIRLERR) else float(_stirling_sum(float(c)))
        q = q + np.exp(-err - _bd0(c, x)) / np.sqrt(2.0 * np.pi * c)
        yield q


def test_blocked_Q_ladder_matches_the_per_c_ladder():
    # the sweep's grid at N = 469, on every m and on a strided subset, and
    # points where the series branch of bd0 is taken (|c - x| < 0.1 (c + x))
    ms = np.arange(1, series_truncation(937, 11) + 1)
    grids = (BETA * ms, BETA * ms[::4], np.linspace(0.5, 60.0, 300))
    for x in grids:
        for c_max in (1, 31, 32, 33, 937):
            got = list(reg_gamma_Q_f64(c_max, x))
            want = list(_q_ladder_per_c(c_max, x))
            assert len(got) == len(want) == c_max
            for c, (g, w) in enumerate(zip(got, want), start=1):
                assert g.tobytes() == w.tobytes(), (len(x), c_max, c)
            # fresh arrays: no two yields share memory
            assert len({id(g) for g in got}) == c_max and not np.shares_memory(got[0], x)


def test_reg_gamma_Q_f64_refuses_c_max_below_one():
    for c_max in (0, -1, -32):
        with pytest.raises(ValueError):
            reg_gamma_Q_f64(c_max, np.array([1.0, 2.0]))
    assert [q.tolist() for q in reg_gamma_Q_f64(1, np.array([1.0]))] == [[np.exp(-1.0)]]
