"""Incomplete gamma kernel, transition-region lemma, Dirichlet L, constants."""

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from hecke7.specfun import (
    DEFAULT_CTX,
    MAX_DIGITS,
    PrecisionContext,
    PrecisionError,
    constants,
    digamma,
    dirichlet_L_chi7,
    erfc,
    gamma_rational,
    policy_digits,
    reg_gamma_Q,
    tricomi_lhs,
    tricomi_rhs,
)

CTX30 = PrecisionContext(30)


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


def test_policy_digits():
    assert policy_digits(1) == 64
    assert policy_digits(3000) == 100
    assert policy_digits(1200, base=15) == 64


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
    # independent evaluation route: for integer n, Q(n,x) is the finite
    # sum e^(-x) sum_{i<n} x^i/i!, all terms positive (no cancellation)
    with mp.workdps(60):
        for n in (1, 2, 7, 40, 250):
            for x in (mpf("0.1"), mpf(n) / 2, mpf(n), 2 * mpf(n)):
                want = mpmath.exp(-x) * mpmath.fsum(x**i / mpmath.factorial(i) for i in range(n))
                got = reg_gamma_Q(n, x, CTX30)
                assert abs(got - want) < mpf(10) ** -28, (n, x)


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
