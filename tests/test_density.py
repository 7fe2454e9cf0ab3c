"""One-level density: explicit formula, zero statistics, ratios route."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from mpmath import mp, mpf

from hecke7 import density, field
from hecke7.specfun import ComputeCapError, ConvergenceError, PrecisionContext, digamma

CTX = PrecisionContext(25)


@pytest.fixture(scope="module")
def gauss_report():
    return density.empirical_one_level(20, density.gaussian(2.0), ctx=CTX)


def test_transform_pairs_by_quadrature():
    # f and fhat must actually be Fourier partners: f(y) = int fhat e(xy)
    with mp.workdps(30):
        fj = density.fejer(1.0)
        for y in (0.0, 0.3, 1.7):
            inv = mpmath.quad(
                lambda x: fj.fhat(x) * mpmath.cos(2 * mp.pi * x * y), [-1, 0, 1]
            )
            # f evaluates in float64, so agreement is at double precision
            assert abs(inv - fj.f(y)) < 1e-14, y
        g = density.gaussian(2.0)
        for y in (0.0, 0.8):
            inv = mpmath.quad(
                lambda x: mpf(g.fhat(x)) * mpmath.cos(2 * mp.pi * x * y), [-2, 0, 2]
            )
            assert abs(inv - g.f(y)) < 1e-14, y


def test_testfn_construction():
    fj = density.fejer(0.5)
    assert fj.support == 0.5 and fj.describe() == "fejer(0.5)"
    assert density.gaussian(2.0).support is None
    # small-argument series branch and array evaluation
    assert density.fejer(1.0).f(0.0) == 1.0
    assert abs(density.fejer(1.0).f(1e-10) - 1.0) < 1e-12
    arr = density.fejer(1.0).f(np.array([0.0, 0.5, 1.0]))
    assert arr.shape == (3,) and arr[0] == 1.0 and abs(arr[2]) < 1e-30
    with pytest.raises(ValueError):
        density.fejer(0.0)
    with pytest.raises(ValueError):
        density.gaussian(-1.0)


def test_rmt_prediction_closed_forms():
    assert density.rmt_prediction(density.fejer(1.0)) == Fraction(3, 2)
    assert density.rmt_prediction(density.fejer(0.5)) == Fraction(5, 2)
    assert density.rmt_prediction(density.fejer(2.0)) == Fraction(7, 8)
    with mp.workdps(30):
        want = 2 * mp.sqrt(mp.pi) + mpmath.erf(2 * mp.pi) / 2
        assert abs(density.rmt_prediction(density.gaussian(2.0), CTX) - want) < 1e-20


def test_rmt_prediction_dual_route():
    # y-side quadrature against the fhat-side closed forms; the Fejer
    # kernel's oscillatory 1/y^3 tail past the truncation leaves ~3e-8
    for f in (density.fejer(1.0), density.fejer(0.5), density.gaussian(2.0)):
        closed = mpf(float(density.rmt_prediction(f, CTX)))
        quad = density.rmt_prediction_quad(f, CTX)
        assert abs(closed - quad) < 1e-7, f.describe()


def test_lambda_vm_values():
    lg2, lg3 = math.log(2), math.log(3)
    assert density.lambda_vm(1, 2, 1) == pytest.approx(lg2 / math.sqrt(2), rel=1e-13)
    assert density.lambda_vm(1, 2, 2) == pytest.approx(-1.5 * lg2, rel=1e-13)
    assert density.lambda_vm(1, 3, 1) == 0.0
    assert density.lambda_vm(1, 3, 2) == pytest.approx(-2 * lg3, rel=1e-13)
    assert density.lambda_vm(1, 3, 4) == pytest.approx(2 * lg3, rel=1e-13)
    assert density.lambda_vm(2, 7, 1) == 0.0
    with pytest.raises(ValueError):
        density.lambda_vm(1, 2, 0)


def test_prime_table_cap_refuses_before_sieving():
    # a prime past the cap must be refused, not sieved to (~1e9 entries)
    with pytest.raises(ComputeCapError):
        density.lambda_vm(1, 1_000_000_007, 1)
    with pytest.raises(ComputeCapError):
        field.prime_table(10**7 + 1)


def test_prime_sum_respects_support():
    # phihat vanishes past x = 1, i.e. past q = e^(2pi); larger cutoffs
    # must not change the sum
    fh = density.fejer(1.0).fhat
    base = density.prime_sum(1, fh, 535)
    assert density.prime_sum(1, fh, 5000) == pytest.approx(base, rel=1e-14)


def test_arch_term_against_t_side_quadrature():
    # the resummed fhat-side form vs direct quadrature in t
    g = density.gaussian(2.0)
    for n in (1, 2):
        got = density.arch_term(n, g.fhat, 2.0, CTX)
        with mp.workdps(35):
            c = 2 * n - 1
            direct = mpmath.quad(
                lambda t: mpmath.exp(-((t / 2) ** 2))
                * (
                    2 * mpmath.log(7 / (2 * mp.pi))
                    + 2 * mpmath.re(mpmath.psi(0, c + 1j * t))
                ),
                [0, 5, 30],
            ) / mp.pi
        assert abs(got - float(direct)) < 1e-10, n


def _arch_term_tanh_sinh(n, phihat, x_end, ctx):
    # reference route: the resummed correction integral by mpmath
    # tanh-sinh quadrature at ctx precision, lead term by mpmath digamma
    c = 2 * n - 1
    ph0 = phihat(0.0)

    def g(x):
        x = float(x)
        if x <= 0:
            return mpf(0)
        den = 1 - mpmath.exp(-2 * mp.pi * x)
        return 2 * (ph0 - phihat(x)) * mpmath.exp(-2 * mp.pi * c * x) / den

    with mp.workdps(ctx.working_dps):
        lead = ph0 / mp.pi * (mp.log(7 / (2 * mp.pi)) + digamma(c, ctx))
        corr = mpmath.quad(g, [0, min(0.05, x_end / 8), x_end / 2, x_end, x_end + 3.0])
        return float(lead + corr)


def test_arch_term_fejer_against_tanh_sinh():
    # the float64 Gauss-Legendre sum against the mpmath route at the
    # one-level density's own scaling, log 96, across the family
    f = density.fejer(1.0)
    s = math.log(96)
    phihat = lambda x: (math.pi / s) * f.fhat(math.pi * x / s)
    x_end = f.support * s / math.pi
    for n in (1, 48, 96):
        got = density.arch_term(n, phihat, x_end, CTX)
        want = _arch_term_tanh_sinh(n, phihat, x_end, CTX)
        assert abs(got - want) < 1e-13, (n, got - want)


def test_explicit_formula_matches_zero_side():
    g = density.gaussian(2.0)
    ef = density.explicit_formula_sum(1, g, CTX)
    zs = density.zero_side_sum(1, g, 14.0)
    assert abs(ef - zs) < 1e-10


def test_explicit_formula_cutoff_guard():
    with pytest.raises(ConvergenceError):
        density.explicit_formula_sum(1, density.fejer(6.0), CTX)


def test_empirical_report_fejer_n20():
    rep = density.empirical_one_level(20, density.fejer(1.0), ctx=CTX)
    assert rep.N == 20 and rep.testfn == "fejer(1)"
    assert rep.rmt == 1.5
    assert rep.nonvanishing_lower_bound == 0.25
    assert rep.t_height == pytest.approx(16.5, abs=0.6)
    # zero statistic and explicit formula agree within the recorded
    # discarded-tail mass
    assert abs(rep.empirical - rep.explicit_formula) <= rep.discarded_mass_bound
    assert rep.empirical == pytest.approx(1.1471481366282217, rel=1e-6)
    with pytest.raises(ValueError):
        density.empirical_one_level(0, density.fejer(1.0))
    with pytest.raises(ValueError):
        density.empirical_one_level(201, density.fejer(1.0))


def test_empirical_gaussian_identity(gauss_report):
    # gaussian tails at the reliability ceiling are negligible, so the
    # two sides must agree to near machine precision
    rep = gauss_report
    assert abs(rep.empirical - rep.explicit_formula) < 1e-10
    assert rep.discarded_mass_bound < 1e-20


def test_ratios_A_normalization():
    # A(r, r) = 1 for any shift on the diagonal
    for r in (0.0, 0.03, 0.05j, -0.1 + 0.02j):
        val = density.ratios_A(r, r, CTX)
        assert abs(val - 1.0) < 1e-12, r
    with pytest.raises(ValueError):
        density.ratios_A(0.3, 0.0, CTX)
    with pytest.raises(ConvergenceError):
        density.ratios_A(0.0, -0.2, CTX, P=1000)


def test_ratios_local_factors_vs_brute():
    # isolate per-prime closed factors by prime-cutoff quotients and
    # compare with the delta_mu double-sum assembly
    a, g = 0.02, -0.01
    prods = {P: density.ratios_A(a, g, CTX, P=P, tol=float("inf")) for P in (2, 3, 5, 7)}
    facs = {
        2: prods[2],
        3: prods[3] / prods[2],
        5: prods[5] / prods[3],
        7: prods[7] / prods[5],
    }
    for p, fac in facs.items():
        brute = complex(density.ratios_local_brute(p, a, g, cutoff=400, ctx=CTX))
        assert abs(fac - brute) < 1e-12, p


def test_ratios_far_prime_factor_negligible():
    p = 179424673  # the 10^7-th prime
    assert sympy.isprime(p)
    fac = complex(density.ratios_local_brute(p, 0.02, 0.0, cutoff=40, ctx=CTX))
    assert abs(fac - 1.0) < 1e-8


def test_ratios_A_prime_is_derivative():
    t = 0.3
    g = 1j * t
    coarse = (density.ratios_A(g + 1e-4, g, CTX) - density.ratios_A(g - 1e-4, g, CTX)) / 2e-4
    assert abs(density.ratios_A_prime(t, CTX) - coarse) < 1e-6


def test_ratios_A_prime_closed_form_against_mpmath():
    # d/d alpha of sum_p log(local factor of A) at alpha = gamma = it,
    # the per-prime factors of ratios_A's docstring at 30 digits
    primes = list(sympy.primerange(2, 10**4 + 1))
    classes = [field.prime_class(p) for p in primes]
    with mp.workdps(30):
        for t in (0.3, 1.0):
            g = mpmath.mpc(0, t)

            def log_A(a):
                acc = mpmath.mpc(0)
                for p, cls in zip(primes, classes):
                    y = mpf(p) ** (-1 - 2 * g)
                    w = mpf(p) ** (-1 - a - g)
                    if cls == "split":
                        acc += mpmath.log((1 - y) * (1 + y - 2 * w) / (1 - w) ** 2)
                    elif cls == "inert":
                        acc += mpmath.log((1 - y**2) / (1 - w**2))
                    else:
                        acc += mpmath.log((1 - y) / (1 - w))
                return acc

            want = complex(mpmath.diff(log_A, g))
            assert abs(density.ratios_A_prime(t, CTX, P=10**4) - want) < 1e-13, t


def test_ratios_integrand_even_and_regular():
    assert density.ratios_one_level_integrand(1, 0.5, CTX) == pytest.approx(
        density.ratios_one_level_integrand(1, -0.5, CTX), abs=1e-10
    )
    # the limit construction below |t| = 1e-4 joins the direct branch
    lo = density.ratios_one_level_integrand(1, 9e-5, CTX)
    hi = density.ratios_one_level_integrand(1, 1.2e-4, CTX)
    assert abs(lo - hi) < 1e-4
    assert density.ratios_one_level_integrand(1, 1.0, CTX) == pytest.approx(
        -3.356840630836404, rel=1e-9
    )


def test_ratios_route_matches_explicit_formula(gauss_report):
    # dual route: ratios-conjecture integral vs explicit-formula average
    pred = density.ratios_one_level_density(20, density.gaussian(2.0), CTX)
    assert abs(pred - gauss_report.explicit_formula) < 0.05
    with pytest.raises(ValueError):
        density.ratios_one_level_density(20, density.fejer(1.0), CTX)
