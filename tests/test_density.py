"""One-level density: explicit formula, zero statistics, ratios route."""

import math
import warnings
from fractions import Fraction
from sys import float_info

import mpmath
import numpy as np
import pytest
import sympy
from mpmath import mp, mpc, mpf

from hecke7 import central, density, field, moments
from hecke7.central import _panel_rule
from hecke7.specfun import ComputeCapError, ConvergenceError, PrecisionContext, _L_chi7_any, digamma

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
    assert fj.param == 0.5 and fj.describe() == "fejer(0.5)"
    assert density.gaussian(2.0).param == 2.0
    # small-argument series branch and array evaluation
    assert density.fejer(1.0).f(0.0) == 1.0
    assert abs(density.fejer(1.0).f(1e-10) - 1.0) < 1e-12
    arr = density.fejer(1.0).f(np.array([0.0, 0.5, 1.0]))
    assert arr.shape == (3,) and arr[0] == 1.0 and abs(arr[2]) < 1e-30
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="support alpha must be positive"):
            density.fejer(bad)
        with pytest.raises(ValueError, match="width must be positive"):
            density.gaussian(bad)
    for tiny in (9.9e-7, 4e-7, 1e-200, 1e-300):
        with pytest.raises(ValueError, match="support alpha must be positive, finite and at least 1e-6"):
            density.fejer(tiny)
    assert density.rmt_prediction(density.fejer(1e-6)) == 1 / Fraction(1e-6) + Fraction(1, 2)
    # past GAUSSIAN_W_MAX fhat(0) = w sqrt(pi) or the tail-mass bound overflows
    for wide in (1e307, 1e308, float_info.max):
        with pytest.raises(ValueError, match="width must be positive"):
            density.gaussian(wide)
    g = density.gaussian(density.GAUSSIAN_W_MAX)
    assert math.isfinite(g.fhat(0.0))
    for N in range(2, 201):
        for n in (1, 2, N):
            assert math.isfinite(density._scaled(g, math.log(N))[3](n, density.T_CAP)), (N, n)


def test_rmt_prediction_closed_forms():
    assert density.rmt_prediction(density.fejer(1.0)) == Fraction(3, 2)
    assert density.rmt_prediction(density.fejer(0.5)) == Fraction(5, 2)
    assert density.rmt_prediction(density.fejer(2.0)) == Fraction(7, 8)
    # exact for the float support: 1/alpha + 1/2 at alpha = 1/sqrt(2)
    assert float(density.rmt_prediction(density.fejer(1 / math.sqrt(2)))) == 1.9142135623730951
    with mp.workdps(30):
        want = 2 * mp.sqrt(mp.pi) + mpmath.erf(2 * mp.pi) / 2
        assert abs(density.rmt_prediction(density.gaussian(2.0), CTX) - want) < 1e-20


def test_rmt_prediction_needs_closed_form():
    g = density.gaussian(2.0)
    other = density.TestFunction(kind="box", f=g.f, fhat=g.fhat, param=1.0)
    with pytest.raises(ValueError):
        density.rmt_prediction(other)


def test_explicit_formula_refuses_other_kinds(monkeypatch):
    # _scaled is the one place the kind is read: a hand-built kind is
    # refused before any member is scanned
    g = density.gaussian(2.0)
    other = density.TestFunction(kind="box", f=g.f, fhat=g.fhat, param=1.0)
    monkeypatch.setattr(density, "_engine", lambda *ns: pytest.fail("scanned a member"))
    for call in (
        lambda: density.empirical_one_level(2, other, ctx=CTX),
        lambda: density.explicit_formula_sum(1, other, CTX),
        lambda: density._scaled(other, math.log(2)),
    ):
        with pytest.raises(ValueError, match="no explicit formula for the box test function"):
            call()


def test_rmt_prediction_dual_route():
    # y-side quadrature against the fhat-side closed forms; the Fejer
    # kernel's oscillatory 1/y^3 tail past the truncation leaves ~3e-8
    for f in (density.fejer(1.0), density.fejer(0.5), density.gaussian(2.0)):
        closed = mpf(float(density.rmt_prediction(f, CTX)))
        quad = density.rmt_prediction_quad(f, CTX)
        assert abs(closed - quad) < 1e-7, f.describe()


def test_lambda_vm_values():
    # Lambda_{4n-3}(p^r) = log p c_r, c_r the T-Chebyshev value of p's row
    def lambda_vm(n, p, r):
        return math.log(p) * float(field.prime_table(p).chebyshev(4 * n - 3, r, 2.0)[-1, r])

    lg2, lg3 = math.log(2), math.log(3)
    assert lambda_vm(1, 2, 1) == pytest.approx(lg2 / math.sqrt(2), rel=1e-13)
    assert lambda_vm(1, 2, 2) == pytest.approx(-1.5 * lg2, rel=1e-13)
    assert lambda_vm(1, 3, 1) == 0.0
    assert lambda_vm(1, 3, 2) == pytest.approx(-2 * lg3, rel=1e-13)
    assert lambda_vm(1, 3, 4) == pytest.approx(2 * lg3, rel=1e-13)
    assert lambda_vm(2, 7, 1) == 0.0


def test_lambda_vm_reads_one_row(monkeypatch):
    # p's own row of the cut to p gives the value of the full cut bit for bit
    for n, p, r in ((1, 2, 1), (3, 11, 2), (7, 1009, 5), (1, 99991, 3), (20, 99989, 4)):
        want = field.prime_table(p).chebyshev(4 * n - 3, r, 2.0)[-1, r]
        assert field.prime_table(p)[-1:].chebyshev(4 * n - 3, r, 2.0)[0, r] == want, (n, p, r)
    rows = []
    chebyshev = field.PrimeTable.chebyshev
    monkeypatch.setattr(
        field.PrimeTable, "chebyshev", lambda self, *a: rows.append(len(self.primes)) or chebyshev(self, *a)
    )
    moments.empirical_delta_oracle(12, 18, 100)
    assert len(rows) == 4 and set(rows) == {1}


def test_prime_entries_refuse_non_integers():
    # prime_class and the three local-factor entries take an int or numpy
    # integer prime; floats, integral ones too, and bools are ValueErrors
    entries = [
        field.prime_class,
        lambda p: moments.local_factor(p, 0, 0),
        lambda p: moments.delta_mu(p, 1, 0),
        lambda p: density.ratios_local_brute(p, 0, 0, cutoff=4),
    ]
    for entry in entries:
        for bad in (7.5, 2.5, 2.0, True, "2", None):
            with pytest.raises(ValueError):
                entry(bad)
    assert field.prime_class(np.int64(2)) == "split" and field.prime_class(np.int32(7)) == "ramified"
    assert moments.delta_mu(np.int64(3), 2, 0) == moments.delta_mu(3, 2, 0) == -1
    # a numpy integer prime gives the value of its int
    assert moments.local_factor(np.int64(2), 0, 0) == moments.local_factor(2, 0, 0)
    assert moments.local_factor(np.int64(7), 0.1, 0.1, mode="brute") == moments.local_factor(7, 0.1, 0.1, mode="brute")
    assert density.ratios_local_brute(np.int64(2), 0, 0) == density.ratios_local_brute(2, 0, 0)
    assert density.ratios_local_brute(np.int32(3), 0.1, 0.05, cutoff=4) == density.ratios_local_brute(3, 0.1, 0.05, cutoff=4)


def test_prime_table_cap_refuses_before_sieving():
    # a cutoff past the cap must be refused, not sieved to (~1e9 entries)
    with pytest.raises(ComputeCapError):
        density.prime_sum(1, density.fejer(1.0).fhat, 1_000_000_007)
    with pytest.raises(ComputeCapError):
        field.prime_table(10**7 + 1)


def test_prime_sum_respects_support():
    # phihat vanishes past x = 1, i.e. past q = e^(2pi); larger cutoffs
    # must not change the sum
    fh = density.fejer(1.0).fhat
    base = density.prime_sum(1, fh, 535)
    assert density.prime_sum(1, fh, 5000) == pytest.approx(base, rel=1e-14)


def test_block_prime_sums_match_prime_sum():
    # one PrimeTable.powers call over a block of exponents against the
    # one-member prime_sum of each
    fh = density.fejer(1.0).fhat
    k_max = 96 * 96
    ns = list(range(89, 97)) + [1, 150]
    got = density._prime_sums(field.prime_table(k_max), central._member(np.array(ns)).k, fh)
    for n, value in zip(ns, got):
        assert value == pytest.approx(density.prime_sum(n, fh, k_max), rel=1e-15, abs=0.0), n


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


def _arch_term_tanh_sinh(n, alpha, s, x_end, ctx):
    # reference route: the resummed correction integral by mpmath
    # tanh-sinh quadrature at ctx precision, with the Fejer phihat(x) =
    # (pi/s)(1 - pi x/(s alpha))_+/alpha in mpmath at the float alpha and
    # s, so the integrand has the digits the quadrature resolves; lead
    # term by mpmath digamma
    c = 2 * n - 1
    with mp.workdps(ctx.working_dps):
        a, s = mpf(alpha), mpf(s)
        phihat = lambda x: mp.pi / s * max(0, 1 - mp.pi * x / (s * a)) / a
        ph0 = phihat(0)

        def g(x):
            if x <= 0:
                return mpf(0)
            den = -mpmath.expm1(-2 * mp.pi * x)  # 1 - e^(-2pi x) without cancelling at tanh-sinh's nodes near 0
            return 2 * (ph0 - phihat(x)) * mpmath.exp(-2 * mp.pi * c * x) / den

        lead = ph0 / mp.pi * (mp.log(7 / (2 * mp.pi)) + digamma(c, ctx))
        corr = mpmath.quad(g, [0, min(0.05, x_end / 8), x_end / 2, x_end, mp.inf])
        return float(lead + corr)


def test_arch_term_fejer_against_tanh_sinh():
    # the float64 Gauss-Legendre sum against the mpmath route to infinity
    # at the one-level density's own scaling, log N, across the family;
    # Fejer(1/2) at N = 10 has the shortest support, so n = 1's tail past
    # x_end is heaviest there (5.7e-10 beyond x_end + 3).  Below
    # x_end = 1/(2pi) the first tail panel is graded to x_end, its distance
    # from the pole; values there reach 830, so the bound allows 1e-15
    # relative where that exceeds 1e-13.  Fejer(0.001) at N = 2 has a
    # correction of 1.09e4 at n = 1, where its two orders differ by one
    # float64 spacing, within arch_term's rounding allowance
    for alpha, N in ((1.0, 96), (0.5, 10), (0.2, 2), (0.1, 2), (0.05, 2), (0.01, 2), (0.1, 10), (0.001, 2)):
        f = density.fejer(alpha)
        s = math.log(N)
        phihat = lambda x: (math.pi / s) * f.fhat(math.pi * x / s)
        x_end = f.param * s / math.pi
        for n in (1, 48, 96):
            got = density.arch_term(n, phihat, x_end, CTX)
            want = _arch_term_tanh_sinh(n, alpha, s, x_end, CTX)
            assert abs(got - want) < max(1e-13, 1e-15 * abs(want)), (alpha, N, n, got - want)


@pytest.mark.parametrize("N", [10, 20, 30])
def test_fejer_half_at_small_N(N):
    # a single [x_end, x_end + 3] tail panel failed the two-order check
    # here (gaps 8.0e-10, 2.9e-11, 5.3e-12); the graded tail passes, and
    # the zero side lies within the discarded tail mass of the formula side
    rep = density.empirical_one_level(N, density.fejer(0.5), ctx=CTX)
    gap = rep.explicit_formula - rep.empirical
    assert -1e-8 <= gap <= rep.discarded_mass_bound + 1e-8, (gap, rep.discarded_mass_bound)


def test_explicit_formula_matches_zero_side():
    g = density.gaussian(2.0)
    ef = density.explicit_formula_sum(1, g, CTX)
    zs = density.zero_side_sum(1, g, 14.0)
    assert abs(ef - zs) < 1e-10


def test_unscaled_is_scale_pi():
    # scale = 0 takes the one scaled path at s = pi, where phi = f
    for phi in (density.gaussian(2.0), density.fejer(1.0)):
        for n in (1, 2):
            assert density.explicit_formula_sum(n, phi, CTX) == density.explicit_formula_sum(n, phi, CTX, scale=math.pi)
            assert density.zero_side_sum(n, phi, 14.0) == density.zero_side_sum(n, phi, 14.0, scale=math.pi)
    assert density.zero_side_sum(1, density.fejer(1.0), 1.0) == 0.0  # no zero below t = 1


def test_gauss_legendre_rule_once_per_degree(monkeypatch):
    # from empty stores (rules and engines), one leggauss call per degree
    leggauss = np.polynomial.legendre.leggauss
    degrees = []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda d: degrees.append(d) or leggauss(d))
    monkeypatch.setattr(central, "_GL_RULES", {})
    monkeypatch.setattr(central, "_ENGINES", {})
    density.empirical_one_level(20, density.fejer(1.0), ctx=CTX)
    assert sorted(degrees) == sorted(set(degrees)) == [16, 24, 48]
    for nodes, weights in central._GL_RULES.values():
        assert not nodes.flags.writeable and not weights.flags.writeable


def test_t_reliable_once_per_member(monkeypatch):
    # the ceiling depends on n alone: a run computes it once per member,
    # when the member's engine is built
    calls = []
    t_reliable = central.t_reliable
    counted = lambda n: calls.append(n) or t_reliable(n)
    monkeypatch.setattr(central, "t_reliable", counted)
    monkeypatch.setattr(density, "t_reliable", counted, raising=False)
    monkeypatch.setattr(central, "_ENGINES", {})
    density.empirical_one_level(10, density.fejer(1.0), ctx=CTX)
    assert sorted(calls) == list(range(1, 11))


@pytest.mark.parametrize("n", [0, -3, 1.5, 2.0, True])
def test_family_index_must_be_positive(n):
    phi = density.fejer(1.0)
    calls = (
        lambda: density.arch_term(n, phi.fhat, 1.0),
        lambda: density.explicit_formula_sum(n, phi, CTX),
        lambda: density.prime_sum(n, phi.fhat, 100),
        lambda: density.zero_side_sum(n, phi, 5.0),
        lambda: density.ratios_one_level_integrand(n, 0.5),
        lambda: central.zeros_up_to(n, 5.0),
        lambda: central.completed_lambda(n, 1.0),
        lambda: central.hardy_Z(n, 1.0),
        lambda: central.t_reliable(n),
        lambda: central.ZEngine(n),
    )
    for call in calls:
        with pytest.raises(ValueError, match="family index"):
            call()


def test_empirical_T_checked_before_scanning(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a member was scanned")

    monkeypatch.setattr(density, "zero_side_sum", no_scan)
    monkeypatch.setattr(density, "_engine", no_scan)
    monkeypatch.setattr(density, "_zeros_block", no_scan)
    with pytest.raises(ValueError, match="T=60.0 beyond desk-scale cap 50.0"):
        density.empirical_one_level(25, density.fejer(1.0), T=60.0)
    for T in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="T must be positive"):
            density.empirical_one_level(24, density.fejer(1.0), T=T)
    # a prime-sum cutoff past the prime table's cap is refused before any
    # member's engine is built
    for f in (density.fejer(6.0), density.gaussian(1e-5)):
        with pytest.raises(ConvergenceError, match="prime sum cutoff"):
            density.empirical_one_level(100, f)


def test_explicit_formula_cutoff_guard():
    # one guard on the exponent for both kinds: the gaussian's cutoff
    # e^(9.2e5) must be refused before exp overflows
    for f in (density.fejer(6.0), density.gaussian(1e-5)):
        with pytest.raises(ConvergenceError, match="prime sum cutoff"):
            density.explicit_formula_sum(1, f, CTX)


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
    for N in (0, 1):  # the scale log N vanishes at N = 1
        with pytest.raises(ValueError):
            density.empirical_one_level(N, density.fejer(1.0))
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
    # the default cutoff, brute_cutoff_for(2, -0.24), at the edge of the domain
    fac = density.ratios_A(-0.24, 0.1, CTX, P=2, tol=float("inf"))
    assert abs(fac - complex(density.ratios_local_brute(2, -0.24, 0.1, ctx=CTX))) < 1e-12
    with pytest.raises(ValueError):
        density.ratios_local_brute(2, a, g, cutoff=-1, ctx=CTX)


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
    # bitwise even, on both branches (the Richardson one below |t| = 1e-4)
    ts = [0.0, 3e-5, 9e-5, 1e-4, 2e-4, 0.013, 0.2, 0.5, 1.0, 2.7, 11.0, 37.5, 100.0, 199.9]
    for n in (1, 2, 5, 37):
        for t in ts:
            assert density.ratios_one_level_integrand(n, -t) == density.ratios_one_level_integrand(n, t), (n, t)
    # the limit construction below |t| = 1e-4 joins the direct branch
    lo = density.ratios_one_level_integrand(1, 9e-5, CTX)
    hi = density.ratios_one_level_integrand(1, 1.2e-4, CTX)
    assert abs(lo - hi) < 1e-4
    assert density.ratios_one_level_integrand(1, 1.0, CTX) == pytest.approx(
        -3.356840630836404, rel=1e-9
    )
    with pytest.raises(ValueError, match="nan"):
        density.ratios_one_level_integrand(1, float("nan"), CTX)


def test_ratios_heights_must_be_numbers():
    # the bound shares the integrand's height check; A' refuses a
    # non-finite height before any numpy arithmetic
    with pytest.raises(ValueError, match="nan"):
        density.ratios_integrand_abs_err(float("nan"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="not finite"):
                density.ratios_A_prime(t)
        # an infinite height is refused as an input, before the zeta/L
        # block's cap and before the Euler-product row can warn
        for t in (float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                density.ratios_integrand_abs_err(t)
            with pytest.raises(ValueError, match="finite"):
                density.ratios_one_level_integrand(1, t)


def _zeta_L_block_mp(t):
    # the block at 40 digits: mpmath's zeta and zeta' and the Hurwitz
    # route to L and L'
    with mp.workdps(40):
        s = 1 + 2j * mpf(t)
        z = mpmath.zeta(s)
        L, dL = _L_chi7_any(s, 1)
        block = -mpmath.zeta(s, derivative=1) / z + dL / L
        return complex(block), complex(z * mpmath.conj(L) / (mp.pi / mp.sqrt(7)))


def _gaussian_nodes(w):
    # the Gauss-Legendre nodes of ratios_one_level_density(20, gaussian(w))
    t_end = math.pi * w * math.sqrt(-math.log(1e-12)) / math.log(20)
    return _panel_rule([0.0, t_end / 2, t_end], 48)[0]


def test_zeta_L_block_against_mpmath():
    cases = [(t, 1e-13) for t in (1e-4, 2e-4, 1e-3, 1e-2, 0.3, 1.0, 3.0, 11.0)]
    cases += [(t, 1e-12) for t in (40.0, 100.0, 300.0)]
    for t, tol in cases:
        got = density._zeta_L_block(t)
        for g, w in zip(got, _zeta_L_block_mp(t)):
            assert abs(g - w) < tol * max(1.0, abs(w)), (t, g, w)
    for w in (1.8, 2.2):
        ts = _gaussian_nodes(w)
        batch = density._zeta_L_block(ts)
        assert batch[0].shape == batch[1].shape == (96,)
        for i, t in enumerate(ts):
            single = density._zeta_L_block(t)
            for b, g, want in zip(batch, single, _zeta_L_block_mp(t)):
                assert abs(b[i] - want) < 1e-13 * max(1.0, abs(want)), (w, t)
                assert abs(b[i] - g) < 1e-14 * abs(g), (w, t)


def _ratios_A_masked(a, g, P):
    # ratios_A and ratios_A_prime as single-height products over boolean
    # class masks, the reference for the bits of the row versions
    table = field.prime_table(P)
    lp, chi = np.log(table.primes), table.chi
    split, inert, ram = chi == 1, chi == -1, chi == 0
    y, w = np.exp(-(1 + 2 * g) * lp), np.exp(-(1 + a + g) * lp)
    fac = np.ones(len(lp), dtype=complex)
    fac[split] = (1 - y[split]) * (1 + y[split] - 2 * w[split]) / (1 - w[split]) ** 2
    fac[inert] = (1 - y[inert] ** 2) / (1 - w[inert] ** 2)
    fac[ram] = (1 - y[ram]) / (1 - w[ram])
    wd = np.exp(-(1 + 2 * g) * lp)  # A' at the height g = it
    wi, wr = wd[inert], wd[ram]
    prime = -np.sum(2 * lp[inert] * wi**2 / (1 - wi**2)) - np.sum(lp[ram] * wr / (1 - wr))
    return complex(np.prod(fac)), complex(prime)


def test_ratios_rows_match_the_public_calls():
    # the route's 96 nodes: one row call gives A(-it, it) and A'(it, it) at
    # each, the public single-height values and the masked products, bit for bit
    for w in (1.8, 2.2):
        ts = _gaussian_nodes(w).tolist()
        rows = density._ratios_rows([-1j * t for t in ts], [1j * t for t in ts], 100_000)
        assert len(rows) == 96
        for t, (a, ap) in zip(ts, rows):
            want = _ratios_A_masked(-1j * t, 1j * t, 100_000)
            assert repr((a, ap)) == repr(want), t
            assert repr(a) == repr(density.ratios_A(-1j * t, 1j * t)), t
            assert repr(ap) == repr(density.ratios_A_prime(t)), t
    # shifts whose a + g changes from row to row, and back, and stays
    shifts = [(0.1 - 0.2j, 0.05 + 0.3j), (-0.2, 0.1j), (0.0, 0.0), (-0.2, 0.1j), (0.1j, -0.1j), (-0.1j, 0.1j)]
    rows = density._ratios_rows([a for a, _ in shifts], [g for _, g in shifts], 10**4, tol=float("inf"))
    for (a, g), (got, _) in zip(shifts, rows):
        want = _ratios_A_masked(complex(a), complex(g), 10**4)[0]
        assert repr(got) == repr(want) == repr(density.ratios_A(a, g, P=10**4, tol=float("inf"))), (a, g)


def test_class_only_routes_leave_the_prime_table(monkeypatch):
    # the ratios route and delta_series_product read p and chi_{-7}(p) only:
    # no atan2, and the shared table is neither built nor grown
    monkeypatch.setattr(field, "_TABLE", None)
    atan2, calls = field.mpf_atan2, []
    monkeypatch.setattr(field, "mpf_atan2", lambda *a: calls.append(a) or atan2(*a))
    assert density.ratios_one_level_density(20, density.gaussian(2.0)) == pytest.approx(3.236129063144008, abs=1e-13)
    assert mpmath.isfinite(moments.delta_series_product(0.1, 0.05, 10**4, CTX))
    density.ratios_one_level_integrand(1, 0.3)
    assert calls == [] and field._TABLE is None


def test_ratios_products_refuse_prime_bounds_below_two():
    for P in (1, 0, -3, 2.5, True):
        with pytest.raises(ValueError):
            density.ratios_A(0.1, 0.05, P=P)
        with pytest.raises(ValueError):
            density.ratios_A_prime(0.5, P=P)
    assert density.ratios_A(0.0, 0.0, P=np.int64(2), tol=math.inf) == density.ratios_A(0.0, 0.0, P=2, tol=math.inf)
    assert density.ratios_A_prime(0.5, P=2) == density.ratios_A_prime(0.5, P=np.int32(2))


def test_zeta_L_block_truncation_guard():
    # 32 direct terms do not reach t = 100 (2t > 2pi X): the first
    # omitted Euler-Maclaurin correction refuses
    s = np.array([1 + 200j])
    with pytest.raises(ConvergenceError):
        density._hurwitz_regular(s, np.array([1.0]), 32)
    R, dR = density._hurwitz_regular(s, np.array([1.0]), 132)
    with mp.workdps(30):
        want = mpmath.zeta(1 + 200j) - 1 / mpc(200j)
        want_d = mpmath.zeta(1 + 200j, derivative=1) + 1 / mpc(200j) ** 2
    assert abs(R[0, 0] - complex(want)) < 1e-12
    assert abs(dR[0, 0] - complex(want_d)) < 1e-12
    with pytest.raises(ConvergenceError):
        density._zeta_L_block(2e5)


def test_ratios_integrand_values_pinned():
    # values of the 20-digit mpmath block this float64 block replaced
    pinned = {
        0.0: -7.45837198530397,
        5e-5: -7.45837198530397,
        1e-4: -7.458371576275494,
        2e-4: -7.458370349190065,
        0.3: -5.774172986082692,
        3.0: -0.9854967481473791,
    }
    for t, want in pinned.items():
        assert abs(density.ratios_one_level_integrand(1, t) - want) < 1e-13, t
    for w, want in ((1.8, 2.908165959438692), (2.0, 3.236129063144008), (2.2, 3.5684178181102744)):
        assert abs(density.ratios_one_level_density(20, density.gaussian(w)) - want) < 1e-13, w


def test_ratios_route_matches_explicit_formula(gauss_report):
    # dual route: ratios-conjecture integral vs explicit-formula average
    pred = density.ratios_one_level_density(20, density.gaussian(2.0), CTX)
    assert abs(pred - gauss_report.explicit_formula) < 0.05
    with pytest.raises(ValueError):
        density.ratios_one_level_density(20, density.fejer(1.0), CTX)
    with pytest.raises(ValueError):
        density.ratios_one_level_density(1, density.gaussian(2.0), CTX)
