"""Moment sweeps, multiplicative averages, and shifted Euler factors."""

import math
import random
from functools import partial

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpc, mpf

from hecke7 import density, field, moments
from hecke7.specfun import PrecisionContext

CTX = PrecisionContext(30)


def test_sweep_values_positive_and_validated():
    vals = moments.sweep_central_values(100)
    assert len(vals) == 100
    # family-wide nonvanishing: every central value strictly positive
    assert vals.min() > 0
    with pytest.raises(ValueError):
        moments.sweep_central_values(0)
    with pytest.raises(ValueError):
        moments.sweep_central_values(moments.SWEEP_CAP + 1)


def test_sweep_spot_against_mp_series():
    from hecke7 import central

    vals = moments.sweep_central_values(50)
    for nu in (1, 4, 50):
        ref = central.central_value_series(2 * nu - 1, PrecisionContext(20))
        assert abs(vals[nu - 1] - float(ref.value)) < 1e-9, nu


def test_sweep_blocks_match_per_member_rows():
    # the sweep reads coefficients in member blocks; each value is the
    # per-member int-exponent route, bit for bit
    from hecke7 import central
    from hecke7.specfun import reg_gamma_Q_f64

    N = 469
    vals = moments.sweep_central_values(N)
    c_max = central._member(N).c
    M = central.series_truncation(c_max, 11)
    table = field.prime_table(M)
    ms = np.arange(1, M + 1)
    qs = list(reg_gamma_Q_f64(c_max, central.BETA * ms))[::2]
    # block edges (blocks of 64) and twelve drawn members
    for nu in [1, 2, 63, 64, 65, 128, 129, 469] + random.Random(469).sample(range(3, N), 12):
        a = table.coeffs(central._member(nu).k)[1:]
        want = 2.0 * float(np.dot(a * (1.0 / np.sqrt(ms)), qs[nu - 1]))
        assert vals[nu - 1] == want, nu


def test_sweep_support_holds_every_nonzero_coefficient():
    # members n <= 2000 over the N = 2000 sweep's m <= M: every nonzero a(m)
    # lies on the support, and the support is the factorization rule
    from hecke7 import central

    M = central.series_truncation(central._member(moments.SWEEP_CAP).c, 11)
    table = field.prime_table(M)
    support = table.support()
    on = np.zeros(M + 1, dtype=bool)
    on[support] = True
    for lo in range(1, moments.SWEEP_CAP + 1, 100):
        a = table.coeffs(central._member(np.arange(lo, lo + 100)).k)
        assert not a[:, ~on].any(), lo
    rule = [
        m
        for m in range(1, M + 1)
        if all(p != 7 and (p % 7 in (1, 2, 4) or e % 2 == 0) for p, e in field.factorint(m).items())
    ]
    assert support.tolist() == rule
    assert len(rule) < 0.3 * M


def test_second_moment_main_term_against_digamma_average():
    # one psi(1) plus harmonic sums against the N-call digamma average
    from hecke7 import central
    from hecke7.specfun import digamma

    ctx = PrecisionContext(25)
    for N in (1, 2, 50, 469):
        displayed, _ = moments.m2_conjecture_main(N, ctx)
        with mp.workdps(ctx.working_dps):
            psi_avg = mpmath.fsum(digamma(central._member(n).c, ctx) for n in range(1, N + 1)) / N
            cs = moments.constants(ctx)
            want = cs["three_pi_over_sqrt7"] * (
                mp.euler
                + moments.f1_constant(ctx) / moments.f0_constant(ctx)
                - mp.log(2 * mp.pi / 7)
                + psi_avg
            )
            assert abs(displayed - want) < mpf(10) ** (-ctx.working_dps + 3), N


def test_validation_subsample_reaches_cap():
    sub = moments._VALIDATION_SUBSAMPLE
    assert list(sub) == sorted(set(sub))
    assert sub[0] == 1 and sub[-1] == moments.SWEEP_CAP


def test_cached_arrays_read_only():
    before = moments.empirical_moment(1, 50).empirical
    with pytest.raises(ValueError):
        moments.sweep_central_values(50)[0] = 99.0
    assert moments.empirical_moment(1, 50).empirical == before
    table = field.prime_table(50)
    arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 5  # primes, chi, ppart, rep_eps, rep_turns
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 99


def test_first_moment_report():
    rep = moments.empirical_moment(1, 100, CTX)
    assert rep.r == 1 and rep.N == 100
    assert rep.empirical == pytest.approx(2.3633584256282867, rel=1e-12)
    assert rep.predicted_main == pytest.approx(2 * math.pi / math.sqrt(7), rel=1e-12)
    assert rep.residual == rep.empirical - rep.predicted_main
    # theorem-shaped error envelope
    assert abs(rep.residual) <= 3 * math.log(100) / math.sqrt(100)
    with pytest.raises(ValueError):
        moments.empirical_moment(3, 100)


def test_second_moment_conjecture_forms():
    d, r = moments.m2_conjecture_main(469, CTX)
    assert float(d) == pytest.approx(28.3385264374, abs=1e-8)
    assert float(r) == pytest.approx(28.3520353652, abs=1e-8)
    assert abs(d - r) < 0.05
    rep = moments.empirical_moment(2, 469, CTX)
    assert rep.empirical == pytest.approx(28.41416840089988, rel=1e-10)
    assert rep.predicted_main == pytest.approx(float(d), rel=1e-10)
    with pytest.raises(ValueError):
        moments.m2_conjecture_main(0)


def test_delta_one():
    assert moments.delta_one(1) == 1
    assert moments.delta_one(4) == 1  # sqrt = 2, a residue mod 7
    assert moments.delta_one(9) == -1  # sqrt = 3, a non-residue
    assert moments.delta_one(16) == 1
    assert moments.delta_one(25) == -1
    assert moments.delta_one(49) == 0  # ramified square
    assert all(moments.delta_one(m) == 0 for m in (2, 3, 5, 6, 7, 8, 12))
    with pytest.raises(ValueError):
        moments.delta_one(0)


def test_delta_two_table():
    assert moments.delta_two(1, 1) == 1
    assert moments.delta_two(2, 2) == 2  # split, exponents (1,1)
    assert moments.delta_two(2, 8) == 2  # split, exponents (1,3)
    assert moments.delta_two(4, 4) == 3
    assert moments.delta_two(3, 3) == 0  # inert, odd exponents
    assert moments.delta_two(9, 9) == 1
    assert moments.delta_two(9, 81) == -1  # inert, (2,4): (a+b)/2 odd
    assert moments.delta_two(7, 7) == 0
    assert moments.delta_two(2, 3) == 0
    # multiplicative assembly across primes
    assert moments.delta_two(6, 6) == 0  # the p=3 local kills it
    assert moments.delta_two(18, 2) == moments.delta_two(2, 2) * moments.delta_two(9, 1)
    assert moments.delta_two(4, 22) == 0  # 11 appears on one side only
    # arguments above 10^6: split 2 at (20, 0), inert 3 at (0, 12), and
    # the split prime 1,048,573 at (1, 1)
    assert moments.delta_two(2**20, 3**12) == 1
    assert moments.delta_two(1_048_573, 1_048_573) == 2
    with pytest.raises(ValueError):
        moments.delta_two(0, 1)


def test_delta_two_symmetric():
    for l in range(1, 25):
        for m in range(1, 25):
            assert moments.delta_two(l, m) == moments.delta_two(m, l)


def test_delta_mu_cases():
    assert moments.delta_mu(2, 0, 0) == 1
    assert moments.delta_mu(2, 1, 1) == -2  # split, odd m, l = 1
    assert moments.delta_mu(2, 2, 1) == 0
    assert moments.delta_mu(2, 2, 2) == 1
    assert moments.delta_mu(2, 3, 2) == 0
    assert moments.delta_mu(3, 1, 1) == 0  # inert, l = 1
    assert moments.delta_mu(3, 2, 0) == -1
    assert moments.delta_mu(3, 4, 0) == 1
    assert moments.delta_mu(5, 2, 2) == -1
    assert moments.delta_mu(7, 1, 0) == 0
    assert moments.delta_mu(7, 0, 0) == 1
    assert moments.delta_mu(2, 1, 3) == 0  # mu supported on cube-free
    with pytest.raises(ValueError):
        moments.delta_mu(2, -1, 0)
    with pytest.raises(ValueError):
        moments.delta_mu(4, 1, 1)  # not a prime


def test_delta_mu_checks_p_before_the_trivial_entry():
    # (0, 0) is 1 at every prime, and a non-prime is refused there too
    assert moments.delta_mu(2, 0, 0) == moments.delta_mu(7, 0, 0) == 1
    for p in (9, 1, 0):
        with pytest.raises(ValueError, match="not prime"):
            moments.delta_mu(p, 0, 0)


def test_delta_mu_against_family_data():
    # mu_n(p^l) as the Dirichlet inverse of the prime table's a_n(p^e):
    # mu(1) = 1, mu(p^k) = -sum_{j=1..k} a(p^j) mu(p^(k-j))
    N = 4000
    ks = 4 * np.arange(1, N + 1) - 3
    for p in (2, 3, 5, 7, 11):
        a = field.prime_table(p)[-1:].chebyshev(ks, 6, 1.0)[:, 0, :]
        mu = [np.ones(N)]
        for k in range(1, 4):
            mu.append(-sum(a[:, j] * mu[k - j] for j in range(1, k + 1)))
        for m in range(7):
            for l in range(4):
                got = float(np.mean(a[:, m] * mu[l]))
                assert abs(got - moments.delta_mu(p, m, l)) < 0.02, (p, m, l, got)


def _rows(rule, I, J):
    return [[rule(i, j) for j in range(J + 1)] for i in range(I + 1)]


def test_local_double_sum_against_geometric_series():
    x, y = mpf("0.3"), mpmath.mpc("0.2", "0.1")
    got = moments._local_double_sum(x, y, _rows(lambda i, j: 1, 5, 2))
    want = (1 - x**6) / (1 - x) * (1 - y**3) / (1 - y)
    assert abs(got - want) < 1e-14
    # only the terms with a nonzero row entry enter, each weighted by it
    got = moments._local_double_sum(x, y, _rows(lambda i, j: (i == j) * (i + 1), 5, 2))
    assert abs(got - (1 + 2 * x * y + 3 * x**2 * y**2)) < 1e-14
    with pytest.raises(ValueError, match="cutoff must be nonnegative"):
        moments._local_double_sum(x, y, [])


def _per_term_sum(x, y, rule, I, J):
    # reference: one mpc multiply-add per term
    xs = [x**i for i in range(I + 1)]
    ys = [y**j for j in range(J + 1)]
    acc = mpc(0)
    for i in range(I + 1):
        for j in range(J + 1):
            d = rule(i, j)
            if d:
                acc += d * xs[i] * ys[j]
    return acc


def _delta_two_rule(cls, a, b):
    # delta(p^a, p^b) one term at a time, written apart from moments._delta_row
    if a == 0 and b == 0:
        return 1
    if cls == "split":
        return (min(a, b) + 1) if (a + b) % 2 == 0 else 0
    if cls == "inert" and a % 2 == 0 and b % 2 == 0:
        return -1 if ((a + b) // 2) % 2 else 1
    return 0


def test_delta_rows_match_the_term_rule():
    for cls, chi in (("split", 1), ("inert", -1), ("ramified", 0)):
        for J in (0, 1, 2, 7, 30):
            for i in range(40):
                want = [_delta_two_rule(cls, i, j) for j in range(J + 1)]
                assert moments._delta_row(chi, i, J) == want, (cls, i, J)


def test_local_double_sum_matches_per_term_sum():
    def check(a, b, rule, I, J):
        with mp.workdps(30):
            x, y = mpf(2) ** -(mpf(1) / 2 + a), mpf(2) ** -(mpf(1) / 2 + b)
            got = moments._local_double_sum(x, y, _rows(rule, I, J))
            prec = mp.prec + 32
            with mp.workprec(mp.prec + 64):
                want = _per_term_sum(x, y, rule, I, J)
                wmax = max(abs(rule(i, j)) for i in range(I + 1) for j in range(J + 1))
                bound = 4 * (J + 1) * wmax * mpmath.fsum(abs(x) ** i for i in range(I + 1)) * mpf(2) ** -prec
                # plus the final rounding to the caller's precision
                bound += abs(want) * mpf(2) ** (32 - prec)
                assert abs(got - want) <= bound, (a, b, I, J)

    # |y| = 2^-0.26 near 1 at Re shift -0.24; real and complex x, y
    shifts = ((mpf("0.05"), mpf("-0.24")), (mpc("0.05", "-2"), mpc("-0.24", "1.7")))
    for cls in ("split", "inert", "ramified"):
        for a, b in shifts:
            check(a, b, partial(_delta_two_rule, cls), 156, 156)
    # the J = 2 shape of ratios_local_brute, weights up to 400
    for a, b in shifts:
        check(b, a, lambda i, j: (i + 1) * (1, -1, 1)[j], 399, 2)


def test_brute_oracle_refuses_outside_its_domain():
    # a tail rate <= 0 would make the cutoff bound meaningless; F, A and
    # both brute oracles share the one shift domain |Re| < 1/4
    entries = (
        lambda s: moments.brute_cutoff_for(2, s),
        lambda s: moments.F_shift(s, 0),
        lambda s: moments.local_factor(2, 0, s),
        lambda s: moments.local_factor(2, s, 0, mode="brute", cutoff=60),
        lambda s: moments.delta_series_product(0, s, 10),
        lambda s: density.ratios_A(s, 0),
        lambda s: density.ratios_local_brute(2, s, 0.0),  # diverges at -0.6
        lambda s: density.ratios_local_brute(2, 0.0, s, cutoff=60),
    )
    for s in (-0.6, -0.5, -0.25, 0.25, float("nan"), complex(float("nan"), 0.0)):
        for entry in entries:
            with pytest.raises(ValueError, match=r"outside \|Re\| < 1/4"):
                entry(s)
    with pytest.raises(ValueError):
        moments.local_factor(2, 0, 0, mode="brute", cutoff=-1)


def test_shift_domain_refuses_non_finite_parts():
    # an infinite or nan imaginary part passes |Re| < 1/4, and each entry
    # refuses it all the same, before any arithmetic on it
    inf, nan = float("inf"), float("nan")
    entries = (
        lambda: density.ratios_A(0, complex(0, inf)),
        lambda: moments.local_factor(2, complex(0, inf), 0).closed,
        lambda: moments.delta_series_product(complex(0, nan), 0, 100),
        lambda: density.ratios_local_brute(2, complex(0, nan), 0),
        lambda: moments.F_shift(complex(0, nan), 0),
    )
    for entry in entries:
        with pytest.raises(ValueError, match="not finite"):
            entry()


def test_delta_oracle_agrees_with_closed_forms():
    # family averages of coefficients read from the shared prime table
    for m, l in ((2, 2), (3, 3), (4, 2), (9, 9), (11, 11), (6, 6)):
        emp = moments.empirical_delta_oracle(m, l, 2000)
        assert abs(emp - moments.delta_two(l, m)) < 0.06, (m, l)
    with pytest.raises(ValueError):
        moments.empirical_delta_oracle(131, 1, 100)
    with pytest.raises(ValueError):
        moments.empirical_delta_oracle(2, 2, 10**4 + 1)


def test_delta_oracle_against_representation_sums():
    # the oracle's prime-table coefficients against the direct sums
    # eps cos(2 pi k theta) over the half-representations of m, with theta
    # at 30 digits and the cosine at mpmath precision; the pairs are built
    # from split primes (an inert prime to an odd power gives 0 either way)
    N = 25
    with mp.workdps(30):

        def a(k, m):
            return mpmath.fsum(
                field.epsilon(x, y) * mpmath.cospi(2 * k * field.theta(x, y, digits=30))
                for x, y in field.half_representations(m)
            )

        for m, l in ((2, 8), (22, 22), (128, 2), (11, 121)):
            want = mpmath.fsum(a(k, m) * a(k, l) for k in range(1, 4 * N, 4)) / N
            got = moments.empirical_delta_oracle(m, l, N)
            assert abs(got - float(want)) < 1e-13, (m, l, got - float(want))


def test_F_shift_and_constants():
    f00 = moments.F_shift(0, 0, CTX)
    with mp.workdps(40):
        assert abs(f00 - 3 * mp.pi / (4 * mp.sqrt(7))) < mpf(10) ** -25
        assert abs(moments.f0_constant(CTX) - mpmath.re(f00)) < mpf(10) ** -25
    # symmetry in the shifts
    a, b = mpf("0.08"), mpf("-0.03")
    assert abs(moments.F_shift(a, b, CTX) - moments.F_shift(b, a, CTX)) < mpf(10) ** -25
    with pytest.raises(ValueError):
        moments.F_shift(0.25, 0)


def test_f1_is_shift_derivative():
    with mp.workdps(45):
        h = mpf(10) ** -12
        num = (moments.F_shift(h, 0, CTX) - moments.F_shift(-h, 0, CTX)) / (2 * h)
        assert abs(mpmath.re(num) - moments.f1_constant(CTX)) < mpf(10) ** -18
    assert float(moments.f1_constant(CTX)) == pytest.approx(1.27355806848, abs=1e-9)


def test_local_factor_closed_values():
    # split p=2 at zero shifts: (1+1/2)/(1-1/2)^3 = 12
    assert abs(moments.local_factor(2, 0, 0).closed - 12) < 1e-25
    # inert p=3 at zero shifts: 1/(1+1/3)^2 = 9/16
    assert abs(moments.local_factor(3, 0, 0).closed - mpf(9) / 16) < 1e-25
    assert abs(moments.local_factor(7, 0, 0).closed - 1) < 1e-25
    with pytest.raises(ValueError):
        moments.local_factor(2, 0, 0, mode="fast")


def test_local_factor_brute_matches_closed():
    for p in (2, 3):
        for a, b in ((0, 0), (mpf("0.06"), mpf("-0.04")), (0.05j, -0.05j)):
            cut = moments.brute_cutoff_for(p, float(min(mpmath.re(a), mpmath.re(b))))
            v = moments.local_factor(p, a, b, mode="brute", cutoff=cut, ctx=CTX)
            assert v.cutoff == cut
            assert abs(v.brute - v.closed) < 1e-12, (p, a, b)
    # the default cutoff is the rule's, 244 at the edge of the domain
    v = moments.local_factor(2, -0.24, 0, mode="brute", ctx=CTX)
    assert v.cutoff == moments.brute_cutoff_for(2, -0.24) == 244
    assert abs(v.brute - v.closed) < 1e-12


def test_brute_oracle_bits_are_pinned():
    # every bit of both brute oracles at 30 digits (repr at the working
    # precision round-trips), default cutoffs, one complex shift
    ctx = PrecisionContext(30)
    a, b = mpc("0.05", "0.3"), -0.1
    want = {
        2: "mpc(real='9.599197326296086695067469547355450884388707', imag='-6.591287090993786523524863776170992617092291')",
        3: "mpc(real='0.5593877305409133445499081020121291449049431', imag='0.08277665501195604739438547767506256617239762')",
        7: "mpc(real='1.0', imag='0.0')",
    }
    with mp.workdps(ctx.working_dps):
        for p, r in want.items():
            assert repr(moments.local_factor(p, a, b, mode="brute", ctx=ctx).brute) == r, p
        assert repr(density.ratios_local_brute(2, a, b, ctx=ctx)) == (
            "mpc(real='1.000796599925708708931463819463295891090785', imag='-0.0628471014196440672744894665712369281569432')"
        )


def test_brute_cutoff_policy():
    assert moments.brute_cutoff_for(13, 0.0) == 60
    assert moments.brute_cutoff_for(2, 0.0) == 120
    assert moments.brute_cutoff_for(2, -0.1) == 156


def test_delta_series_product_trend():
    # prod_p local(p) converges to F(a,b) zeta(1+a+b); edge-of-strip
    # speed, so check the error shrinks with the prime cutoff
    a, b = mpf("0.1"), mpf("0.05")
    with mp.workdps(40):
        target = moments.F_shift(a, b, CTX) * mp.zeta(1 + a + b)
        errs = [
            abs(moments.delta_series_product(a, b, P, CTX) - target)
            for P in (500, 5000, 50000)
        ]
    assert errs[2] < errs[1] < errs[0]
    # only log-speed closeness is available at the strip edge
    assert float(errs[2]) < 0.1 * float(abs(target))
