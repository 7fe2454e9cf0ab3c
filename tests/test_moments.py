"""Moment sweeps, multiplicative averages, and shifted Euler factors."""

import math

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from hecke7 import field, moments
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


def test_cached_arrays_read_only():
    before = moments.empirical_moment(1, 50).empirical
    with pytest.raises(ValueError):
        moments.sweep_central_values(50)[0] = 99.0
    assert moments.empirical_moment(1, 50).empirical == before
    table = field.prime_table(50)
    arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    for arr in arrays + [table.rep_eps, table.rep_turns]:
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


def test_delta_oracle_agrees_with_closed_forms():
    # direct representation-angle averaging over the family
    for m, l in ((2, 2), (3, 3), (4, 2), (9, 9), (11, 11), (6, 6)):
        emp = moments.empirical_delta_oracle(m, l, 2000)
        assert abs(emp - moments.delta_two(l, m)) < 0.06, (m, l)
    with pytest.raises(ValueError):
        moments.empirical_delta_oracle(131, 1, 100)
    with pytest.raises(ValueError):
        moments.empirical_delta_oracle(2, 2, 10**4 + 1)


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
