"""Exact arithmetic in Z[eta] and the Hecke coefficient machinery."""

import math
import random

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf

from hecke7 import field


def test_eta_algebra():
    # eta^2 = eta - 2, so (0,1)^2 = (-2,1); norms are multiplicative
    assert field.zmul((0, 1), (0, 1)) == (-2, 1)
    assert field.zpow((0, 1), 3) == (-2, -1)
    rng = random.Random(7)
    for _ in range(200):
        z = (rng.randint(-9, 9), rng.randint(-9, 9))
        w = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert field.norm(*field.zmul(z, w)) == field.norm(*z) * field.norm(*w)
        # conjugation is a ring homomorphism
        assert field.zmul(field.conj(*z), field.conj(*w)) == field.conj(
            *field.zmul(z, w)
        )


def test_norm_form():
    assert field.norm(3, 2) == 23
    assert field.norm(1, 0) == 1
    assert field.norm(0, 1) == 2
    assert field.norm(-1, 2) == 7
    assert field.conj(3, 2) == (5, -2)


def test_epsilon_values():
    assert field.epsilon(1, 0) == 1
    assert field.epsilon(0, 1) == 1
    # norm divisible by 7 kills the symbol
    assert field.epsilon(-1, 2) == 0
    for a in range(-6, 7):
        for b in range(-6, 7):
            assert field.epsilon(a, b) in (-1, 0, 1)


def test_representations_structure():
    # each solution of a^2+ab+2b^2=m appears with both signs; the half
    # set keeps one of each +-pair
    for m in (2, 4, 8, 11, 23, 28):
        reps = field.representations(m)
        assert all(field.norm(a, b) == m for a, b in reps)
        assert len(reps) == 2 * len(field.half_representations(m))
        assert set(reps) == {(-a, -b) for a, b in reps}
    assert field.half_representations(2) == [(-1, 1), (0, 1)]
    assert field.half_representations(11) == [(-3, 2), (1, 2)]
    assert (2, 0) in field.half_representations(4)


def test_theta_oracle():
    # theta(a,b) is the argument of a + b(1+sqrt(-7))/2 in turns
    assert field.theta(1, 0) == 0
    for a, b in [(0, 1), (1, 1), (-3, 2), (3, 2)]:
        x = a + b / 2.0
        y = b * math.sqrt(7) / 2.0
        want = math.atan2(y, x) / (2 * math.pi) % 1.0
        assert abs(float(field.theta(a, b)) - want) < 1e-14


def test_prime_classes():
    assert field.prime_class(7) == "ramified"
    for p in (2, 11, 23, 29):
        assert field.prime_class(p) == "split"
    for p in (3, 5, 13, 17, 19):
        assert field.prime_class(p) == "inert"


def test_hecke_coeff_small_table():
    # chi^(1)(m) for m = 1..8, frozen from the exact half-sum
    want = {1: 1, 2: 1, 3: 0, 4: -1, 5: 0, 6: 0, 7: 0, 8: -3}
    for m, c in want.items():
        assert field.hecke_coeff(1, m) == c
    assert field.character_sum(1, 2) == (2, 0)


def test_hecke_coeff_multiplicative():
    rng = random.Random(11)
    pairs = [(2, 11), (4, 23), (8, 11), (2, 29), (11, 23), (16, 53)]
    for k in (1, 5, 9):
        for m1, m2 in pairs:
            assert math.gcd(m1, m2) == 1
            assert field.hecke_coeff(k, m1 * m2) == field.hecke_coeff(
                k, m1
            ) * field.hecke_coeff(k, m2)


def test_inert_and_ramified_vanishing():
    # inert primes admit no representation: chi(p) = 0, chi(p^2) = -p^k
    for k in (1, 5):
        for p in (3, 5, 13):
            assert field.hecke_coeff(k, p) == 0
            assert field.hecke_coeff(k, p * p) == -(p**k)
        assert field.hecke_coeff(k, 7) == 0


def test_normalized_coeff_oracle():
    # independent angle-sum oracle: a(m) = sum eps cos(2 pi k theta)
    with mp.workdps(30):
        for k in (1, 5, 9):
            for m in range(1, 61):
                reps = field.half_representations(m)
                want = sum(
                    field.epsilon(a, b) * mpmath.cos(2 * mp.pi * k * field.theta(a, b))
                    for a, b in reps
                )
                got = field.normalized_coeff(k, m)
                assert abs(got - want) < 1e-10, (k, m)


def test_normalized_coeff_divisor_bound():
    import sympy

    for k in (1, 9):
        for m in range(1, 200):
            assert abs(float(field.normalized_coeff(k, m))) <= sympy.divisor_count(
                m
            ) + 1e-9


def test_coeff_table_consistency():
    tab = field.coeff_table(5, 60, digits=20)
    for m in range(1, 61):
        assert tab.exact[m] == field.hecke_coeff(5, m)
    with mp.workdps(25):
        for m in (2, 12, 44):
            assert abs(tab.normalized[m] - mpf(tab.exact[m]) / mpf(m) ** mpf("2.5")) < 1e-19
    with pytest.raises(ValueError):
        field.coeff_table(4, 10)
    # the float64 prime table's fixed-point angle route against the exact
    # bigints, at the sweep's exponents and truncation (N = 469, M = 1391)
    table = field.prime_table(1391)
    for k in (1, 5, 37, 381, 797, 1873):
        exact = field.coeff_table(k, 1391).normalized
        want = np.array([0.0] + [float(exact[m]) for m in range(1, 1392)])
        assert np.abs(table.coeffs(k) - want).max() < 1e-14, k
    table = field.prime_table(10**4)
    assert table.primes.tolist() == field.primes_up_to(10**4)
    assert table.classes.tolist() == [field.prime_class(p) for p in table.primes.tolist()]
    with pytest.raises(ValueError):
        field.prime_class(9)


def test_factorizations_and_primes():
    import sympy

    assert field.primes_up_to(60) == list(sympy.primerange(2, 61))
    facs = field.factorizations(48)
    assert facs[48] == {2: 4, 3: 1} or facs[48] == [(2, 4), (3, 1)]


def test_sieve_and_ppart_against_sympy():
    import sympy

    spf = field._spf_sieve(10**5)
    assert spf.dtype == np.int64
    assert spf[:2].tolist() == [0, 1]
    assert spf[2:].tolist() == [min(sympy.factorint(m)) for m in range(2, 10**5 + 1)]
    assert field.primes_up_to(10**5) == list(sympy.primerange(2, 10**5 + 1))
    ppart = field.prime_table(10**4).ppart
    for m in range(2, 10**4 + 1):
        p = min(fac := sympy.factorint(m))
        assert ppart[m] == p ** fac[p], m


def test_angles_only_where_coefficients_are_read(monkeypatch):
    # a fresh kernel: the prime table and the angle store start empty
    monkeypatch.setattr(field, "_TABLE", None)
    monkeypatch.setattr(field, "_ANGLES", (np.zeros((0, 2)), np.zeros((0, 2), dtype=np.uint64)))
    calls = []
    theta = field.theta
    monkeypatch.setattr(field, "theta", lambda *a, **kw: calls.append(a) or theta(*a, **kw))
    from hecke7 import density, moments

    field.prime_table(10**5)
    density.ratios_A(-0.3j, 0.3j)
    density.ratios_A_prime(0.3)
    moments.delta_series_product(0.05, 0.05, 10**4)
    field.coeff_table(5, 300)
    assert calls == []
    # reading coefficients extends the store to exactly the table's primes
    table = field.prime_table(100)
    table.coeffs(1)
    n_split = sum(c == "split" for c in table.classes.tolist())
    assert len(calls) == 2 * n_split
    assert len(field._ANGLES[0]) == len(table.primes)


def test_spec_example_a2():
    # normalized a(2) = 1/sqrt 2 at k=1
    with mp.workdps(25):
        assert abs(field.normalized_coeff(1, 2) - 1 / mp.sqrt(2)) < 1e-20
