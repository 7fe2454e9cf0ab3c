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
    # set keeps one of each +-pair.  Against a box enumeration: the form
    # is at least 7a^2/8 and 7b^2/4, so |a|, |b| <= 23 for m <= 500
    box = {}
    for a in range(-30, 31):
        for b in range(-30, 31):
            box.setdefault(field.norm(a, b), []).append((a, b))
    for m in range(1, 501):
        reps = field.representations(m)
        assert reps == sorted(box.get(m, []), key=lambda ab: (ab[1], ab[0])), m
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
    assert field._eps_power_sum(1, field.representations(2)) == (2, 0)


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
            table = field.coeff_table(k, 60)
            for m in range(1, 61):
                reps = field.half_representations(m)
                want = sum(
                    field.epsilon(a, b) * mpmath.cos(2 * mp.pi * k * field.theta(a, b))
                    for a, b in reps
                )
                got = table.normalized[m]
                assert abs(got - want) < 1e-10, (k, m)


def test_normalized_coeff_divisor_bound():
    import sympy

    for k in (1, 9):
        table = field.coeff_table(k, 199)
        for m in range(1, 200):
            assert abs(float(table.normalized[m])) <= sympy.divisor_count(
                m
            ) + 1e-9


def test_coeff_table_consistency():
    import sympy

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
    # the largest exponents the delta oracle reads (N = 4000), for m <= 130
    table = field.prime_table(130)
    for k in (15993, 15997):
        exact = field.coeff_table(k, 130).normalized
        want = np.array([0.0] + [float(exact[m]) for m in range(1, 131)])
        assert np.abs(table.coeffs(k) - want).max() < 1e-13, k
    # an array of exponents gives the stacked int results bit for bit
    ks = 4 * np.arange(1, 4001) - 3
    stacked = np.stack([table.chebyshev(int(k), 7, 1.0) for k in ks])
    assert np.array_equal(table.chebyshev(ks, 7, 1.0), stacked)
    table = field.prime_table(10**4)
    assert table.primes.tolist() == list(sympy.primerange(2, 10**4 + 1))
    assert table.chi.tolist() == [field._prime_chi(p) for p in table.primes.tolist()]
    with pytest.raises(ValueError):
        field.prime_class(9)


def test_coeffs_of_an_exponent_array_match_the_int_calls():
    # the axes of k lead; each row is the int call's array, bit for bit
    table = field.prime_table(1446)
    ks = np.array([1, 5, 97, 1873, 7997])
    rows = table.coeffs(ks)
    assert rows.shape == (5, 1447)
    for k, row in zip(ks.tolist(), rows):
        assert row.tobytes() == table.coeffs(k).tobytes(), k
    assert table.coeffs(ks.reshape(5, 1))[:, 0].tobytes() == rows.tobytes()
    p, q, x = table.powers(ks, 1.0)
    assert x.shape == (5, len(q))
    for k, row in zip(ks.tolist(), x):
        assert row.tobytes() == table.powers(k, 1.0)[2].tobytes(), k


def _coeffs_by_passes(table, k):
    # the fixed-pass assembly the level order replaced, kept as the oracle:
    # P.bit_length() passes of a(m) = a(ppart) a(m/ppart) over every m >= 2
    # that is not a prime power
    _, q, x = table.powers(k, 1.0)
    a = np.zeros(x.shape[:-1] + (table.P + 1,))
    a[..., 1] = 1.0
    a[..., q] = x
    m = np.flatnonzero(table.ppart < np.arange(table.P + 1))
    pm, rest = table.ppart[m], m // table.ppart[m]
    for _ in range(table.P.bit_length()):
        a[..., m] = a[..., pm] * a[..., rest]
    return a


@pytest.mark.parametrize("P", [130, 1391, 5939])
def test_level_ordered_coeffs_match_the_pass_rule(P):
    table = field.prime_table(P)
    block = 4 * np.arange(1, 33) - 3
    for k in (1, 5, 797, 7997, block, block + 4 * 1968):
        got = table.coeffs(k)
        assert got.tobytes() == _coeffs_by_passes(table, k).tobytes(), (P, k)
    # every composite's level is its number of distinct prime factors less 1,
    # its cofactor m/ppart sits one level lower, and each m is set once
    seen = []
    for level, (m, pm, rest) in enumerate(table._levels(), start=1):
        assert all(len(field.factorint(v)) == level + 1 for v in m.tolist()), level
        assert all(len(field.factorint(v)) == level for v in rest.tolist()), level
        assert np.array_equal(pm * rest, m) and np.array_equal(pm, table.ppart[m])
        seen += m.tolist()
    assert sorted(seen) == [m for m in range(2, P + 1) if len(field.factorint(m)) > 1]


def test_prime_classes_match_the_table():
    for P in (0, 1, 2, 7, 1391, 10**5):
        primes, chi = field.prime_classes(P)
        table = field.prime_table(P)
        assert primes.tobytes() == table.primes.tobytes() and primes.dtype == table.primes.dtype, P
        assert chi.tobytes() == table.chi.tobytes() and chi.dtype == np.int8, P
        assert chi.tolist() == [(0, 1, 1, -1, 1, -1, -1)[p % 7] for p in primes.tolist()], P
        assert not primes.flags.writeable and not chi.flags.writeable
    assert field.prime_classes(np.int64(30))[0].tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    with pytest.raises(field.ComputeCapError):
        field.prime_classes(field.PRIME_TABLE_CAP + 1)


def test_prime_bounds_refuse_non_integers_and_negatives(monkeypatch):
    field.prime_table(1000)  # a stored table: a negative P once cut it to ppart[:P + 1]
    field.prime_classes(2), field.prime_classes(1)  # kept P, equal to 2.0 and True
    for entry in (field.prime_table, field.prime_classes):
        for bad in (-5, -1, True, False, 2.0, 7.5, "7", None):
            with pytest.raises(ValueError):
                entry(bad)
    assert field.prime_table(np.int32(100)).P == 100 and type(field.prime_table(np.int64(100)).P) is int
    assert field.prime_table(np.int64(100)).coeffs(1).tobytes() == field.prime_table(100).coeffs(1).tobytes()
    # the cap is checked before any sieving
    monkeypatch.setattr(field, "_spf_sieve", lambda n: pytest.fail("sieved past the cap"))
    for entry in (field.prime_table, field.prime_classes):
        with pytest.raises(field.ComputeCapError):
            entry(field.PRIME_TABLE_CAP + 1)


def test_lucas_coeff_against_direct_powering():
    # hecke_coeff's Lucas V-sequences against zpow on every half
    # representation (_eps_power_sum), whose sum must be real
    for k in range(1, 62, 2):
        for m in range(1, 401):
            u, v = field._eps_power_sum(k, field.half_representations(m))
            assert v == 0 and field.hecke_coeff(k, m) == u, (k, m)
    rng = random.Random(7)
    # 2, 4, 8 split, 3^2 inert, 7 ramified, 11 * 2 composite, 2^12 and 29^2
    fixed = [2, 4, 8, 9, 7, 22, 4096, 841]
    for k in (1873, 7997):
        for m in fixed + rng.sample(range(2, 5940), 6):
            u, v = field._eps_power_sum(k, field.half_representations(m))
            assert v == 0 and field.hecke_coeff(k, m) == u, (k, m)


def test_factorizations_and_primes():
    import sympy

    assert field.prime_table(60).primes.tolist() == list(sympy.primerange(2, 61))
    for m in range(1, 49):
        assert field.factorint(m) == sympy.factorint(m), m


def test_sieve_and_ppart_against_sympy():
    import sympy

    facs = [sympy.factorint(m) for m in range(2, 10**5 + 1)]
    spf = field._spf_sieve(10**5)
    assert spf.dtype == np.int64
    assert spf[:2].tolist() == [0, 1]
    assert spf[2:].tolist() == [min(fac) for fac in facs]
    assert field.prime_table(10**5).primes.tolist() == list(sympy.primerange(2, 10**5 + 1))
    # ppart[m] = p^(v_p(m)) for p = spf(m)
    ppart = field.prime_table(10**5).ppart
    assert ppart[:2].tolist() == [1, 1]
    assert ppart[2:].tolist() == [min(fac) ** fac[min(fac)] for fac in facs]


def test_prime_table_row_cut():
    # a row cut slices the four per-prime arrays and keeps P and ppart
    table = field.prime_table(10**4)
    for rows in (slice(3, 40), slice(-1, None), slice(100, 100)):
        cut = table[rows]
        assert cut.P == table.P and cut.ppart is table.ppart
        for name in ("primes", "chi", "rep_eps", "rep_turns"):
            arr = getattr(cut, name)
            assert np.array_equal(arr, getattr(table, name)[rows]), name
            assert not arr.flags.writeable, name


def test_prime_table_grows_geometrically(monkeypatch):
    # a rising run of P from an empty store rebuilds at twice the stored
    # P, and every cut is the table a fresh build at P gives
    monkeypatch.setattr(field, "_TABLE", None)
    build, builds = field._build_table, []
    monkeypatch.setattr(field, "_build_table", lambda P, old: builds.append(P) or build(P, old))
    for P in range(100, 201):
        got, want = field.prime_table(P), build(P, None)
        assert got.P == want.P == P
        for name in ("primes", "chi", "ppart", "rep_eps", "rep_turns"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (P, name)
    assert builds == [100, 200]
    # the doubling stops at the cap
    monkeypatch.setattr(field, "_TABLE", None)
    monkeypatch.setattr(field, "PRIME_TABLE_CAP", 150)
    builds.clear()
    for P in (100, 101):
        field.prime_table(P)
    assert builds == [100, 150]


def test_prime_table_takes_each_angle_once(monkeypatch):
    # a rising run of P from an empty store takes the exact atan2 once per
    # split prime up to the last built P, and ends at a fresh build's table
    monkeypatch.setattr(field, "_TABLE", None)
    atan2, calls = field.mpf_atan2, []
    monkeypatch.setattr(field, "mpf_atan2", lambda *a: calls.append(a) or atan2(*a))
    for P in (10, 100, 101, 150, 1391, 2782, 10**4):
        field.prime_table(P)
    grown = field._TABLE
    assert grown.P == 10**4 and grown.chi.dtype == np.int8
    assert len(calls) == int(np.count_nonzero(grown.chi == 1))
    fresh = field._build_table(grown.P, None)
    for name in ("primes", "chi", "ppart", "rep_eps", "rep_turns"):
        assert getattr(grown, name).tobytes() == getattr(fresh, name).tobytes(), name


def test_table_angles_match_theta_route(monkeypatch):
    # a fresh kernel builds the angles with the table, from its own lattice
    # walk: neither theta nor half_representations is called
    monkeypatch.setattr(field, "_TABLE", None)
    theta, half_representations = field.theta, field.half_representations
    calls = []
    for name, f in (("theta", theta), ("half_representations", half_representations)):
        monkeypatch.setattr(field, name, lambda *a, f=f, **kw: calls.append(a) or f(*a, **kw))
    table = field.prime_table(10**5)
    table.coeffs(1)
    assert calls == []
    # each split row is (eps, theta(.., 30) in 64-bit turns) over
    # half_representations(p); inert rows and the row of p = 7 are zero
    assert table.rep_eps.shape == table.rep_turns.shape == (len(table.primes), 2)
    split = table.chi == 1
    assert not table.rep_eps[~split].any() and not table.rep_turns[~split].any()
    assert 7 in table.primes[~split]
    rows = zip(table.primes[split].tolist(), table.rep_eps[split].tolist(), table.rep_turns[split].tolist())
    with mp.workdps(30):
        for p, eps, turns in rows:
            reps = half_representations(p)
            assert eps == [field.epsilon(a, b) for a, b in reps], p
            assert turns == [int(mpmath.nint(mpmath.ldexp(theta(a, b, 30), 64))) % 2**64 for a, b in reps], p


def test_spec_example_a2():
    # normalized a(2) = 1/sqrt 2 at k=1
    with mp.workdps(25):
        assert abs(field.coeff_table(1, 2).normalized[2] - 1 / mp.sqrt(2)) < 1e-20


def test_point_counts_of_49a1():
    # The curve 49a1, y^2 + xy = x^3 - x^2 - 2x - 1, has complex
    # multiplication by Q(sqrt(-7)) (J. E. Cremona, Algorithms for modular
    # elliptic curves, 1997), and the family's characters are the powers of
    # its Hecke character.  Its point counts share no code with the Z[eta]
    # routes: with (2y + x)^2 = 4x^3 - 3x^2 - 8x - 4, one quadratic-residue
    # table per prime gives a_p(E) = -sum_x ((4x^3 - 3x^2 - 8x - 4)/p).
    P = 20_000
    table = field.prime_table(P)
    keep = (table.primes >= 3) & (table.primes != 7)
    primes = table.primes[keep]
    counts = []
    for p in primes.tolist():
        x = np.arange(p, dtype=np.int64)
        f = (((4 * x - 3) * x - 8) * x - 4) % p
        square = np.zeros(p, dtype=np.int64)
        square[x * x % p] = 1
        counts.append(-int(np.where(f == 0, 0, 2 * square[f] - 1).sum()))
    assert len(counts) == 2260
    assert counts == [field.hecke_coeff(1, p) for p in primes.tolist()]
    # the table's a_1(p) = a_p/sqrt(p) is two cosines of float64 phases,
    # each off by at most 2pi 2^-54 in the angle and half an ulp in the
    # value; with the sum's rounding a_1(p) is within 6 eps of exact
    # (measured 2.6 eps), which sqrt(p) scales
    a = np.array(counts)
    got = table.chebyshev(1, 1, 1.0)[keep, 1] * np.sqrt(primes)
    assert np.all(np.abs(got - a) <= 6 * np.finfo(float).eps * np.sqrt(primes))
    # a_p = 0 exactly at the inert primes, on all three routes
    inert = table.chi[keep] == -1
    assert inert.sum() == 1134 and not a[inert].any() and not got[inert].any()
