"""Exact central-value recursions: b-sequence, a-path, A(n) = B(n)^2."""

import random
import sys
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy as sp
from mpmath import mp, mpf
from numpy.polynomial import polynomial as P

from hecke7 import vz
from hecke7.specfun import PrecisionContext

# Gross-Zagier table: n -> (odd part of B(n) as a product, 4dp truncation of L)
GZ_TABLE = {
    1: (Fraction(1, 2), "0.9666"),
    3: (Fraction(1), "4.7890"),
    5: (Fraction(1), "0.9885"),
    7: (Fraction(3), "0.7346"),
    9: (Fraction(7), "0.1769"),
    11: (Fraction(3**2 * 5 * 7), "9.8609"),
    13: (Fraction(3 * 7 * 29), "0.6916"),
    15: (Fraction(3 * 7 * 103), "0.1187"),
    17: (Fraction(3 * 5 * 7 * 607), "1.0642"),
    19: (Fraction(3**3 * 7 * 4793), "1.7403"),
    21: (Fraction(3**2 * 5 * 7 * 29 * 2399), "6.6396"),
    23: (Fraction(3**3 * 5 * 7**2 * 10091), "0.3302"),
    25: (Fraction(3**2 * 7**2 * 29 * 61717), "0.2072"),
    27: (Fraction(3**2 * 5**2 * 7**2 * 13 * 53**2 * 79), "1.2823"),
    29: (Fraction(3**4 * 5**2 * 7**2 * 113 * 127033), "8.4268"),
    31: (Fraction(3**5 * 5 * 7**2 * 71 * 1690651), "0.6039"),
    33: (Fraction(3**4 * 5 * 7**2 * 1291 * 1747169), "0.0591"),
}


def _b_sympy(kmax):
    # independent re-derivation of the b recursion
    x = sp.Symbol("x")
    bs = [sp.Rational(1, 2), sp.Integer(1)]
    for k in range(1, kmax):
        nxt = (
            (32 * k * x - 56 * k + 42) * bs[k]
            - (x - 7) * (64 * x - 7) * sp.diff(bs[k], x)
            - 2 * k * (2 * k - 1) * (11 * x + 7) * bs[k - 1]
        ) / 21
        bs.append(sp.expand(nxt))
    return x, bs


def _a_sympy(kmax):
    # independent re-derivation of the a recursion in Q[x][s]/(s^2 - R),
    # with d/dx acting on s through ds/dx = R'/(2s)
    x, s = sp.symbols("x s")
    R = (1 + x) * (1 - 27 * x)

    def s_d(p):  # s * d/dx
        return s * sp.diff(p, x) + sp.diff(p, s) * sp.diff(R, x) / 2

    a = [sp.Integer(1), -s / 3]
    for k in range(1, kmax):
        c = sp.Rational(2 * k + 1, 3)
        nxt = x * s_d(a[k]) - c * s * a[k] - sp.Rational(k * k, 9) * (1 - 5 * x) * a[k - 1]
        a.append(sp.rem(sp.expand(nxt), s**2 - sp.expand(R), s))
    return x, s, a


def _fractions(expr, x):
    return tuple(Fraction(int(c.p), int(c.q)) for c in sp.Poly(expr, x).all_coeffs()[::-1])


def test_b_initial_conditions():
    assert vz.b_poly(0).u == (Fraction(1, 2),)
    assert vz.b_poly(1).u == (Fraction(1),)
    with pytest.raises(ValueError):
        vz.b_poly(-1)


def test_b_sequence_matches_independent_recursion():
    x, bs = _b_sympy(10)
    for k in range(0, 11):
        assert vz.b_poly(k).u == _fractions(bs[k], x), k
        assert vz.b_poly(k).v == (Fraction(0),)


def test_A_matches_gross_zagier_table():
    for n, (prod, _) in GZ_TABLE.items():
        assert vz.A_of(n) == prod * prod, n
        assert abs(vz.B_of(n)) == prod, n


def test_A_even_and_validation():
    assert vz.A_of(2) == 0
    assert vz.A_of(30) == 0
    with pytest.raises(ValueError):
        vz.B_of(4)
    # the a-path refuses what A_of refuses
    for n in (0, -1, -2):
        for f in (vz.A_of, vz.A_from_a_path):
            with pytest.raises(ValueError, match="n must be a positive integer"):
                f(n)


def test_B_congruence():
    # B(n) is an integer = -n mod 4 for odd n > 1 (hence never zero)
    assert vz.B_of(1) == Fraction(1, 2)
    assert vz.B_of(5) == -1
    for n in range(3, 62, 2):
        B = vz.B_of(n)
        assert B.denominator == 1
        assert (B.numerator + n) % 4 == 0, n
    rows = vz.congruence_check(61)
    assert len(rows) == 30 and all(ok for (_, _, ok) in rows)
    with pytest.raises(ValueError):
        vz.congruence_check(10)


def test_a_path_agrees_with_b_path():
    # two independent recursions for the same invariant
    for n in range(1, 202, 2):
        assert vz.A_from_a_path(n) == vz.A_of(n), n
    assert vz.A_from_a_path(4) == 0


def _ints(*coeffs):
    # object dtype keeps Python ints: polyder turns int64 into float64,
    # and int64 would overflow
    return np.array(coeffs, dtype=object)


def _b_step_numpy(k, bk, bk1):
    # the recursion through numpy.polynomial on object arrays of Python ints
    bk, bk1 = _ints(*bk), _ints(*bk1)
    term = P.polysub(P.polymul(_ints(42 - 56 * k, 32 * k), bk), P.polymul(_ints(49, -455, 64), P.polyder(bk)))
    term = P.polysub(term, P.polymul(_ints(7, 11), bk1) * (21 * 2 * k * (2 * k - 1)))
    return tuple(term)


def _a_step_numpy(k, ak, ak1):
    (u, v), (u1, v1) = [(_ints(*p), _ints(*q)) for p, q in (ak, ak1)]
    R, half_dR, x, one_5x = _ints(1, -26, -27), _ints(-13, -27), _ints(0, 1), _ints(1, -5)
    c = 3 * (2 * k + 1)
    new_u = P.polysub(
        P.polymul(x, P.polyadd(P.polymul(P.polyder(v), R), P.polymul(v, half_dR))) * 9,
        P.polymul(v, R) * c,
    )
    new_v = P.polysub(P.polymul(x, P.polyder(u)) * 9, u * c)
    new_u = P.polysub(new_u, P.polymul(one_5x, u1) * (9 * k * k))
    new_v = P.polysub(new_v, P.polymul(one_5x, v1) * (9 * k * k))
    return tuple(new_u), tuple(new_v)


@pytest.mark.parametrize("step, oracle, first, k_max", [
    (vz._b_step, _b_step_numpy, [(1,), (42,)], 300),
    (vz._a_step, _a_step_numpy, [((1,), (0,)), ((0,), (-3,))], 150),
])
def test_int_list_steps_match_the_numpy_polynomial_rule(step, oracle, first, k_max):
    # both sequences grown from their initial terms, each row tuple-equal
    # (trailing zeros trimmed the same way, at least one coefficient kept)
    got, want = list(first), list(first)
    for k in range(1, k_max):
        got.append(step(k, got[k], got[k - 1]))
        want.append(oracle(k, want[k], want[k - 1]))
        assert got[-1] == want[-1], k


def test_steps_trim_like_polysub():
    # results that cancel to zero keep one coefficient, as polysub does
    zero = ((0,), (0,))
    assert vz._b_step(1, (0,), (0,)) == _b_step_numpy(1, (0,), (0,)) == (0,)
    assert vz._a_step(1, zero, zero) == _a_step_numpy(1, zero, zero) == zero
    for k, bk, bk1 in ((3, (5, 0, 7), (1,)), (2, (1,), (4, -3, 2, 9))):
        assert vz._b_step(k, bk, bk1) == _b_step_numpy(k, bk, bk1)
    ak, ak1 = ((2, 0, -1), (0, 3)), ((1,), (5, 0, 0, 4))
    assert vz._a_step(4, ak, ak1) == _a_step_numpy(4, ak, ak1)


def test_store_rows_are_int_tuples():
    # the stores hand out immutable exact data: tuples of Python ints
    vz.B_of(301)
    vz.A_from_a_path(101)
    assert len(vz._B) >= 151 and len(vz._A) >= 101
    for row in vz._B:
        assert type(row) is tuple and all(type(c) is int for c in row)
    for row in vz._A:
        assert type(row) is tuple and len(row) == 2
        for part in row:
            assert type(part) is tuple and all(type(c) is int for c in part)


def test_a_sequence_matches_independent_recursion():
    # both components of a_k, not only u at x = -1
    x, s, a = _a_sympy(20)
    for k in range(0, 21):
        e = sp.expand(a[k])
        got = vz.a_poly(k)
        assert got.u == _fractions(e.coeff(s, 0), x), k
        assert got.v == _fractions(e.coeff(s, 1), x), k


def _counted(monkeypatch, name):
    # wrap a recursion step so each call records the index it steps from
    ks, step = [], getattr(vz, name)
    monkeypatch.setattr(vz, name, lambda k, *prev: ks.append(k) or step(k, *prev))
    return ks


def test_stores_take_one_step_per_new_index(monkeypatch):
    # start both stores from their initial terms, then check that the
    # b and a recursions run exactly once for each index they add
    monkeypatch.setattr(vz, "_B", vz._B[:2])
    monkeypatch.setattr(vz, "_A", vz._A[:2])
    b_ks, a_ks = _counted(monkeypatch, "_b_step"), _counted(monkeypatch, "_a_step")
    rows = vz.congruence_check(301)
    assert vz.A_of(301) == vz.B_of(301) ** 2
    assert vz.A_from_a_path(101) == vz.A_of(101)
    assert all(ok for (_, _, ok) in rows)
    assert len(vz._B) == 151 and len(vz._A) == 101
    assert b_ks == list(range(1, 150)) and a_ks == list(range(1, 100))


def test_store_growth_under_threads(monkeypatch):
    # concurrent readers extend the shared b store without repeating a step
    monkeypatch.setattr(vz, "_B", vz._B[:2])
    b_ks = _counted(monkeypatch, "_b_step")
    want = {n: vz.B_of(n) for n in range(1, 82, 2)}
    monkeypatch.setattr(vz, "_B", vz._B[:2])
    b_ks.clear()
    got, old = {}, sys.getswitchinterval()

    def read(ns):
        for n in ns:
            got[n] = vz.B_of(n)

    orders = [range(1, 82, 2), range(81, 0, -2), range(41, 82, 2), range(1, 42, 2)]
    threads = [threading.Thread(target=read, args=(o,)) for o in orders * 2]
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert got == want
    assert sorted(b_ks) == list(range(1, 40)) and len(vz._B) == 41


def test_central_value_reproduces_table_truncated():
    # the published 4dp column is floor-truncated, not rounded
    ctx = PrecisionContext(30)
    with mp.workdps(40):
        for n, (_, l4) in GZ_TABLE.items():
            ec = vz.central_value_exact(n, ctx)
            got = int(mpmath.floor(ec.L * 10**4))
            assert got == int(l4.replace(".", "")), (n, got, l4)
            assert ec.A == GZ_TABLE[n][0] ** 2


def test_central_value_validation():
    with pytest.raises(ValueError):
        vz.central_value_exact(2)
    with pytest.raises(ValueError):
        vz.central_value_exact(-3)


def test_vzpoly_eval():
    p = vz.VZPoly.make([Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)])
    u, v = p.eval_at(Fraction(3))
    assert (u, v) == (Fraction(7), Fraction(3))
    # against numpy.polynomial's polyval on random rational polynomials
    rng = random.Random(7)

    def frac():
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))

    for _ in range(200):
        u = [frac() for _ in range(rng.randint(1, 12))]
        v = [frac() for _ in range(rng.randint(1, 12))]
        for x in (frac(), rng.randint(-9, 9), Fraction(-1)):
            got = vz.VZPoly.make(u, v).eval_at(x)
            want = (P.polyval(Fraction(x), u), P.polyval(Fraction(x), v))
            assert got == want and all(type(g) is Fraction for g in got)
