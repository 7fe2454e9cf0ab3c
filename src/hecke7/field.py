"""Exact arithmetic in Z[eta], the ring of integers of Q(sqrt(-7)).

Here eta = (1 + sqrt(-7))/2 satisfies eta^2 = eta - 2.  An element
a + b*eta is stored as the integer pair (a, b); its norm is the binary
quadratic form a^2 + a*b + 2*b^2 (class number 1, units +-1).

The Grossencharacter is chi((a+b*eta)) = eps_{a,b} * (a+b*eta) where
eps_{a,b} is the Legendre symbol ((a^3 - 2a^2 b - a b^2 + b^3)/7); the
coefficient function chi^(k)(m) sums eps * (a+b*eta)^k over all
representations of m and halves the result.  All of that is done in
exact integer arithmetic; floating normalization is applied last.  These
serve the mpmath routes and the oracles; the float64 family routes share
one PrimeTable (fixed-point representation angles) instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import mpmath
import numpy as np
from mpmath import mp, mpf, atan2, sqrt as mpsqrt

from .specfun import CHI7, ComputeCapError, PrecisionContext, PrecisionError

PRIME_TABLE_CAP = 10**7  # largest P the shared prime table is grown to


def norm(a: int, b: int) -> int:
    """Norm of a + b*eta, the quadratic form a^2 + a*b + 2*b^2."""
    return a * a + a * b + 2 * b * b


def conj(a: int, b: int) -> tuple[int, int]:
    """Complex conjugate: a + b*etabar = (a+b) - b*eta."""
    return (a + b, -b)


def zmul(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    """Product in Z[eta], reducing by eta^2 = eta - 2."""
    a, b = z
    c, d = w
    bd = b * d
    return (a * c - 2 * bd, a * d + b * c + bd)


def zpow(z: tuple[int, int], k: int) -> tuple[int, int]:
    """k-th power in Z[eta] by binary exponentiation, k >= 0."""
    result = (1, 0)
    base = z
    while k:
        if k & 1:
            result = zmul(result, base)
        base = zmul(base, base)
        k >>= 1
    return result


def epsilon(a: int, b: int) -> int:
    """The sign character eps_{a,b} = ((a^3 - 2a^2 b - a b^2 + b^3)/7).

    Vanishes exactly when a + b*eta is not coprime to sqrt(-7).
    """
    t = (a * a * a - 2 * a * a * b - a * b * b + b * b * b) % 7
    return CHI7[t]


def representations(m: int) -> list[tuple[int, int]]:
    """All integer pairs (a, b) with a^2 + a*b + 2*b^2 = m.

    Ordered lexicographically by (b, a).  The list is closed under
    negation and conjugation, so its length is even.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    out = []
    bmax = isqrt(4 * m // 7)
    for b in range(-bmax, bmax + 1):
        disc = 4 * m - 7 * b * b
        if disc < 0:
            continue
        d = isqrt(disc)
        if d * d != disc:
            continue
        if (d - b) & 1:
            continue
        roots = {(-b - d) // 2, (-b + d) // 2}
        for a in sorted(roots):
            out.append((a, b))
    return out


def half_representations(m: int) -> list[tuple[int, int]]:
    """One representative of each {z, -z} pair: b > 0, or b = 0 and a > 0."""
    return [(a, b) for (a, b) in representations(m) if b > 0 or (b == 0 and a > 0)]


def character_sum(k: int, m: int) -> tuple[int, int]:
    """Full sum of eps_{a,b} (a+b*eta)^k over all representations of m.

    Returned as a Z[eta] pair.  Test hook: for even k the sum cancels
    to (0, 0) identically; for odd k it equals 2*chi^(k)(m) and the
    eta-component is 0.
    """
    u = v = 0
    for a, b in representations(m):
        e = epsilon(a, b)
        if e == 0:
            continue
        pu, pv = zpow((a, b), k)
        u += e * pu
        v += e * pv
    return (u, v)


def hecke_coeff(k: int, m: int) -> int:
    """The rational integer chi^(k)(m) = (1/2) sum over representations.

    Exact big-integer powering throughout; negation pairs contribute
    equally for odd k, so the half-representation sum already is the
    halved full sum.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("character exponent k must be an odd positive integer")
    u = v = 0
    for a, b in half_representations(m):
        e = epsilon(a, b)
        if e == 0:
            continue
        pu, pv = zpow((a, b), k)
        u += e * pu
        v += e * pv
    if v != 0:
        raise ArithmeticError(f"character sum not real for k={k}, m={m}")
    return u


def normalized_coeff(k: int, m: int, digits: int = 15) -> mpf:
    """chi^(k)(m) / m^(k/2) at the requested decimal precision."""
    ctx = PrecisionContext(digits)
    c = hecke_coeff(k, m)
    with mp.workdps(ctx.working_dps):
        val = mpf(c) / mpf(m) ** (mpf(k) / 2)
        return +val


def theta(a: int, b: int, digits: int = 15) -> mpf:
    """Angle of a + b*eta in turns (fraction of a full revolution), in [0, 1).

    The degenerate 4*theta-integral cases (b = 0, or 2a = -b where the
    element is purely imaginary) are returned exactly.
    """
    if (a, b) == (0, 0):
        raise ValueError("theta undefined at 0")
    ctx = PrecisionContext(digits)
    if b == 0:
        return mpf(0) if a > 0 else mpf("0.5")
    if 2 * a == -b:
        return mpf("0.25") if b > 0 else mpf("0.75")
    with mp.workdps(ctx.working_dps):
        # a + b*eta = (a + b/2) + b*sqrt(7)/2 * i
        x = mpf(2 * a + b)
        y = mpf(b) * mpsqrt(7)
        t = atan2(y, x) / (2 * mp.pi)
        if t < 0:
            t += 1
        return +t


# Splitting type of a rational prime p in Q(sqrt(-7)) by the symbol (p/7).
_CLASS_NAMES = {1: "split", -1: "inert", 0: "ramified"}


def prime_class(p: int) -> str:
    """Splitting type of a rational prime in Q(sqrt(-7)).

    'split' for p = 1, 2, 4 mod 7; 'inert' for p = 3, 5, 6 mod 7;
    'ramified' for p = 7.  Raises ValueError if p is not prime.
    """
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")
    return _CLASS_NAMES[CHI7[p % 7]]


def _spf_sieve(n: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..n as an int64 array."""
    spf = np.arange(n + 1, dtype=np.int64)
    for i in range(2, isqrt(n) + 1):
        if spf[i] == i:
            np.minimum(spf[i * i :: i], i, out=spf[i * i :: i])
    return spf


def factorizations(n: int) -> list[dict[int, int]]:
    """Prime factorizations of 0..n (index 0 and 1 give {})."""
    spf = _spf_sieve(n).tolist()
    out: list[dict[int, int]] = [dict() for _ in range(n + 1)]
    for m in range(2, n + 1):
        p = spf[m]
        f = dict(out[m // p])
        f[p] = f.get(p, 0) + 1
        out[m] = f
    return out


def primes_up_to(n: int) -> list[int]:
    """Primes <= n, increasing."""
    if n < 2:
        return []
    return np.flatnonzero(_spf_sieve(n) == np.arange(n + 1))[2:].tolist()


@dataclass(frozen=True)
class CoeffTable:
    """Exact and normalized Hecke coefficients chi^(k)(m) for m <= maxM.

    exact[m] is the rational integer chi^(k)(m); normalized[m] is
    chi^(k)(m)/m^(k/2) as an mpf at the table's precision, computed on
    first access.  Immutable once built.
    """

    k: int
    maxM: int
    digits: int
    exact: dict[int, int]

    @cached_property
    def normalized(self) -> dict[int, mpf]:
        with mp.workdps(PrecisionContext(self.digits).working_dps):
            kh = mpf(self.k) / 2
            return {m: +(mpf(e) / mpf(m) ** kh) for m, e in self.exact.items()}


def coeff_table(k: int, maxM: int, digits: int = 15) -> CoeffTable:
    """Build a CoeffTable: direct sums at prime powers, multiplicative
    assembly at composites over the prime table's ppart (both exact)."""
    if k < 1 or k % 2 == 0:
        raise ValueError("character exponent k must be an odd positive integer")
    if maxM < 1:
        raise ValueError("maxM must be >= 1")
    PrecisionContext(digits)  # PrecisionError before any work
    ppart = prime_table(maxM).ppart.tolist()
    exact: dict[int, int] = {1: 1}
    for m in range(2, maxM + 1):
        q = ppart[m]
        exact[m] = hecke_coeff(k, m) if q == m else exact[q] * exact[m // q]
    return CoeffTable(k=k, maxM=maxM, digits=digits, exact=exact)


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Float64 prime kernel for p <= P; every array is read-only.

    Per prime: its prime_class and, for its two half-representations (none
    at inert p; eps = 0 at p = 7), eps and theta as 64-bit fixed-point
    turns, so k theta mod 1 is one wrapping uint64 multiply.  The angles
    are computed only when chebyshev first needs them.  Per m <= P: ppart,
    the exact power of the smallest prime factor dividing m.
    """

    P: int
    primes: np.ndarray
    classes: np.ndarray
    ppart: np.ndarray

    rep_eps = property(lambda self: _rep_angles(self)[0])
    rep_turns = property(lambda self: _rep_angles(self)[1])

    def chebyshev(self, k: int, e_max: int, c0: float) -> np.ndarray:
        """x_0..x_{e_max} for each prime: x_0 = c0, x_1 = a_k(p), the sum of
        eps cos(2 pi k theta) over the half-representations of p, and
        x_{e+1} = a_k(p) x_e - x_{e-1} (x_e = 0 for e >= 1 at p = 7).  c0 = 1
        gives a_k(p^e) (U-sequence), c0 = 2 gives Lambda_k(p^e)/log p (T)."""
        phase = (np.uint64(k) * self.rep_turns).view(np.int64) * 2.0**-64  # in [-1/2, 1/2)
        ap = (self.rep_eps * np.cos(2.0 * np.pi * phase)).sum(axis=1)
        c = self.classes != "ramified"
        xs = [np.full_like(ap, c0), ap]
        for _ in range(e_max - 1):
            xs.append(ap * xs[-1] - c * xs[-2])
        return np.stack(xs[: e_max + 1], axis=1)

    def powers(self, k: int, c0: float):
        """(p, q, x): the prime powers q = p^e <= P (e >= 1) and the
        chebyshev value x_e of p at each of them."""
        e_max = max(1, self.P.bit_length() - 1)
        x = self.chebyshev(k, e_max, c0)
        ps, qs, xs = [], [], []
        q = self.primes
        for e in range(1, e_max + 1):
            n = int(np.searchsorted(q, self.P, side="right"))
            ps.append(self.primes[:n])
            qs.append(q[:n])
            xs.append(x[:n, e])
            q = q[:n] * self.primes[:n]
        return np.concatenate(ps), np.concatenate(qs), np.concatenate(xs)

    def coeffs(self, k: int) -> np.ndarray:
        """a_k(m) = chi^(k)(m)/m^(k/2) for m = 0..P: the U-sequence at prime
        powers, a(m) = a(ppart) a(m/ppart) elsewhere."""
        _, q, x = self.powers(k, 1.0)
        a = np.zeros(self.P + 1)
        a[1] = 1.0
        a[q] = x
        m = np.flatnonzero(self.ppart < np.arange(self.P + 1))
        # each pass settles one more distinct prime factor; there are < log2 P
        for _ in range(self.P.bit_length()):
            a[m] = a[self.ppart[m]] * a[m // self.ppart[m]]
        return a


def _build_table(P: int) -> PrimeTable:
    """A PrimeTable for p <= P."""
    spf = _spf_sieve(P)
    ms = np.arange(P + 1)
    primes = np.flatnonzero(spf == ms)[2:]
    classes = np.array([_CLASS_NAMES[CHI7[r]] for r in range(7)])[primes % 7]
    ppart = np.ones(P + 1, dtype=np.int64)
    ppart[2:] = p = spf[2:]
    while (more := ms[2:] % (ppart[2:] * p) == 0).any():
        ppart[2:][more] *= p[more]
    arrays = (primes, classes, ppart)
    for arr in arrays:
        arr.setflags(write=False)
    return PrimeTable(P, *arrays)


_TABLE: PrimeTable | None = None
_ANGLES = (np.zeros((0, 2)), np.zeros((0, 2), dtype=np.uint64))
_TABLE_LOCK = threading.Lock()


def _rep_angles(table: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
    """(rep_eps, rep_turns) for the primes of a cut of the shared table,
    from a grow-only store of read-only arrays extended to exactly them."""
    global _ANGLES
    n = len(table.primes)
    with _TABLE_LOCK:
        n_old = len(_ANGLES[0])
        if n_old < n:
            rep_eps = np.zeros((n, 2))
            rep_turns = np.zeros((n, 2), dtype=np.uint64)
            rep_eps[:n_old], rep_turns[:n_old] = _ANGLES
            with mp.workdps(30):
                for i in np.flatnonzero(table.classes[n_old:] == "split") + n_old:
                    for j, (a, b) in enumerate(half_representations(int(table.primes[i]))):
                        rep_eps[i, j] = epsilon(a, b)
                        turns = mpmath.nint(mpmath.ldexp(theta(a, b, digits=30), 64))
                        rep_turns[i, j] = int(turns) % (1 << 64)
            _ANGLES = (rep_eps, rep_turns)
            for arr in _ANGLES:
                arr.setflags(write=False)
        return _ANGLES[0][:n], _ANGLES[1][:n]


def prime_table(P: int) -> PrimeTable:
    """The shared PrimeTable cut to p <= P: built on first use, never at
    import, and grown to the largest P asked for.  Raises ComputeCapError
    for P > PRIME_TABLE_CAP."""
    global _TABLE
    if P > PRIME_TABLE_CAP:
        raise ComputeCapError(f"prime table to P = {P} exceeds cap {PRIME_TABLE_CAP}")
    with _TABLE_LOCK:
        if _TABLE is None or _TABLE.P < P:
            _TABLE = _build_table(P)
        t = _TABLE
    n = int(np.searchsorted(t.primes, P, side="right"))
    return PrimeTable(P, t.primes[:n], t.classes[:n], t.ppart[: P + 1])
