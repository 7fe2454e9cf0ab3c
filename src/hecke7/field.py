"""Exact arithmetic in Z[eta], the ring of integers of Q(sqrt(-7)).

Here eta = (1 + sqrt(-7))/2 satisfies eta^2 = eta - 2.  An element
a + b*eta is stored as the integer pair (a, b); its norm is the binary
quadratic form a^2 + a*b + 2*b^2 (class number 1, units +-1).

The Grossencharacter is chi((a+b*eta)) = eps_{a,b} * (a+b*eta) where
eps_{a,b} is the Legendre symbol ((a^3 - 2a^2 b - a b^2 + b^3)/7); the
coefficient function chi^(k)(m) sums eps * (a+b*eta)^k over all
representations of m and halves the result.  All of that is done in
exact integer arithmetic, each conjugate pair of representations as one
Lucas V-sequence (hecke_coeff); floating normalization is applied last.
These serve the mpmath routes and the oracles; the float64 family routes
share one PrimeTable (exact fixed-point representation angles) instead,
which reads a whole array of exponents k in one pass.  Routes that read
only p and its class (the ratios Euler products, delta_series_product)
take prime_classes(P), the sieve's primes and classes without angles, so
they neither grow the shared table nor take its atan2s.

A prime's splitting class is the int chi_{-7}(p) = CHI7[p % 7]: 1 split,
-1 inert, 0 ramified (p = 7).  prime_classes and the table hold it as
int8, _prime_chi checks and reads it for one prime, and only the public
prime_class names it as a string.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import isqrt

import numpy as np
from mpmath import mp, mpf, atan2, sqrt as mpsqrt
from mpmath.libmp import from_int, mpf_atan2, mpf_div, mpf_mul, mpf_pi, mpf_sqrt, round_nearest, to_int

from .specfun import CHI7, ComputeCapError, PrecisionContext, _series_index

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
        disc = 4 * m - 7 * b * b  # >= 0 by the choice of bmax
        d = isqrt(disc)
        if d * d != disc:
            continue
        # d^2 = 4m - 7b^2 = b^2 mod 4, so d = b mod 2 and the roots are integers
        roots = {(-b - d) // 2, (-b + d) // 2}
        for a in sorted(roots):
            out.append((a, b))
    return out


def half_representations(m: int) -> list[tuple[int, int]]:
    """One representative of each {z, -z} pair: b > 0, or b = 0 and a > 0."""
    return [(a, b) for (a, b) in representations(m) if b > 0 or (b == 0 and a > 0)]


def _eps_power_sum(k: int, reps: list[tuple[int, int]]) -> tuple[int, int]:
    """Sum of eps_{a,b} (a+b*eta)^k over reps, as a Z[eta] pair, by zpow:
    the direct form of the sum hecke_coeff takes by Lucas sequences."""
    u = v = 0
    for a, b in reps:
        e = epsilon(a, b)
        if e:
            pu, pv = zpow((a, b), k)
            u += e * pu
            v += e * pv
    return (u, v)


def _lucas_v(k: int, p: int, q: int) -> int:
    """V_k(p, q) = z^k + zbar^k for the roots z, zbar of x^2 - p x + q, odd
    k >= 1, by doubling from V_0 = 2, V_1 = p:
    V_2j = V_j^2 - 2 q^j and V_2j+1 = V_j V_j+1 - p q^j."""
    v, w, qj = 2, p, 1  # V_j, V_j+1, q^j at j = 0
    for bit in bin(k)[2:-1]:  # j runs over the prefixes of the bits of (k - 1)/2
        if bit == "1":
            v, w, qj = v * w - p * qj, w * w - 2 * qj * q, qj * qj * q
        else:
            v, w, qj = v * v - 2 * qj, v * w - p * qj, qj * qj
    return v * w - p * qj  # V_2j+1 at j = (k - 1)/2


def hecke_coeff(k: int, m: int) -> int:
    """The rational integer chi^(k)(m) = (1/2) sum over representations.

    Negation pairs contribute equally for odd k, so the half-representation
    sum already is the halved full sum.  Its terms with b > 0 pair z = (a, b)
    with -zbar = (-a-b, b), and eps(-zbar) = -eps(z), so for odd k a pair
    adds eps(z) (z^k + zbar^k) = eps(z) V_k(2a + b, m), the Lucas
    V-sequence of x^2 - (2a+b) x + m, taken once at the member with
    2a + b > 0 (at 2a + b = 0, z = -zbar and eps(z) = 0).  A rep (a, 0)
    adds eps a^k.  Exact Python ints throughout; _eps_power_sum is the
    direct Z[eta] powering of the same sum.
    """
    if k < 1 or k % 2 == 0:
        raise ValueError("character exponent k must be an odd positive integer")
    total = 0
    for a, b in half_representations(m):
        e = epsilon(a, b)
        if not e:
            continue
        if b == 0:
            total += e * a**k
        elif 2 * a + b > 0:
            total += e * _lucas_v(k, 2 * a + b, m)
    return total


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


def _prime_chi(p: int) -> int:
    """chi_{-7}(p) = (p/7), the splitting class of a prime p as an int.

    Raises ValueError unless p is an int or numpy integer prime (bools
    and floats are refused; a numpy integer is read as the int).
    """
    p = _series_index(p, "prime p")
    if p < 2 or factorint(p) != {p: 1}:
        raise ValueError(f"{p} is not prime")
    return CHI7[p % 7]


def prime_class(p: int) -> str:
    """Splitting type of a rational prime in Q(sqrt(-7)).

    'split' for p = 1, 2, 4 mod 7; 'inert' for p = 3, 5, 6 mod 7;
    'ramified' for p = 7.  Raises ValueError if p is not an int prime.
    """
    return _CLASS_NAMES[_prime_chi(p)]


def factorint(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 by trial division, in increasing p.

    At most about sqrt(n)/2 trial divisors: enough for the table's
    |B(n)|, n <= 33 (below 2^46, largest prime factor 1,747,169), for
    the arguments of the delta averages and for _prime_chi.
    """
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def _spf_sieve(n: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..n as an int64 array."""
    spf = np.arange(n + 1, dtype=np.int64)
    for i in range(2, isqrt(n) + 1):
        if spf[i] == i:
            np.minimum(spf[i * i :: i], i, out=spf[i * i :: i])
    return spf


_CHI7_INT8 = np.array([CHI7[r] for r in range(7)], dtype=np.int8)


def _classes(spf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(primes, chi) read off a smallest-prime-factor table: the primes
    p <= len(spf) - 1 and chi_{-7}(p) = CHI7[p % 7] as int8, read-only."""
    primes = np.flatnonzero(spf == np.arange(len(spf)))[2:]
    chi = _CHI7_INT8[primes % 7]
    for arr in (primes, chi):
        arr.setflags(write=False)
    return primes, chi


def _table_size(P) -> int:
    """P as an int (a numpy integer read as the int) for prime_table and
    prime_classes: ValueError unless an integer >= 0, bools and floats
    refused; ComputeCapError for P > PRIME_TABLE_CAP, before any sieving."""
    P = _series_index(P, "prime bound P")
    if P < 0:
        raise ValueError(f"prime bound P must be >= 0, got {P}")
    if P > PRIME_TABLE_CAP:
        raise ComputeCapError(f"prime table to P = {P} exceeds cap {PRIME_TABLE_CAP}")
    return P


# typed: a cached P = 2 must not answer for 2.0, nor P = 1 for True
@lru_cache(maxsize=2, typed=True)
def prime_classes(P: int) -> tuple[np.ndarray, np.ndarray]:
    """(primes, chi) for p <= P: prime_table(P)'s primes and classes, equal
    entry for entry, from a sieve to P and without the table's angles or
    ppart.  For the routes that read only p and chi_{-7}(p); it leaves the
    shared table as it is.  The last two P asked for are kept, so a run of
    single-height ratios calls sieves once.  Errors as prime_table's."""
    return _classes(_spf_sieve(_table_size(P)))


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
    """Build a CoeffTable: hecke_coeff's Lucas sums at prime powers,
    multiplicative assembly at composites over the prime table's ppart
    (both exact).  At k = 7997, M = 5939 the composite bigint products
    take about 40% of the time, the Lucas sums the rest."""
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

    Per prime: chi, its splitting class chi_{-7}(p) as int8 (1 split,
    -1 inert, 0 at p = 7), and, for its two half-representations in
    half_representations order (zero rows at inert p and p = 7), rep_eps
    and rep_turns, theta(a, b, 30) rounded to 64-bit fixed-point turns, so
    k theta mod 1 is one wrapping uint64 multiply.  Per m <= P: ppart, the
    exact power of the smallest prime factor dividing m.

    table[i:j] cuts the per-prime arrays to those rows and keeps P and
    ppart.  chebyshev works on any row cut; powers and coeffs read every
    prime <= P, so they need the cut prime_table(P) makes.
    """

    P: int
    primes: np.ndarray
    chi: np.ndarray
    ppart: np.ndarray
    rep_eps: np.ndarray
    rep_turns: np.ndarray

    def __getitem__(self, rows: slice) -> PrimeTable:
        cut = {name: getattr(self, name)[rows] for name in ("primes", "chi", "rep_eps", "rep_turns")}
        return replace(self, **cut)

    def chebyshev(self, k: int | np.ndarray, e_max: int, c0: float) -> np.ndarray:
        """x_0..x_{e_max} for each prime: x_0 = c0, x_1 = a_k(p), the sum of
        eps cos(2 pi k theta) over the half-representations of p, and
        x_{e+1} = a_k(p) x_e - x_{e-1} (x_e = 0 for e >= 1 at p = 7).  c0 = 1
        gives a_k(p^e) (U-sequence), c0 = 2 gives Lambda_k(p^e)/log p (T).
        k is an int or an integer array; the axes of k lead the result's
        (prime, e) axes."""
        k = np.asarray(k, dtype=np.uint64)[..., None, None]
        phase = (k * self.rep_turns).view(np.int64) * 2.0**-64  # in [-1/2, 1/2)
        ap = (self.rep_eps * np.cos(2.0 * np.pi * phase)).sum(axis=-1)
        c = self.chi != 0
        xs = [np.full_like(ap, c0), ap]
        for _ in range(e_max - 1):
            xs.append(ap * xs[-1] - c * xs[-2])
        return np.stack(xs[: e_max + 1], axis=-1)

    def powers(self, k: int | np.ndarray, c0: float):
        """(p, q, x): the prime powers q = p^e <= P (e >= 1) and the
        chebyshev value x_e of p at each of them; k as in chebyshev, whose
        axes lead x's.  Past x_1 the ladder runs only on the primes with
        p^2 <= P, a prefix of the rows."""
        e_max = max(1, self.P.bit_length() - 1)
        ps, qs, xs = [self.primes], [self.primes], [self.chebyshev(k, 1, c0)[..., 1]]
        n = int(np.searchsorted(self.primes, isqrt(self.P), side="right"))
        x = self[:n].chebyshev(k, e_max, c0)
        q = self.primes
        for e in range(2, e_max + 1):
            q = q[:n] * self.primes[:n]
            n = int(np.searchsorted(q, self.P, side="right"))
            ps.append(self.primes[:n])
            qs.append(q[:n])
            xs.append(x[..., :n, e])
        return np.concatenate(ps), np.concatenate(qs), np.concatenate(xs, axis=-1)

    def coeffs(self, k: int | np.ndarray) -> np.ndarray:
        """a_k(m) = chi^(k)(m)/m^(k/2) for m = 0..P: the U-sequence at prime
        powers, a(m) = a(ppart) a(m/ppart) at the other m >= 2.  k as in
        chebyshev, whose axes lead the result's m axis.

        Such an m with d distinct prime factors has level d - 1, and
        m/ppart has d - 1 of them: a prime power when m is at level 1, one
        level lower otherwise.  One gather per level, in level order, then
        forms each product exactly once, from factors already final."""
        _, q, x = self.powers(k, 1.0)
        a = np.zeros(x.shape[:-1] + (self.P + 1,))
        a[..., 1] = 1.0
        a[..., q] = x
        levels = self._levels()
        # The levels gather into two buffers made once: fresh row-sized
        # temporaries each level can each cost an mmap and its page faults.
        rows = a[..., 0].size
        size = rows * max((len(m) for m, _, _ in levels), default=0)
        g, h = np.empty(size), np.empty(size)
        for m, pm, rest in levels:
            shape, n = a.shape[:-1] + m.shape, rows * len(m)
            gm, hm = g[:n].reshape(shape), h[:n].reshape(shape)
            a[..., m] = np.multiply(np.take(a, pm, axis=-1, out=gm), np.take(a, rest, axis=-1, out=hm), out=gm)
        return a

    def support(self) -> np.ndarray:
        """The m = 1..P, ascending, where a_k(m) can be nonzero at some k:
        those with chi_{-7}(q) = 1 at every prime power q || m, that is 7
        does not divide m and each inert prime divides it to an even
        power.  At every k, a_k(7^e) (e >= 1) and a_k(p^e) (p inert, e odd)
        are exact zeros in coeffs, and a_k(m) is the product over the
        q || m.  Read off the factorizations m -> m/ppart(m), never off
        floats; chi_{-7}(q) = CHI7[q % 7], a character mod 7."""
        m = np.arange(1, self.P + 1)
        keep = np.ones(len(m), dtype=bool)
        r = m
        while r.max(initial=1) > 1:
            q = self.ppart[r]
            keep &= _CHI7_INT8[q % 7] == 1
            r = r // q
        return m[keep]

    def _levels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(m, ppart[m], m/ppart[m]) over the m <= P that are not prime
        powers, one triple per level 1, 2, ..., in that order; a level
        counts the steps m -> m/ppart(m) that end at a prime power."""
        m = np.flatnonzero(self.ppart < np.arange(self.P + 1))
        pm = self.ppart[m]
        rest = m // pm
        level = np.ones(len(m), dtype=np.int8)
        live, r = np.arange(len(m)), rest
        while len(live):
            up = self.ppart[r] < r  # r is not a prime power: one level higher
            live, r = live[up], r[up]
            level[live] += 1
            r = r // self.ppart[r]
        out = []
        for d in range(1, int(level.max(initial=0)) + 1):
            at = level == d
            out.append((m[at], pm[at], rest[at]))
        return out


def _build_table(P: int, old: PrimeTable | None) -> PrimeTable:
    """A PrimeTable for p <= P.  The angle rows of old, a stored table
    for p <= old.P < P, are copied, so the exact atan2 runs only for the
    split primes in (old.P, P]; the rest is built afresh.  The primes and
    classes are prime_classes's, read off the same sieve."""
    spf = _spf_sieve(P)
    ms = np.arange(P + 1)
    primes, chi = _classes(spf)
    ppart = spf.copy()
    ppart[0] = 1
    # the m >= 2 divisible by p^2, p = spf(m); each pass multiplies in one
    # more p and keeps only the m divisible by the next power
    p = spf[2:]
    left = np.flatnonzero(ms[2:] % (p * p) == 0) + 2
    while len(left):
        ppart[left] *= spf[left]
        left = left[left % (ppart[left] * spf[left]) == 0]
    # Each split p <= P is the norm of one z = (a, b) with b > 0 < 2a + b; its rows
    # are -conj(z) = (-a-b, b), with 1/2 - theta(z) and -eps(z), then z itself.
    # Over those a the norm ((2a + b)^2 + 7b^2)/4 rises, so the norms above
    # P0 = old.P (0 when fresh) start past a = (isqrt(4 P0 - 7b^2) - b)//2
    # when 7b^2 <= 4 P0; the rows of the primes <= P0 are old's.
    prec = 136  # theta(..., digits=30)'s working precision: the turns match it bit for bit
    sqrt7 = mpf_sqrt(from_int(7), prec, round_nearest)
    scale = mpf_div(from_int(1 << 63), mpf_pi(prec, round_nearest), prec, round_nearest)  # 2^64/2pi
    rep_eps = np.zeros((len(primes), 2))
    rep_turns = np.zeros((len(primes), 2), dtype=np.uint64)
    P0 = 0
    if old is not None:
        P0 = old.P
        rep_eps[: len(old.primes)] = old.rep_eps
        rep_turns[: len(old.primes)] = old.rep_turns
    for b in range(1, isqrt(4 * P // 7) + 1):
        d0 = 4 * P0 - 7 * b * b
        lo = (isqrt(d0) - b) // 2 + 1 if d0 >= 0 else -((b - 1) // 2)
        a = np.arange(lo, (isqrt(4 * P - 7 * b * b) - b) // 2 + 1)
        q = a * a + a * b + 2 * b * b
        split = spf[q] == q
        y = mpf_mul(from_int(b), sqrt7, prec, round_nearest)
        for i, x in zip(np.searchsorted(primes, q[split]).tolist(), a[split].tolist()):
            atan = mpf_atan2(y, from_int(2 * x + b), prec, round_nearest)
            t = to_int(mpf_mul(atan, scale, prec, round_nearest), round_nearest)
            rep_eps[i] = -epsilon(x, b), epsilon(x, b)
            rep_turns[i] = (1 << 63) - t, t
    for arr in (ppart, rep_eps, rep_turns):
        arr.setflags(write=False)
    return PrimeTable(P, primes, chi, ppart, rep_eps, rep_turns)


_TABLE: PrimeTable | None = None
_TABLE_LOCK = threading.Lock()


def prime_table(P: int) -> PrimeTable:
    """The shared PrimeTable cut to p <= P, the same at any stored size:
    built on first use, never at import, and rebuilt for a larger P at
    max(P, twice the stored P) clamped at PRIME_TABLE_CAP, so a rising run
    of P costs few builds.  Each rebuild keeps the stored angle rows, so a
    split prime's atan2 is taken once per process.  P is an int >= 0 (a
    numpy integer is read as the int), else ValueError; ComputeCapError
    for P > PRIME_TABLE_CAP."""
    global _TABLE
    P = _table_size(P)
    with _TABLE_LOCK:
        if _TABLE is None or _TABLE.P < P:
            _TABLE = _build_table(min(max(P, 2 * getattr(_TABLE, "P", 0)), PRIME_TABLE_CAP), _TABLE)
        t = _TABLE
    n = int(np.searchsorted(t.primes, P, side="right"))
    return replace(t[:n], P=P, ppart=t.ppart[: P + 1])
