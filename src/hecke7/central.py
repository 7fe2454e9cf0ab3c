"""Central values, the completed L-function on the critical line, and zeros.

Two indexings, following the source conventions:
  * central_value_series(m): the character is chi^(2m-1) (series index,
    after Rodriguez Villegas-Zagier; the sign is (-1)^(m-1));
  * completed_lambda / hardy_Z / zeros_up_to(n): the character is
    chi^(4n-3) (family index; always even functional equation).
Family member n is series index m = 2n - 1.  _member is the one map
from a family index to its member's numbers (k = 4n - 3, c = 2n - 1,
a = c - 1/2); every family routine reads them from there.

Both rest on one sum over the upper incomplete gamma function, with
s = c + it and x_m = 2pi m/7:

    S(c, t) = sum_m chi^(2c-1)(m) x_m^(-s) Gamma(s, x_m).

At t = 0 it is the central-value series

    L(1/2, chi^(2n-1)) = 2 (2pi/7)^n/(n-1)! S(n, 0)
                       = 2 sum_m a(m) Q(n, 2pi m/7) / sqrt(m),

a(m) the normalized coefficients.  On the critical line, with
c = 2n - 1 and Q = 7/(2pi), it is the smoothed approximate functional
equation (Rubinstein 2005): Lambda(1/2+it) = 2 Q^(1/2-c) Re S(c, t).
specfun's fixed-point series kernel sums it in scaled ints, in units of
Gamma(c) (2pi/7)^(-c), with every e^(-x_m) from one ladder: the finite
Poisson sums at t = 0, and on the critical line the lower series below
a switch placed by cost, Legendre's continued fraction above it.

Zero scans run on a float64 engine that factorizes the t-dependence of
the theta integral into one cosine dot product over precomputed,
log-rescaled quadrature data.  Its nodes sit on panels of one width in
x = log y, each with the Gauss-Legendre rule in x, so each phase t x
splits into a panel phase, products of powers of one complex
exponential, and an in-panel phase symmetric about the panel's
midpoint: a Z value costs d sines and cosines for panels of degree d,
not P d cosines.  The refinement is Anderson-Bjorck regula falsi.  The
mpmath route shares no quadrature code with it.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from math import ceil, isfinite, lgamma, log, pi as fpi
from typing import NamedTuple

import numpy as np
import mpmath
from mpmath import mp, mpf, mpc
from numpy.polynomial import legendre

from . import field
from .specfun import (
    PrecisionContext,
    DEFAULT_CTX,
    ComputeCapError,
    ConvergenceError,
    loggamma_f64,
    _series_index,
    _upper_gamma_series,
)

BETA = 2.0 * fpi / 7.0  # 2pi/7, the exponential rate of the theta series
MK_CAP = 50_000_000  # cap on truncation-length x exponent for the series route
_LOSS_CAP = 100  # cap on the digits the critical-line sum cancels: 33 at t = 50, n = 1
T_CAP = 50.0  # desk-scale search height
LOG_Q = log(7.0 / (2.0 * fpi))  # log of the conductor scale Q = 7/(2pi)


class _Member(NamedTuple):
    """Family member n's numbers, from _member."""

    k: int  # character exponent 4n - 3
    c: int  # Gamma shift 2n - 1, also the series index
    a: float  # c - 1/2, the theta-integral exponent of the engine


def _member(n) -> _Member:
    """Family member n's numbers, for an integer n >= 1 (a numpy integer
    reads as the int) or an integer array of them (entrywise); ValueError
    for anything else, bools and integral floats included."""
    if type(n) is not int:
        arr = np.asarray(n)
        if arr.dtype.kind not in "iu":
            raise ValueError(f"family index n must be an integer, got {n!r}")
        n = arr if arr.ndim else int(arr)
    if (n if type(n) is int else n.min()) < 1:
        raise ValueError("family index n must be >= 1")
    return _Member(k=4 * n - 3, c=2 * n - 1, a=2 * n - 1.5)


@dataclass(frozen=True)
class CentralValue:
    """L(1/2, chi^(2n-1)) with its method tag and rigorous tail bound."""

    n: int
    value: mpf
    method: str
    tail_bound: mpf


@dataclass(frozen=True)
class ZeroRecord:
    """Positive ordinates of L(s, chi^(4n-3)) zeros up to t_max.

    scaled[i] = gammas[i] * log(2n) / pi (unit mean spacing at desk scale).
    """

    n: int
    gammas: tuple
    scaled: tuple
    t_max: float


def series_truncation(n: int, digits: int) -> int:
    """Truncation point M for the central-value series at exponent 2n-1.

    Rigorous: |chi^(k)(m)| <= d(m) m^(k/2) and d(m) <= 2 sqrt(m) give
    |term(m)| <= 4 Q(n, beta m); for beta m >= (4/3)(n-1) consecutive
    bounds decay by at least e^(-beta/4), so the remainder past M is
    under 5 * 4 * n e^(-beta M)(beta M)^(n-1)/(n-1)!.  We return the
    first M past the Tricomi transition where that bound is below
    10^(-digits-2).
    """
    target = -(digits + 2) * log(10.0)
    m = max(int(4.0 * (n - 1) / (3.0 * BETA)) + 1, int(n / BETA) + 2, 4)
    while _log_tail_bound(n, m) >= target:
        m += max(1, m // 256)
    return m


def _log_tail_bound(n: int, m: int) -> float:
    """log of the series remainder bound past m (see series_truncation)."""
    x = BETA * (m + 1)
    return log(20.0 * n) - x + (n - 1) * log(x) - lgamma(n)


def central_value_series(n: int, ctx: PrecisionContext = DEFAULT_CTX) -> CentralValue:
    """L(1/2, chi^(2n-1)) = 2 (2pi/7)^n/(n-1)! S(n, 0), truncated at
    series_truncation(n, ctx.digits) with tail_bound its remainder bound."""
    n = _series_index(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n % 2 == 0:
        # odd functional equation: (-1)^(n-1) = -1 forces L(1/2) = 0
        return CentralValue(n=n, value=mpf(0), method="exact", tail_bound=mpf(0))
    k = 2 * n - 1
    M = series_truncation(n, ctx.digits)
    if M * k > MK_CAP:
        raise ComputeCapError(f"series length {M} x exponent {k} exceeds cap {MK_CAP}")
    wp = ctx.working_dps + 5
    S = _gamma_sum(n, 0, M, wp)
    with mp.workdps(wp):
        value = 2 * S
        tail = mpmath.exp(_log_tail_bound(n, M))
        return CentralValue(n=n, value=+value, method="series", tail_bound=+tail)


def _gamma_sum(c: int, t, M: int, wp: int):
    """S(c, t) / (Gamma(c) beta^(-c)), with S(c, t) truncated at m <= M
    and beta = 2pi/7, at wp digits, by specfun's fixed-point series
    kernel; real (an mpf) at t = 0, where it is
    sum_m chi^(2c-1)(m) m^(-c) Q(c, x_m) = L(1/2, chi^(2c-1))/2."""
    table = field.coeff_table(2 * c - 1, M)
    with mp.workdps(wp):
        return _upper_gamma_series(c, t, lambda: 2 * mp.pi / 7, table.exact)


# ---------------------------------------------------------------------------
# theta-integral machinery
# ---------------------------------------------------------------------------


def _theta_log_peak(a: float, y: float) -> float:
    """a log m* - beta m* y at m* = max(1, a/(beta y)): the largest
    exponent a log m - beta m y of the theta series at height y over
    real m >= 1."""
    mstar = max(1.0, a / (BETA * y))
    return a * log(mstar) - BETA * mstar * y


def _theta_m_cutoff(a: float, y: float, drop: float) -> int:
    """Number of terms so that the discarded theta-series mass at height y
    is `drop` in natural log below the peak term (float bookkeeping)."""
    mstar = max(1.0, a / (BETA * y))
    peak = _theta_log_peak(a, y)
    m = int(mstar) + 1
    while True:
        # d(m) <= 2 sqrt(m); fold into the exponent as log(2) + 0.5 log m
        if log(2.0) + (a + 0.5) * log(m) - BETA * m * y < peak - drop - log(1.0 + m):
            return m
        m += max(1, m // 64)


def _integral_Y(a: float, drop: float) -> float:
    """Upper endpoint Y with the m=1 tail integral `drop` below the
    integrand's peak scale (peak ~ exp(a ln(a/beta) - a) at y* = a/beta)."""
    ystar = max(1.0, (a + 0.5) / BETA)
    peak = (a - 0.5) * log(ystar) - BETA * ystar
    y = ystar + 1.0
    while (a - 0.5) * log(y) - BETA * y > peak - drop - log(1.0 + y):
        y *= 1.05
    return y


# degree -> its Gauss-Legendre rule on [-1, 1], published by setdefault once read-only
_GL_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending, and symmetric: node d-1-k is minus node k) and
    weights of the degree-point Gauss-Legendre rule on [-1, 1], computed
    once per degree and kept read-only in _GL_RULES."""
    rule = _GL_RULES.get(degree)
    if rule is None:
        rule = legendre.leggauss(degree)
        for arr in rule:
            arr.setflags(write=False)
        rule = _GL_RULES.setdefault(degree, rule)
    return rule


def _panel_rule(edges, degree: int):
    """Nodes and weights of the degree-point Gauss-Legendre rule on each
    panel [edges[i], edges[i+1]], flattened panel by panel."""
    nodes, weights = _gl_rule(degree)
    lo, hi = np.asarray(edges[:-1], dtype=float), np.asarray(edges[1:], dtype=float)
    mid, rad = 0.5 * (hi + lo)[:, None], 0.5 * (hi - lo)[:, None]
    return (mid + rad * nodes).ravel(), (rad * weights).ravel()


_DROP = 44.0  # theta truncation drop below the peak: ~19 digits of headroom
_WINDOW_PANELS = 2  # panels per (node x coefficient) window of the build


def _assembler(n: int, width: float, coeff=None):
    """Member n's theta coefficients, truncation M, endpoint Y, panels
    and coefficient windows, computed once; returns assemble(*degrees),
    the list of quadrature data (u, l, G, lgnorm) of member n's engine
    (see ZEngine) under the degree-point Gauss-Legendre rule in x = log y
    on each panel, every degree's nodes summed in the same pass over the
    windows.  coeff, when given, is a_k(m) for m = 0..M (a row of one
    PrimeTable.coeffs call over a scan block); otherwise it is read here.

    The panels are [u_p, u_p + width] in x, u_p = p width exactly, the
    first P of them with P width >= log Y.  Each carries the rule in x,
    so node k of panel p is y = e^(u_p + l_k) with the in-panel offsets
    l_k = width/2 + (width/2) xi_k, symmetric about the panel's midpoint,
    and weight (width/2) w_k y; G[p, k] is that node's rescaled weight.

    The nodes are summed in windows of _WINDOW_PANELS panels [y0, y1],
    each over the columns [lo, hi) of the nonzero m whose term can pass
    the drop at some height of the window: by _theta_m_cutoff's
    inequality (d(m) <= 2 sqrt(m), log(1 + m), drop 44 below the peak),
    a term is dropped where log 2 + (a + 1/2) log m - beta m y is below
    the peak exponent less 44 + log(1 + m).  Below the peak m* = a/(beta y)
    a term's distance to the peak shrinks as y grows and above it the
    distance grows, so lo is set at y1 and hi at y0.  Every node thus
    carries the same e^(-44) bound that M carries at y = 1."""
    k, _, a = _member(n)
    if coeff is None:
        coeff = field.prime_table(_theta_m_cutoff(a, 1.0, _DROP)).coeffs(k)
    ms = np.nonzero(coeff)[0]
    cs, mf = coeff[ms], ms.astype(float)
    lm, nmf = np.log(mf), -mf
    alm = a * lm
    P = ceil(log(_integral_Y(a, _DROP)) / width)  # Y >= 2 > e^(2 width): P >= 3
    u = np.arange(P) * width
    edges = np.exp(np.arange(P + 1) * width)
    # the log bound on a term at y = 0, with the drop's log(1 + m) moved over
    size = log(2.0) + (a + 0.5) * lm + np.log1p(ms)
    first = np.arange(0, P, _WINDOW_PANELS)
    end = np.minimum(first + _WINDOW_PANELS, P)

    def passes(ys):  # (window x m): the terms that can pass the drop at ys
        floor = [_theta_log_peak(a, y) - _DROP for y in ys.tolist()]
        return size - (BETA * ys)[:, None] * ms >= np.array(floor)[:, None]

    lo = np.argmax(passes(edges[end]), axis=1)
    hi = len(ms) - np.argmax(passes(edges[first])[:, ::-1], axis=1)
    # (first panel, end panel, lo, hi) of each window
    windows = list(zip(first.tolist(), end.tolist(), lo.tolist(), hi.tolist()))
    half = 0.5 * width

    def assemble(*degrees: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, float]]:
        rules = [_gl_rule(d) for d in degrees]
        ls = [half + half * xi for xi, _ in rules]
        # every degree's nodes of panel p side by side in row p
        xs = u[:, None] + np.concatenate(ls)
        by = np.exp(xs)
        by *= BETA
        # phi_j = sum_m c_m e^(expo_jm - E_j) over the node's window, with
        # the max exponent E_j factored out; one (nodes x m) array a window
        tj, phis = np.empty_like(xs), np.empty_like(xs)
        for p, q, lo, hi in windows:
            expo = by[p:q].reshape(-1, 1) * nmf[lo:hi]
            expo += alm[lo:hi]
            tb = expo.max(axis=1)
            expo -= tb[:, None]
            np.exp(expo, out=expo)
            tj[p:q] = tb.reshape(q - p, -1)
            phis[p:q] = (expo @ cs[lo:hi]).reshape(q - p, -1)
        logw = np.concatenate([np.log(half * w) for _, w in rules])
        Es = tj + (a + 0.5) * xs + logw
        out, j = [], 0
        for d, l in zip(degrees, ls):
            E = Es[:, j : j + d]
            Estar = float(E.max())
            out.append((u, l, phis[:, j : j + d] * np.exp(E - Estar), Estar - (a + 0.5) * LOG_Q))
            j += d
        return out

    return assemble


def _z_block(rules):
    """Z under the quadrature data rules[j] = (a, u, l, G, lgnorm) of one
    or more members (see ZEngine), as the map (member, ts) -> Z with ts[i]
    under rules[member[i]]; member is nondecreasing, so each rule's
    points are one slice.  Every engine has P >= 3 panels (see _assembler)
    and an even degree d.

    Node k of panel p sits at the panel's midpoint u_p + w/2 plus the
    offset o_k = l_k - w/2, and o_(d-1-k) = -o_k, so with the folded
    weights Gs = G_k + G_(d-1-k) and Gd = G_k - G_(d-1-k) over the upper
    half k >= d/2,

        sum_pk G_pk cos(t (u_p + l_k)) = sum_k [cos(t o_k) (C @ Gs)_k
                                                - sin(t o_k) (S @ Gd)_k]

    with C + iS = e^(it (u_p + w/2)), the panel phases.  Those come from
    one complex exponential e^(itw/2) per point and products with its
    square's powers by doubling: row p + m is row p times e^(itmw) for
    m = 1, 2, 4, ... (the panels are u_p = p w).  The phases are
    computed for the most panels, each slice makes its two
    (points x P) @ (P x d/2) products, and the in-panel phases and
    log |Gamma| run on the flat arrays."""
    P = max(len(rule[1]) for rule in rules)
    hd = max(len(rule[2]) for rule in rules) // 2
    half = np.array([0.5 * rule[1][1] for rule in rules])  # w/2, from u_1 = w
    O = np.zeros((len(rules), hd))
    folded = []
    for j, (_, u, l, G, _) in enumerate(rules):
        k = len(l) // 2
        O[j, :k] = l[k:] - half[j]
        lo = G[:, k - 1 :: -1]
        folded.append((G[:, k:] + lo, G[:, k:] - lo))
    c = np.array([rule[0] + 0.5 for rule in rules])
    lgnorm = np.array([rule[4] for rule in rules])
    cuts = np.arange(len(rules) + 1)

    def z(member: np.ndarray, ts: np.ndarray) -> np.ndarray:
        E = np.empty((P, len(ts)), dtype=complex)
        E[0] = np.exp(1j * (ts * half[member]))
        step, m = E[0] * E[0], 1  # e^(itmw): rows m.. are rows 0.. times it
        while m < P:
            k = min(m, P - m)
            np.multiply(E[:k], step, out=E[m : m + k])
            step, m = step * step, m + k
        C, S = np.ascontiguousarray(E.real), np.ascontiguousarray(E.imag)
        cg, sg = np.zeros((len(ts), hd)), np.zeros((len(ts), hd))
        bounds = np.searchsorted(member, cuts).tolist()
        for (Gs, Gd), i, j in zip(folded, bounds, bounds[1:]):
            if i < j:
                p, k = Gs.shape
                cg[i:j, :k] = C[:p, i:j].T @ Gs
                sg[i:j, :k] = S[:p, i:j].T @ Gd
        to = ts[:, None] * O[member]
        dots = (np.cos(to) * cg).sum(axis=1) - (np.sin(to) * sg).sum(axis=1)
        return 2.0 * dots * np.exp(lgnorm[member] - loggamma_f64(c[member], ts).real)

    return z


class ZEngine:
    """Fast Hardy-Z evaluator for the family member chi^(4n-3).

    Precomputes log-rescaled Gauss-Legendre data on [1, Y] so each
    evaluation is a cosine dot product over the nodes y_j:

        Z(t) = 2 [sum_j G_j cos(t log y_j)] * exp(E* - (a+1/2) ln Q
                                                  - Re log Gamma(a+1/2+it)).

    The panels have one width w in x = log y, PANEL_WIDTH = 16/(1 + T_CAP),
    about 2.5 periods of cos(T_CAP x), so one engine serves every scan
    height of its member.  They are u_p = p w and each carries the rule in
    x, so node k of panel p has log y = u_p + l_k with offsets l_k
    symmetric about the midpoint w/2 (see _assembler), and with G as a
    (panels x degree) array

        sum_j G_j cos(t log y_j) = sum_k [cos(t l_k) (cos(t u) @ G)_k
                                          - sin(t l_k) (sin(t u) @ G)_k].

    _z_block evaluates it with one complex exponential and about P complex
    products for the panel phases, and d/2 sines and d/2 cosines for the
    in-panel phases, each +-l pair's weights folded into their sum and
    difference: about 1.0 us per Z value at degree 24 on a 2-vCPU host
    (4,096 points over members 41-48), half of it the in-panel sines and
    cosines.  Each node's weight sums only the coefficients of its window
    of panels whose terms can pass the truncation drop there, so every
    node keeps the e^(-44) bound of the truncation M (see _assembler).  A
    zero scan refines the brackets of several members in one run
    (_zeros_block), with Z of every engine evaluated by _z_block.

    The rule's degree per panel is chosen by the degree ladder (_ladder):
    the data at degree d and at 2d are assembled on the same panels and
    evaluated at 16 probe points of (0, min(t_reliable(n)/2, T_CAP)]; the
    first d of 24, 48, 96 whose two rules agree within PROBE_TOL relative
    to max(1, |Z|) is kept (`degree`), otherwise ConvergenceError.
    Degree 24 passes for every member n <= 414 (gaps at most 4.6e-11 for
    n <= 300), and degree 48 for every other member up to 2,000.  The
    probes stop at t_reliable(n)/2 because nearer the ceiling any two
    rules differ by float64 noise of up to about 1e-5, and at T_CAP, the
    highest scan height: above it, from n = 105, the gaps are the float64
    rounding of G (up to 2.2e-8 at n <= 300), not the quadrature.
    Reliable while the Gamma-modulus suppression stays above the float64
    cancellation floor; the engine keeps that ceiling, t_reliable(n), as
    its float `t_reliable`.

    The constructor only stores: `_built` is member n's (t_reliable,
    degree, rule) from a _ladder call over a block of members (as _engine
    makes), and ZEngine(n) runs the ladder on member n alone.
    """

    PANEL_WIDTH = 16.0 / (1.0 + T_CAP)  # in log y; 0.314 at T_CAP = 50
    DEGREES = (24, 48, 96)  # each twice the last: a rejected 2d rule is the next d rule
    PROBE_TOL = 1e-10

    def __init__(self, n: int, _built: tuple | None = None):
        self.a = _member(n).a
        self.n = n
        self.t_reliable, self.degree, (self.u, self.l, self.G, self.lgnorm) = _built or _ladder([n])[0]
        for arr in (self.u, self.l, self.G):
            arr.setflags(write=False)  # _engine shares one engine per member

    def z_many(self, ts: np.ndarray) -> np.ndarray:
        return _z_block([(self.a, self.u, self.l, self.G, self.lgnorm)])(np.zeros(len(ts), dtype=np.intp), ts)


def _probes(t_rel: float) -> np.ndarray:
    """The 16 probe heights of the degree check, on (0, min(t_rel/2, T_CAP)]."""
    return np.linspace(0.0, min(0.5 * t_rel, T_CAP), 17)[1:]


def _ladder(ns) -> list[tuple]:
    """(t_reliable, degree, rule) of each member of ns, rule = (u, l, G,
    lgnorm) its quadrature data at the chosen degree (see ZEngine), all
    members built together: one PrimeTable.coeffs call on their k at the
    largest truncation M, each member's rules at d = DEGREES[0] and 2d in
    one pass over its coefficient windows (_assembler), then one rung per
    degree d: one _z_block call for the probes of every member still
    climbing, under its rules at d and 2d.  A member keeps the first d
    whose probe gap, the largest |Z_d - Z_2d| / max(1, |Z_2d|), is at
    most PROBE_TOL; one that fails at the last d (a nan gap fails)
    raises ConvergenceError, and every other assembles its rule at 4d for
    the next rung.  A member's rules are the same bits whichever members
    share the block; its gaps can differ in rounding only."""
    members = _member(np.array(ns))
    a = members.a.tolist()
    Ms = [_theta_m_cutoff(aj, 1.0, _DROP) for aj in a]
    rows = field.prime_table(max(Ms)).coeffs(members.k)
    t_rel = [t_reliable(n) for n in ns]
    d = ZEngine.DEGREES[0]
    assembles = [_assembler(n, ZEngine.PANEL_WIDTH, row[: M + 1]) for n, M, row in zip(ns, Ms, rows)]
    rules = [assemble(d, 2 * d) for assemble in assembles]  # member j's rules at d and 2d
    built = [None] * len(ns)
    climbing = list(range(len(ns)))
    while climbing:
        z = _z_block([(a[j], *rule) for j in climbing for rule in rules[j]])
        probes = [_probes(t_rel[j]) for j in climbing for _ in rules[j]]
        zs = z(np.repeat(np.arange(len(probes)), [len(p) for p in probes]), np.concatenate(probes))
        zs = zs.reshape(len(climbing), 2, -1)
        gaps = np.max(np.abs(zs[:, 0] - zs[:, 1]) / np.maximum(1.0, np.abs(zs[:, 1])), axis=1)
        above = []
        for j, gap in zip(climbing, gaps.tolist()):
            if gap <= ZEngine.PROBE_TOL:
                built[j] = (t_rel[j], d, rules[j][0])
            elif d == ZEngine.DEGREES[-1]:
                raise ConvergenceError(f"ZEngine n={ns[j]}: Gauss-Legendre degrees {d} and {2 * d} differ by {gap:.1e}")
            else:
                rules[j] = (rules[j][1], *assembles[j](4 * d))
                above.append(j)
        climbing, d = above, 2 * d
    return built


def t_reliable(n: int) -> float:
    """The first t of the 0.5 grid on [0, 4 T_CAP) where the Gamma-modulus
    suppression of member n has fallen to 1e-10, the float64 noise floor
    of the engine's cosine dot product, else 4 T_CAP; it depends on n
    alone."""
    c = _member(n).c  # a + 1/2 of the engine
    ts = np.arange(0.0, 4 * T_CAP, 0.5)
    lg = loggamma_f64(c, ts).real
    below = np.nonzero(np.exp(lg - lg[0]) <= 1e-10)[0]
    return float(ts[below[0]]) if len(below) else 4 * T_CAP


# family index -> its member's engine, grow-only: no caller reads more than
# moments.SWEEP_CAP = 2,000 members, whose engines hold 18.4 MB of arrays
_ENGINES: dict[int, ZEngine] = {}
_ENGINES_LOCK = threading.Lock()


def _engine(*ns) -> list[ZEngine]:
    """The shared engine of each family index of ns, in order, each built
    once; an engine serves every scan height of its member up to T_CAP.
    Each n is read through _member first, so a numpy integer finds the
    engine of the equal int.  The members missing from _ENGINES are built
    together by one _ladder call, as a scan block of empirical_one_level
    asks: members 1-96 take 0.06 s so, against 0.09 s built one by one
    (medians, 2-vCPU host)."""
    ns = [(_member(n).c + 1) // 2 for n in ns]
    with _ENGINES_LOCK:
        missing = [n for n in dict.fromkeys(ns) if n not in _ENGINES]
        if missing:
            for n, built in zip(missing, _ladder(missing)):
                _ENGINES[n] = ZEngine(n, built)
        return [_ENGINES[n] for n in ns]


def get_engine(n: int) -> ZEngine:
    """The shared engine of member n (see _engine)."""
    return _engine(n)[0]


def completed_lambda(n: int, t, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Lambda(1/2+it) = 2 Q^(1/2-c) Re S(c, t) for chi^(4n-3), c = 2n - 1,
    at ctx precision (the smoothed approximate functional equation).

    |Gamma(c+it, x)| <= Gamma(c, x), so series_truncation(c, .) bounds
    the remainder at every t.  The terms cancel down by
    10^loss = Gamma(c)/|Gamma(c+it)|, so the sum is run and truncated at
    working_dps + loss + 12 digits.  ValueError for a t that is not a
    finite number; ComputeCapError, before any work, for a loss above
    _LOSS_CAP digits (t above about 148 at n = 1), since the cost grows
    about as loss^3."""
    c = _member(n).c
    if not isfinite(float(t)):
        raise ValueError(f"height t must be a finite number, got {t}")
    loss = ceil((lgamma(c) - loggamma_f64(c, float(t)).real) / log(10.0))
    if loss > _LOSS_CAP:
        raise ComputeCapError(f"the sum at t = {t} cancels {loss} digits, past cap {_LOSS_CAP}")
    wp = ctx.working_dps + loss + 12
    M = series_truncation(c, wp)
    S = _gamma_sum(c, t, M, wp)
    with mp.workdps(wp):
        lam = 2 * mpmath.factorial(c - 1) / mpmath.sqrt(2 * mp.pi / 7) * mpmath.re(S)  # Q^(1/2-c) Gamma(c) beta^(-c)
        return mpc(+lam, 0)


def hardy_Z(n: int, t, ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """Z(t) = Lambda(1/2+it) / |(7/2pi)^(1/2+it) Gamma(c+it)|, c = 2n - 1;
    real and even with the same critical-line zeros as L, and good to
    about 10^(-working_dps) absolute at every t (see completed_lambda)."""
    c = _member(n).c
    with mp.workdps(ctx.working_dps + 12):
        lam = completed_lambda(n, t, ctx)
        q = 7 / (2 * mp.pi)
        denom = mpmath.sqrt(q) * abs(mpmath.gamma(mpf(c) + mpc(0, 1) * mpf(t)))
        return +(mpmath.re(lam) / denom)


def zero_count_main_term(n: int, T: float) -> float:
    """(T/pi) log 2n, the source's zero-count main term."""
    return T / fpi * log(2 * n)


ZERO_WIDTH = 1e-11  # bracket width at which a zero counts as isolated


def _regula_falsi(z, lo, hi, flo, fhi) -> tuple[np.ndarray, np.ndarray]:
    """The brackets [lo, hi] (Z(lo) Z(hi) < 0), shrunk below ZERO_WIDTH by
    the Anderson-Bjorck variant of regula falsi (N. Anderson and
    A. Bjorck, BIT 13 (1973)), all brackets at once with one call
    z(live, x) per step: Z at the points x of the brackets whose indices
    are live, in increasing order.  A bracket whose point x has Z exactly 0
    closes on it (lo = hi = x).

    Each step keeps a sign change inside every bracket.  When the same
    end is kept twice running, its Z value is scaled by
    m = 1 - Z(x)/Z(replaced end), or by 1/2 where m <= 0, which pulls the
    next secant point across the zero.  A secant point stays at least
    0.4 ZERO_WIDTH inside the bracket, so once it has converged the next
    step closes the bracket around it.  A bracket whose width has not
    halved in three steps takes one bisection step.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo, fhi = np.array(flo, dtype=float), np.array(fhi, dtype=float)
    kept = np.zeros(len(lo), dtype=int)  # end kept last step: -1 lo, +1 hi
    ref = hi - lo  # width at the last halving
    stalled = np.zeros(len(lo), dtype=int)  # steps since then
    live = np.nonzero(hi - lo >= ZERO_WIDTH)[0]
    while len(live):
        l, h, fl, fh = lo[live], hi[live], flo[live], fhi[live]
        x = np.clip(l - fl * (h - l) / (fh - fl), l + 0.4 * ZERO_WIDTH, h - 0.4 * ZERO_WIDTH)
        bis = stalled[live] >= 3
        x[bis] = 0.5 * (l[bis] + h[bis])
        fx = z(live, x)
        root = fx == 0.0
        left = (np.sign(fx) == np.sign(fl)) & ~root  # zero lies in [x, h]
        right = ~left & ~root  # zero lies in [l, x]
        # Anderson-Bjorck: scale the value at the end kept for a second step
        m = 1.0 - fx / np.where(left, fl, fh)
        m[m <= 0.0] = 0.5
        again = left & (kept[live] == 1)
        fh[again] *= m[again]
        again = right & (kept[live] == -1)
        fl[again] *= m[again]
        l[left], fl[left] = x[left], fx[left]
        h[right], fh[right] = x[right], fx[right]
        l[root] = h[root] = x[root]
        lo[live], hi[live], flo[live], fhi[live] = l, h, fl, fh
        kept[live] = np.where(left, 1, -1)
        w = h - l
        halved = w <= 0.5 * ref[live]
        ref[live] = np.where(halved, w, ref[live])
        stalled[live] = np.where(halved, 0, stalled[live] + 1)
        live = live[w >= ZERO_WIDTH]
    return lo, hi


def zeros_up_to(n: int, T: float, ctx: PrecisionContext = DEFAULT_CTX) -> ZeroRecord:
    """All sign changes of Z on (0, T]: a grid scan, then vectorised
    Anderson-Bjorck refinement (`_regula_falsi`) of every sign-change
    bracket; the one-member case of `_zeros_block`.

    Each returned ordinate is the midpoint of a bracket narrower than
    ZERO_WIDTH = 1e-11 across which the engine's Z changes sign, or a
    point of the grid or of the refinement where Z is exactly 0.  The
    scan uses the member's one shared engine (`_engine(n)`, built by the
    degree ladder alone when missing), whatever T is; past its float64
    ceiling t_reliable(n) the scan is truncated there with a warning.

    The scan step refines the quarter-mean-spacing rule pi/(4 log(2n+4))
    with the local density log((7/2pi)(2n+t)) so tall scans at small n
    do not undersample.  The grid's last step ends at T itself, so a
    zero between the last full step and T is bracketed too.  Two zeros
    closer together than one step can still be missed (no sign change
    between grid points).  A zero count off the gamma-phase count
    theta(T)/pi by more than 5 + log 2n is warned of.
    """
    return _zeros_block([n], [T])[0]


def _zeros_block(ns, Ts) -> list[ZeroRecord]:
    """zeros_up_to(ns[i], Ts[i]) for every i, with its errors and
    warnings: each member's grid scan on its own engine, all of them from
    one `_engine(*ns)` call (the missing ones built together by one
    _ladder call), then one Anderson-Bjorck run (`_regula_falsi`) over
    the sign-change brackets of all the members, Z evaluated for every
    live point at once by one _z_block over their engines.  Every T and n is checked before
    any member is scanned."""
    for T in Ts:
        if not T > 0:  # also refuses nan
            raise ValueError("T must be positive")
        if T > T_CAP:
            raise ValueError(f"T={T} beyond desk-scale cap {T_CAP}")
    cs = [_member(n).c for n in ns]
    engines = _engine(*ns)
    scans = []  # (T, grid, Z on it, exact zeros, brackets) per member
    for n, T, eng in zip(ns, Ts, engines):
        t_rel = eng.t_reliable
        if T > t_rel:
            warnings.warn(
                f"n={n}: float64 engine unreliable past t={t_rel:.1f}; "
                f"truncating scan (requested {T})"
            )
            T = t_rel
        step = fpi / (4.0 * max(log(2 * n + 4), log(1.1141 * (2 * n + T))))
        # anchor at t=0 (Z(0) > 0 here: central nonvanishing holds family-wide)
        # so a first zero inside (0, step) is still bracketed
        ts = np.arange(0.0, T, step)
        ts = np.append(ts[ts < T], T)
        zs = eng.z_many(ts)
        scans.append((T, ts, zs, np.nonzero(zs[:-1] == 0.0)[0], np.nonzero(zs[:-1] * zs[1:] < 0)[0]))
    counts = [len(brackets) for *_, brackets in scans]
    owner = np.repeat(np.arange(len(scans)), counts)
    lo, hi, flo, fhi = (np.concatenate(ends) for ends in zip(*[(ts[b], ts[b + 1], zs[b], zs[b + 1]) for _, ts, zs, _, b in scans]))
    z = _z_block([(eng.a, eng.u, eng.l, eng.G, eng.lgnorm) for eng in engines])
    lo, hi = _regula_falsi(lambda live, x: z(owner[live], x), lo, hi, flo, fhi)
    refined = 0.5 * (lo + hi)
    records = []
    for n, c, (T, ts, _, exact, brackets), part in zip(ns, cs, scans, np.split(refined, np.cumsum(counts)[:-1])):
        order = np.argsort(np.concatenate([exact, brackets]))
        gammas = np.concatenate([ts[exact], part])[order].tolist()
        # the gamma-phase count theta(T)/pi, theta(t) = t log Q + Im log Gamma(c+it)
        expected = (T * LOG_Q + loggamma_f64(c, T).imag) / fpi
        if abs(len(gammas) - expected) > 5 + log(2 * n):
            warnings.warn(
                f"n={n}, T={T}: found {len(gammas)} zeros vs gamma-phase count "
                f"{expected:.2f}; grid may be too coarse"
            )
        scale = log(2 * n) / fpi
        records.append(ZeroRecord(n=n, gammas=tuple(gammas), scaled=tuple(g * scale for g in gammas), t_max=float(T)))
    return records
