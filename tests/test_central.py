"""Central values by series, the completed function, and critical-line zeros."""

import copy
import math
import warnings

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpf
from scipy.special import loggamma as c_loggamma

from hecke7 import central, field, moments, vz
from hecke7.specfun import ComputeCapError, ConvergenceError, PrecisionContext, loggamma_f64

CTX20 = PrecisionContext(20)
CTX25 = PrecisionContext(25)


def test_series_truncation_bound():
    M = central.series_truncation(1, 30)
    assert 50 < M < 200
    # the stated remainder bound must hold at the returned M
    x = central.BETA * (M + 1)
    logbound = math.log(20.0) - x + 0 * math.log(x) - math.lgamma(1)
    assert logbound < -32 * math.log(10)
    assert central.series_truncation(9, 30) >= central.series_truncation(9, 15)


def test_series_matches_exact_central_value():
    for n in (1, 9, 21):
        cv = central.central_value_series(n, CTX20)
        ec = vz.central_value_exact(n, CTX25)
        assert cv.method == "series"
        assert cv.tail_bound < mpf(10) ** -21
        assert abs(cv.value - ec.L) < mpf(10) ** -18, n


@pytest.mark.parametrize("n, digits", [(1, 30), (51, 30), (101, 30), (377, 20), (937, 20)])
def test_series_against_gammainc(n, digits):
    # the same series, truncated at its own length, with its terms
    # a(m) m^(-n) Q(n, beta m) by mpmath's gammainc at 20 digits more
    cv = central.central_value_series(n, PrecisionContext(digits))
    M = central.series_truncation(n, digits + 20)
    table = field.coeff_table(2 * n - 1, M)
    with mp.workdps(digits + 20):
        beta = 2 * mp.pi / 7
        want = 2 * mpmath.fsum(
            e * mpf(m) ** -n * mpmath.gammainc(n, beta * m, regularized=True) for m, e in table.exact.items() if e
        )
    assert abs(cv.value - want) <= cv.tail_bound + mpf(10) ** -digits


def test_series_exponentials_do_not_grow_with_the_series(monkeypatch):
    # the series route takes every e^(-x_m) from one ladder, so a call
    # makes as many mpmath.exp calls at n = 101 (M = 313) as at n = 51
    calls = []
    exp = mpmath.exp

    def counted(*args, **kwargs):
        calls.append(args)
        return exp(*args, **kwargs)

    monkeypatch.setattr(mpmath, "exp", counted)
    counts = []
    for n in (51, 101):
        calls.clear()
        central.central_value_series(n, PrecisionContext(30))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 2, counts


def test_series_even_n_exact_zero():
    cv = central.central_value_series(6, CTX20)
    assert cv.value == 0 and cv.method == "exact" and cv.tail_bound == 0
    with pytest.raises(ValueError):
        central.central_value_series(0)


def test_series_compute_cap():
    with pytest.raises(ComputeCapError):
        central.central_value_series(5001)


def test_completed_lambda_ties_to_series_route():
    # Lambda(1/2) = Q^(1/2) Gamma(a+1/2) L(1/2) with L from the
    # incomplete-gamma series; family n has exponent 4n-3 = 2(2n-1)-1
    for n_fam, n_ser in ((1, 1), (3, 5)):
        lam = central.completed_lambda(n_fam, 0.0, CTX25)
        cv = central.central_value_series(n_ser, CTX25)
        with mp.workdps(40):
            a = mpf(2 * n_fam) - mpf(3) / 2
            want = (7 / (2 * mp.pi)) ** mpf("0.5") * mpmath.gamma(a + mpf(1) / 2) * cv.value
            assert abs(mpmath.re(lam) - want) < mpf(10) ** -22, n_fam
    with pytest.raises(ValueError):
        central.completed_lambda(0, 1.0)


def _hardy_Z_gammainc(n, t, dps):
    """Z(t) = 2 Q^(-c) Re S(c, t)/|Gamma(c + it)|, c = 2n - 1, with the
    terms of S by mpmath's gammainc, at dps digits plus the cancellation."""
    c = 2 * n - 1
    with mp.workdps(dps):
        loss = int(mpmath.ceil((mpmath.loggamma(c) - mpmath.re(mpmath.loggamma(mpmath.mpc(c, t)))) / mpmath.log(10)))
    wp = dps + loss + 12
    M = central.series_truncation(c, wp)
    table = field.coeff_table(2 * c - 1, M)
    with mp.workdps(wp):
        s, beta = mpmath.mpc(c, t), 2 * mp.pi / 7
        S = mpmath.fsum(e * (beta * m) ** -s * mpmath.gammainc(s, beta * m) for m, e in table.exact.items() if e)
        return 2 * (7 / (2 * mp.pi)) ** -c * mpmath.re(S) / abs(mpmath.gamma(s))


@pytest.mark.parametrize("n, t", [(1, 0.3), (2, 49.9), (96, 17.7)])
def test_hardy_Z_against_gammainc_series(n, t):
    # the fixed-point kernel against the same series summed with mpmath's
    # gammainc at 60 digits; n = 96 (c = 191) sums x up to 190 by the lower
    # series, and at x = 30 and 60 the continued fraction is off by O(1)
    ctx = PrecisionContext(15)
    assert abs(central.hardy_Z(n, t, ctx) - _hardy_Z_gammainc(n, t, 60)) < mpf(10) ** -ctx.working_dps


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_critical_line_refuses_non_finite_heights(t):
    for f in (central.completed_lambda, central.hardy_Z):
        with pytest.raises(ValueError, match="finite"):
            f(2, t)


def test_critical_line_compute_cap(monkeypatch):
    # the loss is 204 digits at t = 300 (n = 1), about t^3 in time; the cap
    # is met before the series is summed.  Every caller stays below it:
    # 33 digits at t = T_CAP for n = 1, the largest loss up to T_CAP
    def refuse(*args):
        raise AssertionError("series summed past the cap")

    monkeypatch.setattr(central, "_gamma_sum", refuse)
    for t in (300.0, -300.0, 1e4):
        with pytest.raises(ComputeCapError, match="cancels"):
            central.hardy_Z(1, t)
    assert (math.lgamma(1) - loggamma_f64(1, central.T_CAP).real) / math.log(10) < central._LOSS_CAP


def test_runtime_never_calls_gammainc(monkeypatch):
    # mpmath's gammainc is a test reference only: the series route, the
    # mp Hardy Z and a fresh sweep's validation run specfun's kernel
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.gammainc called")

    monkeypatch.setattr(mpmath, "gammainc", refuse)
    monkeypatch.setattr(mpmath.mp, "gammainc", refuse)
    monkeypatch.setattr(moments, "_SWEEP", np.zeros(0))
    central.central_value_series(101, PrecisionContext(30))
    central.hardy_Z(2, 2.39)
    central.completed_lambda(3, 0.67)
    moments.sweep_central_values(50)


@pytest.mark.parametrize("n", [1, 3, 24, 45, 96])
def test_hardy_Z_engine_matches_mp_route(n):
    ts = np.array([0.1, 0.25, 0.45]) * central.t_reliable(n)
    for t, zf in zip(ts, central.get_engine(n).z_many(ts)):
        zm = float(central.hardy_Z(n, t, CTX25))
        assert abs(zf - zm) < 1e-9 * max(1.0, abs(zm)), (n, t)


@pytest.mark.parametrize("n, lo, hi", [(10, 34.428, 34.5), (45, 40.586, 40.611)])
def test_hardy_Z_confirms_engine_hard_zeros(n, lo, hi):
    # n = 10: the zero past the last full scan step below t_reliable(10);
    # n = 45: the close pair the grid scan misses (see the xfail below)
    ctx = PrecisionContext(15)
    assert central.hardy_Z(n, lo, ctx) * central.hardy_Z(n, hi, ctx) < 0


def test_engine_central_value_matches_sweep():
    # Z(0) = L(1/2, chi^(4n-3)) on two float64 routes that share no code:
    # the engine's theta-integral quadrature and the sweep's gammaincc
    # series (worst over n <= 100: 2.9e-12 absolute, n = 67)
    sweep = moments.sweep_central_values(100)
    z0 = np.array([central.get_engine(n).z_many(np.array([0.0]))[0] for n in range(1, 101)])
    assert np.max(np.abs(z0 - sweep)) < moments._VALIDATION_TOL


def _count_ladders(monkeypatch):
    """Empty the engine store and record the members of every _ladder
    call, one list per call."""
    calls = []
    ladder = central._ladder
    monkeypatch.setattr(central, "_ladder", lambda ns: calls.append(list(ns)) or ladder(ns))
    monkeypatch.setattr(central, "_ENGINES", {})
    return calls


def test_one_engine_per_member(monkeypatch):
    assert central.get_engine(1) is central.get_engine(1)
    builds = _count_ladders(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # T = 30 is past the ceiling
        for T in (3.0, 12.0, 30.0):
            central.zeros_up_to(1, T)
    assert builds == [[1]]
    assert central.t_reliable(1) == pytest.approx(16.5, abs=0.6)


def test_shared_engine_read_only():
    engine = central.get_engine(1)
    for arr in (engine.u, engine.l, engine.G):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _engine_panels(n):
    """Panel count P of member n's engine, the first with P w past log Y
    (w = PANEL_WIDTH, Y the theta integral's endpoint), and the panel
    edges 0, w, ..., P w in x = log y."""
    w = central.ZEngine.PANEL_WIDTH
    P = math.ceil(math.log(central._integral_Y(2.0 * n - 1.5, 44.0)) / w)
    return P, np.arange(P + 1) * w


@pytest.mark.parametrize("n", [1, 24, 96, 200])
def test_engine_nodes_factor_by_panel(n):
    # node k of panel p is y = e^(u_p + l_k), with u_p + l_k within 8 ulps
    # of _panel_rule's node of the Gauss-Legendre rule in x = log y on
    # [p w, (p + 1) w]; u_p = p w exactly and l_k + l_(d-1-k) = w: the
    # identities that let the engine split each phase t log y into a panel
    # phase from powers of one exponential and an in-panel phase folded
    # about the midpoint
    w = central.ZEngine.PANEL_WIDTH
    P, edges = _engine_panels(n)
    assert (P - 1) * w < math.log(central._integral_Y(2.0 * n - 1.5, 44.0)) <= P * w
    for d in central.ZEngine.DEGREES:
        ((u, l, G, _),) = central._assembler(n, w)(d)
        xs = central._panel_rule(edges, d)[0].reshape(P, d)
        assert G.shape == xs.shape
        assert np.array_equal(u, np.arange(P) * w), d
        assert np.all(np.abs(u[:, None] + l - xs) <= 8 * np.spacing(xs)), d
        assert np.all(np.abs(l + l[::-1] - w) <= np.spacing(w)), d


def _rounding_bound(engine, ts):
    """Float64 bound on |z_many(t) - Z(t)|, Z the node-by-node sum over the
    engine's own data (see test_engine_matches_direct_cosine_sum)."""
    logy = engine.u[-1] + engine.l[-1]
    amp = np.exp(engine.lgnorm - loggamma_f64(engine.a + 0.5, ts).real)
    P, d = engine.G.shape
    eps = np.finfo(float).eps
    return eps * 2.0 * np.sum(np.abs(engine.G)) * amp * (20 * np.maximum(1.0, ts * logy) + 7 * P + P * d + P + d)


@pytest.mark.parametrize("n", [1, 10, 24, 45, 96, 150, 200])
def test_engine_matches_direct_cosine_sum(n):
    # z_many against Z = 2 sum_j G_j cos(t x_j) exp(lgnorm - Re log
    # Gamma(a + 1/2 + it)) summed node by node over the engine's own nodes
    # x_j = u_p + l_k.  Float64 bound, with S = 2 sum |G_j| and amp the
    # exp factor: per term at most 20 roundings of size
    # eps max(1, t max x) (the node's sum u_p + l_k, the
    # products with t, the in-panel offset l_k - w/2 and its mirror, which
    # is off by up to an ulp of w, the sines and cosines and their
    # products), and the summations at most P d + P + d roundings of size
    # eps S (the direct sum, the panel matmul and the in-panel sum).  The
    # panel phase e^(it(u_p + w/2)) is e^(itw/2) times the p-th power of
    # its square, formed from powers by doubling: an argument rounding of
    # eps t w/2 grows to eps t (u_p + w/2), inside the 20 above, and the
    # exponential (1 ulp), each product and each squaring (sqrt(5) eps,
    # doubled by every later squaring) add at most (2p + 1) + 2p sqrt(5)
    # eps, below 7 P eps per term.  Worst measured: 0.78% of the bound
    # (n = 24); 4.0 eps S amp max(1, t max x) at n = 45.
    engine = central.get_engine(n)
    ts = np.linspace(0.0, min(central.T_CAP, engine.t_reliable), 2001)
    logy, G = (engine.u[:, None] + engine.l).ravel(), engine.G.ravel()
    amp = np.exp(engine.lgnorm - loggamma_f64(engine.a + 0.5, ts).real)
    direct = 2.0 * (np.cos(np.outer(ts, logy)) @ G) * amp
    assert np.all(np.abs(engine.z_many(ts) - direct) <= _rounding_bound(engine, ts))


@pytest.mark.parametrize("n", [1, 5, 20, 45, 96])
def test_engine_degree_chosen_at_build(n):
    assert central.get_engine(n).degree == 24


def test_engine_degree_check_refuses(monkeypatch):
    monkeypatch.setattr(central.ZEngine, "PROBE_TOL", 0.0)
    with pytest.raises(ConvergenceError, match="degrees 96 and 192"):
        central.ZEngine(1)


def test_engine_degree_check_refuses_nan_gaps(monkeypatch):
    # a nan probe gap fails its rung: with every weight nan the ladder
    # climbs to the last degree and refuses, so no engine scans to an
    # empty zero list
    assembler = central._assembler

    def poisoned(*args):
        assemble = assembler(*args)
        return lambda *ds: [(u, l, np.full_like(G, np.nan), lgnorm) for u, l, G, lgnorm in assemble(*ds)]

    monkeypatch.setattr(central, "_assembler", poisoned)
    with pytest.raises(ConvergenceError, match="degrees 96 and 192 differ by nan"):
        central.ZEngine(3)


def test_chosen_degree_keeps_the_zeros(monkeypatch):
    # against a reference independent of the engine's panels: degree 32
    # on panels of width 2/(1 + T_CAP), an eighth of PANEL_WIDTH.  The
    # same zero count up to min(T_CAP, t_reliable), and zeros below half
    # the ceiling move by less than 1e-10 (worst over n <= 100: 2.3e-11,
    # n = 91 at t = 45.748; degree 8 on the reference panels: 4.9e-11,
    # also n = 91 at t = 45.748)
    zeros = {}
    for n in (1, 45, 80, 91, 96):
        t_rel = central.t_reliable(n)
        T = min(central.T_CAP, t_rel)
        ref = copy.copy(central.get_engine(n))
        ((ref.u, ref.l, ref.G, ref.lgnorm),) = central._assembler(n, 2.0 / (1.0 + central.T_CAP))(32)
        got = zeros[n] = np.array(central.zeros_up_to(n, T).gammas)
        monkeypatch.setattr(central, "_engine", lambda *ms: [ref])
        want = np.array(central.zeros_up_to(n, T).gammas)
        monkeypatch.undo()
        assert not np.array_equal(got, want), n  # the scan read the reference engine
        assert len(got) == len(want), n
        low = want < 0.5 * t_rel
        assert np.max(np.abs(got - want)[low]) < 1e-10, n
    # the mpmath Z changes sign across the chosen-degree zero that moved most
    g = zeros[91][np.argmin(np.abs(zeros[91] - 45.748))]
    ctx = PrecisionContext(15)
    assert central.hardy_Z(91, g - 1e-10, ctx) * central.hardy_Z(91, g + 1e-10, ctx) < 0


@pytest.mark.parametrize("n", [101, 115, 126, 150, 178, 200])
def test_engines_beyond_100_build(n):
    # empirical_one_level accepts N <= 200, and from n = 105 the probes
    # stop at T_CAP below t_reliable(n)/2; each engine must pass the
    # degree check (24 here), and its Z(0) = L(1/2, chi^(4n-3))
    # must match the sweep's independent series (1.4e-12 at worst, n = 115)
    engine = central.ZEngine(n)
    assert engine.degree in central.ZEngine.DEGREES
    z0 = engine.z_many(np.array([0.0]))[0]
    assert abs(z0 - moments.sweep_central_values(n)[n - 1]) < moments._VALIDATION_TOL


# the members in (300, 1000] whose every degree failed while the degree
# check probed up to t_reliable(n)/2, above T_CAP; the first 29 build at
# degree 24 now, and 467, 500, 591 and 682 at 48
LADDER_ONCE_FAILED = (
    304, 319, 328, 332, 356, 365, 369, 371, 372, 376, 379, 380, 381, 384, 385, 389, 392,
    402, 404, 408, 421, 425, 426, 432, 443, 445, 447, 452, 465, 467, 500, 591, 682,
)


def test_engine_ladder_pinned():
    # the degree check probes only heights the scan evaluates, up to
    # min(t_reliable/2, T_CAP), where the degree-24 and degree-48 rules of
    # every member n <= 300 agree within 4.6e-11 (n = 123): each builds at
    # degree 24, n = 206, 217, 226, 243, 248, 278, 283 and 295 too, whose
    # gaps above T_CAP (up to 2.2e-8 at n <= 300) once failed every degree
    assert [central.ZEngine(n).degree for n in range(1, 301)] == [24] * 300
    degrees = [central.ZEngine(n).degree for n in LADDER_ONCE_FAILED]
    assert degrees == [24] * 29 + [48] * 4
    assert all(central._probes(central.t_reliable(n)).max() == central.T_CAP for n in (105, 300, 682))


def _full_window_data(n, width, degree):
    # the engine data with every nonzero coefficient summed at every node,
    # in blocks of 256 nodes: the build before its coefficient windows
    k, _, a = central._member(n)
    coeff = field.prime_table(central._theta_m_cutoff(a, 1.0, 44.0)).coeffs(k)
    ms = np.nonzero(coeff)[0]
    cs, lm = coeff[ms], np.log(ms.astype(float))
    P = math.ceil(math.log(central._integral_Y(a, 44.0)) / width)
    xi, wts = np.polynomial.legendre.leggauss(degree)
    u, l = np.arange(P) * width, 0.5 * width + 0.5 * width * xi
    xs = (u[:, None] + l).ravel()
    ys = np.exp(xs)
    tj, phis = np.empty_like(ys), np.empty_like(ys)
    for b in range(0, len(ys), 256):
        expo = a * lm - (central.BETA * ys[b : b + 256])[:, None] * ms
        tj[b : b + 256] = tb = expo.max(axis=1)
        phis[b : b + 256] = np.exp(expo - tb[:, None]) @ cs
    # weight (w/2) w_k y of the rule in x = log y, y^(a - 1/2) folded in
    Es = tj + (a + 0.5) * xs + np.tile(np.log(0.5 * width * wts), P)
    Estar = float(Es.max())
    G = (phis * np.exp(Es - Estar)).reshape(P, degree)
    return u, l, G, Estar - (a + 0.5) * central.LOG_Q


@pytest.mark.parametrize("n", [1, 2, 45, 96, 150, 200])
def test_windowed_assembly_matches_full_window(n):
    # each window drops only terms e^-44 below its nodes' peaks, so G moves
    # by rounding alone (worst 1.7e-16 max|G| here, n = 45 at degree 48);
    # both degrees come from one pass over the windows
    assemble = central._assembler(n, central.ZEngine.PANEL_WIDTH)
    for degree, (u, l, G, lgnorm) in zip((24, 48), assemble(24, 48)):
        u0, l0, G0, lgnorm0 = _full_window_data(n, central.ZEngine.PANEL_WIDTH, degree)
        assert np.array_equal(u, u0) and np.array_equal(l, l0) and lgnorm == lgnorm0
        assert np.max(np.abs(G - G0)) <= 4e-16 * np.max(np.abs(G0)), (n, degree)


def test_block_scan_matches_one_member_scans():
    # one refinement run over nine members of different panel counts and
    # degrees (415 takes 48) against nine zeros_up_to calls
    ns = [1, 2, 24, 45, 96, 115, 150, 200, 415]
    Ts = [min(central.T_CAP, central.t_reliable(n)) for n in ns]
    for n, T, rec in zip(ns, Ts, central._zeros_block(ns, Ts)):
        one = central.zeros_up_to(n, T)
        assert rec.n == n and rec.t_max == one.t_max
        assert len(rec.gammas) == len(one.gammas), n
        got, want = np.array(rec.gammas), np.array(one.gammas)
        low = want < 0.5 * central.t_reliable(n)
        assert np.all(np.abs(got - want)[low] <= central.ZERO_WIDTH), n


# zero counts of members 1..96 up to min(T_CAP, t_reliable(n)), recorded
# with the Illinois refinement on Gauss-Legendre panels in y
ZERO_COUNTS_96 = (
    10, 14, 18, 20, 24, 26, 29, 32, 34, 38, 39, 42, 44, 45, 47, 50, 52, 54, 56, 58, 60, 62, 64, 65,
    64, 66, 67, 65, 68, 68, 68, 69, 69, 70, 70, 71, 71, 71, 72, 72, 72, 73, 73, 72, 70, 72, 74, 73,
    75, 75, 76, 76, 76, 77, 77, 75, 77, 77, 78, 78, 79, 79, 79, 79, 79, 79, 80, 80, 80, 81, 81, 81,
    82, 81, 82, 80, 82, 82, 80, 82, 83, 81, 81, 83, 84, 82, 82, 82, 84, 84, 84, 85, 85, 85, 83, 85,
)


def _scan_blocks_96():
    """(engines, records) of each scan block of empirical_one_level at
    N = 96: eight members, each up to min(T_CAP, t_reliable(n))."""
    for first in range(1, 97, 8):
        ns = list(range(first, first + 8))
        engines = [central.get_engine(n) for n in ns]
        yield engines, central._zeros_block(ns, [min(central.T_CAP, e.t_reliable) for e in engines])


def test_zero_side_counts_pinned():
    # the zero side of the one-level density at N = 96: every engine at
    # degree 24 and every member's zero count as recorded, 6,521 in all
    counts = []
    for engines, records in _scan_blocks_96():
        assert [e.degree for e in engines] == [24] * 8
        counts += [len(rec.gammas) for rec in records]
    assert tuple(counts) == ZERO_COUNTS_96 and sum(counts) == 6521


def test_block_build_matches_single_builds(monkeypatch):
    # engines built together (one coefficient call, both first rules of a
    # member in one pass, one probe call per rung) equal the engines built
    # alone bit for bit, across panel counts and degrees; the members whose
    # first two rules disagree (415, 467 and 500) climb to 48 on one rung
    ns = [1, 2, 45, 96, 150, 191, 415, 467, 500]
    blocks = _count_ladders(monkeypatch)
    built = central._engine(*ns)
    assert blocks == [ns]
    assert [e.degree for e in built] == [24] * 6 + [48] * 3
    # a second call builds nothing and returns the same engines
    assert all(e is f for e, f in zip(central._engine(*ns), built)) and blocks == [ns]
    for e in built:
        alone = central.ZEngine(e.n)
        assert (e.degree, e.lgnorm, e.t_reliable) == (alone.degree, alone.lgnorm, alone.t_reliable)
        for got, want in ((e.u, alone.u), (e.l, alone.l), (e.G, alone.G)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), e.n


def test_block_zeros_are_sign_change_brackets(monkeypatch):
    # every zero of members 1..96 that a scan block returns is the midpoint
    # of a bracket narrower than ZERO_WIDTH across which z_many changes
    # sign.  z_many and the refinement's block call can round a point
    # differently (BLAS rounds a product by its shape), each within the
    # kernel's bound B(t) of the exact sum (_rounding_bound), so an end
    # where |z_many| <= 2 B may show either sign: a point where the
    # refinement's Z was exactly 0 (lo == hi), or an end within rounding of
    # the zero (measured: 6,359 strict sign changes, 152 exact zeros, 10
    # such ends, all above 0.53 t_reliable)
    brackets = []
    refine = central._regula_falsi
    monkeypatch.setattr(central, "_regula_falsi", lambda *args: brackets.append(refine(*args)) or brackets[-1])
    total = strict = 0
    for engines, records in _scan_blocks_96():
        lo, hi = brackets[-1]
        parts = np.cumsum([len(rec.gammas) for rec in records])[:-1]
        for e, rec, l, h in zip(engines, records, np.split(lo, parts), np.split(hi, parts)):
            assert np.all(h - l < central.ZERO_WIDTH) and np.array_equal(0.5 * (l + h), rec.gammas), e.n
            zl, zh = e.z_many(l), e.z_many(h)
            sign_change = zl * zh < 0
            noise = np.minimum(np.abs(zl) - 2 * _rounding_bound(e, l), np.abs(zh) - 2 * _rounding_bound(e, h)) <= 0
            assert np.all(sign_change | noise), e.n
            strict += int(np.sum(sign_change))
            total += len(l)
    assert total == 6521 and strict >= 0.95 * total


def test_t_reliable_matches_scalar_loop():
    # the vectorised float64-kernel grid search against scipy's scalar loop
    def loop(n):
        c = 2.0 * n - 1.0
        base = float(c_loggamma(complex(c, 0.0)).real)
        t = 0.0
        while t < 4 * central.T_CAP and math.exp(float(c_loggamma(complex(c, t)).real) - base) > 1e-10:
            t += 0.5
        return t

    for n in range(1, 1001):
        assert central.t_reliable(n) == loop(n), n


def test_zeros_n1_frozen():
    rec = central.zeros_up_to(1, 10.0)
    want = [3.457739849, 5.086734638, 6.478036596, 8.498120182, 9.489525085]
    assert len(rec.gammas) == len(want)
    for g, w in zip(rec.gammas, want):
        assert abs(g - w) < 5e-9
    scale = math.log(2) / math.pi
    for g, s in zip(rec.gammas, rec.scaled):
        assert abs(s - g * scale) < 1e-14
    assert rec.t_max == 10.0
    # each reported ordinate is an actual zero of the mp-precision Z
    for g in rec.gammas[:2]:
        assert abs(float(central.hardy_Z(1, g, CTX20))) < 1e-8


def test_zeros_low_first_ordinate_regression():
    # family 24 has a zero at 0.0454, well inside the first scan step
    rec = central.zeros_up_to(24, 2.0)
    assert any(abs(g - 0.045359) < 1e-4 for g in rec.gammas)


def test_zeros_last_partial_step():
    # n = 10 has a zero in (34.428, 34.5], past the last full scan step
    # below t_reliable(10); the scan must bracket it against T itself
    rec = central.zeros_up_to(10, central.t_reliable(10))
    assert rec.gammas[-1] > 34.43


@pytest.mark.xfail(strict=True, reason="the grid scan misses zero pairs closer than one step")
def test_zeros_scan_finds_close_pairs():
    # n = 45 at T = 50: the scan finds 70 zeros, a grid of step/8 ending
    # at T sees 74 sign changes (one pair near t = 40.60)
    n, T = 45, 50.0
    step = math.pi / (4.0 * max(math.log(2 * n + 4), math.log(1.1141 * (2 * n + T))))
    ts = np.append(np.arange(0.0, T, step / 8), T)
    zs = central.get_engine(n).z_many(ts)
    assert len(central.zeros_up_to(n, T).gammas) == int(np.sum(zs[:-1] * zs[1:] < 0))


def test_zeros_full_scan_matches_gamma_phase_count():
    # n = 1 up to its ceiling has 10 zeros: the gamma-phase count
    # theta(T)/pi agrees, the paper's main term (3.64) does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = central.zeros_up_to(1, central.t_reliable(1))
    assert len(rec.gammas) == 10


@pytest.mark.parametrize("n", [0, -3])
def test_family_index_must_be_positive(n):
    calls = (
        lambda: central.zeros_up_to(n, 5.0),
        lambda: central.get_engine(n),
        lambda: central.t_reliable(n),
        lambda: central.completed_lambda(n, 1.0),
        lambda: central.hardy_Z(n, 1.0),
    )
    for call in calls:
        with pytest.raises(ValueError, match="family index"):
            call()


def test_member_reads_numpy_integers():
    # a numpy integer is its int; an integer array maps entrywise
    assert central._member(np.int64(3)) == central._member(3) == (9, 5, 4.5)
    assert type(central._member(np.int32(3)).k) is int
    assert central.t_reliable(np.int64(3)) == central.t_reliable(3)
    assert central.hardy_Z(np.int64(2), 1.5, CTX20) == central.hardy_Z(2, 1.5, CTX20)
    member = central._member(np.arange(1, 4))
    assert member.k.tolist() == [1, 5, 9] and member.c.tolist() == [1, 3, 5] and member.a.tolist() == [0.5, 2.5, 4.5]
    with pytest.raises(ValueError, match="family index n must be an integer"):
        central._member(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="family index n must be >= 1"):
        central._member(np.arange(0, 3))


def test_get_engine_reads_numpy_integers(monkeypatch):
    # the store is keyed on the int: one build serves np.int64(2), 2 and np.int32(2)
    builds = _count_ladders(monkeypatch)
    engine = central.get_engine(np.int64(2))
    assert central.get_engine(2) is engine and central.get_engine(np.int32(2)) is engine
    assert builds == [[2]] and [type(n) for n in central._ENGINES] == [int]
    # a member named twice in one call is built once
    three, four, again = central._engine(3, 4, np.int64(3))
    assert builds == [[2], [3, 4]] and again is three and four.n == 4
    with pytest.raises(ValueError, match="family index n must be an integer"):
        central.get_engine(1.5)


@pytest.mark.parametrize(
    "call",
    [central.central_value_series, vz.central_value_exact, vz.A_of, vz.B_of, vz.A_from_a_path, vz.congruence_check],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("bad", [True, False, 2.5, 3.0, "3", None], ids=repr)
def test_series_index_must_be_an_integer(call, bad):
    with pytest.raises(ValueError, match="series index"):
        call(bad)


def test_series_index_reads_numpy_integers():
    got = central.central_value_series(np.int64(3), CTX20)
    assert type(got.n) is int and got == central.central_value_series(3, CTX20)
    assert vz.central_value_exact(np.int32(5)) == vz.central_value_exact(5)
    assert vz.A_of(np.int64(7)) == vz.A_from_a_path(np.int64(7)) == vz.A_of(7)
    assert vz.congruence_check(np.int64(11)) == vz.congruence_check(11)


def test_zeros_validation_and_truncation():
    for T in (0.0, float("nan")):
        with pytest.raises(ValueError, match="T must be positive"):
            central.zeros_up_to(1, T)
    with pytest.raises(ValueError):
        central.zeros_up_to(1, central.T_CAP + 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rec = central.zeros_up_to(1, 30.0)
    assert any("unreliable past" in str(w.message) for w in caught)
    assert rec.t_max <= 17.0


@pytest.mark.parametrize("n", [1, 24, 96])
def test_zeros_refinement_certificate_and_budget(n, monkeypatch):
    # every zero below half the reliability ceiling is certified by a sign
    # change of the engine's Z across gamma -+ 1e-11, and refinement after
    # the grid scan costs at most 12 Z evaluations per zero
    t_rel = central.t_reliable(n)
    T = min(central.T_CAP, t_rel)
    eng = central.get_engine(n)
    calls = []  # points per Z evaluation: the grid scan's first, then the refinement's
    z_block = central._z_block

    def counted(rules):
        z = z_block(rules)
        return lambda member, ts: calls.append(len(ts)) or z(member, ts)

    monkeypatch.setattr(central, "_z_block", counted)
    rec = central.zeros_up_to(n, T)
    monkeypatch.undo()
    assert len(rec.gammas) > 0
    assert sum(calls[1:]) <= 12 * len(rec.gammas), (sum(calls[1:]), len(rec.gammas))
    low = [g for g in rec.gammas if g < 0.5 * t_rel]
    assert low
    for g in low:
        zl, zr = eng.z_many(np.array([g - 1e-11, g + 1e-11]))
        assert zl * zr < 0, g


def test_zero_count_main_term():
    assert central.zero_count_main_term(50, 10.0) == pytest.approx(
        10.0 / math.pi * math.log(100), rel=1e-12
    )
