"""Every public entry reads its integer arguments through one reader,
specfun._integer, before any table, sieve, store or mp work."""

import re

import numpy as np
import pytest

from hecke7 import central, density, field, moments, specfun, vz

PHIHAT = density.fejer().fhat

# (entry, the argument's name in the error, the call with the argument v)
INTEGER_ARGUMENTS = [
    ("reg_gamma_Q", "n", lambda v: specfun.reg_gamma_Q(v, 1)),
    ("reg_gamma_Q_f64", "c_max", lambda v: specfun.reg_gamma_Q_f64(v, np.ones(2))),
    ("tricomi_lhs", "n", lambda v: specfun.tricomi_lhs(v, 0)),
    ("tricomi_rhs", "n", lambda v: specfun.tricomi_rhs(v, 0)),
    ("gamma_rational", "j", lambda v: specfun.gamma_rational(v)),
    ("dirichlet_L_chi7", "order", lambda v: specfun.dirichlet_L_chi7(2, v)),
    ("representations", "m", lambda v: field.representations(v)),
    ("half_representations", "m", lambda v: field.half_representations(v)),
    ("hecke_coeff-k", "character exponent k", lambda v: field.hecke_coeff(v, 2)),
    ("hecke_coeff-m", "m", lambda v: field.hecke_coeff(1, v)),
    ("prime_class", "prime p", lambda v: field.prime_class(v)),
    ("factorint", "n", lambda v: field.factorint(v)),
    ("prime_classes", "prime bound P", lambda v: field.prime_classes(v)),
    ("prime_table", "prime bound P", lambda v: field.prime_table(v)),
    ("coeff_table-k", "character exponent k", lambda v: field.coeff_table(v, 10)),
    ("coeff_table-maxM", "maxM", lambda v: field.coeff_table(1, v)),
    ("b_poly", "recursion index k", lambda v: vz.b_poly(v)),
    ("a_poly", "recursion index k", lambda v: vz.a_poly(v)),
    ("A_from_a_path", "series index n", lambda v: vz.A_from_a_path(v)),
    ("B_of", "series index n", lambda v: vz.B_of(v)),
    ("A_of", "series index n", lambda v: vz.A_of(v)),
    ("central_value_exact", "series index n", lambda v: vz.central_value_exact(v)),
    ("congruence_check", "series index max_n", lambda v: vz.congruence_check(v)),
    ("series_truncation-n", "series index n", lambda v: central.series_truncation(v, 30)),
    ("series_truncation-digits", "digits", lambda v: central.series_truncation(1, v)),
    ("central_value_series", "series index n", lambda v: central.central_value_series(v)),
    ("completed_lambda", "family index n", lambda v: central.completed_lambda(v, 1.0)),
    ("hardy_Z", "family index n", lambda v: central.hardy_Z(v, 1.0)),
    ("zeros_up_to", "family index n", lambda v: central.zeros_up_to(v, 5.0)),
    ("t_reliable", "family index n", lambda v: central.t_reliable(v)),
    ("get_engine", "family index n", lambda v: central.get_engine(v)),
    ("ZEngine", "family index n", lambda v: central.ZEngine(v)),
    ("zero_count_main_term", "family index n", lambda v: central.zero_count_main_term(v, 10.0)),
    ("sweep_central_values", "N", lambda v: moments.sweep_central_values(v)),
    ("empirical_moment-r", "moment order r", lambda v: moments.empirical_moment(v, 10)),
    ("empirical_moment-N", "N", lambda v: moments.empirical_moment(1, v)),
    ("m2_conjecture_main", "N", lambda v: moments.m2_conjecture_main(v)),
    ("delta_one", "m", lambda v: moments.delta_one(v)),
    ("delta_two-l", "l", lambda v: moments.delta_two(v, 2)),
    ("delta_two-m", "m", lambda v: moments.delta_two(2, v)),
    ("delta_mu-p", "prime p", lambda v: moments.delta_mu(v, 1, 0)),
    ("delta_mu-m_exp", "m_exp", lambda v: moments.delta_mu(2, v, 0)),
    ("delta_mu-l_exp", "l_exp", lambda v: moments.delta_mu(2, 0, v)),
    ("empirical_delta_oracle-m", "m", lambda v: moments.empirical_delta_oracle(v, 1, 10)),
    ("empirical_delta_oracle-l", "l", lambda v: moments.empirical_delta_oracle(1, v, 10)),
    ("empirical_delta_oracle-N", "N", lambda v: moments.empirical_delta_oracle(1, 1, v)),
    ("local_factor-p", "prime p", lambda v: moments.local_factor(v, 0, 0)),
    ("local_factor-cutoff", "cutoff", lambda v: moments.local_factor(2, 0, 0, mode="brute", cutoff=v)),
    ("brute_cutoff_for", "prime p", lambda v: moments.brute_cutoff_for(v, 0.0)),
    ("delta_series_product", "prime bound P", lambda v: moments.delta_series_product(0, 0, v)),
    ("arch_term", "family index n", lambda v: density.arch_term(v, PHIHAT, 1.0)),
    ("prime_sum-n", "family index n", lambda v: density.prime_sum(v, PHIHAT, 100)),
    ("prime_sum-k_max", "prime bound P", lambda v: density.prime_sum(1, PHIHAT, v)),
    ("explicit_formula_sum", "family index n", lambda v: density.explicit_formula_sum(v, density.fejer())),
    ("zero_side_sum", "family index n", lambda v: density.zero_side_sum(v, density.fejer(), 5.0)),
    ("empirical_one_level", "N", lambda v: density.empirical_one_level(v, density.fejer())),
    ("ratios_A", "prime bound P", lambda v: density.ratios_A(0.1, 0.1, P=v)),
    ("ratios_local_brute-p", "prime p", lambda v: density.ratios_local_brute(v, 0.1, 0.1)),
    ("ratios_local_brute-cutoff", "cutoff", lambda v: density.ratios_local_brute(2, 0.1, 0.1, cutoff=v)),
    ("ratios_A_prime", "prime bound P", lambda v: density.ratios_A_prime(1.0, P=v)),
    ("ratios_one_level_integrand-n", "family index n", lambda v: density.ratios_one_level_integrand(v, 1.0)),
    ("ratios_one_level_integrand-P", "prime bound P", lambda v: density.ratios_one_level_integrand(1, 1.0, P=v)),
    ("ratios_one_level_density-N", "N", lambda v: density.ratios_one_level_density(v, density.gaussian())),
    ("ratios_one_level_density-P", "prime bound P", lambda v: density.ratios_one_level_density(2, density.gaussian(), P=v)),
]

# the tables, sieves, stores and mp kernels behind the entries above
WORK = [
    (field, "_spf_sieve"),
    (field, "_build_table"),
    (field, "_lucas_v"),
    (vz, "_grow"),
    (central, "_ladder"),
    (central, "_gamma_sum"),
    (moments, "_build_sweep"),
    (moments, "_closed_local"),
    (moments, "_local_double_sum"),
    (density, "_zeta_L_block"),
    (density, "_prime_sums"),
    (specfun, "_upper_gamma_scaled"),
    (specfun, "_q_ladder"),
    (specfun, "_L_chi7_any"),
]


@pytest.mark.parametrize("bad", [True, 2.0, "3"], ids=repr)
@pytest.mark.parametrize("entry, name, call", INTEGER_ARGUMENTS, ids=[e for e, _, _ in INTEGER_ARGUMENTS])
def test_integer_arguments_are_refused_before_any_work(monkeypatch, entry, name, call, bad):
    for module, attr in WORK:
        monkeypatch.setattr(module, attr, lambda *a, **k: pytest.fail(f"{entry}: work before {name} was read"))
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got {re.escape(repr(bad))}$"):
        call(bad)


def test_out_of_range_integers_name_their_argument():
    # each of these failed as a math domain error, a ZeroDivisionError or
    # not at all before it was read
    for call, message in (
        (lambda: central.series_truncation(0, 30), "series index n must be a positive integer"),
        (lambda: central.zero_count_main_term(0, 10.0), "family index n must be a positive integer"),
        (lambda: moments.brute_cutoff_for(1, 0.0), "prime p must be >= 2"),
        (lambda: specfun.reg_gamma_Q_f64(3.7, np.ones(2)), "c_max must be an integer, got 3.7"),
        (lambda: vz.congruence_check(-1), "series index max_n must be an odd positive integer"),
        (lambda: moments.empirical_moment(3, 10), r"moment order r must be in \[1, 2\]"),
        (lambda: moments.local_factor(2, 0, 0, mode="brute", cutoff=-1), "cutoff must be >= 0"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_integer_reader():
    assert specfun._integer(np.int64(5), "n") == 5 and type(specfun._integer(np.int64(5), "n")) is int
    assert specfun._integer(-3, "x", lo=None) == -3
    assert specfun._integer(7, "k", odd=True) == 7
    for value, kw, message in (
        (0, {}, "n must be a positive integer"),
        (4, {"odd": True}, "n must be an odd positive integer"),
        (-1, {"lo": 0}, "n must be >= 0"),
        (2001, {"hi": 2000}, r"n must be in \[1, 2000\]"),
        (np.float64(2.0), {}, "n must be an integer, got "),
    ):
        with pytest.raises(ValueError, match=f"^{message}"):
            specfun._integer(value, "n", **kw)
    # the empirical moment reports the int it read
    assert type(moments.empirical_moment(1, np.int64(10)).N) is int


# (case, the call, the start of its ValueError): at the parent of this
# reading each of these computed a value, raised another error or never
# returned (zpow, arch_term, the negative Fejer scale, brute_cutoff_for's tol)
READ_ARGUMENTS = [
    ("zpow-negative-k", lambda: field.zpow((1, 1), -1), "k must be >= 0"),
    ("arch_term-x_end-0", lambda: density.arch_term(1, PHIHAT, 0.0), "x_end must be positive"),
    ("arch_term-x_end-negative", lambda: density.arch_term(1, PHIHAT, -1.0), "x_end must be positive"),
    ("explicit_formula_sum-fejer-scale", lambda: density.explicit_formula_sum(1, density.fejer(), scale=-1.0), "scale must be nonnegative"),
    ("explicit_formula_sum-gaussian-scale", lambda: density.explicit_formula_sum(1, density.gaussian(), scale=-1.0), "scale must be nonnegative"),
    ("zero_side_sum-scale-inf", lambda: density.zero_side_sum(1, density.fejer(), 10.0, scale=float("inf")), "scale must be a finite number"),
    ("brute_cutoff_for-tol-0", lambda: moments.brute_cutoff_for(2, 0.0, tol=0.0), "tol must be positive"),
    ("brute_cutoff_for-tol-nan", lambda: moments.brute_cutoff_for(2, 0.0, tol=float("nan")), "tol must be a finite number"),
    ("chebyshev-float", lambda: field.prime_table(100).chebyshev(1.7, 1, 1.0), "character exponent k must be an odd positive integer"),
    ("chebyshev-bool", lambda: field.prime_table(100).chebyshev(True, 1, 1.0), "character exponent k must be an odd positive integer"),
    ("chebyshev-negative", lambda: field.prime_table(100).chebyshev(-1, 1, 1.0), "character exponent k must be an odd positive integer"),
    ("chebyshev-even", lambda: field.prime_table(100).chebyshev(2, 1, 1.0), "character exponent k must be an odd positive integer"),
    ("chebyshev-float-array", lambda: field.prime_table(100).chebyshev(np.array([1.0, 5.0]), 1, 1.0), "character exponent k must be an odd positive integer"),
    ("chebyshev-even-array", lambda: field.prime_table(100).chebyshev(np.array([1, 4]), 1, 1.0), "character exponent k must be an odd positive integer"),
    ("powers-bool", lambda: field.prime_table(100).powers(True, 1.0), "character exponent k must be an odd positive integer"),
    ("coeffs-float", lambda: field.prime_table(100).coeffs(2.0), "character exponent k must be an odd positive integer"),
    ("PrecisionContext-digits-float", lambda: specfun.PrecisionContext(20.5), "digits must be an integer, got 20.5"),
    ("PrecisionContext-digits-nan", lambda: specfun.PrecisionContext(float("nan")), "digits must be an integer, got nan"),
    ("PrecisionContext-guard-float", lambda: specfun.PrecisionContext(30, 2.5), "guard digits must be an integer, got 2.5"),
    ("zeros_up_to-T-str", lambda: central.zeros_up_to(1, "5"), "T must be a real number"),
    ("zeros_up_to-T-bool", lambda: central.zeros_up_to(1, True), "T must be a real number"),
    ("zeros_up_to-T-complex", lambda: central.zeros_up_to(1, 5 + 0j), "T must be a real number"),
    ("empirical_one_level-T-bool", lambda: density.empirical_one_level(10, density.fejer(), T=True), "T must be a real number"),
    ("hardy_Z-t-bool", lambda: central.hardy_Z(1, True), "height t must be a finite number"),
    ("reg_gamma_Q-x-bool", lambda: specfun.reg_gamma_Q(3, True), "x must be a finite number"),
    ("reg_gamma_Q-x-str", lambda: specfun.reg_gamma_Q(3, "2"), "x must be a finite number"),
    ("ratios_A_prime-t-str", lambda: density.ratios_A_prime("0.3"), "height t must be a finite number"),
    ("ratios_A_prime-t-bool", lambda: density.ratios_A_prime(True), "height t must be a finite number"),
    ("fejer-bool", lambda: density.fejer(True), "support alpha must be positive, finite and at least 1e-6"),
    ("gaussian-bool", lambda: density.gaussian(True), "width must be positive and at most"),
    ("ratios_A-tol-nan", lambda: density.ratios_A(0.1, 0.1, tol=float("nan")), "tol must be positive"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in READ_ARGUMENTS], ids=[c[0] for c in READ_ARGUMENTS])
def test_arguments_are_read_before_their_loops(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


# the entries of F(alpha, beta), A(alpha, gamma) and their brute oracles,
# with the shift v in one slot
SHIFT_ENTRIES = [
    ("F_shift", lambda v: moments.F_shift(v, 0)),
    ("local_factor", lambda v: moments.local_factor(2, 0, v)),
    ("local_factor-brute", lambda v: moments.local_factor(2, v, 0, mode="brute", cutoff=60)),
    ("delta_series_product", lambda v: moments.delta_series_product(v, 0, 10)),
    ("brute_cutoff_for", lambda v: moments.brute_cutoff_for(2, v)),
    ("ratios_A", lambda v: density.ratios_A(v, 0)),
    ("ratios_local_brute", lambda v: density.ratios_local_brute(2, 0, v)),
]


@pytest.mark.parametrize("bad", [False, "0.1"], ids=repr)
@pytest.mark.parametrize("entry, call", SHIFT_ENTRIES, ids=[e for e, _ in SHIFT_ENTRIES])
def test_shifts_must_be_numbers(monkeypatch, entry, call, bad):
    # mpmathify reads False as 0 and "0.1" as 1/10
    for module, attr in WORK:
        monkeypatch.setattr(module, attr, lambda *a, **k: pytest.fail(f"{entry}: work before the shift was read"))
    with pytest.raises(ValueError, match=f"^shift must be a number, got {re.escape(repr(bad))}$"):
        call(bad)


def test_ratios_brute_oracle_classifies_p_once(monkeypatch):
    # the delta_mu rows come from one class of p, not from a delta_mu call
    # (and its trial division) per entry
    calls = []
    prime_chi = field._prime_chi
    monkeypatch.setattr(field, "_prime_chi", lambda p: calls.append(p) or prime_chi(p))
    for module in (moments, density):
        monkeypatch.setattr(module, "delta_mu", lambda *a: pytest.fail("delta_mu called"), raising=False)
    for p, cutoff in ((179424673, 40), (2, None), (7, 10)):
        calls.clear()
        density.ratios_local_brute(p, 0.02, 0.0, cutoff=cutoff)
        assert len(calls) <= 1, (p, len(calls))
