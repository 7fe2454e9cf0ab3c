"""Command line front end: output shapes, determinism, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import pytest
import sympy
from mpmath import mp, mpf

from hecke7 import cli, density, field, moments, vz
from hecke7.specfun import PrecisionContext

GOLDEN_TABLE = """\
n,A_exact,A_factored,L_4dp
1,1/4,(1/2)^2,0.9666
3,1,1,4.7890
5,1,1,0.9885
7,9,(3)^2,0.7346
9,49,(7)^2,0.1769
11,99225,(3^2*5*7)^2,9.8609
13,370881,(3*7*29)^2,0.6916
15,4678569,(3*7*103)^2,0.1187
17,4062150225,(3*5*7*607)^2,1.0642
19,820613139129,(3^3*7*4793)^2,1.7403
21,480261307968225,(3^2*5*7*29*2399)^2,6.6396
23,4455824831361225,(3^3*5*7^2*10091)^2,0.3302
25,622992458343456369,(3^2*7^2*29*61717)^2,0.2072
27,1011583092266045105625,(3^2*5^2*7^2*13*53^2*79)^2,1.2823
29,2028767182444777624250625,(3^4*5^2*7^2*113*127033)^2,8.4268
31,51070410042155865405045225,(3^5*5*7^2*71*1690651)^2,0.6039
33,2003662277243159916955835025,(3^4*5*7^2*1291*1747169)^2,0.0591
"""


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_sci_carries_a_rounded_mantissa_of_ten():
    # a mantissa that rounds up to 10 moves into the next decade
    assert cli._sci(9.9996, 3) == "1.00e+01"
    assert cli._sci(99.96, 3) == "1.00e+02"
    assert cli._sci(-0.0099996, 3) == "-1.00e-02"


def test_central_json(capsys):
    rc, out = run(capsys, "central", "--n", "9", "--digits", "40", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["A_exact"] == "49" and obj["B_exact"] == "7"
    assert float(obj["delta"]) <= 1e-10
    assert float(obj["series_value"]) == pytest.approx(0.176925622973861, rel=1e-12)
    assert obj["method"] == "both"


def test_central_even_n(capsys):
    rc, out = run(capsys, "central", "--n", "4", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert float(obj["series_value"]) == 0.0 and float(obj["exact_value"]) == 0.0


def test_coeffs_csv(capsys):
    rc, out = run(capsys, "coeffs", "--k", "1", "--max-m", "8", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "m,chi_exact,normalized,normalized_abs_err"
    chi = [int(l.split(",")[1]) for l in lines[1:]]
    assert chi == [1, 1, 0, -1, 0, 0, 0, -3]
    a2 = float(lines[2].split(",")[2])
    assert a2 == pytest.approx(1 / math.sqrt(2), rel=1e-12)


def test_table_matches_published_rows(capsys):
    rc, out = run(capsys, "table", "--format", "csv")
    assert rc == 0
    assert out == GOLDEN_TABLE


def test_table_factoring_matches_sympy():
    # field.factorint against sympy on every |B(n)| the table factors
    for n in range(3, 34, 2):
        B = abs(vz.B_of(n))
        assert B.denominator == 1
        assert field.factorint(int(B)) == sympy.factorint(int(B)), n
    for m in (1, 2, 49, 2**10, 1_000_000_007):
        assert field.factorint(m) == sympy.factorint(m), m


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports hecke7 from this tree;
    fresh because pytest has already imported sympy and scipy."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_exact_commands_do_not_import_sympy():
    code = (
        "import sys\n"
        "from hecke7 import cli\n"
        "assert cli.main(['table', '--format', 'csv']) == 0\n"
        "assert cli.main(['central', '--n', '33', '--method', 'both']) == 0\n"
        "print('sympy' in sys.modules)\n"
    )
    assert _fresh_python(code).stdout.splitlines()[-1] == "False"


def test_density_and_moments_do_not_import_vz():
    # the exact A(n) route stays out of the float64 stages
    code = "import sys\nimport hecke7.density, hecke7.moments\nprint('hecke7.vz' in sys.modules)\n"
    assert _fresh_python(code).stdout.splitlines()[-1] == "False"


def test_coeffs_prints_integers_past_the_str_digit_limit(capsys):
    # chi^(7997)(16) has 4,815 digits, past Python's default int-to-str
    # limit of 4300; the command prints it in full and restores the limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    rc, out = run(capsys, "coeffs", "--k", "7997", "--max-m", "16", "--format", "csv")
    assert rc == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    m, chi_exact = out.splitlines()[-1].split(",")[:2]
    assert m == "16" and len(chi_exact.lstrip("-")) == 4815
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert int(chi_exact) == field.hecke_coeff(7997, 16)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_float64_commands_run_without_scipy():
    # scipy is the tests' reference only: a None entry in sys.modules makes
    # every scipy import raise, and the float64 routes must not need one
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from hecke7 import cli\n"
        "for argv in (\n"
        "    ['density', '--N', '20', '--alpha', '1'],\n"
        "    ['density', '--N', '20', '--testfn', 'gaussian', '--width', '2.0'],\n"
        "    ['moment', '--r', '1', '--N', '100'],\n"
        "    ['moment', '--r', '2', '--N', '100'],\n"
        "    ['ratios', '--n', '1', '--t', '1'],\n"
        "    ['zeros', '--n', '1', '--T', '10'],\n"
        "):\n"
        "    assert cli.main(argv) == 0, argv\n"
    )
    _fresh_python(code)
    assert _fresh_python("import sys\nimport hecke7.cli\nprint('scipy' in sys.modules)").stdout == "False\n"


def test_output_deterministic_across_threads(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert cli.main(["central", "--n", "5", "--threads", "1", "--out", str(a)]) == 0
    assert cli.main(["central", "--n", "5", "--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_zeros_csv(capsys):
    rc, out = run(capsys, "zeros", "--n", "1", "--T", "6", "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "index,gamma,scaled,gamma_abs_err"
    assert len(lines) == 3
    g1 = float(lines[1].split(",")[1])
    s1 = float(lines[1].split(",")[2])
    assert g1 == pytest.approx(3.457739849, abs=1e-7)
    assert s1 == pytest.approx(g1 * math.log(2) / math.pi, rel=1e-12)


def test_constants_json(capsys):
    rc, out = run(capsys, "constants", "--digits", "25", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert float(obj["omega"]) == pytest.approx(0.8140873983117111, rel=1e-15)
    assert float(obj["f0"]) == pytest.approx(3 * math.pi / (4 * math.sqrt(7)), rel=1e-14)
    assert "f1_abs_err" in obj and obj["digits"] == 25


def test_conjecture_json(capsys):
    rc, out = run(capsys, "conjecture", "--N", "50", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    gap = float(obj["form_gap"])
    assert 0 < gap < 0.1
    emp = float(obj["m2_empirical"])
    disp = float(obj["main_displayed"])
    assert float(obj["residual_vs_displayed"]) == pytest.approx(emp - disp, abs=1e-12)


def test_moment_json(capsys):
    for fmt in ("json", "csv"):
        rc, out = run(capsys, "moment", "--r", "1", "--N", "50", "--format", fmt)
        assert rc == 0
        if fmt == "json":
            obj = json.loads(out)
        else:
            header, row = out.strip().split("\n")
            obj = dict(zip(header.split(","), row.split(",")))
        emp, pred = float(obj["empirical"]), float(obj["predicted_main"])
        assert pred == pytest.approx(2 * math.pi / math.sqrt(7), rel=1e-12)
        assert float(obj["residual"]) == pytest.approx(emp - pred, abs=1e-12)
        assert abs(emp - pred) <= float(obj["theorem_bound"])


def test_ratios_single_t(capsys):
    rc, out = run(capsys, "ratios", "--n", "1", "--t", "0.5", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert float(obj["integrand"]) == pytest.approx(-5.037553584365670, abs=1e-6)
    # a float64 result prints at 17 significant figures, not --digits (30)
    assert len(obj["integrand"].lstrip("-").split("e")[0].replace(".", "")) == 17


def test_ratios_abs_err_covers_truncation(capsys):
    # the printed error bounds the move of the integrand when the Euler
    # products run to p <= 10^6 instead of the default 10^5
    from hecke7.density import ratios_one_level_integrand

    for t in (0.3, 1.0, 3.0):
        rc, out = run(capsys, "ratios", "--n", "1", "--t", str(t), "--format", "json")
        assert rc == 0
        obj = json.loads(out)
        assert list(obj) == ["n", "t", "integrand", "integrand_abs_err"]
        move = abs(float(obj["integrand"]) - ratios_one_level_integrand(1, t, P=10**6))
        assert move <= float(obj["integrand_abs_err"]) <= 1e-3, t


def test_ratios_sweep_csv(capsys):
    rc, out = run(
        capsys, "ratios", "--n", "1", "--t-max", "0.4", "--steps", "3", "--format", "csv"
    )
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,integrand")
    ts = [float(l.split(",")[0]) for l in lines[1:]]
    assert ts == pytest.approx([0.0, 0.2, 0.4])


def test_density_report(capsys):
    rc, out = run(
        capsys,
        "density",
        "--N", "3",
        "--testfn", "gaussian",
        "--width", "2",
        "--format", "json",
    )
    assert rc == 0
    obj = json.loads(out)
    emp = float(obj["empirical"])
    ef = float(obj["explicit_formula"])
    assert abs(emp - ef) <= float(obj["discarded_mass_bound"])
    assert float(obj["rmt"]) == float(obj["v"])
    assert float(obj["nonvanishing_lower_bound"]) == 0.0  # v > 2 clips to 0


def test_density_fejer_report(capsys):
    rc, out = run(capsys, "density", "--N", "10", "--alpha", "0.5", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["testfn"] == "fejer(0.5)"
    assert float(obj["rmt"]) == float(obj["v"]) == 2.5
    assert float(obj["nonvanishing_lower_bound"]) == 0.0
    assert abs(float(obj["empirical"]) - float(obj["explicit_formula"])) <= float(obj["discarded_mass_bound"])


def test_exit_codes(capsys):
    assert cli.main(["bogus"]) == 2
    assert cli.main(["central", "--n", "3", "--digits", "5"]) == 3
    capsys.readouterr()
    assert cli.main(["moment", "--r", "1", "--N", "2001"]) == 2
    assert capsys.readouterr().err == "usage error: N must be in [1, 2000]\n"
    assert cli.main(["zeros", "--n", "1", "--T", "100"]) == 2
    assert cli.main(["central", "--n", "5001"]) == 4
    assert cli.main(["ratios", "--n", "1"]) == 2
    assert cli.main(["ratios", "--n", "1", "--t", "0.5", "--t-max", "0.4", "--steps", "2"]) == 2
    assert cli.main(["ratios", "--n", "1", "--t", "2e5"]) == 3  # ConvergenceError
    assert cli.main(["central", "--n", "3", "--threads", "0"]) == 2
    assert cli.main(["density", "--N", "1"]) == 2
    assert cli.main(["density", "--N", "1", "--testfn", "gaussian"]) == 2
    assert cli.main(["zeros", "--n", "0", "--T", "5"]) == 2
    assert cli.main(["ratios", "--n", "0", "--t", "0.5"]) == 2
    assert cli.main(["density", "--N", "24", "--T", "60"]) == 2
    assert cli.main(["density", "--N", "25", "--T", "60"]) == 2
    assert cli.main(["density", "--N", "24", "--T", "0"]) == 2
    assert cli.main(["ratios", "--n", "1", "--t-max", "0.4", "--steps", "0"]) == 2
    assert cli.main(["ratios", "--n", "1", "--t-max", "0.4", "--steps", "-1"]) == 2
    capsys.readouterr()
    assert cli.main(["density", "--N", "10", "--testfn", "gaussian", "--width", "1e-5"]) == 3
    assert capsys.readouterr().err.startswith("convergence error: prime sum cutoff")
    # accepted, but its phihat overflows float64: arch_term's order check
    # refuses the nan it gives, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["density", "--N", "10", "--testfn", "gaussian", "--width", "1e306"]) == 3
    assert capsys.readouterr().err.startswith("convergence error: arch_term n=1:")
    # nan, inf, a Fejer support below 1e-6 and a gaussian width past
    # density.GAUSSIAN_W_MAX are usage errors
    for argv in (
        ["density", "--N", "10", "--alpha", "nan"],
        ["density", "--N", "10", "--testfn", "gaussian", "--width", "nan"],
        ["density", "--N", "10", "--alpha", "inf"],
        ["density", "--N", "10", "--testfn", "gaussian", "--width", "inf"],
        ["density", "--N", "10", "--testfn", "gaussian", "--width", "1e308"],
        ["density", "--N", "10", "--alpha", "1e-300"],
        ["density", "--N", "10", "--T", "nan"],
        ["zeros", "--n", "1", "--T", "nan"],
        ["ratios", "--n", "1", "--t", "nan"],
        ["ratios", "--n", "1", "--t-max", "nan", "--steps", "3"],
    ):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any float64 overflow
            assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("usage error:"), argv


def test_ratios_refuses_non_finite_heights(capsys):
    # +-inf is a usage error like nan (exit 2), refused before the zeta/L
    # block's height cap; a finite height past that cap stays a
    # convergence error (exit 3)
    for argv in (["ratios", "--n", "1", "--t", "inf"], ["ratios", "--n", "1", "--t=-inf"]):
        capsys.readouterr()
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("usage error: height t must be a finite number"), argv
    assert cli.main(["ratios", "--n", "1", "--t", "2e5"]) == 3


def test_float_outputs_state_their_error(capsys):
    # rmt, predicted_main and predicted_constant_form print float64
    # roundings of exact or mp values: each printed error must cover the
    # printed value's distance from the value at 40 digits (1.5e-16 to
    # 2.5e-16 at the default 30 digits, where the error read 1e-30)
    with mp.workdps(40):
        fejer_rmt = 1 / mpf(0.7071067811865476) + mpf(1) / 2  # exact for the float support
        gauss_rmt = 2 * mp.sqrt(mp.pi) + mpmath.erf(2 * mp.pi) / 2
        m1 = 2 * mp.pi / mp.sqrt(7)
    displayed, reduced = moments.m2_conjecture_main(10, PrecisionContext(40))
    cases = (
        (("density", "--N", "2", "--alpha", "0.7071067811865476"), {"rmt": fejer_rmt}),
        (("density", "--N", "2", "--testfn", "gaussian", "--width", "2.0"), {"rmt": gauss_rmt}),
        (("moment", "--r", "1", "--N", "10"), {"predicted_main": m1, "predicted_constant_form": m1}),
        (("moment", "--r", "2", "--N", "10"), {"predicted_main": displayed, "predicted_constant_form": reduced}),
    )
    for digits in ("30", "15"):
        for argv, exact in cases:
            rc, out = run(capsys, *argv, "--digits", digits, "--format", "json")
            assert rc == 0
            obj = json.loads(out)
            for key, want in exact.items():
                with mp.workdps(40):
                    gap = abs(mpf(obj[key]) - want)
                assert gap <= mpf(obj[key + "_abs_err"]), (argv, digits, key, gap)


def test_exact_route_cap(capsys, monkeypatch):
    # an index past vz.K_CAP exits 4 before the b-store takes a step
    before = len(vz._B)
    assert cli.main(["central", "--n", "3999", "--method", "exact"]) == 4
    assert capsys.readouterr().err == f"compute cap: recursion index 1999 exceeds cap {vz.K_CAP}\n"
    assert cli.main(["central", "--n", str(2 * vz.K_CAP + 3), "--method", "exact"]) == 4
    assert len(vz._B) == before
    # every exact entry point stops at the same index, from fresh stores
    monkeypatch.setattr(vz, "K_CAP", 10)
    monkeypatch.setattr(vz, "_B", vz._B[:2])
    monkeypatch.setattr(vz, "_A", vz._A[:2])
    for call in (
        lambda: vz.B_of(23),
        lambda: vz.A_of(23),
        lambda: vz.central_value_exact(23),
        lambda: vz.b_poly(11),
        lambda: vz.A_from_a_path(13),
        lambda: vz.a_poly(11),
    ):
        with pytest.raises(vz.ComputeCapError, match="recursion index 1[12] exceeds cap 10"):
            call()
    assert len(vz._B) == len(vz._A) == 2
    assert vz.B_of(21) == vz.b_poly(10).eval_at(0)[0] and vz.A_from_a_path(11) == vz.A_of(11)
    assert len(vz._B) == len(vz._A) == 11


def test_env_digits_default(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DIGITS, "21")
    rc, out = run(capsys, "constants", "--format", "json")
    assert rc == 0
    assert json.loads(out)["digits"] == 21


def test_env_digits_read_on_each_call(capsys, monkeypatch):
    # the parser is built once, so the variable must not be baked into it
    for env, want in (("21", 21), ("17", 17), (None, 30), ("", 30)):
        if env is None:
            monkeypatch.delenv(cli.ENV_DIGITS, raising=False)
        else:
            monkeypatch.setenv(cli.ENV_DIGITS, env)
        rc, out = run(capsys, "constants", "--format", "json")
        assert rc == 0 and json.loads(out)["digits"] == want, env


def test_env_digits_not_an_integer_is_a_usage_error(capsys, monkeypatch):
    for env in ("abc", "1e3"):
        monkeypatch.setenv(cli.ENV_DIGITS, env)
        assert cli.main(["constants"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {cli.ENV_DIGITS} must be an integer, got {env!r}\n"
        # --digits wins over the variable, which is then never read
        rc, out = run(capsys, "constants", "--digits", "20", "--format", "json")
        assert rc == 0 and json.loads(out)["digits"] == 20


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built, build = [], cli.build_parser
    assert build() is not build()  # the public builder stays fresh per call

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        for argv in (["constants", "--digits", "15"], ["bogus"], ["table", "--format", "csv"], ["--help"]):
            cli.main(argv)
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()


def test_parser_reused_after_usage_errors_and_help(capsys):
    assert cli.main(["bogus"]) == 2
    assert cli.main(["central", "--n", "3", "--digits", "x"]) == 2
    rc, out = run(capsys, "central", "--n", "9", "--method", "exact", "--format", "json")
    assert rc == 0 and json.loads(out)["A_exact"] == "49"
    for _ in range(2):
        assert cli.main(["--help"]) == 0
        assert cli.main(["central", "--help"]) == 0
    assert capsys.readouterr().out.count("usage: hecke7 central") == 2
    rc, out = run(capsys, "table", "--format", "csv")
    assert rc == 0 and out == GOLDEN_TABLE


# the text of the exact commands' fields, recorded before the parser was
# shared and the recursions moved to int lists; GOLDEN_TABLE pins `table`
PINNED_CENTRAL = {
    9: {
        "series_value": "1.76925622973861149908168931190e-01",
        "series_tail_bound": "7.09e-33",
        "exact_value": "1.76925622973861149908168931190e-01",
        "A_exact": "49",
        "B_exact": "7",
    },
    101: {
        "series_value": "2.23122809305455812639588193758e-03",
        "series_tail_bound": "8.56e-33",
        "exact_value": "2.23122809305455812639588193758e-03",
        "A_exact": (
            "1081245937279757777477292171131206812673026372914658320395351443509221999258584762"
            "085663927803603320197155500046760240713388591025390625"
        ),
        "B_exact": "32882304318276688825960028851904923142331727341904869246631555659375",
    },
}


@pytest.mark.parametrize("n", sorted(PINNED_CENTRAL))
def test_central_prints_the_pinned_exact_text(capsys, n):
    argv = ("central", "--n", str(n), "--method", "both", "--digits", "30", "--format", "json")
    rc, out = run(capsys, *argv)
    assert rc == 0
    obj = json.loads(out)
    assert {key: obj[key] for key in PINNED_CENTRAL[n]} == PINNED_CENTRAL[n]
    assert mpf(obj["delta"]) <= mpf(obj["delta_bound"])


# the full text of `central --method both --digits 30 --format json`,
# recorded while the series terms were summed in mpmath, one
# exponential and one mpf product per term: the series value, its
# tail bound and delta, the series-exact gap, to three digits
PINNED_CENTRAL_BOTH = {
    1: """\
{
  "n": 1,
  "digits": 30,
  "method": "both",
  "series_value": "9.66655852808405773366538419515e-01",
  "series_tail_bound": "5.98e-33",
  "exact_value": "9.66655852808405773366538419515e-01",
  "exact_value_abs_err": "1.00e-30",
  "A_exact": "1/4",
  "A_exact_abs_err": "0",
  "B_exact": "1/2",
  "B_exact_abs_err": "0",
  "delta": "9.71e-35",
  "delta_bound": "1.01e-30"
}
""",
    51: """\
{
  "n": 51,
  "digits": 30,
  "method": "both",
  "series_value": "3.13989220055553900762316964067e-03",
  "series_tail_bound": "6.77e-33",
  "exact_value": "3.13989220055553900762316964067e-03",
  "exact_value_abs_err": "1.00e-30",
  "A_exact": "3499549208637780309625413989514635090481612338765625",
  "A_exact_abs_err": "0",
  "B_exact": "-59156987825934649337848875",
  "B_exact_abs_err": "0",
  "delta": "2.43e-38",
  "delta_bound": "1.01e-30"
}
""",
    101: """\
{
  "n": 101,
  "digits": 30,
  "method": "both",
  "series_value": "2.23122809305455812639588193758e-03",
  "series_tail_bound": "8.56e-33",
  "exact_value": "2.23122809305455812639588193758e-03",
  "exact_value_abs_err": "1.00e-30",
  "A_exact": "1081245937279757777477292171131206812673026372914658320395351443509221999258584762\
085663927803603320197155500046760240713388591025390625",
  "A_exact_abs_err": "0",
  "B_exact": "32882304318276688825960028851904923142331727341904869246631555659375",
  "B_exact_abs_err": "0",
  "delta": "2.54e-37",
  "delta_bound": "1.01e-30"
}
""",
}


@pytest.mark.parametrize("n", sorted(PINNED_CENTRAL_BOTH))
def test_central_both_prints_the_pinned_text(capsys, n):
    rc, out = run(capsys, "central", "--n", str(n), "--method", "both", "--digits", "30", "--format", "json")
    assert rc == 0
    assert out == PINNED_CENTRAL_BOTH[n]


# the text of the ratios commands, recorded while the integrand and its
# error bound were still two library calls per height: the two ratios
# commands of CI, a negative height, a height on the Richardson branch
# (|t| < 1e-4) and a member far from n = 1
PINNED_RATIOS = {
    "ratios --n 1 --t 100 --format json": """\
{
  "n": 1,
  "t": "1.0000000e+02",
  "integrand": "1.8175898225775033e+01",
  "integrand_abs_err": "1.23e-04"
}
""",
    "ratios --n 1 --t-max 0.4 --steps 3 --format csv": """\
t,integrand,integrand_abs_err
0.0000000e+00,-7.4583719853039874e+00,7.83e-02
2.0000000e-01,-6.3936582782300997e+00,1.15e-04
4.0000000e-01,-5.3374987263122140e+00,1.08e-04
""",
    "ratios --n 1 --t -0.5": """\
{
  "n": 1,
  "t": "-5.0000000e-01",
  "integrand": "-5.0375533925603184e+00",
  "integrand_abs_err": "1.08e-04"
}
""",
    "ratios --n 3 --t 5e-5": """\
{
  "n": 3,
  "t": "5.0000000e-05",
  "integrand": "8.7496134802952674e-01",
  "integrand_abs_err": "7.83e-02"
}
""",
    "ratios --n 37 --t 3.0": """\
{
  "n": 37,
  "t": "3.0000000e+00",
  "integrand": "4.6102524876312865e+00",
  "integrand_abs_err": "9.98e-05"
}
""",
}


@pytest.mark.parametrize("argv", list(PINNED_RATIOS))
def test_ratios_prints_the_pinned_text(capsys, argv):
    rc, out = run(capsys, *argv.split())
    assert rc == 0
    assert out == PINNED_RATIOS[argv]
    # no command calls ratios_integrand_abs_err, so its text is pinned here
    rows = list(csv.DictReader(io.StringIO(out))) if "csv" in argv else [json.loads(out)]
    for row in rows:
        assert cli._sci(density.ratios_integrand_abs_err(float(row["t"])), 3) == row["integrand_abs_err"]


def test_ratios_evaluates_each_height_once(capsys, monkeypatch):
    # one zeta/L block and one Euler-product row per evaluated height; the
    # height 0 takes the Richardson branch, which evaluates two
    calls = {"_zeta_L_block": 0, "_ratios_rows": 0}

    def counted(name, inner):
        def call(*args, **kw):
            calls[name] += 1
            return inner(*args, **kw)

        return call

    for name in calls:
        monkeypatch.setattr(density, name, counted(name, getattr(density, name)))
    assert cli.main(["ratios", "--n", "1", "--t-max", "0.4", "--steps", "3"]) == 0
    capsys.readouterr()
    assert calls == {"_zeta_L_block": 4, "_ratios_rows": 4}


def test_selftest_exit_code_mapping(capsys, monkeypatch, tmp_path):
    import pytest as pytest_mod

    calls = []

    def fake_main(argv):
        calls.append(argv)
        return 1

    monkeypatch.setattr(pytest_mod, "main", fake_main)
    assert cli.main(["selftest", "--criterion", "3"]) == 5
    assert any("criterion_03" in str(a) for a in calls[0])

    monkeypatch.setattr(pytest_mod, "main", lambda argv: 0)
    assert cli.main(["selftest"]) == 0
    capsys.readouterr()
