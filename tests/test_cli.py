"""Command line front end: output shapes, determinism, exit codes."""

import json
import math

import pytest

from hecke7 import cli

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


def test_exit_codes(capsys):
    assert cli.main(["bogus"]) == 2
    assert cli.main(["central", "--n", "3", "--digits", "5"]) == 3
    assert cli.main(["moment", "--r", "1", "--N", "2001"]) == 2
    assert cli.main(["zeros", "--n", "1", "--T", "100"]) == 2
    assert cli.main(["central", "--n", "5001"]) == 4
    assert cli.main(["ratios", "--n", "1"]) == 2
    assert cli.main(["central", "--n", "3", "--threads", "0"]) == 2
    capsys.readouterr()


def test_env_digits_default(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DIGITS, "21")
    rc, out = run(capsys, "constants", "--format", "json")
    assert rc == 0
    assert json.loads(out)["digits"] == 21


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
