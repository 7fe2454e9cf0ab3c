"""Batch command line front end: reproducible CSV/JSON reports.

Subcommands cover the coefficient tables, central values (series and
exact routes), the Gross-Zagier table, moments and their conjectured
main terms, zero lists, one-level density reports, the ratios-conjecture
integrand, and the shared constants.  `selftest` runs the acceptance
suite (requires the repository checkout with its tests/ directory).

Exit codes: 0 success, 2 usage, 3 precision/convergence, 4 compute cap,
5 acceptance failure.  Usage errors include:
  - an integer option out of its range: an even or nonpositive --k, a
    --max-m, --n, --steps or --threads below 1, --N below 1 or past its
    command's cap (2000 for moment, 200 for density, which needs N >= 2);
  - a height out of its range: --T outside (0, T_CAP], a non-finite --t
    or --t-max;
  - a non-finite test-function parameter or a Fejer support below 1e-6;
  - a HECKE7_DIGITS value that is not an integer, when --digits is absent.
The library reads every integer and height argument before any table,
sieve, store or mp work, so a refused input costs no computation, and
the message names the argument.

`ratios` takes one of --t and --t-max.  Outputs are deterministic: fixed
significant figures, insertion-ordered JSON keys, UNIX newlines, UTF-8.
Without --digits the precision comes from the HECKE7_DIGITS environment
variable, read on each call to main(), or is 30 when that is unset or
empty.  main() parses with one
parser per process, built on first use.
--threads is validated (it must be >= 1) but otherwise unused:
evaluation is single-process, and results never depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from math import log, sqrt
from pathlib import Path

import mpmath
from mpmath import mp, mpf

from . import field, vz
from .central import T_CAP, central_value_series, zeros_up_to
from .density import (
    empirical_one_level,
    fejer,
    gaussian,
    _ratios_point,
)
from .moments import empirical_moment, f0_constant, f1_constant, m2_conjecture_main
from .specfun import (
    ComputeCapError,
    ConvergenceError,
    PrecisionContext,
    PrecisionError,
    constants,
    _integer,
)

ENV_DIGITS = "HECKE7_DIGITS"


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _sci(x, digits: int) -> str:
    """Decimal scientific notation with `digits` significant figures,
    stable across runs; a Python float gets at most 17, the most a
    float64 holds."""
    if isinstance(x, float):
        digits = min(digits, 17)
    with mp.workdps(digits + 10):
        v = mpf(x) if not isinstance(x, mpf) else x
        if mpmath.isnan(v):
            return "nan"
        if v == 0:
            return "0." + "0" * (digits - 1) + "e+00"
        sign = "-" if v < 0 else ""
        av = abs(v)
        e = int(mpmath.floor(mpmath.log10(av)))
        ms = mpmath.nstr(av / mpf(10) ** e, digits, strip_zeros=False)
        if ms.startswith("10"):
            e += 1
            ms = mpmath.nstr(av / mpf(10) ** e, digits, strip_zeros=False)
        if "." not in ms:
            ms += "." + "0" * (digits - 1)
        return f"{sign}{ms}e{e:+03d}"


def _float_err(x: float, digits: int) -> str:
    """Error of _sci(x, digits) for a float64 x rounded from an exact or
    mp value good to 10^-digits: that, plus half an ulp (at most
    2^-53 |x|) and half a unit in the last printed figure (at most
    5 * 10^-min(digits, 17) * |x|)."""
    return _sci(mpf(10) ** (-digits) + abs(x) * (2.0**-53 + 5.0 * 10.0 ** -min(digits, 17)), 3)


def _emit(args, payload) -> None:
    """payload: (header, rows) or a flat dict (one-row table in csv)."""
    if args.format == "csv":
        if isinstance(payload, dict):
            header = [str(k) for k in payload]
            rows = [[str(v) for v in payload.values()]]
        else:
            header, rows = payload
        lines = [",".join(header)]
        lines += [",".join(r) for r in rows]
        text = "\n".join(lines) + "\n"
    else:
        obj = payload if not isinstance(payload, tuple) else [
            dict(zip(payload[0], r)) for r in payload[1]
        ]
        text = json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _ctx(args) -> PrecisionContext:
    return PrecisionContext(digits=args.digits)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_coeffs(args) -> int:
    tab = field.coeff_table(args.k, args.max_m, digits=args.digits)
    header = ["m", "chi_exact", "normalized", "normalized_abs_err"]
    err = _sci(mpf(10) ** (-args.digits), 3)
    # chi^(k)(m) has about k log10(m) / 2 digits, past the int-to-str limit
    # of Python >= 3.11 (4300) for large k: print it in full, and restore
    # the limit for the rest of the process (0 means no limit)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        rows = [
            [str(m), str(tab.exact[m]), _sci(tab.normalized[m], args.digits), err]
            for m in range(1, args.max_m + 1)
        ]
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    _emit(args, (header, rows))
    return 0


def _cmd_central(args) -> int:
    ctx = _ctx(args)
    n = args.n
    out: dict = {"n": n, "digits": args.digits, "method": args.method}
    if args.method in ("series", "both"):
        cv = central_value_series(n, ctx)
        out["series_value"] = _sci(cv.value, args.digits)
        out["series_tail_bound"] = _sci(cv.tail_bound, 3)
    if args.method in ("exact", "both"):
        if n % 2 == 0:
            exact_L = mpf(0)
            out["exact_value"] = _sci(exact_L, args.digits)
            out["exact_value_abs_err"] = "0"
            out["A_exact"] = str(vz.A_of(n))  # 0; A_of refuses n < 1
            out["A_exact_abs_err"] = "0"
        else:
            ec = vz.central_value_exact(n, ctx)
            exact_L = ec.L
            out["exact_value"] = _sci(ec.L, args.digits)
            out["exact_value_abs_err"] = _sci(mpf(10) ** (-args.digits), 3)
            out["A_exact"] = str(ec.A)
            out["A_exact_abs_err"] = "0"
            out["B_exact"] = str(ec.B)
            out["B_exact_abs_err"] = "0"
    if args.method == "both":
        with mp.workdps(ctx.working_dps):
            delta = abs(cv.value - exact_L)
        out["delta"] = _sci(delta, 3)
        out["delta_bound"] = _sci(cv.tail_bound + mpf(10) ** (-args.digits), 3)
    _emit(args, out)
    return 0


def _cmd_table(args) -> int:
    header = ["n", "A_exact", "A_factored", "L_4dp"]
    rows = []
    ctx = PrecisionContext(digits=max(args.digits, 15))
    for n in range(1, 34, 2):
        ec = vz.central_value_exact(n, ctx)
        B = abs(ec.B)
        if B.denominator != 1:
            fact = f"({B})^2"
        elif B == 1:
            fact = "1"
        else:
            parts = [
                (f"{p}^{e}" if e > 1 else f"{p}")
                for p, e in sorted(field.factorint(int(B)).items())
            ]
            fact = "(" + "*".join(parts) + ")^2"
        # the published table truncates (not rounds) to 4 decimals
        with mp.workdps(ctx.working_dps):
            l4 = mpmath.floor(ec.L * 10**4) / mpf(10**4)
        rows.append([str(n), str(ec.A), fact, f"{float(l4):.4f}"])
    _emit(args, (header, rows))
    return 0


def _cmd_moment(args) -> int:
    ctx = _ctx(args)
    rep = empirical_moment(args.r, args.N, ctx)
    d = args.digits
    out = {
        "r": rep.r,
        "N": rep.N,
        "empirical": _sci(rep.empirical, d),
        "empirical_abs_err": _sci(2e-11 * rep.N, 3),
        "predicted_main": _sci(rep.predicted_main, d),
        "predicted_main_abs_err": _float_err(rep.predicted_main, d),
        "residual": _sci(rep.residual, d),
    }
    if args.r == 1:
        out["theorem_bound"] = _sci(3.0 * log(args.N) / sqrt(args.N), d)
        out["theorem_bound_abs_err"] = _sci(1e-15, 3)
    out["predicted_constant_form"] = _sci(rep.predicted_constant_form, d)
    out["predicted_constant_form_abs_err"] = _float_err(rep.predicted_constant_form, d)
    _emit(args, out)
    return 0


def _cmd_conjecture(args) -> int:
    ctx = _ctx(args)
    displayed, reduced = m2_conjecture_main(args.N, ctx)
    rep = empirical_moment(2, args.N, ctx)
    d = args.digits
    out = {
        "N": args.N,
        "m2_empirical": _sci(rep.empirical, d),
        "m2_empirical_abs_err": _sci(2e-11 * args.N, 3),
        "main_displayed": _sci(displayed, d),
        "main_displayed_abs_err": _sci(mpf(10) ** (-d), 3),
        "main_reduced": _sci(reduced, d),
        "main_reduced_abs_err": _sci(mpf(10) ** (-d), 3),
        "form_gap": _sci(abs(displayed - reduced), 3),
        "residual_vs_displayed": _sci(rep.empirical - float(displayed), d),
        "residual_vs_reduced": _sci(rep.empirical - float(reduced), d),
    }
    _emit(args, out)
    return 0


def _cmd_zeros(args) -> int:
    rec = zeros_up_to(args.n, args.T, _ctx(args))
    header = ["index", "gamma", "scaled", "gamma_abs_err"]
    rows = [
        [str(i + 1), _sci(g, args.digits), _sci(s, args.digits), _sci(1e-10, 3)]
        for i, (g, s) in enumerate(zip(rec.gammas, rec.scaled))
    ]
    _emit(args, (header, rows))
    return 0


def _cmd_density(args) -> int:
    ctx = _ctx(args)
    f = fejer(args.alpha) if args.testfn == "fejer" else gaussian(args.width)
    rep = empirical_one_level(args.N, f, args.T, ctx)
    d = args.digits
    out = {
        "N": rep.N,
        "testfn": rep.testfn,
        "empirical": _sci(rep.empirical, d),
        "empirical_abs_err": _sci(rep.discarded_mass_bound + 1e-9, 3),
        "explicit_formula": _sci(rep.explicit_formula, d),
        "explicit_formula_abs_err": _sci(1e-8, 3),
        "rmt": _sci(rep.rmt, d),
        "rmt_abs_err": _float_err(rep.rmt, d),
        "v": _sci(rep.rmt, d),
        "nonvanishing_lower_bound": _sci(rep.nonvanishing_lower_bound, d),
        "t_height": _sci(rep.t_height, 6),
        "discarded_mass_bound": _sci(rep.discarded_mass_bound, 3),
    }
    _emit(args, out)
    return 0


def _cmd_ratios(args) -> int:
    _ctx(args)  # the --digits check of every command; the route is float64

    def row(t: float) -> list[str]:
        val, err = _ratios_point(args.n, t)
        return [_sci(t, 8), _sci(val, args.digits), _sci(err, 3)]

    if args.t_max is not None:
        _integer(args.steps, "--steps")
        ts = [args.t_max * i / max(args.steps - 1, 1) for i in range(args.steps)]
        _emit(args, (["t", "integrand", "integrand_abs_err"], [row(t) for t in ts]))
    else:
        t, val, err = row(args.t)
        _emit(args, {"n": args.n, "t": t, "integrand": val, "integrand_abs_err": err})
    return 0


def _cmd_constants(args) -> int:
    ctx = _ctx(args)
    vals = constants(ctx)
    d = args.digits
    err = _sci(mpf(10) ** (-d), 3)
    out: dict = {"digits": d}
    for key in sorted(vals):
        out[key] = _sci(vals[key], d)
        out[key + "_abs_err"] = err
    out["f0"] = _sci(f0_constant(ctx), d)
    out["f0_abs_err"] = err
    out["f1"] = _sci(f1_constant(ctx), d)
    out["f1_abs_err"] = err
    _emit(args, out)
    return 0


def _cmd_selftest(args) -> int:
    root = Path(__file__).resolve().parents[2]
    test_file = root / "tests" / "test_acceptance.py"
    if not test_file.exists():
        print(
            "selftest requires the repository checkout (tests/test_acceptance.py)",
            file=sys.stderr,
        )
        return 2
    import pytest

    argv = ["-v", str(test_file)]
    if args.criterion is not None:
        argv += ["-k", f"criterion_{args.criterion:02d}"]
    rc = pytest.main(argv)
    return 0 if rc == 0 else 5


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--digits", type=int, default=None,
                   help="significant decimal digits (default from "
                        f"{ENV_DIGITS} or 30)")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for config compatibility; results are "
                        "independent of it")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser; --digits defaults to None, which main() reads as
    HECKE7_DIGITS or 30 on each call."""
    top = argparse.ArgumentParser(
        prog="hecke7",
        description="Reports on the Hecke Grossencharacter L-functions of Q(sqrt(-7))",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("coeffs", help="Hecke coefficient table for chi^(k)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--max-m", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("central", help="central value L(1/2, chi^(2n-1))")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("series", "exact", "both"), default="both")
    _add_common(p)
    p.set_defaults(func=_cmd_central)

    p = sub.add_parser("table", help="Gross-Zagier table: n, A(n), L to 4 d.p.")
    _add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("moment", help="empirical moment vs predicted main term")
    p.add_argument("--r", type=int, choices=(1, 2), required=True)
    p.add_argument("--N", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("conjecture", help="second-moment conjectured main term detail")
    p.add_argument("--N", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("zeros", help="zeros of L(s, chi^(4n-3)) up to height T")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--T", type=float, default=10.0)
    _add_common(p)
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("density", help="one-level density report")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--testfn", choices=("fejer", "gaussian"), default="fejer")
    p.add_argument("--alpha", type=float, default=1.0, help="fejer support")
    p.add_argument("--width", type=float, default=2.0, help="gaussian width")
    p.add_argument("--T", type=float, default=T_CAP)
    _add_common(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("ratios", help="ratios-conjecture density integrand")
    p.add_argument("--n", type=int, required=True)
    at = p.add_mutually_exclusive_group(required=True)
    at.add_argument("--t", type=float)
    at.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--steps", type=int, default=33)
    _add_common(p)
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("constants", help="shared constants at requested precision")
    _add_common(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--criterion", type=int, default=None,
                   help="run a single numbered criterion")
    _add_common(p)
    p.set_defaults(func=_cmd_selftest)

    return top


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """One parser per process: it holds no state between parses."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.digits is None:
        env = os.environ.get(ENV_DIGITS) or "30"  # unset or empty: 30
        try:
            args.digits = int(env)
        except ValueError:
            print(f"usage error: {ENV_DIGITS} must be an integer, got {env!r}", file=sys.stderr)
            return 2
    try:
        _integer(args.threads, "--threads")
        return args.func(args)
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 3
    except ComputeCapError as exc:
        print(f"compute cap: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
