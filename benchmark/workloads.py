"""Seeded inputs and bodies of the three benchmark workloads.

`make_inputs(workload, seed)` uses the standard library only, so the
orchestrator can draw inputs without importing hecke7.  The seed picks
inputs from within each workload's family; the amount of work is the same
for every seed (fixed counts, and choices drawn from narrow strata of
equal cost).  The bodies run inside a cold worker process and verify every
output against an independent route in the same run or an exact value.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("one_level_density", "exact_central_values", "family_averages")

# Seconds one iteration takes on a 2-vCPU host at its slower observed speed.
# A run of S seconds makes S // NOMINAL_S iterations, at least one.
NOMINAL_S = {"one_level_density": 50.0, "exact_central_values": 25.0, "family_averages": 40.0}

# one_level_density: N = 96 for every seed, the low end of the paper's
# neighbourhood of N = 100, which keeps a run within the benchmark's time
# budget.  The prime cutoff N^2 must pass the 513th split prime, 8297, so
# that the 512-entry angle cache in density thrashes.  The cost grows about
# 3% per unit of N, more than the run-to-run noise allows, so the seed does
# not move N.
ONE_LEVEL_N = 96
SPLIT_PRIME_513 = 8297

# exact_central_values: max_n = 301 rebuilds the b-sequence about 150 times
# through its 8-entry cache (any n > 17 exceeds it); the sweep costs about
# n^5, so max_n is fixed.  One odd n per stratum of three consecutive odd
# numbers up to 101, and one member for the zero check: members 2 and 3
# cost the same to within 5%, member 1 a quarter less.
CONGRUENCE_MAX_N = 301
CENTRAL_STRATA = tuple((6 * i + 1, 6 * i + 3, 6 * i + 5) for i in range(17))
ZERO_MEMBERS = (2, 3)

# family_averages: the criterion-06 shift grid, grouped by the smaller real
# part, which sets the brute-force cutoff and so the cost.  The seed draws a
# fixed number of pairs from each group.
SHIFTS = (0.0, 0.05, -0.05, 0.1, -0.1)
SHIFT_GRID = tuple((complex(a), complex(b)) for a in SHIFTS for b in SHIFTS) + (
    (0.05j, 0.05j), (0.05j, -0.05j), (-0.05j, 0.05j), (-0.05j, -0.05j),
)
SHIFT_DRAWS = {-0.1: 2, -0.05: 2, 0.0: 2, 0.05: 1, 0.1: 1}
LOCAL_FACTOR_PRIMES = (2, 3, 5, 11, 13)
ORACLE_SINGLES = tuple((m, 1) for m in range(1, 31))
ORACLE_PAIRS = tuple((p**i, p**j) for p in (2, 3, 5) for i in range(4) for j in range(4))
ORACLE_DRAWS = 8
FAMILY_N = 469
RATIOS_N = 20
GAUSSIAN_WIDTH = (1.8, 2.2)


def make_inputs(workload: str, seed: int) -> dict:
    """JSON-serialisable inputs of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "one_level_density":
        return {"N": ONE_LEVEL_N}
    if workload == "exact_central_values":
        return {
            "max_n": CONGRUENCE_MAX_N,
            "central_n": [rng.choice(s) for s in CENTRAL_STRATA],
            "member": rng.choice(ZERO_MEMBERS),
        }
    if workload == "family_averages":
        shifts = []
        for min_re, count in SHIFT_DRAWS.items():
            group = [p for p in SHIFT_GRID if min(p[0].real, p[1].real) == min_re]
            shifts += rng.sample(group, count)
        return {
            "N": FAMILY_N,
            "oracle_pairs": rng.sample(ORACLE_SINGLES, ORACLE_DRAWS)
            + rng.sample(ORACLE_PAIRS, ORACLE_DRAWS),
            "shift_pairs": [_pack(p) for p in shifts],
            "product_shift": _pack(rng.choice(SHIFT_GRID)),
            "width": round(rng.uniform(*GAUSSIAN_WIDTH), 3),
        }
    raise ValueError(f"unknown workload {workload!r}")


def _pack(pair) -> list:
    return [[z.real, z.imag] for z in pair]


def _unpack(pair) -> tuple:
    return tuple(complex(re, im) if im else re for re, im in pair)


class Checks:
    """Counts checked operations; one that raises or misses its tolerance fails."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, predicate) -> None:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:  # a raising operation is a failed operation
            ok = False
            name = f"{name}: {type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(name)

    def value(self, compute):
        """compute(), or the exception it raised; checks that use it then fail."""
        try:
            return compute()
        except Exception as exc:
            return exc


def _ok(value):
    """Re-raise a stored exception inside a check."""
    if isinstance(value, Exception):
        raise value
    return value


def _cli_json(argv: list[str]):
    from hecke7 import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"hecke7 {' '.join(argv)} exited {rc}")
    return json.loads(buf.getvalue())


def one_level_density(inputs: dict, checks: Checks) -> None:
    from hecke7 import density
    from hecke7.specfun import PrecisionContext

    alpha = Fraction(1)
    rep = checks.value(
        lambda: density.empirical_one_level(
            inputs["N"], density.fejer(float(alpha)), ctx=PrecisionContext(25)
        )
    )
    v = 1 / alpha + Fraction(1, 2)
    checks.expect("rmt == 1/alpha + 1/2", lambda: Fraction(_ok(rep).rmt) == v)
    checks.expect(
        "nonvanishing bound == (2 - v)/2",
        lambda: Fraction(_ok(rep).nonvanishing_lower_bound) == (2 - v) / 2,
    )
    checks.expect(
        "|empirical - explicit formula| <= discarded mass + 1e-9",
        lambda: abs(_ok(rep).empirical - rep.explicit_formula)
        <= rep.discarded_mass_bound + 1e-9,
    )


def exact_central_values(inputs: dict, checks: Checks) -> None:
    from hecke7 import central, vz
    from hecke7.specfun import PrecisionContext

    max_n = inputs["max_n"]
    rows = checks.value(lambda: {n: ok for n, _, ok in vz.congruence_check(max_n)})
    for n in range(3, max_n + 1, 2):
        checks.expect(f"B({n}) = -{n} mod 4", lambda: _ok(rows)[n])

    for n in inputs["central_n"]:
        argv = ["central", "--n", str(n), "--method", "both", "--digits", "30"]
        out = checks.value(lambda: _cli_json(argv + ["--format", "json"]))
        checks.expect(
            f"central {n}: delta <= delta_bound",
            lambda: float(_ok(out)["delta"]) <= float(out["delta_bound"]),
        )
        checks.expect(
            f"A({n}) a-path == b-path",
            lambda: vz.A_from_a_path(n) == Fraction(_ok(out)["A_exact"]),
        )

    table = checks.value(lambda: _cli_json(["table", "--digits", "30", "--format", "json"]))
    for i in range(17):
        checks.expect(
            f"table row {i + 1}: A a-path == b-path",
            lambda: vz.A_from_a_path(int(_ok(table)[i]["n"])) == Fraction(table[i]["A_exact"]),
        )

    member = inputs["member"]
    rec = checks.value(lambda: central.zeros_up_to(member, 10.0))
    ctx = PrecisionContext(15)
    for i in range(2):
        checks.expect(
            f"mpmath Z changes sign across zero {i + 1} of member {member}",
            lambda: _sign_change(central, member, _ok(rec).gammas[i], ctx),
        )


def _sign_change(central, n, gamma, ctx, delta=1e-3) -> bool:
    return central.hardy_Z(n, gamma - delta, ctx) * central.hardy_Z(n, gamma + delta, ctx) < 0


def family_averages(inputs: dict, checks: Checks) -> None:
    import mpmath

    from hecke7 import density, moments
    from hecke7.specfun import PrecisionContext

    ctx25, ctx30 = PrecisionContext(25), PrecisionContext(30)
    N = inputs["N"]
    # the sweep validates itself against the mpmath series route and raises
    # PrecisionError on a miss; the conjecture main term asserts its two forms
    checks.expect("sweep validation, first moment", lambda: moments.empirical_moment(1, N, ctx25))
    checks.expect("sweep validation, second moment", lambda: moments.empirical_moment(2, N, ctx25))
    checks.expect("second-moment main term forms", lambda: moments.m2_conjecture_main(N, ctx25))

    for m, l in inputs["oracle_pairs"]:
        checks.expect(
            f"delta oracle ({m}, {l})",
            lambda: abs(
                moments.empirical_delta_oracle(m, l, 4000)
                - (moments.delta_one(m) if l == 1 else moments.delta_two(l, m))
            )
            <= 0.02,
        )

    for pair in inputs["shift_pairs"]:
        a, b = _unpack(pair)
        min_re = min(complex(a).real, complex(b).real)
        for p in LOCAL_FACTOR_PRIMES:
            checks.expect(
                f"local factor p={p} shifts {a}, {b}: brute == closed",
                lambda: _brute_gap(moments, p, a, b, min_re, ctx30) <= 1e-12,
            )

    a, b = _unpack(inputs["product_shift"])
    checks.expect(
        "delta series product finite",
        lambda: mpmath.isfinite(moments.delta_series_product(a, b, 10**4, ctx25)),
    )

    g = density.gaussian(inputs["width"])
    scale = math.log(RATIOS_N)
    checks.expect(
        f"ratios vs explicit formula, gaussian({inputs['width']})",
        lambda: abs(
            density.ratios_one_level_density(RATIOS_N, g, ctx25)
            - sum(density.explicit_formula_sum(n, g, ctx25, scale=scale) for n in range(1, RATIOS_N + 1))
            / RATIOS_N
        )
        <= 0.05,
    )

    f = density.fejer(1.0)
    checks.expect(
        "rmt prediction dual route",
        lambda: abs(density.rmt_prediction_quad(f, ctx25) - mpmath.mpf(float(density.rmt_prediction(f, ctx25))))
        < 1e-7,
    )


def _brute_gap(moments, p, a, b, min_re, ctx) -> float:
    v = moments.local_factor(p, a, b, mode="brute", cutoff=moments.brute_cutoff_for(p, min_re), ctx=ctx)
    return float(abs(v.brute - v.closed))


BODIES = {
    "one_level_density": one_level_density,
    "exact_central_values": exact_central_values,
    "family_averages": family_averages,
}
