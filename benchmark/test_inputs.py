"""Checks on the benchmark's seeded inputs.

    python3 -m pytest benchmark/test_inputs.py
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEEDS = range(200)


def _split_primes(count):
    out, m = [], 1
    while len(out) < count:
        m += 1
        if all(m % d for d in range(2, int(m**0.5) + 1)) and m % 7 in (1, 2, 4):
            out.append(m)
    return out


def test_angle_cache_threshold_is_the_513th_split_prime():
    assert _split_primes(513)[-1] == workloads.SPLIT_PRIME_513


@pytest.mark.parametrize("seed", SEEDS)
def test_thresholds_hold_for_every_seed(seed):
    N = workloads.make_inputs("one_level_density", seed)["N"]
    assert 96 <= N <= 104 and N * N > workloads.SPLIT_PRIME_513

    exact = workloads.make_inputs("exact_central_values", seed)
    # one b-sequence build per odd n, far past the cache's 8 entries (n > 17)
    assert exact["max_n"] % 2 == 1 and exact["max_n"] > 10 * 17
    assert all(n % 2 == 1 and n <= 101 for n in exact["central_n"])
    assert exact["member"] in workloads.ZERO_MEMBERS

    family = workloads.make_inputs("family_averages", seed)
    shifts = [z for pair in family["shift_pairs"] + [family["product_shift"]] for z in pair]
    assert all(abs(re) < 0.25 for re, _ in shifts)
    assert 1.8 <= family["width"] <= 2.2


def _cost_profile(workload, inputs):
    """What sets the amount of work, with the seed's free choices removed."""
    if workload == "one_level_density":
        return inputs
    if workload == "exact_central_values":
        strata = [(n - 1) // 6 for n in inputs["central_n"]]
        # members 2 and 3 cost the same; member 1 costs a quarter less
        member_cost = "low" if inputs["member"] == 1 else "full"
        return (inputs["max_n"], len(inputs["central_n"]), strata, member_cost)
    min_re = sorted(min(a[0], b[0]) + 0.0 for a, b in inputs["shift_pairs"])  # -0.0 -> 0.0
    return (inputs["N"], min_re, len(inputs["oracle_pairs"]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_give_inputs_of_equal_size(workload):
    first = workloads.make_inputs(workload, 0)
    assert workloads.make_inputs(workload, 0) == first
    profiles = {json.dumps(_cost_profile(workload, workloads.make_inputs(workload, s))) for s in SEEDS}
    assert len(profiles) == 1

