"""Benchmark of hecke7: the paper's headline computations, each in cold processes.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N

Every hecke7 cache is module-level, so every user run starts cold: each
timed iteration is a fresh Python process (benchmark/worker.py) that
imports hecke7, runs one workload and verifies its outputs.

--trace 0 prints the end-to-end metrics.  A run makes --seconds divided
by the workload's nominal iteration time iterations, at least one, so the
count does not depend on how fast the host is; timings are medians over
them.  setup_s is the median import time over four import-only processes
plus each iteration's own import.

--trace 1 runs one traced iteration instead, prints the per-layer metrics
and writes its spans to benchmark/out/.

The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
from workloads import NOMINAL_S, WORKLOADS, make_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 4  # import-only processes per untraced run


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("HECKE7_DIGITS", None)  # the CLI's default precision
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from cached bytecode, as users run
    env["PYTHONHASHSEED"] = "0"
    # Single-threaded workers: a second BLAS thread waits on whatever else
    # runs on the host's other core, which adds run-to-run noise to wall_s.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts workers one at a time, each bounded by the run's deadline."""

    def __init__(self):
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = _child_env()

    def worker(self, *args: str) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark run out of time")
        proc = subprocess.run(
            [sys.executable, WORKER, "--root", ROOT, *args],
            capture_output=True,
            text=True,
            timeout=remaining,
            env=self.env,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    inputs = make_inputs(workload, seed)
    print(f"{workload} seed={seed} inputs={json.dumps(inputs)}", flush=True)
    args = ("--workload", workload, "--inputs", json.dumps(inputs))
    runner = Runner()
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{workload}-seed{seed}.json.gz")
        traced = runner.worker(*args, "--trace-out", path)
        print(f"  traced: wall_s={traced['wall_s']:.3f}; spans written to {os.path.relpath(path, ROOT)}")
        return {
            "inputs": inputs,
            "layers": traced["layers"],
            "attempted": traced["attempted"],
            "failures": traced["failures"],
        }
    setup = [runner.worker("--import-only")["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs = []
    for i in range(max(1, int(seconds // NOMINAL_S[workload]))):
        runs.append(runner.worker(*args))
        r = runs[-1]
        print(f"  iteration {i + 1}: wall_s={r['wall_s']:.3f} cpu_s={r['cpu_s']:.3f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} setup_s={r['setup_s']:.3f}", flush=True)
    return {
        "inputs": inputs,
        "runs": runs,
        "end_to_end": {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs),
            "setup_s": statistics.median(setup + [r["setup_s"] for r in runs]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        },
        "setup_samples": len(setup) + len(runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
    }


def _report(result: dict) -> dict:
    """Print the human-readable summary and return the result line."""
    attempted, failures = result["attempted"], result["failures"]
    for f in failures:
        print(f"  FAILED: {f}")
    print(f"  ops={attempted} failed={len(failures)} fail_ratio={len(failures) / attempted:.4g}")
    if "layers" in result:
        metrics = {}
        for name, unit in tracer.spec_metrics("per_layer").items():
            v = result["layers"].get(name)
            print(f"  {name:42s} {'n/a' if v is None else f'{v:.6g}':>12s} {unit}")
            # a ratio without a base (no cache lookups, no zeros) is reported as 0
            metrics[name] = {"value": 0.0 if v is None else v, "unit": unit}
    else:
        n = len(result["runs"])
        metrics = {}
        for name, unit in tracer.spec_metrics("end_to_end").items():
            count = result["setup_samples"] if name == "setup_s" else n
            v = result["end_to_end"][name]
            print(f"  {name:12s} {v:12.4f} {unit:3s} (median of {count})")
            metrics[name] = {"value": v, "unit": unit}
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hecke7", "__init__.py")):
        print(f"no hecke7 sources under {ROOT}/src: run from a checkout of the repository", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        lines = {w: _report(measure(w, args.seed, args.seconds, bool(args.trace))) for w in names}
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        _table(lines)
        print(json.dumps(lines))
    else:
        print(json.dumps(lines[args.workload]))
    return 0


def _table(lines: dict) -> None:
    if any("wall_s" not in line["metrics"] for line in lines.values()):
        return
    print(f"{'workload':22s} {'wall_s':>9s} {'cpu_s':>9s} {'setup_s':>8s} {'peak_rss_mb':>11s} {'fail_ratio':>10s} {'ops':>5s}")
    for w, line in lines.items():
        m = {k: v["value"] for k, v in line["metrics"].items()}
        print(f"{w:22s} {m['wall_s']:9.3f} {m['cpu_s']:9.3f} {m['setup_s']:8.3f} {m['peak_rss_mb']:11.1f} "
              f"{line['failed'] / line['attempted']:10.4g} {line['attempted']:5d}")


if __name__ == "__main__":
    sys.exit(main())
