"""One cold benchmark process.

    python3 benchmark/worker.py --root DIR --import-only
    python3 benchmark/worker.py --root DIR --workload NAME --inputs JSON [--trace-out PATH]

Times the import of hecke7 and its dependencies (setup_s), then runs one
workload and its checks (wall_s and cpu_s, from the first call into
hecke7 to the last verified output) and prints one JSON line.  With
--trace-out the calls are traced and the spans written to PATH.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time

import tracer
import workloads


def _import_hecke7(root: str) -> float:
    src = os.path.join(root, "src")
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    for layer in tracer.LAYERS:
        importlib.import_module(f"hecke7.{layer}")
    setup_s = time.perf_counter() - t0
    origin = os.path.abspath(sys.modules["hecke7"].__file__)
    if not origin.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"hecke7 imported from {origin}, not from {src}")
    return setup_s


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--import-only", action="store_true")
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--inputs")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    out: dict = {"setup_s": _import_hecke7(args.root)}
    if not args.import_only:
        body = workloads.BODIES[args.workload]
        inputs = json.loads(args.inputs)
        checks = workloads.Checks()
        tr = None
        if args.trace_out:
            tr = tracer.Tracer()
            tr.install()
        c0 = time.process_time()
        t0 = time.perf_counter()
        body(inputs, checks)
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        out.update(
            wall_s=wall_s,
            cpu_s=cpu_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            attempted=checks.attempted,
            failures=checks.failures,
        )
        if tr is not None:
            tr.uninstall()
            out["layers"] = tr.metrics(wall_s)
            tr.write(args.trace_out, {"workload": args.workload, "inputs": inputs, "wall_s": wall_s})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
