"""Per-layer tracing of hecke7 from outside the package.

The tracer rebinds every name that refers to a traced function in every
`hecke7.*` module namespace (modules import each other's functions by
name), plus the `ZEngine` methods, to a wrapper that records a span:
name, start, end and parent.  Spans stay in memory and are written out
when the run ends.  A span's self time is its duration minus that of the
traced spans it directly contains, and it is charged to the module that
defines the function.  Cache counts are read from `cache_info()` of every
functools cache a module defines, read-only.  Nothing in `src/` changes.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("field", "specfun", "vz", "central", "moments", "density", "cli")

# Public functions too cheap and too frequent to wrap: exact arithmetic on
# single elements of Z[eta].  Their time goes to the traced field function
# that calls them.
UNTRACED = {"field": {"norm", "conj", "zmul", "zpow", "epsilon"}}
# Methods traced as "layer.Class.method"; a class or method that a later
# change removes is skipped.
TRACED_METHODS = {("central", "ZEngine"): ("__init__", "z", "z_many", "t_reliable")}

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def spec_metrics(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists under `kind`
    ("end_to_end" or "per_layer")."""
    with open(SPEC) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# Counts taken from a traced call's arguments or result.
_COUNTERS = {
    "central.ZEngine.z": ("z_evals", lambda args, result: 1),
    "central.ZEngine.z_many": ("z_evals", lambda args, result: len(args[1])),
    "central.zeros_up_to": ("zeros", lambda args, result: len(getattr(result, "gammas", ()))),
}


def _modules() -> dict:
    return {name: sys.modules[f"hecke7.{name}"] for name in LAYERS}


def _targets(modules: dict) -> dict:
    """id(function) -> (span name, function) for every traced function."""
    out = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and attr not in UNTRACED.get(layer, ())
            ):
                out[id(obj)] = (f"{layer}.{attr}", obj)
    return out


class Tracer:
    """Spans kept in columnar arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counts: dict[str, int] = {"z_evals": 0, "zeros": 0}
        self._stack: list[list] = []  # [span index, time in traced children]
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        counter = _COUNTERS.get(name)
        stack, clock = self._stack, time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        calls, self_s, counts = self.calls, self.self_s, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            end.append(0.0)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                end[idx] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        modules = _modules()
        wrappers = {}
        for key, (name, fn) in _targets(modules).items():
            wrappers[key] = self._wrap(name, fn)
        for mod in [m for n, m in sys.modules.items() if n == "hecke7" or n.startswith("hecke7.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for (layer, cls_name), methods in TRACED_METHODS.items():
            cls = getattr(modules[layer], cls_name, None)
            for meth in methods:
                fn = vars(cls).get(meth) if cls is not None else None
                if inspect.isfunction(fn):
                    self._restore.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def metrics(self, wall_s: float) -> dict:
        """Every per-layer metric BENCHMARK.json lists; None where a ratio
        has no base (no cache lookups, no zeros found)."""
        calls = dict(zip(self.names, self.calls))
        self_s = dict(zip(self.names, self.self_s))
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, s in self_s.items():
            layer_self[name.split(".", 1)[0]] += s
        zeros = self.counts["zeros"]
        derived = {
            "central.engine_builds": calls.get("central.ZEngine.__init__", 0),
            "central.engine_build_s": self_s.get("central.ZEngine.__init__", 0.0),
            "central.z_evals": self.counts["z_evals"],
            "central.z_evals_per_zero": self.counts["z_evals"] / zeros if zeros else None,
            "trace.coverage": sum(layer_self.values()) / wall_s,
            "trace.overhead_s": len(self.start) * span_cost(),
        }
        caches = cache_counts()
        out: dict = {}
        for key in spec_metrics("per_layer"):
            prefix, _, stat = key.rpartition(".")
            if key in derived:
                out[key] = derived[key]
            elif stat == "calls":
                out[key] = calls.get(prefix, 0)
            elif stat == "self_s":
                out[key] = layer_self[prefix] if prefix in layer_self else self_s.get(prefix, 0.0)
            elif stat in ("cache_misses", "cache_hit_ratio"):
                hits, misses = caches.get(prefix, (0, 0))
                lookups = hits + misses
                out[key] = misses if stat == "cache_misses" else (hits / lookups if lookups else None)
            else:
                raise KeyError(f"the tracer has no readout for per-layer metric {key!r}")
        return out

    def write(self, path: str, meta: dict) -> None:
        """Spans as gzip'd columnar JSON (see the benchmark README)."""
        doc = dict(meta)
        doc["names"] = self.names
        doc["spans"] = {
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


def span_cost(calls: int = 20_000) -> float:
    """Seconds a traced wrapper adds to one call: best of three timings of
    a wrapped no-op against the bare no-op."""

    def noop():
        return None

    wrapped = Tracer()._wrap("noop", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        best = min(best, (clock() - t1) - (t1 - t0))
    return max(best, 0.0) / calls


def cache_counts() -> dict:
    """(hits, misses) summed over the functools caches each module defines;
    a module that defines none is left out."""
    out = {}
    for layer, mod in _modules().items():
        # The module namespace keeps each cache wrapper alive, so its id is
        # stable; a bound `cache_info` method is a new object on every read.
        seen, hits, misses = set(), 0, 0
        for obj in vars(mod).values():
            info = getattr(obj, "cache_info", None)
            if not callable(info) or getattr(obj, "__module__", None) != mod.__name__ or id(obj) in seen:
                continue
            seen.add(id(obj))
            ci = info()
            hits += ci.hits
            misses += ci.misses
        if seen:
            out[layer] = (hits, misses)
    return out
