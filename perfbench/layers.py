"""Traced runs: spans around the program's public entry points.

A traced run installs wrappers on the functions and methods through
which the program's layers call each other, records one span per call
in memory, and derives each layer's *self time* — span duration minus
the time its direct child spans cover — when the run ends.  Spans use
``time.monotonic`` (CLOCK_MONOTONIC, shared by all processes on Linux),
so the daemon's spans line up with the benchmark's op window.

End-to-end numbers never come from a traced run; the wrappers cost a
few microseconds per call, which the traced ``trace.ops_per_s`` shows
against the untraced ``ops_per_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict

#: Per-layer metrics: name, unit, and the end-to-end metric (and
#: workload) each should move.  Every traced run reports all of them.
PER_LAYER = (
    ("graph.load_s", "s", "setup_s, all workloads"),
    ("costmodel.profile_s", "s", "setup_s, all workloads"),
    ("compiler.compile_ms", "ms",
     "compile-cold latency_p50_ms/latency_p90_ms/ops_per_s; "
     "count-warm setup_s"),
    ("compiler.source_bytes", "bytes",
     "compile-cold latency_p50_ms/latency_p90_ms; count-warm setup_s"),
    ("compiler.decomposed_share", "share",
     "compile-cold latency_p50_ms/latency_p90_ms; a plan flip moves "
     "count-warm ops_per_s"),
    ("compiler.plancache_store_ms", "ms", "compile-cold ops_per_s"),
    ("compiler.plancache_load_ms", "ms",
     "compile-cold ops_per_s; serve-mixed setup_s"),
    ("compiler.plan_hit_rate", "share", "compile-cold ops_per_s"),
    ("compiler.compile_batch_ms", "ms", "serve-mixed latency_p90_ms"),
    ("runtime.execute_ms", "ms",
     "count-warm ops_per_s/latency_p50_ms/latency_p90_ms"),
    ("runtime.kernel_calls_per_op", "count",
     "count-warm ops_per_s/latency_p50_ms/latency_p90_ms"),
    ("runtime.setop_cache_hit_rate", "share", "count-warm ops_per_s"),
    ("runtime.execute_batch_ms", "ms", "serve-mixed latency_p90_ms"),
    ("runtime.batch_eliminated_share", "share",
     "serve-mixed latency_p90_ms"),
    ("api.submit_self_ms", "ms", "serve-mixed latency_p50_ms"),
    ("serve.overhead_ms", "ms",
     "serve-mixed latency_p50_ms/ops_per_s"),
    ("serve.coalesced_share", "share", "serve-mixed ops_per_s"),
    ("serve.rejected_share", "share", "serve-mixed ops_per_s"),
    ("observe.ledger_bytes_per_op", "bytes", "serve-mixed cpu_ms_per_op"),
    ("trace.coverage", "share",
     "layer self time over op wall time; must stay >= 0.9"),
    ("trace.ops_per_s", "1/s",
     "traced throughput; against untraced ops_per_s it is the tracing "
     "overhead"),
)

#: (module, attribute or Class.method, layer, span name).  Functions are
#: patched at every module that binds them by name.
_TARGETS = (
    ("repro.graph.datasets", "load", "graph", "load"),
    ("repro.costmodel", "profile_graph", "costmodel", "profile"),
    ("repro.costmodel.profiler", "profile_graph", "costmodel", "profile"),
    ("repro.api.session", "profile_graph", "costmodel", "profile"),
    ("repro.compiler.pipeline", "compile_pattern", "compiler", "compile"),
    ("repro.compiler", "compile_pattern", "compiler", "compile"),
    ("repro.compiler.plancache", "compile_pattern", "compiler", "compile"),
    ("repro.api.session", "compile_pattern", "compiler", "compile"),
    ("repro.compiler.plancache", "PlanCache.load", "compiler",
     "plancache_load"),
    ("repro.compiler.plancache", "PlanCache.store", "compiler",
     "plancache_store"),
    ("repro.compiler.batch", "compile_batch", "compiler", "compile_batch"),
    ("repro.api.session", "compile_batch", "compiler", "compile_batch"),
    ("repro.runtime.engine", "execute_plan", "runtime", "execute"),
    ("repro.runtime.batchrun", "execute_plan", "runtime", "execute"),
    ("repro.api.session", "execute_plan", "runtime", "execute"),
    ("repro.runtime.batchrun", "execute_batch", "runtime", "execute_batch"),
    ("repro.api.session", "DecoMine.submit", "api", "submit"),
    ("repro.api.session", "DecoMine.submit_batch", "api", "submit_batch"),
    ("repro.observe.ledger", "Ledger.append", "observe", "ledger_append"),
    ("repro.serve.server", "MiningServer._dispatch", "serve", "dispatch"),
    ("repro.serve.server", "send_message", "serve", "send"),
    ("repro.serve.server", "MiningServer.handle_request", "serve",
     "handle_request"),
    ("repro.serve.server", "MiningServer.handle_batch", "serve",
     "handle_batch"),
)


def _attrs(name, args, result) -> dict:
    """Facts recorded with a span, taken from the call's own values."""
    if name == "compile":
        return {"source_bytes": len(result.source),
                "decomposed": bool(result.uses_decomposition)}
    if name == "execute_batch":
        return {"eliminated": float(args[0].sharing.eliminated_fraction)}
    return {}


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self) -> None:
        #: ``[layer, name, start, end, parent index, attrs]`` per span.
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span = [layer, name, time.monotonic(), None,
                    stack[-1] if stack else -1, {}]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span[5] = _attrs(name, args, result)
                return result
            finally:
                span[3] = time.monotonic()
                stack.pop()

        return traced

    def install(self) -> None:
        """Patch every target; lasts for the rest of the process."""
        for module_name, attr, layer, name in _TARGETS:
            module = importlib.import_module(module_name)
            owner, _, method = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            original = getattr(holder, method or attr)
            setattr(holder, method or attr, self.wrap(layer, name, original))

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for layer, name, start, end, parent, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [span[3] - span[2] - child_time[index]
            for index, span in enumerate(spans)]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def summarize(spans: list[list], windows: list, op_wall_s: float) -> dict:
    """Per-layer figures of a traced run.

    Span-based metrics average over every call of the run (set-up
    included, so set-up layers report too); self times and coverage
    count only spans inside the op chunks' ``windows``.
    """
    for span in spans:
        if span[3] is None:  # still open when the process wrote its spans
            span[3] = span[2]
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def outermost(name):
        # Calls not nested in a call of the same name (aux plans recurse).
        return [span for span in by_name[name]
                if span[4] < 0 or spans[span[4]][1] != name]

    def duration(name):
        return [span[3] - span[2] for span in outermost(name)]

    top_compiles = outermost("compile")
    layer_self = defaultdict(float)
    for span, own in zip(spans, selfs):
        if any(start <= span[2] and span[3] <= end for start, end in windows):
            layer_self[span[0]] += own
    submit_self = [own for span, own in zip(spans, selfs)
                   if span[1] in ("submit", "submit_batch")]
    return {
        "graph.load_s": _mean(duration("load")),
        "costmodel.profile_s": _mean(duration("profile")),
        "compiler.compile_ms": 1e3 * _mean(duration("compile")),
        "compiler.source_bytes": _mean(s[5]["source_bytes"]
                                       for s in top_compiles),
        "compiler.decomposed_share": _mean(float(s[5]["decomposed"])
                                           for s in top_compiles),
        "compiler.plancache_store_ms": 1e3 * _mean(duration("plancache_store")),
        "compiler.plancache_load_ms": 1e3 * _mean(duration("plancache_load")),
        "compiler.compile_batch_ms": 1e3 * _mean(duration("compile_batch")),
        "runtime.execute_ms": 1e3 * _mean(duration("execute")),
        "runtime.execute_batch_ms": 1e3 * _mean(duration("execute_batch")),
        "runtime.batch_eliminated_share": _mean(
            s[5]["eliminated"] for s in by_name["execute_batch"]),
        "api.submit_self_ms": 1e3 * _mean(submit_self),
        "trace.coverage": sum(layer_self.values()) / op_wall_s,
        "layer_self_s": dict(sorted(layer_self.items())),
    }


def report(workload: str, values: dict, layer_self_s: dict,
           op_wall_s: float) -> str:
    """The traced-run report: every per-layer metric with its unit and
    the end-to-end metric it maps to, then self time by layer."""
    lines = [f"traced run of {workload}: per-layer metrics"]
    for name, unit, maps_to in PER_LAYER:
        lines.append(f"  {name:32} {values[name]:14.6g} {unit:6} -> {maps_to}")
    lines.append(f"  self time by layer over {op_wall_s:.3f} s of op wall "
                 f"time:")
    for layer, seconds in sorted(layer_self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {layer:10} {seconds:10.3f} s "
                     f"{100 * seconds / op_wall_s:6.1f} %")
    return "\n".join(lines)
