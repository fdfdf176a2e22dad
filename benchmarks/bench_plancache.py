"""Plan-cache warm/cold ablation: request planning latency with and
without the persistent compiled-plan cache.

Measures the quantity the serving architecture is built around: how
long a *fresh session* (a daemon restart, a new CI shard, a cold CLI
invocation) takes before its first request can start producing results.
A cold request pays the full front-end bill — graph profiling,
cost-model plan search, decomposition, optimization passes — before a
single embedding is counted.  A warm request points at a populated
:class:`~repro.compiler.plancache.PlanCache` directory and skips all of
it: the frozen plan is re-lowered (AST build + passes + root
compilation, no profiling, no search) and execution begins immediately.

Two metrics per workload:

* **plan latency** (gated) — fresh session construction through
  ``explain_json`` (the plan plus its cache provenance): the time
  until the request has an executable plan in hand, which is exactly
  the window the cache closes.  The acceptance gate requires a
  **>= 5x geomean improvement** on the full power-law graph.
* **time-to-first-result** (informational) — through the first
  completed chunk of a supervised run, timestamped by a progress
  heartbeat.  This additionally pays the worker-pool spawn and the
  first chunk's execution, which the cache cannot touch, so the ratio
  compresses toward 1x as execution dominates; reported, not gated.

Counts are asserted bit-identical warm vs cold per workload, cold runs
must be cache misses and warm runs cache hits — the benchmark is a
correctness test as a side effect.

Runs standalone (CI smoke mode)::

    PYTHONPATH=src python benchmarks/bench_plancache.py --smoke --json out.json
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.api.session import DecoMine
from repro.bench import Table
from repro.graph.generators import power_law
from repro.patterns import catalog
from repro.runtime.engine import EngineOptions

#: Catalog spread: intersection-heavy, sparse-tail, and the paper's
#: running example — all with nontrivial plan searches to amortize.
WORKLOADS = [
    ("triangle", catalog.triangle),
    ("diamond", catalog.diamond),
    ("tailed_triangle", catalog.tailed_triangle),
    ("house", catalog.house),
    ("clique4", lambda: catalog.clique(4)),
]

#: Acceptance gate on the geomean cold/warm plan-latency ratio.
FULL_GATE = 5.0
SMOKE_GATE = 2.0


def make_graph(smoke: bool):
    if smoke:
        return power_law(300, avg_degree=10.0, exponent=1.8, seed=7)
    return power_law(1000, avg_degree=14.0, exponent=1.8, seed=7)


class _FirstChunk:
    """Progress heartbeat that timestamps the first finished chunk."""

    def __init__(self) -> None:
        self.at: float | None = None

    def __call__(self, event) -> None:
        if self.at is None:
            self.at = time.perf_counter()


def measure(graph, cache_dir, pattern):
    """One fresh-session request: plan latency, TTFR, count, hit flag.

    A new session per call mirrors a daemon restart: nothing in memory,
    only the on-disk plan cache (when ``cache_dir`` is populated).
    """
    heartbeat = _FirstChunk()
    start = time.perf_counter()
    session = DecoMine(
        graph,
        plan_cache=cache_dir,
        engine=EngineOptions(progress=heartbeat, workers=2,
                             chunks_per_worker=16),
    )
    hit = session.explain_json(pattern)["plan_cache"]["hit"]
    plan_latency = time.perf_counter() - start
    count = session.get_pattern_count(pattern)
    first_chunk = (heartbeat.at - start) if heartbeat.at else float("nan")
    return plan_latency, first_chunk, count, hit


def geomean(values):
    return float(np.exp(np.mean(np.log(values))))


def run_experiment(smoke: bool = False):
    rounds = 1 if smoke else 3
    graph = make_graph(smoke)
    table = Table(
        "Plan-cache ablation: fresh-session request latency "
        "(seconds, lower wins)",
        ["pattern", "plan cold", "plan warm", "gain",
         "ttfr cold", "ttfr warm"],
    )
    results: dict[str, dict] = {}
    ratios: list[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, factory in WORKLOADS:
            pattern = factory()
            # A per-round cache directory keeps every cold run a
            # genuine miss even across rounds of the same pattern.
            cold_plan = cold_ttfr = float("inf")
            cold_count = None
            for round_index in range(rounds):
                cache = Path(tmp) / f"cold-{name}-{round_index}"
                plan_s, ttfr_s, count, hit = measure(graph, cache, pattern)
                assert not hit, f"{name}: cold run hit the cache"
                assert cold_count is None or count == cold_count
                cold_count = count
                cold_plan = min(cold_plan, plan_s)
                cold_ttfr = min(cold_ttfr, ttfr_s)

            warm_cache = Path(tmp) / f"warm-{name}"
            _, _, populate_count, _ = measure(graph, warm_cache, pattern)
            warm_plan = warm_ttfr = float("inf")
            for _ in range(rounds):
                plan_s, ttfr_s, count, hit = measure(graph, warm_cache,
                                                     pattern)
                assert hit, f"{name}: warm run missed the cache"
                assert count == populate_count == cold_count, (
                    f"{name}: warm count {count} != cold {cold_count}"
                )
                warm_plan = min(warm_plan, plan_s)
                warm_ttfr = min(warm_ttfr, ttfr_s)

            ratio = cold_plan / warm_plan
            ratios.append(ratio)
            results[name] = {
                "count": cold_count,
                "plan_latency_cold": cold_plan,
                "plan_latency_warm": warm_plan,
                "plan_latency_gain": ratio,
                "ttfr_cold": cold_ttfr,
                "ttfr_warm": warm_ttfr,
            }
            table.add_row(name, f"{cold_plan:.3f}", f"{warm_plan:.3f}",
                          f"{ratio:.1f}x", f"{cold_ttfr:.3f}",
                          f"{warm_ttfr:.3f}")

    gate = SMOKE_GATE if smoke else FULL_GATE
    gain = geomean(ratios)
    table.add_note(
        f"geomean plan-latency gain: {gain:.1f}x "
        f"(acceptance gate: >= {gate:.1f}x)"
    )
    table.add_note(
        "plan = fresh session through explain_json (cold: profile + "
        "search + compile; warm: cache load + re-lower); ttfr = through the "
        "first executed chunk (adds pool spawn + execution, which the "
        "cache cannot touch — informational)"
    )
    table.add_note(
        f"graph: |V|={graph.num_vertices}, |E|={graph.num_edges}, "
        f"max degree {int(graph.degrees.max())}"
    )
    summary = {
        "geomean_plan_latency_gain": gain,
        "gate": gate,
        "cases": results,
        "graph": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
        },
        "smoke": smoke,
    }
    return table, summary


def check_gates(summary) -> list[str]:
    failures = []
    if summary["geomean_plan_latency_gain"] < summary["gate"]:
        failures.append(
            f"geomean plan-latency gain "
            f"{summary['geomean_plan_latency_gain']:.2f}x below the "
            f"{summary['gate']:.1f}x gate"
        )
    return failures


def test_bench_plancache(report, run_once):
    table, summary = run_once(lambda: run_experiment(smoke=False))
    report(table)
    # The serving acceptance criterion: a warm request on the full
    # graph must have its plan in hand >= 5x faster than a cold one.
    assert not check_gates(summary), check_gates(summary)


def main(argv=None):
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small graph, one round, low gate (CI)")
    parser.add_argument("--json", metavar="FILE",
                        help="write the summary as JSON")
    args = parser.parse_args(argv)

    table, summary = run_experiment(smoke=args.smoke)
    print(table.render())
    if args.json:
        Path(args.json).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    failures = check_gates(summary)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
