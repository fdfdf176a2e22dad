"""Figure 16: multi-thread scalability (paper: 15.11x at 16 threads).

The paper parallelizes the outermost loop with static chunking plus
work stealing.  This container has one core, so wall-clock speedups are
not observable; the runtime's scheduling is exercised for real (fork pool
with dynamic chunk draining) and the speedup curve is derived from the
*measured per-chunk times* via an LPT schedule — the quantity the paper's
work-stealing runtime approaches.
"""

from __future__ import annotations

import heapq

from repro import observe
from repro.bench import Table, session_for
from repro.graph import datasets
from repro.patterns import catalog
from repro.runtime.engine import EngineOptions, chunk_ranges, execute_plan

PAPER_16T = 15.11


def lpt_makespan(chunk_times: list[float], workers: int) -> float:
    """Longest-processing-time-first schedule makespan."""
    loads = [0.0] * workers
    heapq.heapify(loads)
    for duration in sorted(chunk_times, reverse=True):
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + duration)
    return max(loads)


def run_experiment():
    graph = datasets.load("mc")
    session = session_for(graph)
    pattern = catalog.house()
    plan = session.plan_for(pattern)

    # Measure genuine per-chunk runtimes at work-stealing granularity:
    # one chunk per outer-loop iteration, the unit the paper's runtime
    # steals.  (On hub-free graphs like mico/patents-at-paper-scale the
    # single largest unit is a tiny share of total work, which is what
    # makes near-linear scaling possible.)
    import time

    from repro.runtime.context import ExecutionContext

    chunk_times = []
    total = 0
    for start, stop in chunk_ranges(graph.num_vertices,
                                    graph.num_vertices):
        started = time.perf_counter()
        ctx = ExecutionContext(plan.root.num_tables)
        accumulators = plan.function(graph, ctx, start, stop)
        chunk_times.append(time.perf_counter() - started)
        total += accumulators["acc_count"]

    serial = sum(chunk_times)
    table = Table(
        "Figure 16: scalability of house counting on mico",
        ["threads", "modeled runtime", "speedup", "paper speedup"],
    )
    speedups = {}
    paper_curve = {1: 1.0, 2: 1.97, 4: 3.9, 8: 7.7, 16: PAPER_16T}
    for workers in (1, 2, 4, 8, 16):
        makespan = lpt_makespan(chunk_times, workers)
        ratio = serial / makespan
        speedups[workers] = ratio
        table.add_row(workers, f"{makespan:.2f}s", f"{ratio:.2f}x",
                      f"{paper_curve[workers]:.2f}x")
    table.add_note(
        "single-core container: runtimes are modeled from per-iteration "
        "measured times via an LPT schedule (the bound work stealing "
        "approaches); the fork-pool runtime itself is exercised below"
    )

    # Exercise the real parallel engine once (2 workers) for correctness.
    parallel = execute_plan(plan, graph, options=EngineOptions(workers=2))
    table.add_note(
        f"fork-pool run (2 workers): count={parallel.embedding_count:,}, "
        f"work balance={parallel.work_balance():.2f}"
    )
    metrics = parallel.metrics
    stats = metrics.kernel_stats
    table.add_note(
        f"set-op kernels: {metrics.kernel_calls:,} calls "
        f"(gallop {stats.get('intersect_gallop', 0) + stats.get('subtract_gallop', 0):,}, "
        f"merge {stats.get('intersect_merge', 0) + stats.get('subtract_merge', 0):,}, "
        f"bounded {stats.get('bounded', 0):,}); "
        f"memo cache hit rate {metrics.cache_hit_rate:.1%} "
        f"({stats.get('cache_hits', 0):,} hits / "
        f"{stats.get('cache_misses', 0):,} misses)"
    )
    assert parallel.raw_count == total

    # Orientation: the oriented engine cuts chunk ranges by out-degree
    # prefix sums instead of vertex counts, so the relabeled heavy tail
    # spreads across chunks.  Verify count parity through the fork pool
    # and report the measured balance on a clique workload (house itself
    # does not orient — its single restriction feeds unrestricted loops).
    clique = catalog.clique(4)
    clique_total = session.get_pattern_count(clique)
    oriented_session = session_for(graph, orientation="degeneracy")
    oriented_run = execute_plan(
        oriented_session.plan_for(clique), graph,
        options=EngineOptions(workers=2, orientation="degeneracy"),
    )
    assert oriented_run.embedding_count == clique_total
    table.add_note(
        f"orientation (degeneracy, 2 workers): 4-clique count parity OK; "
        f"out-degree-weighted chunks, balance="
        f"{oriented_run.work_balance():.2f} over "
        f"{len(oriented_run.chunk_seconds)} chunks"
    )

    # Tracing coverage: a supervised 4-worker run with tracing on must
    # produce a trace whose chunk spans account for the measured chunk
    # time — worker spans really do travel back through the result
    # channel and cover the execution.
    observe.enable("fig16")
    traced = execute_plan(plan, graph, options=EngineOptions(workers=4))
    trace = observe.disable()
    assert traced.raw_count == total
    span_total = trace.total("chunk")
    chunk_total = sum(traced.chunk_seconds)
    assert len(trace.find("chunk")) == len(traced.chunk_seconds)
    assert abs(span_total - chunk_total) <= 0.10 * chunk_total
    trace_coverage = span_total / traced.seconds
    table.add_note(
        f"tracing (supervised, 4 workers): {len(trace.spans)} spans; "
        f"chunk spans sum to {span_total * 1000:.1f}ms = "
        f"{span_total / chunk_total:.1%} of measured chunk time, "
        f"{trace_coverage:.1%} of wall time (workers overlap, so >100% "
        f"means real concurrency; <100% is pool startup + supervisor "
        f"polling); JSON export {len(trace.to_json())} bytes"
    )

    # Observability: the same supervised 4-worker run with the run
    # ledger recording and progress heartbeats attached.  Heartbeats
    # must arrive once per chunk with degree-weighted monotone work,
    # and the ledger record must round-trip the count.
    import tempfile

    from repro.observe import (
        CollectingProgress, active_ledger, disable_ledger, enable_ledger,
    )

    progress = CollectingProgress()
    with tempfile.TemporaryDirectory() as tmp:
        enable_ledger(f"{tmp}/ledger.jsonl")
        try:
            observed = execute_plan(
                plan, graph,
                options=EngineOptions(workers=4, progress=progress),
            )
            runs = active_ledger().runs()
        finally:
            disable_ledger()
    assert observed.raw_count == total
    events = progress.events
    assert len(events) == len(observed.chunk_seconds)
    assert [e.chunks_done for e in events] == list(range(1, len(events) + 1))
    assert all(a.work_done <= b.work_done for a, b in zip(events, events[1:]))
    assert events[-1].done and events[-1].fraction == 1.0
    assert len(runs) == 1 and runs[0].raw_count == total
    table.add_note(
        f"observability (ledger + heartbeats, 4 workers): "
        f"{len(events)} heartbeats, final throughput "
        f"{events[-1].throughput:,.0f} emb/s, eta converged to "
        f"{events[-1].eta_s:.1f}s; ledger run {runs[0].run_id} "
        f"({runs[0].embedding_count:,} embeddings, "
        f"{len(runs[0].phases)} phase timings)"
    )
    return table, speedups


def test_fig16_scalability(report, run_once):
    table, speedups = run_once(run_experiment)
    report(table)
    # Shape: near-linear scaling out to 16 workers, as in the paper.
    assert speedups[16] > 8.0
    assert speedups[2] > 1.5
    assert all(
        speedups[a] <= speedups[b] + 1e-9
        for a, b in ((1, 2), (2, 4), (4, 8), (8, 16))
    )
