"""Differential fault-injection suite for the execution supervisor.

The lock on the recovery machinery: for every catalog pattern, a
parallel run with seeded worker deaths + chunk exceptions + delays
(retries enabled) must produce the *exact* embedding count of the
fault-free reference run, and a killed-then-resumed checkpointed run
must match as well.  Faults default to firing on attempt 1 only, so a
retried chunk succeeds and the fault-free count is recoverable; chunk
re-execution is sound because the counting accumulators are associative
and commutative.

The suite reuses the catalog from ``test_differential_engines`` so the
fault harness covers the same pattern set the kernel differential suite
locks in.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines import reference
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.graph.generators import erdos_renyi
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EngineOptions, execute_plan
from repro.runtime.faults import Fault, FaultPlan
from repro.runtime.supervisor import RunBudget, RunPolicy

from tests.test_differential_engines import PATTERNS

WORKERS = 2
CHUNKS_PER_WORKER = 4
OPTIONS = EngineOptions(workers=WORKERS, chunks_per_worker=CHUNKS_PER_WORKER)
NUM_CHUNKS = WORKERS * CHUNKS_PER_WORKER

#: One deterministic fault schedule per catalog pattern, keyed by its
#: position in the sorted catalog — every seed draws a different mix of
#: exceptions, worker deaths, and delays across the 8 chunks.
NAMES = sorted(PATTERNS)


def seeded_faults(seed: int) -> FaultPlan:
    return FaultPlan.seeded(
        seed,
        NUM_CHUNKS,
        exception_rate=0.4,
        death_rate=0.15,
        delay_rate=0.3,
        delay_s=0.01,
    )


@pytest.fixture(scope="module")
def env():
    graph = erdos_renyi(16, 0.35, seed=3)
    profile = profile_graph(graph, max_pattern_size=3, trials=60)
    return graph, profile


@pytest.mark.parametrize("name", NAMES)
def test_faulted_parallel_counts_are_exact(name, env):
    graph, profile = env
    pattern = PATTERNS[name]
    plan = compile_pattern(pattern, profile)
    expected = reference.count_embeddings(graph, pattern)
    faults = seeded_faults(NAMES.index(name))
    ctx = ExecutionContext(plan.root.num_tables, faults=faults)
    result = execute_plan(
        plan, graph, ctx=ctx,
        options=OPTIONS,
    )
    assert result.ok, [f.describe() for f in result.failures]
    assert result.embedding_count == expected
    # Every disruptive fault (raise or die) forces at least one retry
    # or pool restart; a delay-only schedule needs neither.
    disruptive = any(f.kind in ("raise", "die") for f in faults.faults)
    if disruptive:
        assert result.metrics.retries + result.metrics.pool_restarts >= 1


@pytest.mark.parametrize("name", NAMES)
def test_seeded_oom_faults_bisect_to_exact_counts(name, env):
    """Memory faults recover via chunk bisection, not whole-chunk retry:
    a governed run under a seeded oom schedule reproduces the fault-free
    count exactly with zero pool restarts."""
    from repro.runtime.resources import ResourceBudget
    from repro.runtime.supervisor import RunPolicy

    graph, profile = env
    pattern = PATTERNS[name]
    plan = compile_pattern(pattern, profile)
    expected = reference.count_embeddings(graph, pattern)
    faults = FaultPlan.seeded(
        NAMES.index(name), NUM_CHUNKS, oom_rate=0.35,
    )
    ctx = ExecutionContext(plan.root.num_tables, faults=faults)
    result = execute_plan(
        plan, graph, ctx=ctx,
        options=OPTIONS,
        policy=RunPolicy(budget=RunBudget(backoff_s=0.001),
                         resources=ResourceBudget()),
    )
    assert result.ok, [f.describe() for f in result.failures]
    assert result.embedding_count == expected
    assert result.metrics.pool_restarts == 0
    if faults.faults:
        assert result.metrics.bisections >= 1


def test_seeded_oom_schedule_is_deterministic_and_rate_guarded():
    """`oom_rate` draws are guarded so pre-oom schedules are unchanged:
    the same seed with oom_rate=0 reproduces the legacy schedule."""
    legacy = FaultPlan.seeded(7, 8, exception_rate=0.5, delay_rate=0.3)
    guarded = FaultPlan.seeded(7, 8, exception_rate=0.5, delay_rate=0.3,
                               oom_rate=0.0)
    assert legacy.faults == guarded.faults
    a = FaultPlan.seeded(7, 8, oom_rate=0.5)
    b = FaultPlan.seeded(7, 8, oom_rate=0.5)
    assert a.faults == b.faults
    assert any(f.kind == "oom" for f in a.faults)


def test_oom_fault_raises_memory_error():
    plan = FaultPlan((Fault("oom", 0),))
    with pytest.raises(MemoryError):
        plan.fire(0, 1)
    plan.fire(0, 2)  # attempt-1 default: later attempts are clean


def test_worker_death_restarts_the_pool(env):
    graph, profile = env
    pattern = PATTERNS["house"]
    plan = compile_pattern(pattern, profile)
    expected = reference.count_embeddings(graph, pattern)
    faults = FaultPlan((Fault("die", 1), Fault("die", 5)))
    ctx = ExecutionContext(plan.root.num_tables, faults=faults)
    result = execute_plan(
        plan, graph, ctx=ctx,
        options=OPTIONS,
    )
    assert result.ok
    assert result.embedding_count == expected
    assert result.metrics.pool_restarts >= 1


def test_chunk_timeout_recovers(env):
    graph, profile = env
    pattern = PATTERNS["cycle4"]
    plan = compile_pattern(pattern, profile)
    expected = reference.count_embeddings(graph, pattern)
    # A first-attempt stall far past the chunk timeout; the retry (no
    # delay on attempt 2) completes normally after the pool restart.
    faults = FaultPlan((Fault("delay", 0, delay_s=1.5),))
    budget = RunBudget(chunk_timeout_s=0.2, poll_interval_s=0.01)
    ctx = ExecutionContext(plan.root.num_tables, faults=faults)
    result = execute_plan(
        plan, graph, ctx=ctx, policy=budget,
        options=OPTIONS,
    )
    assert result.ok
    assert result.embedding_count == expected
    assert result.metrics.pool_restarts >= 1


def test_killed_then_resumed_checkpointed_run_is_exact(env, tmp_path):
    """A run that dies partway leaves a usable checkpoint behind."""
    graph, profile = env
    pattern = PATTERNS["house"]
    plan = compile_pattern(pattern, profile)
    expected = reference.count_embeddings(graph, pattern)
    path = tmp_path / "killed.jsonl"

    # Chunk 2 fails on *every* attempt — the run exhausts its retries
    # and reports an incomplete execution, exactly like a run killed by
    # an operator or the OS after most chunks finished.
    permanent = FaultPlan((Fault("raise", 2, attempts=None),))
    ctx = ExecutionContext(plan.root.num_tables, faults=permanent)
    budget = RunBudget(max_chunk_retries=1, backoff_s=0.001)
    first = execute_plan(
        plan, graph, ctx=ctx, options=OPTIONS,
        policy=RunPolicy(budget=budget, checkpoint=str(path)),
    )
    assert not first.ok
    assert any(f.index == 2 for f in first.failures)
    recorded = [
        json.loads(line)["chunk"]
        for line in path.read_text().splitlines() if line
    ]
    assert recorded, "completed chunks must be checkpointed"
    assert 2 not in recorded

    # The resumed run (faults gone — the poison cleared) replays the
    # checkpointed chunks and executes only the missing ones.
    second = execute_plan(
        plan, graph, options=OPTIONS,
        policy=RunPolicy(checkpoint=str(path)),
    )
    assert second.ok
    assert second.embedding_count == expected
    assert second.metrics.resumed_chunks == len(set(recorded))


def test_worker_death_leaves_no_dangling_spans(env):
    """Tracing a run whose worker dies mid-span stays well-formed.

    The dead worker's chunk never ships its spans back (its result
    channel dies with it), so the trace must contain only spans from
    the surviving attempts — every span closed (non-negative duration,
    inside the run window) and every parent resolvable — while the
    retried chunk keeps the count exact.
    """
    from repro import observe

    graph, profile = env
    pattern = PATTERNS["house"]
    plan = compile_pattern(pattern, profile)
    expected = reference.count_embeddings(graph, pattern)
    faults = FaultPlan((Fault("die", 1), Fault("die", 4)))
    ctx = ExecutionContext(plan.root.num_tables, faults=faults)
    observe.enable("faulted")
    try:
        result = execute_plan(
            plan, graph, ctx=ctx,
            options=OPTIONS,
        )
    finally:
        trace = observe.disable()
    assert result.ok
    assert result.embedding_count == expected
    assert result.metrics.pool_restarts >= 1

    sids = {span.sid for span in trace.spans}
    run_end = max(span.end for span in trace.spans)
    for span in trace.spans:
        assert span.end >= span.start, f"unclosed span {span!r}"
        assert span.end <= run_end + 1e-9
        if span.parent is not None:
            assert span.parent in sids, f"dangling parent on {span!r}"
    # Every chunk index appears via a *successful* attempt's span; the
    # died attempts contribute nothing (their spans were lost with the
    # worker, not left open).
    chunk_spans = [s for s in trace.spans if s.name == "chunk"]
    assert {s.attrs.get("index") for s in chunk_spans} == set(
        range(NUM_CHUNKS)
    )


def test_faulted_runs_match_fault_free_stats_free(env):
    """Fault-free and faulted runs agree accumulator-for-accumulator."""
    graph, profile = env
    pattern = PATTERNS["clique4"]
    plan = compile_pattern(pattern, profile)
    clean = execute_plan(plan, graph, options=OPTIONS)
    faults = seeded_faults(1234)
    ctx = ExecutionContext(plan.root.num_tables, faults=faults)
    faulted = execute_plan(
        plan, graph, ctx=ctx,
        options=OPTIONS,
    )
    assert faulted.ok
    assert faulted.accumulators == clean.accumulators
    assert faulted.embedding_count == clean.embedding_count
