"""The native (C) target of the codegen executor.

Covers what the differential suites cannot see from counts alone: the
Python fallback when no compiler is found or a plan has no C lowering,
exact big-integer results on ``int64`` overflow, Python's floor
division, chunk ranges and time slices, cooperative cancellation, and
the build cache (canonical sources, one build per source).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baselines import reference
from repro.compiler import cgen
from repro.compiler.ast_nodes import (
    Accumulate,
    HashClear,
    Loop,
    Root,
    ScalarOp,
    SetOp,
)
from repro.compiler.build import COUNT_ACC, PlanInfo
from repro.compiler.codegen import compile_root
from repro.compiler.pipeline import CompiledPlan, compile_pattern, compile_spec
from repro.compiler.specs import Constraint, DirectSpec
from repro.costmodel import profile_graph
from repro.graph import shared
from repro.observe import metrics as om
from repro.patterns import catalog
from repro.patterns.pattern import Pattern
from repro.runtime import resources
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EngineOptions, chunk_ranges, execute_plan
from repro.runtime.resources import (
    ChunkCancelled,
    ResourceBudget,
    ResourceGovernor,
    active_tokens,
)
from repro.runtime.supervisor import RunPolicy

pytestmark = pytest.mark.skipif(cgen.find_compiler() is None,
                                reason="no C compiler on this host")


@pytest.fixture(autouse=True)
def native_everywhere(monkeypatch):
    """Small test graphs price every plan far below the production gate."""
    monkeypatch.setattr(cgen, "NATIVE_MIN_COST", 0)


@pytest.fixture(scope="module")
def profiled(medium_random_graph):
    return medium_random_graph, profile_graph(
        medium_random_graph, max_pattern_size=3, trials=40)


def _hand_plan(body, num_tables: int = 0) -> CompiledPlan:
    """A plan around a hand-built root: one outer loop over all vertices."""
    root = Root([SetOp("s1", "universe", ()), Loop("v1", "s1", body)],
                accumulators=(COUNT_ACC,), num_tables=num_tables)
    function, source = compile_root(root)
    pattern = catalog.triangle()
    return CompiledPlan(
        pattern=pattern, spec=None, mode="count", root=root,
        info=PlanInfo(spec=None, mode="count", divisor=1, emit_layouts=()),
        source=source, function=function, cost=1.0, compile_seconds=0.0,
        model_name="none",
    )


def test_hidden_compiler_falls_back_with_identical_counts(profiled,
                                                          monkeypatch):
    graph, profile = profiled
    plan = compile_pattern(catalog.house(), profile)
    native = execute_plan(plan, graph)
    monkeypatch.setattr(cgen, "find_compiler", lambda: None)
    fallback = execute_plan(plan, graph)
    assert native.target == "c"
    assert fallback.target == "python"
    assert fallback.fallback == "no C compiler found"
    assert fallback.accumulators == native.accumulators
    assert fallback.embedding_count == reference.count_embeddings(
        graph, catalog.house())


def test_cost_gate_keeps_cheap_and_unpriced_plans_on_python(profiled,
                                                            monkeypatch):
    graph, profile = profiled
    plan = compile_pattern(catalog.triangle(), profile)
    monkeypatch.setattr(cgen, "NATIVE_MIN_COST", plan.cost * 2)
    assert "below NATIVE_MIN_COST" in execute_plan(plan, graph).fallback
    unpriced = compile_spec(plan.spec)
    monkeypatch.setattr(cgen, "NATIVE_MIN_COST", 0)
    assert unpriced.cost != unpriced.cost  # NaN
    assert cgen.resolve(unpriced).target == "python"


def test_gate_scales_with_the_c_loop_nest(profiled, monkeypatch):
    """A compiler run grows with the C it builds, so a larger loop nest
    needs a proportionally larger predicted cost."""
    graph, profile = profiled
    plan = compile_pattern(catalog.house(), profile)
    monkeypatch.setattr(cgen, "NATIVE_MIN_COST", plan.cost / 2)
    monkeypatch.setattr(cgen, "NATIVE_BODY_BYTES", 64)
    target = cgen.resolve(plan)
    assert target.target == "python"
    assert "-byte C loop nest" in target.reason
    assert execute_plan(plan, graph).fallback == target.reason


def test_int64_overflow_returns_the_exact_python_integer(tiny_graph):
    plan = _hand_plan([
        ScalarOp("c1", "const", (2 ** 62,)),
        ScalarOp("c2", "mul", ("c1", 8)),
        Accumulate(COUNT_ACC, "c2"),
    ])
    assert cgen.resolve(plan).target == "c"
    result = execute_plan(plan, tiny_graph)
    assert result.raw_count == tiny_graph.num_vertices * 2 ** 65
    assert result.target == "c"


def test_accumulator_overflow_returns_the_exact_python_integer(tiny_graph):
    plan = _hand_plan([
        ScalarOp("c1", "const", (2 ** 62,)),
        Accumulate(COUNT_ACC, "c1"),
    ])
    result = execute_plan(plan, tiny_graph)
    assert result.raw_count == tiny_graph.num_vertices * 2 ** 62


@pytest.mark.parametrize("numerator,denominator",
                         [(-7, 2), (7, -2), (-8, 2), (-1, 3), (7, 2)])
def test_floordiv_keeps_python_floor_semantics(tiny_graph, numerator,
                                               denominator):
    plan = _hand_plan([
        ScalarOp("c1", "const", (numerator,)),
        ScalarOp("c2", "floordiv", ("c1", denominator)),
        Accumulate(COUNT_ACC, "c2"),
    ])
    result = execute_plan(plan, tiny_graph)
    assert result.target == "c"
    assert result.raw_count == (tiny_graph.num_vertices
                                * (numerator // denominator))


def test_division_by_zero_raises_as_python_does(tiny_graph):
    plan = _hand_plan([
        ScalarOp("c1", "const", (0,)),
        ScalarOp("c2", "floordiv", (1, "c1")),
        Accumulate(COUNT_ACC, "c2"),
    ])
    with pytest.raises(ZeroDivisionError):
        execute_plan(plan, tiny_graph)


def test_chunk_counts_add_up_to_the_whole_range(profiled):
    graph, profile = profiled
    plan = compile_pattern(catalog.house(), profile)
    native = cgen.resolve(plan)
    assert native.target == "c"
    whole = cgen.run(plan, native, graph, ExecutionContext())
    chunks = [
        cgen.run(plan, native, graph, ExecutionContext(), lo, hi)[COUNT_ACC]
        for lo, hi in chunk_ranges(graph.num_vertices, 7)
    ]
    assert sum(chunks) == whole[COUNT_ACC]
    assert whole == plan.function(graph, ExecutionContext())


def test_time_slices_resume_exactly(profiled, monkeypatch):
    graph, profile = profiled
    plan = compile_pattern(catalog.house(), profile)
    polls = []
    ctx = ExecutionContext()
    ctx.poll_cancel = lambda: polls.append(1)
    monkeypatch.setattr(cgen, "SLICE_NS", 0)
    counts = cgen.run(plan, cgen.resolve(plan), graph, ctx)
    assert counts == plan.function(graph, ExecutionContext())
    assert len(polls) == graph.num_vertices - 1


def test_set_cancel_byte_stops_the_c_loop(profiled):
    graph, profile = profiled
    plan = compile_pattern(catalog.house(), profile)
    token = resources.CancelToken.create()
    try:
        token.cancel("deadline")
        ctx = ExecutionContext(
            resources=ResourceGovernor(ResourceBudget(), token))
        with pytest.raises(ChunkCancelled) as caught:
            cgen.run(plan, cgen.resolve(plan), graph, ctx)
        assert caught.value.reason == "deadline"
    finally:
        token.close()
    assert active_tokens() == []


def test_flipped_token_cancels_like_the_python_path(profiled, monkeypatch):
    graph, profile = profiled
    plan = compile_pattern(catalog.house(), profile)
    create = resources.CancelToken.create

    def flipped():
        token = create()
        token.cancel("interrupt")
        return token

    monkeypatch.setattr(resources.CancelToken, "create", flipped)
    policy = RunPolicy(resources=ResourceBudget())
    outcomes = {}
    for gate in (float("inf"), 0):
        monkeypatch.setattr(cgen, "NATIVE_MIN_COST", gate)
        result = execute_plan(plan, graph, policy=policy)
        outcomes[result.target] = (result.cancelled, result.salvage,
                                   [f.reason for f in result.failures])
    assert set(outcomes) == {"c", "python"}
    assert outcomes["c"] == outcomes["python"]
    assert outcomes["c"][0] == "interrupt"
    assert shared.active_segments() == []
    assert active_tokens() == []


def test_governed_parallel_run_is_exact(profiled):
    graph, profile = profiled
    plan = compile_pattern(catalog.house(), profile)
    result = execute_plan(plan, graph, options=EngineOptions(workers=2),
                          policy=RunPolicy(resources=ResourceBudget()))
    assert result.target == "c"
    assert result.embedding_count == reference.count_embeddings(
        graph, catalog.house())
    assert result.metrics.kernel_calls > 0
    assert shared.active_segments() == []
    assert active_tokens() == []


def _fallback_reason(plan) -> str:
    target = cgen.resolve(replace(plan, cost=1.0, native=None))
    assert target.target == "python"
    return target.reason


def test_plans_without_a_c_lowering_record_why(tiny_graph):
    # Only emit-mode builds create hash-table nodes; a hand-built
    # count-mode root exercises the table guard on its own.
    tables = _hand_plan([HashClear(0), Accumulate(COUNT_ACC, 1)],
                        num_tables=1)
    assert _fallback_reason(tables) == "hash-table nodes"
    emit = compile_spec(DirectSpec(catalog.chain(3), (1, 0, 2)), mode="emit")
    assert _fallback_reason(emit) == "emit mode"
    predicate = compile_spec(DirectSpec(
        catalog.chain(3), (1, 0, 2), constraints=(Constraint(0, (0, 2)),)))
    assert _fallback_reason(predicate) == "IfPred nodes"
    labeled = compile_spec(
        DirectSpec(Pattern(2, [(0, 1)], labels=[0, 1]), (0, 1)))
    assert _fallback_reason(labeled).startswith("label set op")
    # The engine records the reason on the result.
    result = execute_plan(tables, tiny_graph)
    assert (result.target, result.fallback) == ("python", "hash-table nodes")
    assert result.raw_count == tiny_graph.num_vertices


def test_one_pattern_compiles_to_identical_c_and_builds_once(profiled,
                                                             monkeypatch):
    graph, profile = profiled
    monkeypatch.setattr(cgen, "_BUILDS", {})
    builds = om.counter("repro_native_builds_total", "")
    before = builds.value
    first = compile_pattern(catalog.house(), profile)
    second = compile_pattern(catalog.house(), profile)
    assert first is not second
    first_c, second_c = cgen.resolve(first), cgen.resolve(second)
    assert first_c.source == second_c.source
    assert first_c.entry is second_c.entry
    assert builds.value - before == 1


def test_concurrent_threads_share_one_build(profiled, monkeypatch):
    """Daemon threads executing one fresh plan at once build it once and
    count exactly: the build cache is locked and scratch is per call."""
    import sys
    import threading

    graph, profile = profiled
    plan = compile_pattern(catalog.house(), profile)
    expected = reference.count_embeddings(graph, catalog.house())
    monkeypatch.setattr(cgen, "_BUILDS", {})
    builds = om.counter("repro_native_builds_total", "")
    before = builds.value
    counts, errors = [], []

    def worker():
        try:
            for _ in range(5):
                counts.append(execute_plan(plan, graph).embedding_count)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert counts == [expected] * 20
    assert builds.value - before == 1


def test_explain_reports_the_target(profiled):
    from repro import DecoMine

    graph, profile = profiled
    session = DecoMine(graph, profile=profile)
    payload = session.explain_json(catalog.house())
    assert (payload["target"], payload["fallback"]) == ("c", None)
    assert "target: c" in session.explain(catalog.house())
    vectorized = DecoMine(graph, profile=profile,
                          engine=EngineOptions(executor="vectorized"))
    payload = vectorized.explain_json(catalog.house())
    assert payload["target"] == "python"
    assert payload["fallback"] == "executor 'vectorized'"


def test_ledger_row_records_the_target(profiled, tmp_path):
    from repro.observe.ledger import Ledger, disable_ledger, enable_ledger

    graph, profile = profiled
    plan = compile_pattern(catalog.house(), profile)
    enable_ledger(tmp_path / "ledger.jsonl")
    try:
        execute_plan(plan, graph)
    finally:
        disable_ledger()
    [record] = Ledger(tmp_path / "ledger.jsonl").runs()
    assert (record.target, record.fallback) == ("c", None)
