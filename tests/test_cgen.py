"""The native (C) target of the codegen executor.

Covers what the differential suites cannot see from counts alone: the
Python fallback when no compiler is found or a plan has no C lowering,
exact big-integer results on ``int64`` overflow, Python's floor
division, chunk ranges and time slices, cooperative cancellation,
which sets get a bitmap and where it is cleared, the gallop escape and
size-only excludes, the build cache (canonical sources, one build
per source) and builds started at plan time (prefetch, the fork and
exit rules).  A wrapper script stands in for the compiler through the
``find_compiler`` seam, to hold a build in flight or make it fail.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.baselines import reference
from repro.compiler import cgen
from repro.compiler.ast_nodes import (
    Accumulate,
    HashClear,
    IfPositive,
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
from repro.graph import datasets, shared
from repro.graph.csr import CSRGraph
from repro.observe import metrics as om
from repro.patterns import catalog
from repro.patterns.pattern import Pattern
from repro.runtime import resources
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EngineOptions, chunk_ranges, execute_plan
from repro.runtime.setops import STATS
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


#: Six vertices, eleven edges: its plan nests bitmapped sets 3 deep.
SIX = Pattern(6, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (1, 5),
                  (2, 4), (2, 5), (3, 5), (4, 5)])


def _resume_every_iteration(plan, graph, monkeypatch) -> None:
    """Every outer iteration ends in a slice return and a resume; the
    bitmaps set in it are clear by then."""
    native = cgen.resolve(plan)
    assert native.bitmaps > 0
    polls = []
    ctx = ExecutionContext()
    ctx.poll_cancel = lambda: polls.append(1)
    monkeypatch.setattr(cgen, "SLICE_NS", 0)
    counts = cgen.run(plan, native, graph, ctx)
    assert counts == plan.function(graph, ExecutionContext())
    assert len(polls) == graph.num_vertices - 1


def test_time_slices_resume_exactly(profiled, monkeypatch):
    graph, profile = profiled
    _resume_every_iteration(compile_pattern(catalog.house(), profile),
                            graph, monkeypatch)


def test_time_slices_resume_nested_bitmaps_exactly(profiled, monkeypatch):
    graph, profile = profiled
    _resume_every_iteration(compile_pattern(SIX, profile), graph,
                            monkeypatch)


def _enclosing(source: str, needle: str) -> str:
    """The opening line of the C block around the line holding needle."""
    lines = source.splitlines()
    at = next(k for k, line in enumerate(lines) if needle in line)
    indent = len(lines[at]) - len(lines[at].lstrip())
    return next(line.strip() for line in reversed(lines[:at])
                if line.strip() and len(line) - len(line.lstrip()) < indent)


def _bitmapped(source: str) -> list[str]:
    return re.findall(r"bm_mark\((s\d+), m\d+, 1\);", source)


def test_bitmap_set_under_if_positive_is_cleared_in_that_block(tiny_graph,
                                                               profiled):
    """An ``IfPositive`` body may not run, so its set is unassigned after
    it; the bitmap is cleared inside the body, not at the loop's end.
    Vertex 0 has no lower neighbor, so the first iteration skips it."""
    plan = _hand_plan([
        SetOp("s2", "neighbors", ("v1",)),
        SetOp("s3", "trim_below", ("s2", "v1")),
        ScalarOp("c1", "size", ("s3",)),
        IfPositive("c1", [
            SetOp("s4", "copy", ("s3",)),
            Loop("v2", "s4", [
                SetOp("s5", "neighbors", ("v2",)),
                SetOp("s6", "intersect", ("s4", "s5")),
                ScalarOp("c2", "size", ("s6",)),
                Accumulate(COUNT_ACC, "c2"),
            ]),
        ]),
    ])
    native = cgen.resolve(plan)
    assert native.bitmaps == 1
    [name] = _bitmapped(native.source)
    for on in (1, 0):  # set, then cleared
        assert _enclosing(native.source,
                          f"bm_mark({name}, m0, {on})").startswith("if (")
    for graph in (tiny_graph, profiled[0]):
        counts = cgen.run(plan, native, graph, ExecutionContext())
        assert counts == plan.function(graph, ExecutionContext())
        assert counts[COUNT_ACC] > 0


def test_house_bitmaps_only_the_first_neighborhood():
    """``N(v0)`` is fixed for every deeper loop of house; ``N(v1)`` is
    only excluded from, which reads no bitmap."""
    graph = datasets.load("lj")
    plan = compile_pattern(catalog.house(), profile_graph(graph))
    native = cgen.resolve(plan)
    first = re.search(r"(s\d+) = \(set_t\)\{indices \+ indptr\[v0\]",
                      native.source)
    assert _bitmapped(native.source) == [first.group(1)]
    assert native.bitmaps == 1
    before = STATS.snapshot()
    result = execute_plan(plan, graph)
    assert result.target == "c"
    assert result.metrics.kernel_stats["intersect_bitmap"] > 0
    assert STATS.delta(before)["intersect_bitmap"] > 0
    assert result.embedding_count == reference.count_embeddings(
        graph, catalog.house())


def test_induced_plans_subtract_through_the_bitmap(profiled):
    """A vertex-induced plan subtracts enclosing neighborhoods; the
    right operand's bitmap filters the left one."""
    graph, profile = profiled
    plan = compile_pattern(catalog.house(), profile, induced=True)
    native = cgen.resolve(plan)
    assert "bm_not(" in native.source
    before = STATS.snapshot()
    counts = cgen.run(plan, native, graph, ExecutionContext())
    assert STATS.delta(before)["subtract_bitmap"] > 0
    assert counts == plan.function(graph, ExecutionContext())


def test_hub_operand_keeps_the_gallop_path():
    """An operand ``GALLOP_RATIO`` times the bitmapped set gallops over
    it rather than filtering every hub neighbor through the bitmap."""
    leaves = 39
    graph = CSRGraph.from_edges(
        leaves + 1, [(0, v) for v in range(1, leaves + 1)]
        + [(v, v + 1) for v in range(1, leaves)], name="hub")
    assert leaves >= 3 * cgen.GALLOP_RATIO
    plan = _hand_plan([
        SetOp("s2", "neighbors", ("v1",)),
        Loop("v2", "s2", [
            SetOp("s3", "neighbors", ("v2",)),
            SetOp("s4", "intersect", ("s2", "s3")),
            ScalarOp("c1", "size", ("s4",)),
            Accumulate(COUNT_ACC, "c1"),
        ]),
    ])
    native = cgen.resolve(plan)
    assert native.bitmaps == 1
    before = STATS.snapshot()
    counts = cgen.run(plan, native, graph, ExecutionContext())
    delta = STATS.delta(before)
    assert counts == plan.function(graph, ExecutionContext())
    # Each leaf's step to the hub gallops; every other step filters.
    assert delta["intersect_gallop"] == leaves
    assert delta["intersect_merge"] == 0
    assert delta["intersect_bitmap"] == 2 * graph.num_edges - leaves


def test_a_filter_writing_past_its_last_hit_stays_in_its_buffer():
    """Filtering the universe through the hub's bitmap hits ``maxdeg``
    times, then writes the last vertex one slot further: into the
    buffer's slack, not the live bitmap that follows the buffers."""
    n = 20
    hub = n - 1
    graph = CSRGraph.from_edges(n, [(v, hub) for v in range(hub)],
                                name="star")
    assert n < cgen.GALLOP_RATIO * graph.max_degree  # no gallop escape
    plan = _hand_plan([
        SetOp("s2", "neighbors", ("v1",)),
        Loop("v2", "s2", [
            SetOp("s3", "intersect", ("s1", "s2")),
            ScalarOp("c1", "size", ("s3",)),
            Accumulate(COUNT_ACC, "c1"),
        ]),
    ])
    native = cgen.resolve(plan)
    assert native.bitmaps == 1
    counts = cgen.run(plan, native, graph, ExecutionContext())
    assert counts == plan.function(graph, ExecutionContext())


def test_size_only_exclude_counts_distinct_present_values():
    """``size(exclude(a, xs))`` is ``|a|`` less the distinct xs in a,
    through the short scan (a neighborhood) and the binary searches
    (the universe); v1 repeats, v2 and the constant are absent."""
    graph = CSRGraph.from_edges(
        300, [(v, (v * 7 + 1) % 300) for v in range(300)], name="ring")
    plan = _hand_plan([
        SetOp("s2", "neighbors", ("v1",)),
        Loop("v2", "s2", [
            SetOp("s3", "neighbors", ("v2",)),
            SetOp("s4", "exclude", ("s3", "v1", "v1", "v2", 10 ** 6)),
            SetOp("s5", "exclude", ("s1", "v1", "v2", "v1", 10 ** 6)),
            ScalarOp("c1", "size", ("s4",)),
            ScalarOp("c2", "size", ("s5",)),
            ScalarOp("c3", "add", ("c1", "c2")),
            Accumulate(COUNT_ACC, "c3"),
        ]),
    ])
    native = cgen.resolve(plan)
    assert native.source.count("excl_n(") == 3  # the helper and two calls
    assert "excl(" not in native.source
    before = STATS.snapshot()
    counts = cgen.run(plan, native, graph, ExecutionContext())
    assert counts == plan.function(graph, ExecutionContext())
    assert STATS.delta(before)["size_only"] == 2 * 2 * graph.num_edges


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


def test_materialized_excludes_are_counted_on_both_targets(tiny_graph,
                                                           monkeypatch):
    """An exclude an intersect reads is copied, and counted as
    ``exclude`` by the C helper and by ``vertex_set.exclude`` alike."""
    plan = _hand_plan([
        SetOp("s2", "neighbors", ("v1",)),
        Loop("v2", "s2", [
            SetOp("s3", "neighbors", ("v2",)),
            SetOp("s4", "exclude", ("s3", "v1")),
            SetOp("s5", "intersect", ("s4", "s2")),
            ScalarOp("c1", "size", ("s5",)),
            Accumulate(COUNT_ACC, "c1"),
        ]),
    ])
    assert "excl(s" in cgen.resolve(plan).source
    native = execute_plan(plan, tiny_graph)
    monkeypatch.setattr(cgen, "find_compiler", lambda: None)
    python = execute_plan(plan, tiny_graph)
    assert (native.target, python.target) == ("c", "python")
    assert native.accumulators == python.accumulators
    # Every v2 neighbors v1, so each of the 2|E| calls has work to do.
    for result in (native, python):
        stats = result.metrics.kernel_stats
        assert stats["exclude"] == 2 * tiny_graph.num_edges


# ----------------------------------------------------------------------
# Builds started at plan time
# ----------------------------------------------------------------------

def _blocking_compiler(tmp_path: Path, then: str) -> str:
    """A compiler that answers ``--version`` as gcc does, appends its pid
    to ``started``, waits for a ``go`` file and then runs ``then`` (with
    the real compiler in ``$CC``)."""
    script = tmp_path / "cc"
    script.write_text(f"""#!/bin/sh
CC={cgen.find_compiler()}
case "$1" in --version) exec "$CC" "$@";; esac
echo $$ >> {tmp_path}/started
while [ ! -e {tmp_path}/go ]; do sleep 0.01; done
{then}
""")
    script.chmod(0o755)
    return str(script)


def _await(path: Path, seconds: float = 60.0) -> None:
    deadline = time.monotonic() + seconds
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


@pytest.fixture
def fresh_builds(monkeypatch, tmp_path):
    """An empty build cache; afterwards a stand-in compiler still
    waiting is released and every builder joined."""
    cgen.wait()
    monkeypatch.setattr(cgen, "_BUILDS", {})
    yield
    (tmp_path / "go").touch()
    cgen.wait()


def test_a_built_source_resolves_while_another_build_is_blocked(
        profiled, tmp_path, monkeypatch, fresh_builds):
    graph, profile = profiled
    built = cgen.resolve(compile_pattern(catalog.triangle(), profile))
    assert built.target == "c"
    compiler = _blocking_compiler(tmp_path, 'exec "$CC" "$@"')
    monkeypatch.setattr(cgen, "find_compiler", lambda: compiler)
    blocked = compile_pattern(catalog.house(), profile)
    cgen.prefetch(blocked)
    _await(tmp_path / "started")
    again = []
    resolver = threading.Thread(target=lambda: again.append(
        cgen.resolve(compile_pattern(catalog.triangle(), profile))))
    resolver.start()
    resolver.join(timeout=30)
    assert not resolver.is_alive(), "queued behind an unrelated build"
    assert again[0].entry is built.entry
    (tmp_path / "go").touch()
    assert cgen.resolve(blocked).target == "c"
    assert execute_plan(blocked, graph).embedding_count == \
        reference.count_embeddings(graph, catalog.house())


def test_a_failed_build_falls_back_and_releases_every_waiter(
        profiled, tmp_path, monkeypatch, fresh_builds):
    graph, profile = profiled
    compiler = _blocking_compiler(tmp_path, 'echo "cc: refused" >&2; exit 1')
    monkeypatch.setattr(cgen, "find_compiler", lambda: compiler)
    plans = [compile_pattern(catalog.house(), profile) for _ in range(4)]
    cgen.prefetch(plans[0])
    _await(tmp_path / "started")
    targets = []
    waiters = [threading.Thread(target=lambda plan=plan: targets.append(
        cgen.resolve(plan))) for plan in plans]
    for waiter in waiters:
        waiter.start()
    (tmp_path / "go").touch()
    for waiter in waiters:
        waiter.join(timeout=60)
    assert not any(waiter.is_alive() for waiter in waiters)
    assert [(t.target, t.reason) for t in targets] == \
        [("python", "C build failed: cc: refused")] * 4
    # One compiler run served them all.
    assert len((tmp_path / "started").read_text().split()) == 1
    result = execute_plan(plans[0], graph)
    assert (result.target, result.fallback) == (
        "python", "C build failed: cc: refused")
    assert result.embedding_count == reference.count_embeddings(
        graph, catalog.house())


def test_a_cached_plan_built_at_plan_time_runs_without_a_build(
        profiled, tmp_path, fresh_builds):
    from repro import DecoMine, observe
    from repro.api.messages import MiningRequest
    from repro.compiler.plancache import PlanCache

    graph, profile = profiled
    builds = om.counter("repro_native_builds_total", "")
    before = builds.value
    DecoMine(graph, profile=profile,
             plan_cache=PlanCache(tmp_path)).plan_for(catalog.house())
    cgen.wait()
    assert builds.value > before
    fresh = DecoMine(graph, profile=profile, plan_cache=PlanCache(tmp_path))
    before = builds.value
    observe.enable()
    try:
        response = fresh.submit(MiningRequest(pattern=catalog.house()))
    finally:
        trace = observe.disable()
    assert response.count == reference.count_embeddings(graph,
                                                        catalog.house())
    assert trace.find("execute") and trace.find("native_build") == []
    assert builds.value == before


def test_a_plain_submit_builds_inline_under_a_span(profiled, fresh_builds):
    """Only plan_for starts builds early; a submit with no plan_for
    before it builds in its own thread, traced."""
    from repro import DecoMine, observe
    from repro.api.messages import MiningRequest

    graph, profile = profiled
    session = DecoMine(graph, profile=profile)
    threads = threading.active_count()
    observe.enable()
    try:
        response = session.submit(MiningRequest(pattern=catalog.house()))
    finally:
        trace = observe.disable()
    assert response.count == reference.count_embeddings(graph,
                                                        catalog.house())
    assert trace.find("native_build")
    assert threading.active_count() == threads and cgen.wait(timeout=0)


def test_prefetch_does_nothing_without_a_compiler(profiled, monkeypatch,
                                                  fresh_builds):
    graph, profile = profiled
    monkeypatch.setattr(cgen, "find_compiler", lambda: None)
    plan = compile_pattern(catalog.house(), profile)
    threads = threading.active_count()
    cgen.prefetch(plan)
    assert plan.native is None
    assert cgen._BUILDS == {} and cgen._QUEUE == {}
    assert threading.active_count() == threads


def test_a_prefetched_plan_forks_its_pool_with_no_builder_alive(
        profiled, tmp_path, monkeypatch, fresh_builds):
    """A fork with other threads alive can deadlock the child (Python
    3.12 warns), so the supervisor joins the builders first: here while
    another plan's build still has a second to go."""
    from repro import DecoMine

    graph, profile = profiled
    threads = threading.active_count()
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    session = DecoMine(graph, profile=profile,
                       engine=EngineOptions(workers=2))
    session.plan_for(catalog.house())
    slow = _blocking_compiler(tmp_path, 'sleep 1; exec "$CC" "$@"')
    (tmp_path / "go").touch()
    monkeypatch.setattr(cgen, "find_compiler", lambda: slow)
    session.plan_for(catalog.diamond())
    _await(tmp_path / "started")
    assert threading.active_count() > threads  # a builder is running
    assert session.get_pattern_count(catalog.house()) == \
        reference.count_embeddings(graph, catalog.house())
    assert forks and set(forks) == {threads}


def test_a_pool_run_stops_at_its_deadline_while_another_build_is_blocked(
        profiled, tmp_path, monkeypatch, fresh_builds):
    """The supervisor waits for the builders before it forks, but no
    longer than the run's deadline: a wedged build of another plan must
    not hold the run."""
    from repro import DecoMine
    from repro.api.messages import MiningRequest

    graph, profile = profiled
    session = DecoMine(graph, profile=profile,
                       engine=EngineOptions(workers=2))
    session.plan_for(catalog.house())
    cgen.wait()
    compiler = _blocking_compiler(tmp_path, 'exec "$CC" "$@"')
    monkeypatch.setattr(cgen, "find_compiler", lambda: compiler)
    session.plan_for(catalog.diamond())
    _await(tmp_path / "started")
    responses = []
    runner = threading.Thread(target=lambda: responses.append(session.submit(
        MiningRequest(pattern=catalog.house(), deadline_s=0.5))))
    started = time.monotonic()
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "waited past the deadline for a build"
    assert time.monotonic() - started < 10
    assert responses[0].count is None
    assert "deadline" in responses[0].error
    assert not cgen.wait(timeout=0)  # diamond's build is still blocked


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_during_a_build_builds_its_own(
        profiled, tmp_path, monkeypatch, fresh_builds):
    """The parent's build in flight has no builder in a forked child:
    the child forgets it and builds the source itself."""
    graph, profile = profiled
    gcc = cgen.find_compiler()
    compiler = _blocking_compiler(tmp_path, 'exec "$CC" "$@"')
    monkeypatch.setattr(cgen, "find_compiler", lambda: compiler)
    cgen.prefetch(compile_pattern(catalog.house(), profile))
    _await(tmp_path / "started")
    plan = compile_pattern(catalog.house(), profile)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report the target, never return to pytest
        try:
            cgen.find_compiler = lambda: gcc
            native = cgen.resolve(plan)
            os.write(write, native.target.encode())
        finally:
            os._exit(0)
    os.close(write)
    deadline = time.monotonic() + 60
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            break
        time.sleep(0.01)
    with os.fdopen(read) as handle:
        assert handle.read() == "c"


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
def test_an_exit_during_a_build_leaves_no_directory_or_compiler(tmp_path):
    """The stand-in compiler runs a child, as gcc runs cc1: both go."""
    temp = tmp_path / "temp"
    temp.mkdir()
    started = tmp_path / "started"
    compiler = tmp_path / "cc"
    compiler.write_text(f"""#!/bin/sh
case "$1" in --version) exec {cgen.find_compiler()} "$@";; esac
sleep 120 &
echo $$ $! >> {started}
wait
""")
    compiler.chmod(0o755)
    script = f"""
import os, time
from repro import DecoMine
from repro.compiler import cgen
from repro.graph import datasets
from repro.patterns import catalog

cgen.NATIVE_MIN_COST = 0
cgen.find_compiler = lambda: {str(compiler)!r}
DecoMine(datasets.load("mc")).plan_for(catalog.house())
while not os.path.exists({str(started)!r}):
    time.sleep(0.01)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "TMPDIR": str(temp),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    pids = []
    try:
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        pids = [int(pid) for pid in started.read_text().split()]
        assert len(pids) == 2 and not any(_alive(pid) for pid in pids)
        assert list(temp.glob("repro-cgen-*")) == []
    finally:
        for pid in pids:
            if _alive(pid):
                os.kill(pid, 9)


def test_a_batch_builds_only_the_plans_it_runs(profiled, monkeypatch,
                                               fresh_builds):
    """The batch compiler consults every term's plan, direct and host,
    but runs fused ones: none of the consulted plans is built."""
    from repro import DecoMine
    from repro.api.messages import MiningRequest

    graph, profile = profiled
    ran = set()
    real_run = cgen.run

    def run(plan, native, *args, **kwargs):
        ran.add(native.source)
        return real_run(plan, native, *args, **kwargs)

    monkeypatch.setattr(cgen, "run", run)
    builds = om.counter("repro_native_builds_total", "")
    before = builds.value
    patterns = [catalog.house(), catalog.diamond(), catalog.cycle(4)]
    responses = DecoMine(graph, profile=profile).submit_batch(
        [MiningRequest(pattern=p, induced=True) for p in patterns])
    cgen.wait()
    assert [r.count for r in responses] == [
        reference.count_embeddings(graph, p, induced=True) for p in patterns]
    assert ran and builds.value - before == len(ran)
