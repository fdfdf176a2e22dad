"""Five-way differential suite: codegen (on its Python and its C target)
vs interpreter vs vectorized vs brute force.

Every catalog pattern of size <= 5 is compiled through the full pipeline
(cost-model search, optimization passes, fused bounded kernels, memo
cache) and executed by ALL executors on three structurally different
generator graphs; each count must equal the backtracking reference
enumerator.  Any divergence between the kernels the executors share, the
fuse pass, or the cache invalidates all the equalities at once, which is
what makes this suite the lock on the set-operation rewrite — and, since
the vectorized backend re-implements every set op as a batched NumPy
kernel, the lock on :mod:`repro.runtime.vectorops` too.  The codegen
executor runs twice: on Python, and with the cost gate lowered to 0 on
its C target (:mod:`repro.compiler.cgen`), which every plan here must
actually reach.
"""

from __future__ import annotations

import math

import pytest

from repro.baselines import reference
from repro.compiler import cgen
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.graph.generators import erdos_renyi, power_law, small_world
from repro.graph.transform import ORIENTATIONS
from repro.patterns import catalog
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EXECUTORS, EngineOptions, execute_plan

#: Executor columns: the three executors, codegen pinned to its Python
#: target, plus ``"c"`` — codegen with the native cost gate lowered to 0.
COLUMNS = EXECUTORS + (("c",) if cgen.find_compiler() is not None else ())


def run_column(column, plan, graph, **options):
    """Execute ``plan`` in one column; asserts the codegen target."""
    executor = "codegen" if column == "c" else column
    run_options = EngineOptions(executor=executor, **options)
    if executor != "codegen":
        return execute_plan(plan, graph, options=run_options)
    target = "c" if column == "c" else "python"
    saved = cgen.NATIVE_MIN_COST
    cgen.NATIVE_MIN_COST = 0 if target == "c" else math.inf
    try:
        result = execute_plan(plan, graph, options=run_options)
    finally:
        cgen.NATIVE_MIN_COST = saved
    assert result.target == target, (
        f"{column} ran on {result.target}: {result.fallback}"
    )
    return result


# Dense-ish, skewed, and locally clustered — three different degree/
# triangle regimes so kernel dispatch exercises both gallop and merge
# paths and the memo cache sees both hit-rich and hit-poor workloads.
GRAPHS = {
    "erdos_renyi": lambda: erdos_renyi(16, 0.35, seed=3),
    "power_law": lambda: power_law(20, avg_degree=5.0, exponent=2.2, seed=9),
    "small_world": lambda: small_world(18, 4, 0.3, seed=5),
}

# Every catalog pattern with at most five vertices.
PATTERNS = {
    "chain3": catalog.chain(3),
    "chain4": catalog.chain(4),
    "chain5": catalog.chain(5),
    "cycle4": catalog.cycle(4),
    "cycle5": catalog.cycle(5),
    "clique4": catalog.clique(4),
    "clique5": catalog.clique(5),
    "star3": catalog.star(3),
    "star4": catalog.star(4),
    "triangle": catalog.triangle(),
    "tailed_triangle": catalog.tailed_triangle(),
    "diamond": catalog.diamond(),
    "house": catalog.house(),
    "gem": catalog.gem(),
    "bowtie": catalog.bowtie(),
    "clique4_minus_edge": catalog.clique_minus_edge(4),
    "clique5_minus_edge": catalog.clique_minus_edge(5),
    "figure6": catalog.figure6_pattern(),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph_case(request):
    graph = GRAPHS[request.param]()
    profile = profile_graph(graph, max_pattern_size=3, trials=60)
    expected = {
        name: reference.count_embeddings(graph, pattern)
        for name, pattern in PATTERNS.items()
    }
    return graph, profile, expected


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_engines_agree_with_reference(name, graph_case):
    graph, profile, expected = graph_case
    plan = compile_pattern(PATTERNS[name], profile)
    results = {column: run_column(column, plan, graph) for column in COLUMNS}
    for column, result in results.items():
        assert result.embedding_count == expected[name], (
            f"{name} under executor={column}"
        )
        assert result.accumulators == results[COLUMNS[0]].accumulators


def test_cache_disabled_matches_reference(graph_case):
    """The memo cache is an optimization, never a semantic change."""
    graph, profile, expected = graph_case
    for name in ("house", "cycle4", "diamond"):
        plan = compile_pattern(PATTERNS[name], profile)
        ctx_off = ExecutionContext(plan.root.num_tables, cache=False)
        result = execute_plan(plan, graph, ctx=ctx_off)
        assert result.embedding_count == expected[name]
        if not plan.aux_plans:  # aux corrections run with their own cache
            assert result.metrics.kernel_stats.get("cache_hits", 0) == 0


def test_parallel_execution_agrees(graph_case):
    graph, profile, expected = graph_case
    plan = compile_pattern(PATTERNS["house"], profile)
    result = execute_plan(plan, graph, options=EngineOptions(workers=2))
    assert result.embedding_count == expected["house"]


class TestSharedGraphLifecycle:
    """Parallel runs own exactly one shared-memory segment, unlinked by
    the same ``finally`` that releases the fork state — completion,
    worker death + pool restart, and error paths all drain it."""

    @pytest.fixture()
    def case(self, graph_case):
        graph, profile, expected = graph_case
        plan = compile_pattern(PATTERNS["house"], profile)
        from repro.graph import shared

        assert shared.active_segments() == []
        return graph, plan, expected["house"], shared

    @pytest.mark.parametrize("executor", COLUMNS)
    def test_unlinked_after_normal_completion(self, case, executor):
        graph, plan, expected, shared = case
        result = run_column(executor, plan, graph, workers=2)
        assert result.embedding_count == expected
        assert shared.active_segments() == []

    def test_unlinked_after_pool_death_and_restart(self, case):
        from repro.runtime.faults import Fault, FaultPlan

        graph, plan, expected, shared = case
        options = EngineOptions(
            workers=2, faults=FaultPlan((Fault("die", 0),))
        )
        result = execute_plan(plan, graph, options=options)
        assert result.metrics.pool_restarts >= 1
        assert result.embedding_count == expected
        assert shared.active_segments() == []

    def test_unlinked_after_execution_error(self, case):
        from repro.exceptions import ExecutionError
        from repro.runtime.faults import Fault, FaultPlan
        from repro.runtime.supervisor import RunBudget

        graph, plan, _, shared = case
        # Every attempt of chunk 0 raises: the chunk exhausts its retry
        # budget, the run records a permanent failure, and reading the
        # count raises ExecutionError — with the segment already gone.
        options = EngineOptions(
            workers=2, faults=FaultPlan((Fault("raise", 0, attempts=None),))
        )
        result = execute_plan(
            plan, graph, options=options,
            policy=RunBudget(max_chunk_retries=1),
        )
        assert result.failures
        with pytest.raises(ExecutionError):
            result.embedding_count
        assert shared.active_segments() == []

    def test_opt_out_keeps_copy_on_write_path(self, case):
        graph, plan, expected, shared = case
        options = EngineOptions(workers=2, shared_graph=False)
        result = execute_plan(plan, graph, options=options)
        assert result.embedding_count == expected
        assert shared.active_segments() == []


@pytest.mark.parametrize("orientation", ORIENTATIONS)
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_orientations_agree_with_reference(name, orientation, graph_case):
    """Relabeling is an isomorphism: counts are bit-identical across
    orientation modes, oriented-adjacency rewrites included, on every
    executor and both codegen targets."""
    graph, profile, expected = graph_case
    plan = compile_pattern(PATTERNS[name], profile, orientation=orientation)
    # Plans whose restrictions don't align with the rank fall back to
    # orientation "none"; executing them on the relabeled graph anyway
    # (options below) must still be count-preserving.
    assert plan.orientation in ("none", orientation)
    counts = []
    for column in COLUMNS:
        result = run_column(column, plan, graph, orientation=orientation)
        assert result.embedding_count == expected[name], (
            f"{name} under orientation={orientation} executor={column}"
        )
        counts.append(result.accumulators)
    assert all(count == counts[0] for count in counts)
