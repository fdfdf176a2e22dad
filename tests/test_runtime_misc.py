"""Hardening tests: engine edge cases, option spellings, generators,
profiles, exceptions."""

from __future__ import annotations

import warnings

import pytest

from repro.api.session import DecoMine
from repro.baselines import reference
from repro.compiler.build import COUNT_ACC
from repro.compiler.pipeline import compile_pattern, compile_spec
from repro.compiler.specs import DirectSpec
from repro.costmodel import profile_graph
from repro.exceptions import (
    BudgetExceededError,
    CompilationError,
    ConstraintError,
    DecompositionError,
    ExecutionError,
    PatternError,
    ReproError,
)
from repro.graph.generators import cap_degrees, erdos_renyi, power_law
from repro.patterns import catalog
from repro.runtime.engine import EngineOptions, ExecutionResult, execute_plan
from repro.runtime.supervisor import RunPolicy


@pytest.fixture(scope="module")
def house_case():
    graph = erdos_renyi(16, 0.35, seed=3)
    profile = profile_graph(graph, max_pattern_size=3, trials=60)
    plan = compile_pattern(catalog.house(), profile)
    expected = reference.count_embeddings(graph, catalog.house())
    return graph, plan, expected


class TestExceptions:
    def test_hierarchy(self):
        for exc in (PatternError, DecompositionError, CompilationError,
                    ConstraintError, BudgetExceededError):
            assert issubclass(exc, ReproError)
            with pytest.raises(ReproError):
                raise exc("boom")


class TestCapDegrees:
    def test_cap_enforced(self):
        graph = power_law(150, avg_degree=12.0, exponent=2.0, seed=1)
        assert graph.max_degree > 20
        capped = cap_degrees(graph, 20, seed=1)
        assert capped.max_degree <= 20
        assert capped.num_vertices == graph.num_vertices
        assert capped.num_edges < graph.num_edges

    def test_noop_when_under_cap(self, k4_graph):
        capped = cap_degrees(k4_graph, 10)
        assert set(capped.edges()) == set(k4_graph.edges())

    def test_labels_preserved(self):
        from repro.graph.generators import attach_random_labels

        graph = attach_random_labels(
            power_law(100, avg_degree=10.0, seed=2), 4, seed=2
        )
        capped = cap_degrees(graph, 15, seed=2)
        assert capped.is_labeled
        assert capped.labels.tolist() == graph.labels.tolist()

    def test_edges_remain_subset(self):
        graph = power_law(80, avg_degree=10.0, exponent=2.0, seed=3)
        capped = cap_degrees(graph, 12, seed=3)
        assert set(capped.edges()) <= set(graph.edges())


class TestExecutionResult:
    def test_embedding_count_divides(self):
        result = ExecutionResult({COUNT_ACC: 12}, 0.1, divisor=6)
        assert result.embedding_count == 2

    def test_indivisible_raw_count_raises_repro_error(self):
        # A ReproError (not an assert) so the check survives `python -O`.
        result = ExecutionResult({COUNT_ACC: 13}, 0.1, divisor=6)
        with pytest.raises(ReproError, match="not divisible"):
            _ = result.embedding_count

    def test_indivisible_check_survives_optimized_mode(self, tmp_path):
        """The divisibility guard must fire even under ``python -O``."""
        import subprocess
        import sys

        code = (
            "from repro.runtime.engine import ExecutionResult\n"
            "from repro.exceptions import ReproError\n"
            "try:\n"
            "    ExecutionResult({'acc_count': 13}, 0.1, 6).embedding_count\n"
            "except ReproError:\n"
            "    print('GUARDED')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert "GUARDED" in proc.stdout

    def test_work_balance_bounds(self):
        balanced = ExecutionResult({}, 1.0, 1, chunk_seconds=[0.5, 0.5])
        skewed = ExecutionResult({}, 1.0, 1, chunk_seconds=[0.9, 0.1])
        assert balanced.work_balance() == pytest.approx(1.0)
        assert skewed.work_balance() == pytest.approx(0.5 / 0.9)
        assert ExecutionResult({}, 1.0, 1).work_balance() == 1.0

    def test_zero_chunk_times(self):
        result = ExecutionResult({}, 1.0, 1, chunk_seconds=[0.0, 0.0])
        assert result.work_balance() == 1.0

    def _telemetry_result(self):
        return ExecutionResult(
            {"acc_count": 12}, 0.5, 2,
            kernel_stats={"cache_hits": 3, "cache_misses": 1,
                          "intersect_merge": 7},
            retries=4, resumed_chunks=2, pool_restarts=1,
        )

    @pytest.mark.parametrize("alias", [
        "kernel_stats", "cache_hit_rate", "kernel_calls",
        "retries", "resumed_chunks", "pool_restarts",
    ])
    def test_flat_alias_is_gone(self, alias):
        """Telemetry lives on ``metrics`` only."""
        with pytest.raises(AttributeError):
            getattr(self._telemetry_result(), alias)

    def test_metrics_access_works_without_warning(self):
        result = self._telemetry_result()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert result.metrics.retries == 4
            assert result.metrics.resumed_chunks == 2
            assert result.metrics.pool_restarts == 1
            assert result.metrics.kernel_stats["cache_hits"] == 3
            assert result.metrics.cache_hit_rate == pytest.approx(0.75)
            assert result.metrics.kernel_calls == 7


class TestEngineOptionsValidation:
    @pytest.mark.parametrize("kwargs, fragment", [
        ({"workers": 0}, "workers must be >= 1, got 0"),
        ({"workers": -2}, "workers must be >= 1, got -2"),
        ({"chunks_per_worker": 0}, "chunks_per_worker must be >= 1, got 0"),
        ({"executor": "llvm"}, "unknown executor 'llvm'"),
    ], ids=["workers-zero", "workers-negative", "chunks-zero",
            "executor-unknown"])
    def test_invalid_options_raise(self, kwargs, fragment):
        with pytest.raises(ExecutionError, match=fragment):
            EngineOptions(**kwargs)

    def test_defaults(self):
        options = EngineOptions()
        assert options.workers == 1
        assert options.chunks_per_worker == 4
        assert options.executor == "codegen"
        assert options.cache is True
        assert options.faults is None
        assert options.progress is None


def _run_execute_plan(case, **kwargs):
    graph, plan, _ = case
    return execute_plan(plan, graph, **kwargs)


def _run_session(case, **kwargs):
    graph, _, _ = case
    return DecoMine(graph, **kwargs)


class TestSpellings:
    """Execution knobs are spelled through ``EngineOptions`` and
    ``RunPolicy``; any other keyword is Python's own ``TypeError``."""

    @pytest.mark.parametrize("call, kwargs", [
        (_run_execute_plan, {"workers": 2}),
        (_run_execute_plan, {"checkpoint": "x.jsonl"}),
        (_run_execute_plan, {"supervised": True}),
        (_run_execute_plan, {"workers": 2, "supervised": True}),
        (_run_execute_plan, {"bogus": 1}),
        (_run_session, {"workers": 2}),
        (_run_session, {"executor": "interpreter"}),
        (_run_session, {"bogus": 1}),
        (lambda case, **kwargs: RunPolicy(**kwargs), {"supervised": True}),
    ], ids=["plan-workers", "plan-checkpoint", "plan-supervised",
            "plan-workers+supervised", "plan-bogus", "session-workers",
            "session-executor", "session-bogus", "policy-supervised"])
    def test_unknown_keyword_is_a_type_error(self, house_case, call,
                                             kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            call(house_case, **kwargs)

    @pytest.mark.parametrize("entry", ["plan", "session"])
    def test_current_spellings_work_without_warning(self, house_case,
                                                    entry):
        graph, plan, expected = house_case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if entry == "plan":
                result = execute_plan(
                    plan, graph, options=EngineOptions(workers=2,
                                                       chunks_per_worker=3),
                )
                assert len(result.chunk_seconds) == 6
                count = result.embedding_count
            else:
                session = DecoMine(graph, engine=EngineOptions(workers=1),
                                   run_policy=RunPolicy())
                count = session.get_pattern_count(catalog.house())
        assert count == expected

    def test_deprecated_attribute_spellings_are_gone(self, house_case):
        graph, _, _ = house_case
        session = DecoMine(graph, engine=EngineOptions(workers=3))
        with pytest.raises(AttributeError):
            session.workers
        with pytest.raises(AttributeError):
            session.executor
        assert session.engine_options.workers == 3


class TestEngineEdgeCases:
    def test_empty_graph(self):
        from repro.graph.builder import GraphBuilder

        graph = GraphBuilder(0).build()
        plan = compile_spec(DirectSpec(catalog.triangle(), (0, 1, 2)))
        result = execute_plan(plan, graph)
        assert result.embedding_count == 0

    def test_graph_without_matches(self):
        from repro.graph.csr import CSRGraph

        graph = CSRGraph.from_edges(4, [(0, 1), (2, 3)])  # no triangles
        plan = compile_spec(DirectSpec(catalog.triangle(), (0, 1, 2)))
        assert execute_plan(plan, graph).embedding_count == 0

    def test_parallel_on_tiny_graph(self, k4_graph):
        plan = compile_spec(DirectSpec(catalog.triangle(), (0, 1, 2)))
        result = execute_plan(plan, k4_graph,
                              options=EngineOptions(workers=3))
        # 4 triangles x |Aut| = 24 raw / divisor(1 with restrictions? no
        # restrictions here) -> 24 / 6.
        assert result.embedding_count == 4


class TestProfileEdgeCases:
    def test_lookup_floor(self):
        from repro.costmodel import profile_graph
        from repro.graph.csr import CSRGraph

        sparse = CSRGraph.from_edges(10, [(0, 1)])
        profile = profile_graph(sparse, max_pattern_size=3, trials=20)
        # Triangles are absent: the floor keeps ratios finite.
        assert profile.lookup(catalog.triangle()) >= 0.5

    def test_label_fraction_unlabeled(self):
        from repro.costmodel import profile_graph
        from repro.graph.generators import erdos_renyi

        profile = profile_graph(erdos_renyi(20, 0.3, seed=1),
                                max_pattern_size=2, trials=10)
        assert profile.label_fraction(3) == 1.0

    def test_unknown_sampler_rejected(self):
        from repro.costmodel import profile_graph
        from repro.graph.generators import erdos_renyi

        with pytest.raises(ValueError):
            profile_graph(erdos_renyi(10, 0.3, seed=0), sampler="quantum")
