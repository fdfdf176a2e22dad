"""Unit tests for the execution supervisor and its building blocks.

Covers the policy object (`RunBudget`), the checkpoint log, argument
validation, the fork-state token registry (the reentrancy fix), the
non-POSIX serial fallback, and the serial-path recovery ladder: retry
with backoff, retry exhaustion, deadlines, and checkpoint/resume.
Pool-path recovery under injected faults lives in
``test_supervisor_faults.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.baselines import reference
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.exceptions import ExecutionError, ReproError
from repro.graph.generators import erdos_renyi
from repro.patterns import catalog
from repro.runtime import engine
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import (
    EngineOptions,
    ExecutionResult,
    chunk_ranges,
    execute_plan,
)
from repro.runtime.faults import Fault, FaultPlan, InjectedFault
from repro.runtime.supervisor import (
    CheckpointStore,
    RunBudget,
    RunPolicy,
    plan_fingerprint,
)


@pytest.fixture(scope="module")
def case():
    graph = erdos_renyi(16, 0.35, seed=3)
    profile = profile_graph(graph, max_pattern_size=3, trials=60)
    plan = compile_pattern(catalog.house(), profile)
    expected = reference.count_embeddings(graph, catalog.house())
    return graph, plan, expected


class TestRunBudget:
    def test_defaults_are_finite(self):
        budget = RunBudget()
        assert budget.deadline_s is None
        assert budget.max_chunk_retries >= 1
        assert budget.max_pool_restarts >= 1

    @pytest.mark.parametrize("kwargs", [
        {"deadline_s": -1.0},
        {"chunk_timeout_s": 0.0},
        {"max_chunk_retries": -1},
        {"max_retries": -2},
        {"backoff_s": -0.1},
        {"max_pool_restarts": -1},
        {"poll_interval_s": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ExecutionError):
            RunBudget(**kwargs)

    def test_backoff_is_capped_exponential(self):
        budget = RunBudget(backoff_s=0.1, backoff_cap_s=0.5)
        assert budget.backoff_for(1) == pytest.approx(0.1)
        assert budget.backoff_for(2) == pytest.approx(0.2)
        assert budget.backoff_for(3) == pytest.approx(0.4)
        assert budget.backoff_for(4) == pytest.approx(0.5)  # capped
        assert budget.backoff_for(10) == pytest.approx(0.5)


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, 8, exception_rate=0.5, death_rate=0.2,
                             delay_rate=0.3)
        b = FaultPlan.seeded(7, 8, exception_rate=0.5, death_rate=0.2,
                             delay_rate=0.3)
        assert a.faults == b.faults

    def test_fires_only_on_listed_attempts(self):
        plan = FaultPlan((Fault("raise", 0, attempts=(1, 3)),))
        with pytest.raises(InjectedFault):
            plan.fire(0, 1)
        plan.fire(0, 2)  # no fault
        with pytest.raises(InjectedFault):
            plan.fire(0, 3)
        plan.fire(1, 1)  # other chunks untouched

    def test_die_simulated_in_process(self):
        plan = FaultPlan((Fault("die", 0),))
        with pytest.raises(InjectedFault, match="death"):
            plan.fire(0, 1, allow_exit=False)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("meltdown", 0)


class TestValidation:
    def test_workers_below_one(self, case):
        graph, plan, _ = case
        with pytest.raises(ExecutionError, match="workers"):
            execute_plan(plan, graph, options=EngineOptions(workers=0))

    def test_chunks_per_worker_below_one(self, case):
        graph, plan, _ = case
        with pytest.raises(ExecutionError, match="chunks_per_worker"):
            execute_plan(
                plan, graph, options=EngineOptions(chunks_per_worker=0))

    def test_execution_error_is_repro_error(self):
        assert issubclass(ExecutionError, ReproError)

    def test_emit_mode_rejects_supervision(self, case):
        graph, _, _ = case
        profile = profile_graph(graph, max_pattern_size=3, trials=60)
        plan = compile_pattern(catalog.chain(3), profile, mode="emit")
        with pytest.raises(ExecutionError, match="emit"):
            execute_plan(plan, graph, policy=RunBudget())


class TestCheckpointStore:
    def test_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.jsonl")
        store.record("k1", 0, (0, 4), {"acc_count": 7}, 0.5,
                     {"cache_hits": 1}, 2)
        store.record("k1", 3, (12, 16), {"acc_count": 9}, 0.1, {}, 1)
        store.record("k2", 0, (0, 4), {"acc_count": 99}, 0.1, {}, 1)
        store.close()
        loaded = CheckpointStore(tmp_path / "ck.jsonl").load("k1")
        assert sorted(loaded) == [0, 3]
        assert loaded[0]["accumulators"] == {"acc_count": 7}
        assert loaded[0]["attempts"] == 2
        assert loaded[3]["bounds"] == [12, 16]

    def test_missing_file_loads_empty(self, tmp_path):
        assert CheckpointStore(tmp_path / "nope.jsonl").load("k") == {}

    def test_torn_line_is_skipped(self, tmp_path):
        path = tmp_path / "ck.jsonl"
        good = json.dumps({"plan": "k", "chunk": 1, "bounds": [0, 2],
                           "accumulators": {}, "seconds": 0.1, "stats": {},
                           "attempts": 1})
        path.write_text(good + "\n" + '{"plan": "k", "chunk": 2, "bo')
        loaded = CheckpointStore(path).load("k")
        assert sorted(loaded) == [1]

    def test_fingerprint_sensitivity(self, case):
        graph, plan, _ = case
        base = plan_fingerprint(plan, graph, "codegen", 8)
        assert base == plan_fingerprint(plan, graph, "codegen", 8)
        assert base != plan_fingerprint(plan, graph, "interpreter", 8)
        assert base != plan_fingerprint(plan, graph, "codegen", 4)
        other = erdos_renyi(18, 0.3, seed=4)
        assert base != plan_fingerprint(plan, other, "codegen", 8)
        # Same |V| and |E|, different edges: the graph's content, not
        # its size, identifies it.
        same_size = erdos_renyi(16, 0.35, seed=19)
        assert (same_size.num_vertices, same_size.num_edges) == (
            graph.num_vertices, graph.num_edges)
        assert base != plan_fingerprint(plan, same_size, "codegen", 8)


class TestSupervisedExecution:
    def test_serial_supervised_matches_unsupervised(self, case):
        graph, plan, expected = case
        result = execute_plan(plan, graph, policy=RunPolicy(
            budget=RunBudget()))
        assert result.embedding_count == expected
        assert result.ok
        assert result.metrics.retries == 0
        assert result.metrics.resumed_chunks == 0
        # One timing entry per chunk, not one for the whole run.
        assert len(result.chunk_seconds) == len(chunk_ranges(
            graph.num_vertices, 4))

    def test_pool_supervised_matches(self, case):
        graph, plan, expected = case
        result = execute_plan(plan, graph, options=EngineOptions(workers=2))
        assert result.embedding_count == expected
        assert result.metrics.pool_restarts == 0
        assert result.metrics.kernel_calls > 0

    def test_retry_recovers_exact_count(self, case):
        graph, plan, expected = case
        faults = FaultPlan((Fault("raise", 0), Fault("raise", 2)))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(plan, graph, ctx=ctx,
                              policy=RunBudget(backoff_s=0.001))
        assert result.embedding_count == expected
        assert result.metrics.retries == 2
        assert result.ok

    @pytest.mark.parametrize("workers", [1, 2])
    def test_retry_exhaustion_surfaces_chunk_failure(self, case, workers):
        graph, plan, _ = case
        faults = FaultPlan((Fault("raise", 1, attempts=None),))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(
            plan, graph, ctx=ctx, options=EngineOptions(workers=workers),
            policy=RunBudget(max_chunk_retries=2, backoff_s=0.001),
        )
        assert not result.ok
        [failure] = result.failures
        assert failure.index == 1
        assert failure.reason == "exception"
        assert failure.attempts == 3  # 1 try + 2 retries
        assert failure.bounds in chunk_ranges(graph.num_vertices, workers * 4)
        assert "InjectedFault" in failure.error
        assert failure.exc_chain
        assert result.metrics.retries == 2
        with pytest.raises(ExecutionError, match="incomplete"):
            _ = result.embedding_count

    def test_global_retry_budget(self, case):
        graph, plan, _ = case
        faults = FaultPlan((Fault("raise", 0, attempts=None),
                            Fault("raise", 1, attempts=None)))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(
            plan, graph, ctx=ctx,
            policy=RunBudget(max_chunk_retries=10, max_retries=3,
                             backoff_s=0.001),
        )
        assert not result.ok
        assert result.metrics.retries <= 3
        assert any(f.reason == "retry-budget" for f in result.failures)

    def test_deadline_fails_remaining_chunks(self, case):
        graph, plan, _ = case
        faults = FaultPlan(tuple(
            Fault("delay", chunk, attempts=None, delay_s=0.05)
            for chunk in range(4)
        ))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(plan, graph, ctx=ctx,
                              policy=RunBudget(deadline_s=0.06))
        assert not result.ok
        assert {f.reason for f in result.failures} == {"deadline"}
        # Some chunks finished before the deadline, some did not.
        assert 0 < len(result.failures) < 4

    def test_zero_deadline_fails_everything_without_running(self, case):
        graph, plan, _ = case
        result = execute_plan(plan, graph, policy=RunBudget(deadline_s=0.0))
        assert not result.ok
        assert len(result.failures) == len(chunk_ranges(
            graph.num_vertices, 4))
        assert result.raw_count == 0


class TestCheckpointResume:
    def test_failed_then_resumed_run_is_exact(self, case, tmp_path):
        graph, plan, expected = case
        path = tmp_path / "run.jsonl"
        faults = FaultPlan((Fault("raise", 1, attempts=None),))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        with CheckpointStore(path) as store:
            first = execute_plan(
                plan, graph, ctx=ctx,
                policy=RunPolicy(
                    budget=RunBudget(max_chunk_retries=1, backoff_s=0.001),
                    checkpoint=store,
                ),
            )
        assert not first.ok
        # Resume without faults: only the failed chunk re-executes.
        with CheckpointStore(path) as store:
            second = execute_plan(plan, graph, policy=RunPolicy(
                checkpoint=store))
        assert second.embedding_count == expected
        assert second.metrics.resumed_chunks == 3
        assert second.metrics.retries == 0
        # A third run resumes everything.
        with CheckpointStore(path) as store:
            third = execute_plan(plan, graph,
                                 policy=RunPolicy(checkpoint=store))
        assert third.embedding_count == expected
        assert third.metrics.resumed_chunks == 4

    def test_checkpoint_accepts_path(self, case, tmp_path):
        graph, plan, expected = case
        path = tmp_path / "by-path.jsonl"
        first = execute_plan(plan, graph,
                             policy=RunPolicy(checkpoint=str(path)))
        assert first.embedding_count == expected
        second = execute_plan(plan, graph,
                              policy=RunPolicy(checkpoint=str(path)))
        assert second.embedding_count == expected
        assert second.metrics.resumed_chunks == 4

    def test_mismatched_chunking_ignores_records(self, case, tmp_path):
        graph, plan, expected = case
        path = tmp_path / "run.jsonl"
        execute_plan(plan, graph, policy=RunPolicy(checkpoint=str(path)))
        # Different chunk count -> different fingerprint -> clean re-run.
        result = execute_plan(
            plan, graph, options=EngineOptions(chunks_per_worker=8),
            policy=RunPolicy(checkpoint=str(path)),
        )
        assert result.embedding_count == expected
        assert result.metrics.resumed_chunks == 0

    def test_checkpoint_never_resumes_into_another_graph(self, tmp_path):
        """A checkpoint written on one graph must not answer for a
        different graph that merely has the same |V| and |E|."""
        first_graph = erdos_renyi(30, 0.3, seed=1)
        other_graph = erdos_renyi(30, 0.3, seed=105)
        assert (other_graph.num_vertices, other_graph.num_edges) == (
            first_graph.num_vertices, first_graph.num_edges)
        triangle = catalog.triangle()
        expected = reference.count_embeddings(other_graph, triangle)
        assert expected != reference.count_embeddings(first_graph, triangle)
        plan = compile_pattern(
            triangle, profile_graph(first_graph, max_pattern_size=3,
                                    trials=60))
        policy = RunPolicy(budget=RunBudget(),
                           checkpoint=str(tmp_path / "tri.jsonl"))
        execute_plan(plan, first_graph, policy=policy)
        result = execute_plan(plan, other_graph, policy=policy)
        assert result.ok
        assert result.metrics.resumed_chunks == 0
        assert result.embedding_count == expected

    def test_aux_plans_share_the_checkpoint(self, tmp_path):
        """Global-shrinkage corrections resume exactly too."""
        from repro.compiler.pipeline import compile_spec
        from repro.compiler.specs import DecompSpec
        from repro.patterns.decomposition import all_decompositions
        from repro.patterns.isomorphism import automorphism_count
        from repro.patterns.matching_order import extension_orders

        graph = erdos_renyi(16, 0.35, seed=3)
        profile = profile_graph(graph, max_pattern_size=3, trials=60)
        pattern = catalog.house()
        deco = next(
            d for d in all_decompositions(pattern) if d.shrinkages
        )
        ext = tuple(
            extension_orders(pattern, deco.cutting_set, s.component)[0]
            for s in deco.subpatterns
        )
        plan = compile_spec(DecompSpec(deco, deco.cutting_set, ext,
                                       include_shrinkages=False))
        aux = []
        for shrinkage in deco.shrinkages:
            qplan = compile_pattern(shrinkage.pattern, profile)
            aux.append((
                qplan,
                automorphism_count(shrinkage.pattern) // qplan.info.divisor,
            ))
        plan.aux_plans = tuple(aux)
        assert plan.aux_plans
        expected = reference.count_embeddings(graph, pattern)
        path = tmp_path / "aux.jsonl"
        first = execute_plan(plan, graph,
                             policy=RunPolicy(checkpoint=str(path)))
        assert first.embedding_count == expected
        second = execute_plan(plan, graph,
                              policy=RunPolicy(checkpoint=str(path)))
        assert second.embedding_count == expected
        # The second run resumes every chunk: the main plan's four plus
        # four per aux execution.  (Duplicate quotient plans share one
        # fingerprint, so even the *first* run may resume a repeated aux
        # plan's chunks — sound, because identical plans on the same
        # graph produce identical chunk accumulators.)
        assert second.metrics.resumed_chunks == 4 * (1 + len(plan.aux_plans))
        assert second.metrics.resumed_chunks > first.metrics.resumed_chunks


    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_run_reports_the_recorded_kernel_stats(
            self, workers, tmp_path):
        """Every chunk checkpoints its own full stats, so a run resumed
        from the store reports what the first run measured — serial and
        pool runs alike."""
        from repro.graph import datasets

        graph = datasets.load("mc")
        profile = profile_graph(graph, max_pattern_size=3, trials=60)
        plan = compile_pattern(catalog.house(), profile)
        options = EngineOptions(workers=workers)
        path = tmp_path / "stats.jsonl"
        first = execute_plan(plan, graph, options=options,
                             policy=RunPolicy(checkpoint=str(path)))
        second = execute_plan(plan, graph, options=options,
                              policy=RunPolicy(checkpoint=str(path)))
        assert second.embedding_count == first.embedding_count
        assert second.metrics.resumed_chunks > 0
        assert first.metrics.kernel_calls > 0
        assert second.metrics.kernel_stats == first.metrics.kernel_stats


class TestForkStateReentrancy:
    def test_registrations_do_not_clobber_each_other(self, case):
        graph, plan, expected = case
        sentinel = {"sentinel": object()}
        token = engine._register_fork_state(sentinel)
        try:
            # A full parallel run while another run's state is live.
            result = execute_plan(plan, graph,
                                  options=EngineOptions(workers=2))
            assert result.embedding_count == expected
            assert engine._FORK_STATES[token] is sentinel
        finally:
            engine._release_fork_state(token)
        assert token not in engine._FORK_STATES

    def test_worker_reads_its_own_token(self, case, monkeypatch):
        """Simulate a pool child: the token selects the right state."""
        graph, plan, expected = case
        # Complete fork states, as Supervisor._run_pool writes them.
        base = {"executor": "codegen", "predicates": [], "faults": None,
                "cache": True, "resources": None}
        decoy = engine._register_fork_state(
            {**base, "plan": None, "graph": None}
        )
        token = engine._register_fork_state(
            {**base, "plan": plan, "graph": graph}
        )
        try:
            engine._set_worker_token(token)
            index, attempt, accumulators, seconds, stats, spans = (
                engine._chunk_worker((5, 2, None, None))
            )
            assert index == 5 and attempt == 2
            assert accumulators["acc_count"] // plan.info.divisor == expected
            assert seconds > 0
            assert spans == []  # tracing disabled: no worker spans shipped
        finally:
            monkeypatch.setattr(engine, "_WORKER_TOKEN", None)
            engine._release_fork_state(token)
            engine._release_fork_state(decoy)

    def test_tokens_are_unique(self):
        a = engine._register_fork_state({})
        b = engine._register_fork_state({})
        try:
            assert a != b
        finally:
            engine._release_fork_state(a)
            engine._release_fork_state(b)


class TestNonPosixFallback:
    """The serial fallback for hosts without ``os.fork``."""

    def test_legacy_fallback_merges_stats_and_times(self, case, monkeypatch):
        graph, plan, expected = case
        serial = execute_plan(plan, graph)
        monkeypatch.delattr(os, "fork")
        result = execute_plan(plan, graph, options=EngineOptions(workers=3))
        assert result.embedding_count == expected
        assert result.accumulators == serial.accumulators
        # One timing entry per chunk and merged kernel/cache counters.
        assert len(result.chunk_seconds) == len(chunk_ranges(
            graph.num_vertices, 12))
        assert result.metrics.kernel_calls > 0
        assert result.metrics.kernel_stats.get("cache_misses", 0) > 0

    def test_supervised_fallback_still_recovers(self, case, monkeypatch):
        graph, plan, expected = case
        monkeypatch.delattr(os, "fork")
        faults = FaultPlan((Fault("raise", 0), Fault("die", 2)))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(plan, graph, ctx=ctx,
                              options=EngineOptions(workers=3),
                              policy=RunBudget(backoff_s=0.001))
        assert result.embedding_count == expected
        assert result.metrics.retries == 2  # the die is simulated in-process
        assert result.metrics.pool_restarts == 0


class TestSessionPolicy:
    def test_run_policy_threads_through_session(self, case, tmp_path):
        from repro.api.messages import MiningRequest
        from repro.api.session import DecoMine

        graph, _, expected = case
        policy = RunPolicy(budget=RunBudget(backoff_s=0.001),
                           checkpoint=str(tmp_path / "session.jsonl"))
        request = MiningRequest(pattern=catalog.house())
        response = DecoMine(graph, run_policy=policy).submit(request)
        assert response.count == expected
        assert response.metrics
        assert response.ok
        # Second session resumes from the first one's checkpoint.
        resumed = DecoMine(graph, run_policy=policy).submit(request)
        assert resumed.count == expected
        assert resumed.metrics["resumed_chunks"] > 0

    def test_bare_budget_is_wrapped(self, case):
        from repro.api.session import DecoMine

        graph, _, expected = case
        session = DecoMine(graph, run_policy=RunBudget(deadline_s=30.0))
        assert session.get_pattern_count(catalog.house()) == expected
        assert isinstance(session.run_policy, RunPolicy)

    def test_emit_mode_ignores_run_policy(self, case):
        from repro.api.session import DecoMine

        graph, _, _ = case
        session = DecoMine(graph, run_policy=RunBudget())
        seen = []
        count = session.mine(catalog.triangle(), seen.append)
        assert count == reference.count_embeddings(graph, catalog.triangle())
        assert seen


class TestExecutionResultRecord:
    def test_new_fields_default_empty(self):
        result = ExecutionResult({"acc_count": 6}, 0.1, divisor=6)
        assert result.ok
        assert result.metrics.retries == 0
        assert result.metrics.resumed_chunks == 0
        assert result.metrics.pool_restarts == 0
        assert result.embedding_count == 1
