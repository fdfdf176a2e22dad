"""Tests for resource-governed execution (`repro.runtime.resources`).

Covers the budget envelope, the shared-memory cancel token (lifecycle,
first-writer-wins, pickling, leak accounting), the per-run governor
(poll cadence, frontier-cap math, byte-budget breaches), the memory
watchdog's escalation ladder with an injected sampler, and the
supervisor integration: oom-driven chunk bisection to exact counts on
both execution paths, cooperative deadline/interrupt cancellation with
zero pool restarts, the timeout grace drain that keeps healthy in-flight
results, and checkpoint resume across bisected chunk ids.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time

import pytest

from repro.baselines import reference
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.exceptions import ExecutionError
from repro.graph.generators import erdos_renyi
from repro.patterns import catalog
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EngineOptions, execute_plan
from repro.runtime.faults import Fault, FaultPlan
from repro.runtime.resources import (
    CANCEL_REASONS,
    CancelToken,
    ChunkCancelled,
    FRONTIER_ROW_BYTES,
    MemoryWatchdog,
    ResourceBudget,
    ResourceGovernor,
    active_tokens,
    request_cancel,
    set_active_token,
)
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


def governed_policy(resources=None, checkpoint=None,
                    **budget_kwargs) -> RunPolicy:
    return RunPolicy(
        budget=RunBudget(backoff_s=0.001, **budget_kwargs),
        checkpoint=checkpoint,
        resources=resources if resources is not None else ResourceBudget(),
    )


class TestResourceBudget:
    @pytest.mark.parametrize("kwargs", [
        {"max_rss_bytes": 0},
        {"max_frontier_bytes": -1},
        {"cancel_poll_interval": 0},
        {"soft_watermark": 0.0},
        {"soft_watermark": 1.5},
        {"watchdog_interval_s": 0.0},
        {"min_chunk_width": 0},
        {"max_downshifts": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ExecutionError):
            ResourceBudget(**kwargs)

    def test_defaults_are_unbounded(self):
        budget = ResourceBudget()
        assert budget.max_rss_bytes is None
        assert budget.max_frontier_bytes is None
        assert budget.frontier_rows_for_bytes() is None

    def test_frontier_rows_for_bytes(self):
        budget = ResourceBudget(max_frontier_bytes=100 * FRONTIER_ROW_BYTES)
        assert budget.frontier_rows_for_bytes() == 100
        # Never below one row, even for a sub-row byte budget.
        tiny = ResourceBudget(max_frontier_bytes=1)
        assert tiny.frontier_rows_for_bytes() == 1


class TestCancelToken:
    def test_lifecycle_and_first_writer_wins(self):
        token = CancelToken.create()
        try:
            if token.name is not None:
                assert token.name in active_tokens()
            assert not token.cancelled
            assert token.reason is None
            token.cancel("deadline")
            assert token.cancelled
            assert token.reason == "deadline"
            token.cancel("watchdog")  # later writers are ignored
            assert token.reason == "deadline"
            token.reset()
            assert not token.cancelled
            assert token.reason is None
        finally:
            token.close()
        assert token.name not in active_tokens()

    def test_downshift_survives_reset_and_is_capped(self):
        token = CancelToken.create()
        try:
            assert token.downshift == 0
            assert token.bump_downshift(2) == 1
            token.cancel("preempt")
            token.reset()
            assert token.downshift == 1  # sticky across cancel cycles
            assert token.bump_downshift(2) == 2
            assert token.bump_downshift(2) == 2  # capped
        finally:
            token.close()

    def test_unknown_reason_rejected(self):
        token = CancelToken.create()
        try:
            with pytest.raises(ExecutionError, match="reason"):
                token.cancel("meltdown")
        finally:
            token.close()

    def test_pickled_copy_observes_flips(self):
        token = CancelToken.create()
        if token.name is None:
            token.close()
            pytest.skip("no POSIX shared memory on this host")
        copy = pickle.loads(pickle.dumps(token))
        try:
            assert not copy.cancelled
            token.cancel("preempt")
            assert copy.cancelled
            assert copy.reason == "preempt"
        finally:
            copy.close()
            token.close()
        assert active_tokens() == []

    def test_close_is_idempotent_and_late_polls_are_harmless(self):
        token = CancelToken.create()
        token.close()
        token.close()
        assert not token.cancelled  # detached buffer, not a crash
        token.cancel("deadline")  # writes the detached buffer only

    def test_chunk_cancelled_pickles_its_reason(self):
        exc = pickle.loads(pickle.dumps(ChunkCancelled("watchdog")))
        assert exc.reason == "watchdog"
        assert "watchdog" in str(exc)

    def test_reason_codes_cover_the_wire_protocol(self):
        token = CancelToken.create()
        try:
            for reason in CANCEL_REASONS:
                token.reset()
                token.cancel(reason)
                assert token.reason == reason
        finally:
            token.close()


class TestResourceGovernor:
    def test_poll_reads_the_byte_at_the_interval(self):
        token = CancelToken.create()
        gov = ResourceGovernor(
            ResourceBudget(cancel_poll_interval=4), token)
        try:
            token.cancel("deadline")
            for _ in range(3):
                gov.poll()  # counter ticks only, no byte read
            with pytest.raises(ChunkCancelled) as info:
                gov.poll()
            assert info.value.reason == "deadline"
        finally:
            token.close()

    def test_check_cancel_without_token_is_a_noop(self):
        ResourceGovernor(ResourceBudget(), None).check_cancel()

    def test_frontier_cap_halves_per_downshift(self):
        token = CancelToken.create()
        gov = ResourceGovernor(ResourceBudget(), token)
        try:
            assert gov.frontier_rows_cap(1024) == 1024
            token.bump_downshift(6)
            token.bump_downshift(6)
            assert gov.frontier_rows_cap(1024) == 256
            assert gov.frontier_rows_cap(1) == 1  # floor
        finally:
            token.close()

    def test_frontier_cap_clamped_by_byte_budget(self):
        budget = ResourceBudget(max_frontier_bytes=100 * FRONTIER_ROW_BYTES)
        gov = ResourceGovernor(budget, None)
        assert gov.frontier_rows_cap(1024) == 100
        assert gov.frontier_rows_cap(10) == 10

    def test_note_frontier_breach_raises_memory_error(self):
        budget = ResourceBudget(max_frontier_bytes=10 * FRONTIER_ROW_BYTES)
        gov = ResourceGovernor(budget, None)
        gov.note_frontier(10)
        assert gov.frontier_peak_rows == 10
        with pytest.raises(MemoryError, match="max_frontier_bytes"):
            gov.note_frontier(11)

    def test_note_frontier_polls_the_token(self):
        token = CancelToken.create()
        gov = ResourceGovernor(ResourceBudget(), token)
        try:
            token.cancel("watchdog")
            with pytest.raises(ChunkCancelled):
                gov.note_frontier(1)
        finally:
            token.close()

    def test_pickling_keeps_budget_and_token(self):
        token = CancelToken.create()
        if token.name is None:
            token.close()
            pytest.skip("no POSIX shared memory on this host")
        gov = ResourceGovernor(
            ResourceBudget(cancel_poll_interval=2), token)
        copy = pickle.loads(pickle.dumps(gov))
        try:
            assert copy.budget == gov.budget
            token.cancel("preempt")
            with pytest.raises(ChunkCancelled):
                copy.check_cancel()
        finally:
            copy.token.close()
            token.close()


class TestRequestCancel:
    def test_no_active_run_returns_false(self):
        set_active_token(None)
        assert request_cancel() is False

    def test_flips_the_active_token(self):
        token = CancelToken.create()
        set_active_token(token)
        try:
            assert request_cancel("interrupt") is True
            assert token.reason == "interrupt"
        finally:
            set_active_token(None)
            token.close()


class TestMemoryWatchdog:
    @staticmethod
    def watchdog(limit, samples, token):
        budget = ResourceBudget(max_rss_bytes=limit, soft_watermark=0.8,
                                max_downshifts=2)
        return MemoryWatchdog(budget, token, pids_fn=lambda: [1],
                              sample_fn=lambda pid: samples["rss"])

    def test_escalation_ladder(self):
        token = CancelToken.create()
        samples = {"rss": 500}
        dog = self.watchdog(1000, samples, token)
        try:
            assert dog.tick() == 500
            assert dog.peak_rss == 500
            assert token.downshift == 0 and not token.cancelled

            samples["rss"] = 850  # soft watermark: downshift, no kill
            dog.tick()
            assert token.downshift == 1 and not token.cancelled
            dog.tick()
            dog.tick()
            assert token.downshift == 2  # capped at max_downshifts
            assert dog.downshifts == 2

            samples["rss"] = 1200  # hard breach: cancel once per cycle
            dog.tick()
            assert token.cancelled and token.reason == "watchdog"
            assert dog.kills == 1
            dog.tick()
            assert dog.kills == 1  # no double kill while still cancelled
            assert dog.peak_rss == 1200
        finally:
            token.close()

    def test_unbounded_budget_never_samples(self):
        token = CancelToken.create()
        try:
            dog = MemoryWatchdog(
                ResourceBudget(), token, pids_fn=lambda: [1],
                sample_fn=lambda pid: 10 ** 12)
            assert dog.tick() is None
            assert not token.cancelled
        finally:
            token.close()

    def test_dead_pids_are_skipped(self):
        token = CancelToken.create()
        try:
            dog = MemoryWatchdog(
                ResourceBudget(max_rss_bytes=100), token,
                pids_fn=lambda: [1, 2], sample_fn=lambda pid: None)
            assert dog.tick() is None
            assert not token.cancelled
        finally:
            token.close()

    def test_thread_lifecycle(self):
        token = CancelToken.create()
        samples = {"rss": 10}
        dog = self.watchdog(1000, samples, token)
        dog.budget = ResourceBudget(max_rss_bytes=1000,
                                    watchdog_interval_s=0.005)
        try:
            dog.start()
            time.sleep(0.05)
            dog.stop()
            assert dog.peak_rss == 10
        finally:
            token.close()


class TestGovernedExecution:
    def test_clean_governed_run_is_exact_and_leak_free(self, case):
        graph, plan, expected = case
        result = execute_plan(plan, graph, policy=governed_policy())
        assert result.embedding_count == expected
        assert result.ok
        assert result.cancelled is None
        assert result.salvage is None
        assert active_tokens() == []  # the run unlinked its token

    def test_oom_chunk_bisects_to_exact_count_serial(self, case):
        graph, plan, expected = case
        faults = FaultPlan((Fault("oom", 1, attempts=None),))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(plan, graph, ctx=ctx, policy=governed_policy())
        assert result.embedding_count == expected
        assert result.ok
        assert result.metrics.bisections >= 1
        assert result.metrics.retries == 0  # bisection, not retry

    def test_oom_chunk_bisects_to_exact_count_pool(self, case):
        graph, plan, expected = case
        faults = FaultPlan((Fault("oom", 0, attempts=None),))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(plan, graph, ctx=ctx,
                              options=EngineOptions(workers=2),
                              policy=governed_policy())
        assert result.embedding_count == expected
        assert result.metrics.bisections >= 1
        assert result.metrics.pool_restarts == 0
        assert active_tokens() == []

    def test_min_width_chunk_fails_whole_with_memory_reason(self, case):
        graph, plan, _ = case
        faults = FaultPlan((Fault("oom", 1, attempts=None),))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        result = execute_plan(
            plan, graph, ctx=ctx,
            policy=governed_policy(
                resources=ResourceBudget(min_chunk_width=16),
                max_chunk_retries=1,
            ),
        )
        assert not result.ok
        [failure] = result.failures
        assert failure.index == 1
        assert failure.reason == "memory"
        with pytest.raises(ExecutionError, match="incomplete"):
            _ = result.embedding_count

    def test_deadline_cancels_cooperatively_without_pool_restart(
            self, case, tmp_path):
        from repro.observe.ledger import Ledger, disable_ledger, enable_ledger

        graph, plan, _ = case
        faults = FaultPlan(tuple(
            Fault("delay", chunk, attempts=None, delay_s=0.15)
            for chunk in range(8)
        ))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        enable_ledger(tmp_path / "ledger.jsonl")
        try:
            result = execute_plan(
                plan, graph, ctx=ctx, options=EngineOptions(workers=2),
                policy=governed_policy(deadline_s=0.2),
            )
        finally:
            disable_ledger()
        assert not result.ok
        assert result.cancelled == "deadline"
        assert {f.reason for f in result.failures} == {"deadline"}
        assert result.metrics.pool_restarts == 0  # token, not teardown
        assert result.salvage is not None
        assert 0.0 <= result.salvage["fraction"] < 1.0
        assert result.salvage["chunks_total"] == 8
        assert result.salvage["unfinished"]
        # The run ledger archives the salvage summary.
        [record] = Ledger(tmp_path / "ledger.jsonl").runs()
        assert record.cancelled == "deadline"
        assert record.salvage["fraction"] == result.salvage["fraction"]
        assert not record.ok

    def test_interrupt_request_cancels_a_serial_run(self, case):
        graph, plan, _ = case
        faults = FaultPlan(tuple(
            Fault("delay", chunk, attempts=None, delay_s=0.1)
            for chunk in range(4)
        ))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)

        def flip_once_active():
            for _ in range(500):
                if request_cancel("interrupt"):
                    return
                time.sleep(0.005)

        flipper = threading.Thread(target=flip_once_active)
        flipper.start()
        try:
            result = execute_plan(plan, graph, ctx=ctx,
                                  policy=governed_policy())
        finally:
            flipper.join()
        assert not result.ok
        assert result.cancelled == "interrupt"
        assert {f.reason for f in result.failures} == {"cancelled"}
        assert active_tokens() == []


class TestGraceDrainAndBisectedResume:
    def test_timeout_preemption_keeps_healthy_inflight_results(
            self, case, tmp_path):
        """Regression: a chunk timeout must not discard the *other*
        worker's nearly-finished result.  Chunk 0 wedges (2s delay) and
        is preempted at 0.2s; chunk 1 (0.35s delay) completes inside the
        grace window and its result is recorded on the first attempt."""
        graph, plan, expected = case
        path = tmp_path / "drain.jsonl"
        faults = FaultPlan((
            Fault("delay", 0, attempts=None, delay_s=2.0),
            Fault("delay", 1, attempts=(1,), delay_s=0.35),
        ))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        with CheckpointStore(path) as store:
            result = execute_plan(
                plan, graph, ctx=ctx,
                options=EngineOptions(workers=2, chunks_per_worker=1),
                policy=governed_policy(
                    checkpoint=store,
                    chunk_timeout_s=0.2, drain_grace_s=0.6,
                    poll_interval_s=0.01,
                ),
            )
        assert result.embedding_count == expected
        assert result.metrics.retries == 0
        assert result.metrics.bisections >= 1  # the wedged chunk split
        key = plan_fingerprint(plan, graph, "codegen", 2)
        records = CheckpointStore(path).load(key)
        # Chunk 1 was drained healthy: recorded on its first attempt.
        assert records[1]["attempts"] == 1
        # The wedged chunk's children checkpoint under fresh indices.
        children = [i for i in records if i >= 2]
        assert len(children) >= 2
        child_bounds = sorted(tuple(records[i]["bounds"]) for i in children)
        assert child_bounds[0][0] == 0  # they tile chunk 0's range
        assert child_bounds[-1][1] == 8

    def test_bisected_checkpoint_resumes_exactly(self, case, tmp_path):
        graph, plan, expected = case
        path = tmp_path / "resume.jsonl"
        # First run: chunk 0 booms (bisects), a hard deadline then
        # cancels what is left — an interrupted, partially-bisected run.
        faults = FaultPlan((
            Fault("oom", 0, attempts=None),
            Fault("delay", 2, attempts=None, delay_s=0.5),
            Fault("delay", 3, attempts=None, delay_s=0.5),
        ))
        ctx = ExecutionContext(plan.root.num_tables, faults=faults)
        with CheckpointStore(path) as store:
            first = execute_plan(
                plan, graph, ctx=ctx,
                policy=governed_policy(deadline_s=0.3, checkpoint=store),
            )
        assert not first.ok
        assert first.cancelled == "deadline"
        assert first.metrics.bisections >= 1
        # Corrupt the tail: resume must survive a torn final line.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"plan": "torn", "chunk": 9, "bo')
        # Resume without faults or deadline: bisected children recorded
        # by run one are adopted, only unfinished ranges re-execute.
        with CheckpointStore(path) as store:
            second = execute_plan(plan, graph,
                                  policy=governed_policy(checkpoint=store))
        assert second.embedding_count == expected
        assert second.ok
        assert second.metrics.resumed_chunks >= 2
        assert second.cancelled is None

    def test_fingerprint_ignores_resource_budget(self, case):
        """Bisection changes chunk *indices*, never the plan key: a
        governed rerun resumes an ungoverned run's checkpoint."""
        graph, plan, _ = case
        assert plan_fingerprint(plan, graph, "codegen", 4) == \
            plan_fingerprint(plan, graph, "codegen", 4)


class TestVectorizedFrontierBudget:
    @pytest.fixture(scope="class")
    def vcase(self):
        graph = erdos_renyi(48, 0.15, seed=11)
        profile = profile_graph(graph, max_pattern_size=3, trials=60)
        plan = compile_pattern(catalog.triangle(), profile)
        expected = reference.count_embeddings(graph, catalog.triangle())
        return graph, plan, expected

    def test_tight_frontier_budget_is_still_exact(self, vcase):
        graph, plan, expected = vcase
        budget = ResourceBudget(
            max_frontier_bytes=64 * FRONTIER_ROW_BYTES)
        from repro.runtime.engine import EngineOptions

        result = execute_plan(
            plan, graph,
            options=EngineOptions(executor="vectorized"),
            policy=governed_policy(resources=budget),
        )
        assert result.embedding_count == expected
        assert result.ok

    def test_sub_degree_budget_bottoms_out_as_memory_failure(self, vcase):
        graph, plan, _ = vcase
        max_degree = max(
            len(graph.neighbors(v)) for v in range(graph.num_vertices))
        assert max_degree > 2
        budget = ResourceBudget(max_frontier_bytes=2 * FRONTIER_ROW_BYTES)
        from repro.runtime.engine import EngineOptions

        result = execute_plan(
            plan, graph,
            options=EngineOptions(executor="vectorized"),
            policy=governed_policy(resources=budget, max_chunk_retries=1),
        )
        assert not result.ok
        assert any(f.reason == "memory" for f in result.failures)
        # Bisection was attempted before giving up on single vertices.
        assert result.metrics.bisections >= 1


class TestCLIResourceFlags:
    def test_parse_size(self):
        from repro.cli import parse_size

        assert parse_size("1024") == 1024
        assert parse_size("4k") == 4096
        assert parse_size("2K") == 2048
        assert parse_size("1.5m") == int(1.5 * 1024 ** 2)
        assert parse_size("2G") == 2 * 1024 ** 3
        assert parse_size("512MB") == 512 * 1024 ** 2
        for bad in ("", "banana", "-1m", "12q", "0"):
            with pytest.raises(ValueError):
                parse_size(bad)

    def test_invalid_max_rss_is_a_friendly_error(self, capsys):
        from repro.cli import main

        code = main(["count", "--dataset", "wikivote",
                     "--pattern", "triangle", "--max-rss", "banana"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "\n" == err[err.index("\n"):]  # a single line

    def test_governed_count_runs_end_to_end(self, capsys):
        from repro.cli import main

        code = main(["count", "--dataset", "wikivote",
                     "--pattern", "triangle", "--max-rss", "4G",
                     "--max-frontier-mb", "8"])
        assert code == 0
        out = capsys.readouterr()
        assert "842" in out.out
        assert "bisections" in out.err

    def test_sigint_cancels_active_run_then_escalates(self):
        from repro.cli import _sigint_cancels

        token = CancelToken.create()
        set_active_token(token)
        try:
            with _sigint_cancels(True):
                os.kill(os.getpid(), signal.SIGINT)
                for _ in range(100):
                    if token.cancelled:
                        break
                    time.sleep(0.01)
                assert token.cancelled
                assert token.reason == "interrupt"
                with pytest.raises(KeyboardInterrupt):
                    os.kill(os.getpid(), signal.SIGINT)
                    time.sleep(0.5)
            # The previous handler is restored on exit.
            assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        finally:
            set_active_token(None)
            token.close()

    def test_ungoverned_context_is_transparent(self):
        from repro.cli import _sigint_cancels

        before = signal.getsignal(signal.SIGINT)
        with _sigint_cancels(False):
            assert signal.getsignal(signal.SIGINT) is before
