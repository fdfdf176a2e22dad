"""Tests for live progress heartbeats (``repro.observe.progress``).

Covers the :class:`ProgressEvent` arithmetic (weighted fraction, ETA,
throughput, degenerate totals), heartbeat emission from supervised
executions (one per completed chunk, monotone, exact final state), the
``repro_progress_*`` gauge publication, the console renderer, and the
no-reporter silence contract.
"""

from __future__ import annotations

import io

import pytest

from repro import observe
from repro.baselines import reference
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.graph.generators import erdos_renyi
from repro.observe.progress import (
    CollectingProgress,
    ConsoleProgress,
    ProgressEvent,
    publish_progress_gauges,
)
from repro.patterns import catalog
from repro.runtime.engine import EngineOptions, execute_plan
from repro.runtime.supervisor import RunBudget, RunPolicy

WORKERS = 2
CHUNKS_PER_WORKER = 2
NUM_CHUNKS = WORKERS * CHUNKS_PER_WORKER


@pytest.fixture(scope="module")
def env():
    graph = erdos_renyi(24, 0.3, seed=5)
    profile = profile_graph(graph, max_pattern_size=3, trials=60)
    return graph, profile


def event(**overrides):
    base = dict(chunks_done=1, chunks_total=4, work_done=25,
                work_total=100, embeddings=10, elapsed_s=2.0)
    base.update(overrides)
    return ProgressEvent(**base)


class TestProgressEvent:
    def test_weighted_fraction_and_eta(self):
        e = event()
        assert e.fraction == pytest.approx(0.25)
        assert not e.done
        assert e.throughput == pytest.approx(5.0)
        # 25% of the work took 2s -> 6s remain.
        assert e.eta_s == pytest.approx(6.0)

    def test_eta_unknown_before_any_progress(self):
        assert event(work_done=0).eta_s is None

    def test_degenerate_totals(self):
        empty = event(chunks_done=0, chunks_total=0, work_done=0,
                      work_total=0, elapsed_s=0.0)
        assert empty.fraction == 1.0
        assert empty.done
        assert empty.throughput == 0.0
        assert event(work_total=0, chunks_done=1,
                     chunks_total=4).fraction == 0.0

    def test_fraction_capped_at_one(self):
        assert event(work_done=150).fraction == 1.0

    def test_to_dict_round_trips_derived_fields(self):
        d = event().to_dict()
        assert d["fraction"] == pytest.approx(0.25)
        assert d["eta_s"] == pytest.approx(6.0)
        assert d["work_total"] == 100


class TestSupervisedHeartbeats:
    def test_one_heartbeat_per_chunk_monotone_and_exact(self, env):
        graph, profile = env
        pattern = catalog.house()
        plan = compile_pattern(pattern, profile)
        expected = reference.count_embeddings(graph, pattern)
        reporter = CollectingProgress()
        result = execute_plan(
            plan, graph,
            options=EngineOptions(workers=1,
                                  chunks_per_worker=NUM_CHUNKS,
                                  progress=reporter),
        )
        events = reporter.events
        assert len(events) == NUM_CHUNKS
        assert [e.chunks_done for e in events] == list(
            range(1, NUM_CHUNKS + 1)
        )
        assert all(e.chunks_total == NUM_CHUNKS for e in events)
        work = [e.work_done for e in events]
        assert work == sorted(work)
        final = reporter.last
        assert final.done
        assert final.fraction == 1.0
        assert final.work_done == final.work_total
        # The work weights are the degree-prefix proxy: degree + 1 per
        # vertex summed over the whole outer loop.
        assert final.work_total == int(graph.degree_prefix[-1]) + (
            graph.num_vertices
        )
        assert final.embeddings == result.raw_count
        assert result.embedding_count == expected

    def test_heartbeats_refresh_gauges(self, env):
        graph, profile = env
        plan = compile_pattern(catalog.triangle(), profile)
        observe.REGISTRY.reset()
        try:
            execute_plan(
                plan, graph,
                options=EngineOptions(progress=lambda e: None),
            )
            snap = observe.REGISTRY.snapshot()
            assert snap["repro_progress_work_fraction"]["value"] == 1.0
            assert (snap["repro_progress_chunks_done"]["value"]
                    == snap["repro_progress_chunks_total"]["value"] > 0)
            assert snap["repro_progress_eta_seconds"]["value"] == 0.0
        finally:
            observe.REGISTRY.reset()

    def test_no_reporter_means_no_events_and_no_gauges(self, env):
        graph, profile = env
        plan = compile_pattern(catalog.triangle(), profile)
        observe.REGISTRY.reset()
        try:
            execute_plan(plan, graph, policy=RunPolicy(budget=RunBudget()))
            assert observe.REGISTRY.get("repro_progress_chunks_done") is None
        finally:
            observe.REGISTRY.reset()


class TestConsoleProgress:
    def test_render_shape(self):
        text = ConsoleProgress(io.StringIO()).render(event(
            chunks_done=2, chunks_total=4, work_done=50,
            embeddings=1234, elapsed_s=1.5,
        ))
        assert text.startswith("[##########----------]")
        assert "2/4 chunks" in text
        assert "50.0%" in text
        assert "1,234 emb" in text
        assert "eta 1.5s" in text

    def test_final_event_terminates_the_line(self):
        stream = io.StringIO()
        bar = ConsoleProgress(stream, min_interval_s=0.0)
        bar(event(chunks_done=1))
        bar(event(chunks_done=4, chunks_total=4, work_done=100))
        out = stream.getvalue()
        assert out.count("\r") == 2
        assert out.endswith("\n")

    def test_throttling_skips_rapid_intermediate_events(self):
        stream = io.StringIO()
        bar = ConsoleProgress(stream, min_interval_s=3600.0)
        bar(event(chunks_done=1))   # first paint
        bar(event(chunks_done=2))   # throttled away
        bar(event(chunks_done=4, chunks_total=4, work_done=100))  # final
        assert stream.getvalue().count("\r") == 2

    def test_minutes_formatting(self):
        text = ConsoleProgress(io.StringIO()).render(event(
            elapsed_s=125.0, work_done=50,
        ))
        assert "2m05s elapsed" in text


def test_publish_gauges_handles_unknown_eta():
    observe.REGISTRY.reset()
    try:
        publish_progress_gauges(event(work_done=0, embeddings=0))
        snap = observe.REGISTRY.snapshot()
        assert snap["repro_progress_eta_seconds"]["value"] == 0.0
        assert snap["repro_progress_work_fraction"]["value"] == 0.0
    finally:
        observe.REGISTRY.reset()
