"""Tests for the append-only run ledger (``repro.observe.ledger``).

Covers the off-by-default contract (no active ledger, no writes), the
record contents of real executions (run ids, plan/graph fingerprints,
frozen options, metrics, the phase rollup), the query API's filters,
torn-line tolerance on load, and aux-run flagging (also under
overlapping decomposed runs on concurrent threads).
"""

from __future__ import annotations

import gc
import json

import pytest

from repro.api.session import DecoMine
from repro.graph.generators import erdos_renyi
from repro.observe import ledger as ledger_mod
from repro.observe.ledger import (
    Ledger,
    RunRecord,
    active_ledger,
    disable_ledger,
    enable_ledger,
    graph_fingerprint,
    new_run_id,
)
from repro.patterns import catalog
from repro.runtime.engine import EngineOptions, execute_plan


@pytest.fixture(autouse=True)
def no_leaked_ledger():
    """Every test starts and ends with no active ledger."""
    disable_ledger()
    yield
    disable_ledger()


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(40, 0.2, seed=7)


def test_run_ids_are_unique_and_ordered():
    ids = [new_run_id() for _ in range(50)]
    assert len(set(ids)) == 50
    assert ids == sorted(ids)  # time+sequence prefix sorts


def test_graph_fingerprint_is_content_based(graph):
    assert graph_fingerprint(graph) == graph_fingerprint(graph)
    other = erdos_renyi(40, 0.2, seed=8)
    assert graph_fingerprint(graph) != graph_fingerprint(other)


def test_graph_fingerprint_does_not_outlive_its_graph():
    """A freed graph's address may be reused by the next one; the
    fingerprint must still describe the new graph's content."""
    fingerprints = set()
    for seed in range(20):
        g = erdos_renyi(20, 0.3, seed=seed)
        fingerprints.add(graph_fingerprint(g))
        del g
        gc.collect()
    assert len(fingerprints) == 20


def test_no_active_ledger_records_nothing(graph, tmp_path):
    path = tmp_path / "ledger.jsonl"
    session = DecoMine(graph)
    assert session.get_pattern_count(catalog.triangle()) >= 0
    assert active_ledger() is None
    assert not path.exists()


def test_execution_appends_a_complete_record(graph, tmp_path):
    path = tmp_path / "ledger.jsonl"
    enable_ledger(path)
    # A progress reporter makes the run supervised (two chunks).
    session = DecoMine(
        graph,
        engine=EngineOptions(workers=1, chunks_per_worker=2,
                             progress=lambda event: None),
    )
    expected = session.get_pattern_count(catalog.house())
    disable_ledger()

    runs = Ledger(path).runs()
    assert len(runs) == 1
    record = runs[0]
    assert record.pattern == "house"
    assert record.mode == "count"
    assert record.ok
    assert record.embedding_count == expected
    assert record.plan_fingerprint
    assert record.graph_fingerprint == graph_fingerprint(graph)
    assert record.chunks == 2
    assert record.options["workers"] == 1
    assert record.options["executor"] == "codegen"
    assert record.policy == {"supervised": True}
    # Supervisor counters travel inside the metrics view.
    for key in ("retries", "pool_restarts", "resumed_chunks",
                "kernel_stats"):
        assert key in record.metrics
    # The phase rollup covers the whole pipeline on a cold session.
    assert set(record.phases) >= {"profile", "compile", "search", "execute"}
    assert record.phases["execute"] == pytest.approx(record.seconds)


def test_cached_plan_runs_skip_compile_phases(graph, tmp_path):
    enable_ledger(tmp_path / "ledger.jsonl")
    session = DecoMine(graph)
    session.get_pattern_count(catalog.triangle())
    session.get_pattern_count(catalog.triangle())  # warm plan cache
    ledger = disable_ledger()
    first, second = Ledger(ledger.path).runs()
    assert "compile" in first.phases
    assert set(second.phases) == {"execute"}


def test_plan_fingerprint_distinguishes_patterns(graph, tmp_path):
    enable_ledger(tmp_path / "ledger.jsonl")
    session = DecoMine(graph)
    session.get_pattern_count(catalog.triangle())
    session.get_pattern_count(catalog.house())
    ledger = disable_ledger()
    runs = Ledger(ledger.path).runs()
    assert runs[0].plan_fingerprint != runs[1].plan_fingerprint
    assert runs[0].graph_fingerprint == runs[1].graph_fingerprint


def test_query_filters(tmp_path):
    ledger = Ledger(tmp_path / "ledger.jsonl")

    def record(run_id, ts, pattern, fingerprint, aux=False):
        ledger.append(RunRecord(
            run_id=run_id, ts=ts, pattern=pattern, mode="count",
            plan_fingerprint="p", graph_fingerprint=fingerprint, aux=aux,
        ))

    record("a", 100.0, "house", "aaaa1111")
    record("b", 200.0, "triangle", "aaaa1111")
    record("c", 300.0, "house", "bbbb2222", aux=True)
    ledger.close()

    assert [r.run_id for r in ledger.runs()] == ["a", "b", "c"]
    assert [r.run_id for r in ledger.runs(pattern="house")] == ["a", "c"]
    assert [r.run_id for r in ledger.runs(graph="aaaa")] == ["a", "b"]
    assert [r.run_id for r in ledger.runs(since=150.0)] == ["b", "c"]
    assert [r.run_id for r in ledger.runs(last=2)] == ["b", "c"]
    assert [r.run_id for r in ledger.runs(include_aux=False)] == ["a", "b"]
    with pytest.raises(ValueError, match="since"):
        ledger.runs(since="not-a-date")


def test_torn_and_garbage_lines_are_skipped(tmp_path):
    path = tmp_path / "ledger.jsonl"
    good = RunRecord(run_id="ok", ts=1.0, pattern="p", mode="count",
                     plan_fingerprint="f", graph_fingerprint="g")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(good.to_dict()) + "\n")
        fh.write("not json at all\n")
        fh.write('{"no_run_id": true}\n')
        fh.write('{"run_id": "torn", "ts": 2.')  # killed mid-write
    runs = Ledger(path).runs()
    assert [r.run_id for r in runs] == ["ok"]


def test_record_run_honors_aux_flag(graph, tmp_path):
    """Aux executions record with ``aux=True`` and do not consume the
    pending phase rollup accumulated for the enclosing top-level run."""
    from repro.compiler.pipeline import compile_pattern
    from repro.costmodel import profile_graph

    enable_ledger(tmp_path / "ledger.jsonl")
    profile = profile_graph(graph, max_pattern_size=3, trials=40)
    plan = compile_pattern(catalog.triangle(), profile)
    ledger_mod.note_phase("compile", 0.5)
    result = execute_plan(plan, graph)
    aux_record = ledger_mod.record_run(
        plan, graph, EngineOptions(), result, aux=True,
    )
    assert aux_record.aux
    assert set(aux_record.phases) == {"execute"}
    ledger = disable_ledger()
    runs = Ledger(ledger.path).runs()
    # execute_plan's own record is top-level and consumed the rollup.
    assert [r.aux for r in runs] == [False, True]
    assert runs[0].phases["compile"] >= 0.5


def test_embedding_count_is_none_for_failed_runs():
    record = RunRecord(
        run_id="x", ts=0.0, pattern="p", mode="count",
        plan_fingerprint="f", graph_fingerprint="g",
        raw_count=10, divisor=2, ok=False,
    )
    assert record.embedding_count is None
    assert RunRecord.from_dict(record.to_dict()) == record


def test_enable_ledger_accepts_ledger_instance(tmp_path):
    ledger = Ledger(tmp_path / "explicit.jsonl")
    assert enable_ledger(ledger) is ledger
    assert active_ledger() is ledger
    assert disable_ledger() is ledger


def test_overlapping_aux_runs_leave_later_runs_top_level(
    graph, tmp_path, monkeypatch
):
    """Two decomposed runs whose aux executions overlap (the serve
    daemon runs requests on concurrent threads) must not leak the aux
    flag into later top-level records.

    Forced interleaving: A enters its first aux execution, B enters
    its own, A finishes, then B finishes.
    """
    import threading

    from repro.baselines import reference
    from repro.runtime import engine
    from tests.test_global_shrinkage import composite_plan

    plan = composite_plan(catalog.house())
    assert plan.aux_plans
    aux_plans = {id(aux_plan) for aux_plan, _ in plan.aux_plans}
    entered = {"A": threading.Event(), "B": threading.Event()}
    release = {"A": threading.Event(), "B": threading.Event()}
    held: set[str] = set()
    real_run_range = engine._run_range

    def gated_run_range(run_plan, *args):
        name = threading.current_thread().name
        if id(run_plan) in aux_plans and name in entered and name not in held:
            held.add(name)
            entered[name].set()
            assert release[name].wait(10)
        return real_run_range(run_plan, *args)

    monkeypatch.setattr(engine, "_run_range", gated_run_range)
    enable_ledger(tmp_path / "ledger.jsonl")
    results = {}

    def run(name):
        results[name] = execute_plan(plan, graph)

    threads = {name: threading.Thread(target=run, args=(name,), name=name)
               for name in ("A", "B")}
    threads["A"].start()
    assert entered["A"].wait(10)
    threads["B"].start()
    assert entered["B"].wait(10)
    release["A"].set()
    threads["A"].join(10)
    release["B"].set()
    threads["B"].join(10)
    assert not any(t.is_alive() for t in threads.values())

    direct = execute_plan(plan.aux_plans[0][0], graph)
    ledger = disable_ledger()
    runs = {r.run_id: r for r in Ledger(ledger.path).runs()}
    assert runs[direct.run_id].aux is False
    top_level = {results["A"].run_id, results["B"].run_id, direct.run_id}
    assert all(r.aux == (run_id not in top_level)
               for run_id, r in runs.items())
    expected = reference.count_embeddings(graph, catalog.house())
    assert results["A"].embedding_count == expected
    assert results["B"].embedding_count == expected
