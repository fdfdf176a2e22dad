"""The multi-query batch compiler and DAG executor.

The lock on the tentpole invariant: a batched workload returns counts
**bit-identical** to running each query sequentially through
``get_pattern_count`` — across every executor, orientation, worker
count, induced mix, duplicate/isomorphic submissions, and randomized
workloads — while the sharing report proves the DAG actually performed
fewer plan executions than the sequential baseline.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro import observe
from repro.api.messages import MiningRequest
from repro.api.session import DecoMine
from repro.baselines import reference
from repro.compiler import cgen
from repro.compiler.batch import compile_batch
from repro.compiler.codegen import compile_root
from repro.compiler.multi import build_merged_direct
from repro.compiler.specs import DirectSpec
from repro.exceptions import ReproError
from repro.graph.generators import erdos_renyi, power_law
from repro.patterns import catalog
from repro.patterns.isomorphism import automorphism_count
from repro.patterns.matching_order import connected_orders
from repro.patterns.pattern import Pattern
from repro.patterns.symmetry import symmetry_breaking_restrictions
from repro.runtime.batchrun import execute_batch
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EXECUTORS, EngineOptions

from tests.test_differential_random import random_pattern

#: Every catalog pattern with at most five vertices (the bench catalog).
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
CATALOG = [PATTERNS[name] for name in sorted(PATTERNS)]


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(16, 0.35, seed=3)


@pytest.fixture(scope="module")
def skewed_graph():
    return power_law(20, avg_degree=5.0, exponent=2.2, seed=9)


def sequential_counts(graph, workload, engine=None):
    """The baseline: one fresh session, one run per query."""
    session = DecoMine(graph, engine=engine)
    return [session.get_pattern_count(pattern, induced=induced)
            for pattern, induced in workload]


def batched_counts(graph, workload, engine=None):
    session = DecoMine(graph, engine=engine)
    responses = session.submit_batch([
        MiningRequest(pattern=pattern, induced=induced)
        for pattern, induced in workload
    ])
    assert all(response.ok for response in responses)
    return [response.count for response in responses], responses


class TestBatchMatchesSequential:
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_catalog_edge_induced(self, graph, executor):
        workload = [(pattern, False) for pattern in CATALOG]
        engine = EngineOptions(executor=executor)
        got, _ = batched_counts(graph, workload, engine)
        assert got == sequential_counts(graph, workload, engine)

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_catalog_vertex_induced(self, graph, executor):
        workload = [(pattern, True) for pattern in CATALOG]
        engine = EngineOptions(executor=executor)
        got, _ = batched_counts(graph, workload, engine)
        assert got == sequential_counts(graph, workload, engine)

    @pytest.mark.parametrize("orientation", ("degree", "degeneracy"))
    def test_oriented_execution(self, graph, orientation):
        workload = [(pattern, False) for pattern in CATALOG]
        engine = EngineOptions(orientation=orientation)
        got, _ = batched_counts(graph, workload, engine)
        assert got == sequential_counts(graph, workload, engine)

    def test_parallel_workers(self, skewed_graph):
        workload = [(pattern, False) for pattern in CATALOG]
        engine = EngineOptions(workers=2, chunks_per_worker=2)
        got, _ = batched_counts(skewed_graph, workload, engine)
        assert got == sequential_counts(skewed_graph, workload, engine)

    def test_mixed_induced_flags(self, graph):
        workload = [(catalog.house(), True), (catalog.house(), False),
                    (catalog.clique(4), True), (catalog.chain(4), False),
                    (catalog.diamond(), True)]
        got, _ = batched_counts(graph, workload)
        assert got == sequential_counts(graph, workload)

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_workloads(self, skewed_graph, seed):
        rng = random.Random(f"batch-{seed}")
        workload = [(random_pattern(rng), rng.random() < 0.3)
                    for _ in range(6)]
        # Throw in one duplicate so the dedup path always runs.
        workload.append(workload[rng.randrange(len(workload))])
        got, _ = batched_counts(skewed_graph, workload)
        assert got == sequential_counts(skewed_graph, workload)


class TestWorkloadDedup:
    def test_isomorphic_submissions_collapse(self, graph):
        relabeled = Pattern(3, [(2, 1), (1, 0), (0, 2)], name="tri-rot")
        workload = [(catalog.triangle(), False), (relabeled, False),
                    (catalog.triangle(), False)]
        got, responses = batched_counts(graph, workload)
        assert got[0] == got[1] == got[2] == reference.count_embeddings(
            graph, catalog.triangle())
        sharing = responses[0].metrics["sharing"]
        assert sharing["workload"] == 3
        assert sharing["unique_queries"] == 1

    def test_single_vertex_pattern_is_trivial(self, graph):
        workload = [(Pattern(1, []), False), (catalog.triangle(), False)]
        got, _ = batched_counts(graph, workload)
        assert got[0] == graph.num_vertices
        trivial = [node for node in
                   compile_batch(DecoMine(graph), workload).schedule
                   if node.kind == "trivial"]
        assert len(trivial) == 1

    def test_empty_workload_raises(self, graph):
        session = DecoMine(graph)
        with pytest.raises(ReproError):
            session.submit_batch([])
        with pytest.raises(ReproError):
            compile_batch(session, [])

    def test_non_count_mode_rejected(self, graph):
        session = DecoMine(graph)
        request = MiningRequest(pattern=catalog.triangle(), mode="mine")
        with pytest.raises(ReproError):
            session.submit_batch([request])

    def test_conflicting_engine_overrides_rejected(self, graph):
        session = DecoMine(graph)
        requests = [
            MiningRequest(pattern=catalog.triangle(),
                          engine=EngineOptions(executor="codegen")),
            MiningRequest(pattern=catalog.house(),
                          engine=EngineOptions(executor="interpreter")),
        ]
        with pytest.raises(ReproError):
            session.submit_batch(requests)


class TestSharingReport:
    def test_catalog_sharing_clears_the_gate(self, graph):
        """The acceptance bar: >=30% of plan executions eliminated."""
        session = DecoMine(graph)
        batch_plan = compile_batch(
            session, [(pattern, False) for pattern in CATALOG])
        sharing = batch_plan.sharing
        assert sharing.plans_batched < sharing.plans_sequential
        assert sharing.eliminated_fraction >= 0.30
        payload = sharing.as_dict()
        assert payload["eliminated"] == (
            payload["plans_sequential"] - payload["plans_batched"])

    def test_describe_mentions_elimination(self, graph):
        session = DecoMine(graph)
        batch_plan = compile_batch(session, [
            (catalog.clique(5), False), (catalog.clique(4), False)])
        assert "eliminated" in batch_plan.describe()


class TestBatchResponses:
    def test_responses_share_one_batch_id(self, graph):
        session = DecoMine(graph)
        responses = session.submit_batch([
            MiningRequest(pattern=catalog.triangle(), request_id="a"),
            MiningRequest(pattern=catalog.house(), request_id="b"),
        ])
        assert responses[0].request_id == "a"
        assert responses[1].request_id == "b"
        assert responses[0].batch_id
        assert responses[0].batch_id == responses[1].batch_id
        assert responses[0].run_id == responses[0].batch_id
        assert all(response.plan_key for response in responses)

    @pytest.mark.parametrize("pattern, runs_direct", [
        (catalog.house(), True),     # the direct induced plan is cheaper
        (catalog.chain(4), False),   # converts through edge-induced hosts
    ], ids=["house", "4-chain"])
    def test_plan_key_names_the_first_term_on_both_paths(self, pattern,
                                                         runs_direct):
        from repro.graph import datasets

        session = DecoMine(datasets.load("mc"))
        request = MiningRequest(pattern=pattern, induced=True)
        single = session.submit(request)
        [batched] = session.submit_batch([request])
        assert single.count == batched.count
        assert single.plan_key == batched.plan_key
        direct_key = session.explain_json(
            pattern, induced=True)["plan_cache"]["key"]
        assert (single.plan_key == direct_key) is runs_direct

    def test_get_pattern_counts_facade(self, graph):
        session = DecoMine(graph)
        counts = session.get_pattern_counts(
            [catalog.triangle(), catalog.diamond()])
        assert counts == [
            reference.count_embeddings(graph, catalog.triangle()),
            reference.count_embeddings(graph, catalog.diamond()),
        ]

    def test_deadline_cancellation_reports_incomplete(self, graph):
        session = DecoMine(graph)
        responses = session.submit_batch([
            MiningRequest(pattern=catalog.clique(5), deadline_s=1e-9),
            MiningRequest(pattern=catalog.house()),
        ])
        assert not all(response.ok for response in responses)
        bad = [r for r in responses if not r.ok]
        assert all(r.count is None for r in bad)
        assert all(r.error or r.cancelled for r in bad)
        # Every answer that is not ok says how much of the work finished.
        for response in bad:
            assert set(response.salvage) == {
                "fraction", "chunks_done", "chunks_total", "unfinished"}
            assert 0.0 <= response.salvage["fraction"] <= 1.0


class TestExecuteBatchDirect:
    def test_shared_cache_instance_threads_through(self, graph):
        from repro.runtime.setops import SetOpCache

        session = DecoMine(graph)
        batch_plan = compile_batch(session, [
            (catalog.clique(4), False), (catalog.clique(5), False)])
        cache = SetOpCache(4096)
        result = execute_batch(batch_plan, graph,
                               options=EngineOptions(cache=cache))
        assert result.ok
        assert cache.hits + cache.misses > 0

    def test_values_keyed_by_census(self, graph):
        session = DecoMine(graph)
        batch_plan = compile_batch(session, [(catalog.triangle(), False)])
        result = execute_batch(batch_plan, graph)
        assert result.ok
        assert len(result.values) >= 1
        assert all(isinstance(value, int)
                   for value in result.values.values())


class TestMergedPlanDedup:
    """The ``multi.py`` satellite: isomorphic specs share an accumulator."""

    def _specs(self, patterns, induced=False):
        specs = []
        for pattern in patterns:
            restrictions = (
                tuple(symmetry_breaking_restrictions(pattern))
                if automorphism_count(pattern) > 1 else ()
            )
            specs.append(DirectSpec(
                pattern, connected_orders(pattern)[0],
                restrictions=restrictions, induced=induced,
            ))
        return specs

    def _run(self, merged, graph):
        function, _ = compile_root(merged.root)
        accumulators = function(graph, ExecutionContext())
        return [
            accumulators[merged.accumulator_for(i)] // merged.divisors[i]
            for i in range(len(merged.patterns))
        ]

    def test_duplicate_specs_share_one_tree(self, graph):
        specs = self._specs([catalog.chain(3), catalog.chain(3),
                             catalog.star(3)])
        merged = build_merged_direct(specs)
        assert merged.unique_patterns == 2
        counts = self._run(merged, graph)
        assert counts[0] == counts[1] == reference.count_embeddings(
            graph, catalog.chain(3))
        assert counts[2] == reference.count_embeddings(
            graph, catalog.star(3))

    def test_isomorphic_relabeling_shares_one_tree(self, graph):
        relabeled = Pattern(3, [(2, 1), (1, 0)], name="chain3-rot")
        specs = self._specs([catalog.chain(3), relabeled])
        merged = build_merged_direct(specs)
        assert merged.unique_patterns == 1
        counts = self._run(merged, graph)
        assert counts[0] == counts[1] == reference.count_embeddings(
            graph, catalog.chain(3))

    def test_induced_flag_keeps_censuses_apart(self, graph):
        specs = self._specs([catalog.chain(3)]) + \
            self._specs([catalog.chain(3)], induced=True)
        merged = build_merged_direct(specs)
        assert merged.unique_patterns == 2
        counts = self._run(merged, graph)
        assert counts[0] == reference.count_embeddings(graph,
                                                       catalog.chain(3))
        assert counts[1] == reference.count_embeddings(
            graph, catalog.chain(3), induced=True)


#: Direct censuses on ``graph`` beside one decomposed plan (the 4-chain).
DIRECT_MIX = [(catalog.chain(4), False), (catalog.star(4), False),
             (catalog.cycle(4), False), (catalog.chain(3), False),
             (catalog.triangle(), False), (catalog.diamond(), False)]
#: Edge-induced 4-vertex censuses and vertex-induced 5-vertex ones.
INDUCED_MIX = [(catalog.chain(4), False), (catalog.star(4), False),
              (catalog.cycle(4), False), (catalog.house(), True),
              (catalog.cycle(5), True), (catalog.gem(), True)]


def _relabeled(pattern):
    """``pattern`` with its vertex ids reversed: isomorphic, not equal."""
    last = pattern.n - 1
    return Pattern(pattern.n, [(last - a, last - b)
                               for a, b in pattern.edges()],
                   name=f"{pattern.name}-rev")


class TestRepeatedBatches:
    """A session's later batches reuse its plans and their aux-stripped
    copies; their counts and sharing report equal a fresh session's."""

    @staticmethod
    def _batch(session, workload):
        responses = session.submit_batch([
            MiningRequest(pattern=pattern, induced=induced)
            for pattern, induced in workload
        ])
        assert all(response.ok for response in responses)
        return ([response.count for response in responses],
                responses[0].metrics["sharing"])

    def _fresh(self, graph, workload, engine=None):
        return self._batch(DecoMine(graph, engine=engine), workload)

    def test_reordered_or_relabeled_workloads_stay_exact(self, graph):
        session = DecoMine(graph)
        self._batch(session, INDUCED_MIX)
        relabeled = list(INDUCED_MIX)
        relabeled[1] = (_relabeled(INDUCED_MIX[1][0]), False)
        relabeled[4] = (_relabeled(INDUCED_MIX[4][0]), True)
        for workload in (INDUCED_MIX[::-1], relabeled, INDUCED_MIX):
            assert self._batch(session, workload) == \
                self._fresh(graph, workload)
        assert self._batch(session, relabeled)[0] == [
            reference.count_embeddings(graph, pattern, induced=induced)
            for pattern, induced in relabeled
        ]

    def test_concurrent_batches_on_one_session_stay_exact(self, graph):
        """More client threads than cores, switching often, all filling
        one empty session together: every count stays exact."""
        expected = self._fresh(graph, INDUCED_MIX)
        session = DecoMine(graph)
        clients = 4
        start = threading.Barrier(clients, timeout=60)
        results, errors = [], []

        def client() -> None:
            try:
                start.wait()
                for _ in range(3):
                    results.append(self._batch(session, INDUCED_MIX))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(clients)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [expected] * (3 * clients)

    @pytest.mark.skipif(cgen.find_compiler() is None,
                        reason="no C compiler on this host")
    def test_codegen_warm_batch_lowers_and_builds_nothing(self, graph,
                                                          monkeypatch):
        engine = EngineOptions(executor="codegen")
        monkeypatch.setattr(cgen, "NATIVE_MIN_COST", 0)
        expected = self._fresh(graph, DIRECT_MIX, engine)
        cgen.wait()
        monkeypatch.setattr(cgen, "_BUILDS", {})
        lowered = []
        original = cgen._lower

        def counted(plan):
            lowered.append(plan)
            return original(plan)

        monkeypatch.setattr(cgen, "_lower", counted)
        session = DecoMine(graph, engine=engine)
        traces, batches = [], []
        for _ in range(2):
            observe.enable()
            try:
                assert self._batch(session, DIRECT_MIX) == expected
            finally:
                traces.append(observe.disable())
            batches.append(list(lowered))
            lowered.clear()
        assert batches[0]
        # The warm batch lowers nothing and builds nothing.
        assert batches[1] == [] and traces[1].find("native_build") == []


class TestBatchJoinsPrefetchedBuilds:
    """Under ``codegen`` a batch runs every term plan, or its copy with
    the same C source, so it returns with the builds ``plan_for`` started
    settled and a single count after it does not wait for one."""

    @pytest.mark.skipif(cgen.find_compiler() is None,
                        reason="no C compiler on this host")
    def test_batch_settles_its_members_builds(self, graph, monkeypatch):
        engine = EngineOptions(executor="codegen")
        monkeypatch.setattr(cgen, "NATIVE_MIN_COST", 0)
        cgen.wait()
        monkeypatch.setattr(cgen, "_BUILDS", {})
        session = DecoMine(graph, engine=engine)
        pending = [session.plan_for(pattern) for pattern, _ in DIRECT_MIX]
        c_plans = []
        while pending:
            plan = pending.pop()
            pending += [aux for aux, _ in plan.aux_plans]
            if plan.native is not None and plan.native.target == "c":
                c_plans.append(plan)
        # plan_for started every build; no plan has resolved one yet.
        assert c_plans and all(plan.native.entry is None
                               for plan in c_plans)
        expected = [reference.count_embeddings(graph, pattern)
                    for pattern, _ in DIRECT_MIX]
        assert TestRepeatedBatches._batch(session, DIRECT_MIX)[0] == expected
        observe.enable()
        try:
            counts = [session.submit(MiningRequest(pattern=pattern)).count
                      for pattern, _ in DIRECT_MIX]
        finally:
            trace = observe.disable()
        assert counts == expected
        assert trace.find("native_build") == []
