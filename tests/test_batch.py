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
from repro.compiler import batch, cgen, multi
from repro.compiler.batch import MergedCensusSpec, compile_batch
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

    def test_merged_nodes_fuse_direct_plans(self, graph):
        session = DecoMine(graph)
        batch_plan = compile_batch(session, [
            (catalog.chain(4), False), (catalog.star(4), False),
            (catalog.cycle(4), False), (catalog.chain(3), False),
        ])
        sharing = batch_plan.sharing
        assert sharing.merged_nodes >= 1
        assert sharing.fused_members >= 2

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


class TestSharingOrderSelection:
    """``choose_sharing_orders``: re-ordered specs count identically and
    share deeper prefixes than the solo-optimal orders."""

    def _specs(self, patterns):
        specs = []
        for pattern in patterns:
            restrictions = (
                tuple(symmetry_breaking_restrictions(pattern))
                if automorphism_count(pattern) > 1 else ()
            )
            specs.append(DirectSpec(
                pattern, connected_orders(pattern)[-1],
                restrictions=restrictions,
            ))
        return specs

    def _run(self, merged, graph):
        function, _ = compile_root(merged.root)
        accumulators = function(graph, ExecutionContext())
        return [
            accumulators[merged.accumulator_for(i)] // merged.divisors[i]
            for i in range(len(merged.patterns))
        ]

    def test_positions_patterns_and_validity_preserved(self):
        from repro.compiler.multi import choose_sharing_orders
        from repro.patterns.matching_order import is_connected_order

        specs = self._specs([catalog.cycle(5), catalog.house(),
                             catalog.bowtie(), catalog.chain(4)])
        chosen = choose_sharing_orders(specs, num_vertices=500,
                                       avg_degree=12.0)
        assert len(chosen) == len(specs)
        for original, spec in zip(specs, chosen):
            assert spec.pattern is original.pattern
            assert spec.induced == original.induced
            assert sorted(spec.order) == list(range(spec.pattern.n))
            assert is_connected_order(spec.pattern, spec.order)

    def test_counts_bit_identical_after_reordering(self, graph):
        from repro.compiler.multi import choose_sharing_orders

        patterns = [catalog.cycle(5), catalog.house(), catalog.bowtie(),
                    catalog.figure6_pattern(), catalog.cycle(4)]
        specs = self._specs(patterns)
        chosen = choose_sharing_orders(specs, num_vertices=500,
                                       avg_degree=12.0)
        counts = self._run(build_merged_direct(chosen), graph)
        expected = [reference.count_embeddings(graph, pattern)
                    for pattern in patterns]
        assert counts == expected

    def test_reordered_group_shares_substantially(self, graph):
        # The objective is marginal estimated cost, not raw shared-loop
        # count — so the property locked here is the pair that matters:
        # counts stay bit-identical to the un-reordered merge, and the
        # chosen orders still share a substantial prefix fraction.
        from repro.compiler.multi import choose_sharing_orders

        patterns = [catalog.cycle(5), catalog.house(), catalog.bowtie(),
                    catalog.figure6_pattern(), catalog.chain(5)]
        specs = self._specs(patterns)
        baseline = build_merged_direct(specs)
        chosen = choose_sharing_orders(specs, num_vertices=500,
                                       avg_degree=12.0)
        merged = build_merged_direct(chosen)
        assert merged.reuse_ratio >= 0.35
        assert self._run(merged, graph) == self._run(baseline, graph)

    def test_selection_is_idempotent(self):
        # A chosen pair is within the acceptance margin of every
        # alternative, so re-selecting from the chosen specs must be a
        # fixed point — no oscillation between near-equal orders.
        from repro.compiler.multi import choose_sharing_orders

        specs = self._specs([catalog.cycle(5), catalog.house(),
                             catalog.bowtie()])
        first = choose_sharing_orders(specs, num_vertices=500,
                                      avg_degree=12.0)
        second = choose_sharing_orders(first, num_vertices=500,
                                       avg_degree=12.0)
        assert [(s.order, s.restrictions) for s in second] == \
            [(s.order, s.restrictions) for s in first]


#: One fusion group on ``graph`` (the 4-chain itself stays decomposed).
ONE_GROUP = [(catalog.chain(4), False), (catalog.star(4), False),
             (catalog.cycle(4), False), (catalog.chain(3), False),
             (catalog.triangle(), False), (catalog.diamond(), False)]
#: Two fusion groups on ``graph``: edge-induced 4-vertex censuses and
#: vertex-induced 5-vertex ones.  The second workload shares the first
#: group and differs in the second.
TWO_GROUPS = [(catalog.chain(4), False), (catalog.star(4), False),
              (catalog.cycle(4), False), (catalog.house(), True),
              (catalog.cycle(5), True), (catalog.gem(), True)]
OTHER_SECOND_GROUP = TWO_GROUPS[:4] + [(catalog.bowtie(), True)]


def _relabeled(pattern):
    """``pattern`` with its vertex ids reversed: isomorphic, not equal."""
    last = pattern.n - 1
    return Pattern(pattern.n, [(last - a, last - b)
                               for a, b in pattern.edges()],
                   name=f"{pattern.name}-rev")


class TestFusedMemo:
    """A session keeps each fused census; a warm batch builds none, and
    its counts and sharing report equal a fresh session's."""

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

    @staticmethod
    def _count_sharing_orders(monkeypatch):
        calls = []
        original = multi.choose_sharing_orders

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(multi, "choose_sharing_orders", counted)
        return calls

    def test_warm_batches_choose_orders_once(self, graph, monkeypatch):
        expected = self._fresh(graph, ONE_GROUP)
        assert expected[1]["merged_nodes"] == 1
        calls = self._count_sharing_orders(monkeypatch)
        session = DecoMine(graph)
        assert self._batch(session, ONE_GROUP) == expected
        assert self._batch(session, ONE_GROUP) == expected
        assert len(calls) == 1
        assert len(session._fused_memo) == 1

    def test_reordered_or_relabeled_workloads_stay_exact(self, graph):
        session = DecoMine(graph)
        self._batch(session, TWO_GROUPS)
        relabeled = list(TWO_GROUPS)
        relabeled[1] = (_relabeled(TWO_GROUPS[1][0]), False)
        relabeled[4] = (_relabeled(TWO_GROUPS[4][0]), True)
        for workload in (TWO_GROUPS[::-1], relabeled, TWO_GROUPS):
            assert self._batch(session, workload) == \
                self._fresh(graph, workload)
        assert self._batch(session, relabeled)[0] == [
            reference.count_embeddings(graph, pattern, induced=induced)
            for pattern, induced in relabeled
        ]

    def test_a_shared_group_is_reused_across_workloads(self, graph,
                                                       monkeypatch):
        expected = [self._fresh(graph, workload)
                    for workload in (TWO_GROUPS, OTHER_SECOND_GROUP)]
        assert [e[1]["merged_nodes"] for e in expected] == [2, 2]
        calls = self._count_sharing_orders(monkeypatch)
        session = DecoMine(graph)
        assert self._batch(session, TWO_GROUPS) == expected[0]
        assert len(calls) == 2
        assert self._batch(session, OTHER_SECOND_GROUP) == expected[1]
        assert len(calls) == 3  # only the group that differs
        assert self._batch(session, TWO_GROUPS) == expected[0]
        assert len(calls) == 3

    def test_the_oldest_entry_is_evicted_past_the_bound(self, graph,
                                                        monkeypatch):
        monkeypatch.setattr(batch, "FUSED_MEMO_SIZE", 2)
        workloads = [ONE_GROUP, TWO_GROUPS[3:], OTHER_SECOND_GROUP[3:]]
        expected = [self._fresh(graph, workload) for workload in workloads]
        assert [e[1]["merged_nodes"] for e in expected] == [1, 1, 1]
        calls = self._count_sharing_orders(monkeypatch)
        session = DecoMine(graph)
        for workload, want in zip(workloads, expected):
            assert self._batch(session, workload) == want
        assert len(calls) == 3 and len(session._fused_memo) == 2
        # The newest two hit; the oldest was evicted and builds again.
        assert self._batch(session, workloads[2]) == expected[2]
        assert self._batch(session, workloads[1]) == expected[1]
        assert len(calls) == 3
        assert self._batch(session, workloads[0]) == expected[0]
        assert len(calls) == 4 and len(session._fused_memo) == 2

    def test_concurrent_batches_on_one_session_stay_exact(self, graph):
        """More client threads than cores, switching often, all missing
        the empty memo together: every count stays exact and the memo
        keeps one entry per group."""
        expected = self._fresh(graph, TWO_GROUPS)
        session = DecoMine(graph)
        clients = 4
        start = threading.Barrier(clients, timeout=60)
        results, errors = [], []

        def client() -> None:
            try:
                start.wait()
                for _ in range(3):
                    results.append(self._batch(session, TWO_GROUPS))
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
        assert len(session._fused_memo) == 2

    def test_memo_stays_bounded_under_concurrent_puts(self, monkeypatch):
        monkeypatch.setattr(batch, "FUSED_MEMO_SIZE", 4)
        memo = batch.FusedMemo()
        errors = []

        def fill(offset: int) -> None:
            try:
                for key in range(offset, offset + 500):
                    memo.put(key, key)
                    memo.get(key - 1)
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=fill, args=(1000 * i,))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and len(memo) == 4

    @pytest.mark.skipif(cgen.find_compiler() is None,
                        reason="no C compiler on this host")
    def test_codegen_warm_batch_reuses_the_built_census(self, graph,
                                                        monkeypatch):
        engine = EngineOptions(executor="codegen")
        monkeypatch.setattr(cgen, "NATIVE_MIN_COST", 0)
        expected = self._fresh(graph, ONE_GROUP, engine)
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
                assert self._batch(session, ONE_GROUP) == expected
            finally:
                traces.append(observe.disable())
            batches.append(list(lowered))
            lowered.clear()
        [compiled] = traces[0].find("batch-compile")
        assert compiled.attrs["fused_reused"] == 0
        assert [isinstance(plan.spec, MergedCensusSpec)
                for plan in batches[0]].count(True) == 1
        assert traces[0].find("native_build")
        # The warm batch lowers nothing and builds nothing.
        [compiled] = traces[1].find("batch-compile")
        assert compiled.attrs["fused_reused"] == 1
        assert batches[1] == [] and traces[1].find("native_build") == []


class TestBatchJoinsPrefetchedBuilds:
    """Under ``codegen`` a batch returns with the C builds ``plan_for``
    started for its term plans settled, so a single count after it does
    not wait for one; under a deadline it leaves them in flight."""

    @staticmethod
    def _c_plans(plans):
        """Every plan and aux plan below ``plans`` with a C lowering."""
        pending, found = list(plans), []
        while pending:
            plan = pending.pop()
            pending += [aux for aux, _ in plan.aux_plans]
            if plan.native is not None and plan.native.target == "c":
                found.append(plan)
        return found

    def _planned(self, graph, monkeypatch):
        engine = EngineOptions(executor="codegen")
        monkeypatch.setattr(cgen, "NATIVE_MIN_COST", 0)
        cgen.wait()
        monkeypatch.setattr(cgen, "_BUILDS", {})
        session = DecoMine(graph, engine=engine)
        plans = [session.plan_for(pattern) for pattern, _ in ONE_GROUP]
        c_plans = self._c_plans(plans)
        assert c_plans and all(plan.native.entry is None
                               for plan in c_plans)
        return session, c_plans

    @pytest.mark.skipif(cgen.find_compiler() is None,
                        reason="no C compiler on this host")
    def test_batch_settles_its_members_builds(self, graph, monkeypatch):
        session, c_plans = self._planned(graph, monkeypatch)
        expected = [reference.count_embeddings(graph, pattern)
                    for pattern, _ in ONE_GROUP]
        assert TestFusedMemo._batch(session, ONE_GROUP)[0] == expected
        # The fused members' own plans never ran, yet hold entry points.
        assert all(plan.native.entry is not None for plan in c_plans)
        observe.enable()
        try:
            counts = [session.submit(MiningRequest(pattern=pattern)).count
                      for pattern, _ in ONE_GROUP]
        finally:
            trace = observe.disable()
        assert counts == expected
        assert trace.find("native_build") == []

    @pytest.mark.skipif(cgen.find_compiler() is None,
                        reason="no C compiler on this host")
    def test_batch_under_a_deadline_does_not_wait(self, graph, monkeypatch):
        session, c_plans = self._planned(graph, monkeypatch)
        responses = session.submit_batch([
            MiningRequest(pattern=pattern, deadline_s=60.0)
            for pattern, _ in ONE_GROUP
        ])
        assert all(response.ok for response in responses)
        # The fused members' plans were not resolved by the batch.
        assert any(plan.native.entry is None for plan in c_plans)
        cgen.wait()
