"""End-to-end tests for the public DecoMine session API."""

from __future__ import annotations

import threading
from collections import defaultdict

import pytest

from repro.api import DecoMine, labels_distinct, labels_equal, label_is
from repro.baselines import reference
from repro.exceptions import ExecutionError, PatternError
from repro.patterns import catalog
from repro.patterns.generation import all_connected_patterns
from repro.patterns.pattern import Pattern


@pytest.fixture(scope="module")
def session(small_random_graph=None):
    from repro.graph.generators import erdos_renyi

    graph = erdos_renyi(18, 0.3, seed=13)
    return DecoMine(graph)


@pytest.fixture(scope="module")
def labeled_session():
    from repro.graph.generators import planted_communities

    graph = planted_communities(
        n=60, num_communities=4, p_in=0.3, p_out=0.03, num_labels=4,
        seed=11,
    )
    return DecoMine(graph)


class TestCounting:
    @pytest.mark.parametrize("pattern", [
        catalog.triangle(), catalog.chain(4), catalog.cycle(5),
        catalog.clique(4), catalog.house(), catalog.bowtie(),
        catalog.tailed_triangle(), catalog.star(4),
    ])
    def test_edge_induced(self, session, pattern):
        expected = reference.count_embeddings(session.graph, pattern)
        assert session.get_pattern_count(pattern) == expected

    @pytest.mark.parametrize("pattern", [
        catalog.chain(3), catalog.chain(4), catalog.cycle(4),
        catalog.diamond(), catalog.clique(4),
    ])
    def test_vertex_induced(self, session, pattern):
        expected = reference.count_embeddings(
            session.graph, pattern, induced=True
        )
        assert session.get_pattern_count(pattern, induced=True) == expected

    def test_single_vertex(self, session):
        assert session.get_pattern_count(Pattern(1, [])) == \
            session.graph.num_vertices

    def test_single_edge(self, session):
        assert session.get_pattern_count(catalog.chain(2)) == \
            session.graph.num_edges

    def test_disconnected_pattern_rejected(self, session):
        with pytest.raises(PatternError):
            session.get_pattern_count(Pattern(3, [(0, 1)]))

    def test_labeled_pattern_on_unlabeled_graph_rejected(self, session):
        with pytest.raises(PatternError):
            session.get_pattern_count(Pattern(2, [(0, 1)], labels=[0, 0]))

    def test_plan_cache_shared_across_isomorphic_patterns(self, session):
        a = catalog.chain(4)
        b = a.relabeled((3, 1, 0, 2))
        session.get_pattern_count(a)
        cached = len(session._plan_cache)
        session.get_pattern_count(b)
        assert len(session._plan_cache) == cached
        assert session.plan_for(a) is session.plan_for(b)

    def test_labeled_counts(self, labeled_session):
        pattern = Pattern(3, [(0, 1), (1, 2)], labels=[0, 1, 0])
        expected = reference.count_embeddings(labeled_session.graph, pattern)
        assert labeled_session.get_pattern_count(pattern) == expected

    def test_explain_mentions_plan_kind(self, session):
        text = session.explain(catalog.chain(4))
        assert "plan for" in text


class TestSharedSession:
    def test_incomplete_run_raises_even_after_another_thread_counts(
            self, session, monkeypatch):
        """Two threads share one session (as the daemon's do): thread A's
        incomplete run must raise, not report the count of the run thread
        B completed in between."""
        from repro.runtime.supervisor import ChunkFailure

        graph = session.graph
        shared = DecoMine(graph)
        original = DecoMine._execute
        a_ran, b_done = threading.Event(), threading.Event()

        def execute(self, plan, ctx=None, **kwargs):
            result = original(self, plan, ctx, **kwargs)
            if threading.current_thread().name == "thread-a":
                a_ran.set()
                assert b_done.wait(30.0)
                result.failures.append(ChunkFailure(
                    index=0, bounds=(0, graph.num_vertices), attempts=1,
                    reason="cancelled",
                ))
            return result

        monkeypatch.setattr(DecoMine, "_execute", execute)
        box: dict = {}

        def count_triangles() -> None:
            try:
                box["count"] = shared.get_pattern_count(catalog.triangle())
            except ExecutionError as exc:
                box["error"] = exc

        thread_a = threading.Thread(target=count_triangles, name="thread-a")
        thread_a.start()
        try:
            assert a_ran.wait(30.0)
            chain4 = shared.get_pattern_count(catalog.chain(4))
            assert chain4 == reference.count_embeddings(
                graph, catalog.chain(4))
        finally:
            b_done.set()
            thread_a.join(30.0)
        assert "count" not in box, (
            f"incomplete run returned a count: {box.get('count')}")
        assert "execution incomplete" in str(box["error"])
        assert "(cancelled)" in str(box["error"])


class TestMine:
    def test_counts_and_domains_any_plan_kind(self, session):
        for pattern in (catalog.chain(4), catalog.triangle(), catalog.house()):
            domains = defaultdict(set)

            def udf(pe):
                if pe.count > 0:
                    for v, g in pe.mapping.items():
                        domains[v].add(g)

            returned = session.mine(pattern, udf)
            assert returned == reference.count_embeddings(
                session.graph, pattern
            )
            expected = defaultdict(set)
            for assignment in reference._assignments(
                session.graph, pattern, False
            ):
                for v, g in enumerate(assignment):
                    expected[v].add(g)
            assert {k: v for k, v in domains.items()} == dict(expected)

    def test_sum_of_counts_equals_injective_matches(self, session):
        pattern = catalog.cycle(4)
        per_subpattern = defaultdict(int)

        def udf(pe):
            per_subpattern[pe.subpattern_index] += pe.count

        session.mine(pattern, udf)
        inj = reference.count_injective_homomorphisms(session.graph, pattern)
        for total in per_subpattern.values():
            assert total == inj

    def test_materialize_matches_counts(self, session):
        pattern = catalog.house()
        pes = []
        session.mine(pattern, lambda pe: pes.append(pe))
        checked = 0
        for pe in pes:
            if pe.count > 0 and checked < 10:
                expansions = list(session.materialize(pe))
                assert len(expansions) == pe.count
                for mapping in expansions:
                    for u, v in pattern.edge_set:
                        assert session.graph.has_edge(mapping[u], mapping[v])
                checked += 1
        assert checked > 0

    def test_materialize_respects_num(self, session):
        pattern = catalog.chain(4)
        pes = []
        session.mine(pattern, lambda pe: pes.append(pe))
        pe = max(pes, key=lambda p: p.count)
        assert pe.count > 1
        assert len(list(session.materialize(pe, num=1))) == 1

    def test_partial_embedding_rendering(self, session):
        pattern = catalog.chain(4)
        pes = []
        session.mine(pattern, lambda pe: pes.append(pe))
        pe = pes[0]
        rendered = pe.as_tuple()
        assert len(rendered) == pattern.n
        if pe.missing_vertices:
            assert "*" in rendered


class TestConstraints:
    def test_section86_style_query(self, labeled_session):
        graph = labeled_session.graph
        pattern = catalog.figure6_pattern()
        got = labeled_session.count_with_constraints(pattern, [
            labels_distinct(graph, (0, 1, 2)),
            labels_equal(graph, (1, 3, 4)),
        ])
        expected = 0
        for a in reference._assignments(graph, pattern, False):
            labels = [graph.label_of(x) for x in a]
            if len({labels[0], labels[1], labels[2]}) == 3 and (
                labels[1] == labels[3] == labels[4]
            ):
                expected += 1
        assert got == expected

    def test_label_is_constraint(self, labeled_session):
        graph = labeled_session.graph
        pattern = catalog.chain(3)
        got = labeled_session.count_with_constraints(
            pattern, [label_is(graph, 1, 0)]
        )
        expected = sum(
            1 for a in reference._assignments(graph, pattern, False)
            if graph.label_of(a[1]) == 0
        )
        assert got == expected

    def test_unsatisfiable_constraint_counts_zero(self, labeled_session):
        graph = labeled_session.graph
        got = labeled_session.count_with_constraints(
            catalog.chain(3),
            [(lambda a, b, c: False, (0, 1, 2))],
        )
        assert got == 0
