"""Tests for the upward-closure vertex-induced conversion path."""

from __future__ import annotations

import pytest

from repro.baselines import reference
from repro.graph.generators import erdos_renyi
from repro.patterns import catalog
from repro.patterns.conversion import (
    _upward_closure,
    edge_induced_requirements,
    spanning_subgraph_count,
)
from repro.patterns.isomorphism import canonical_form
from repro.patterns.pattern import Pattern


class TestUpwardClosure:
    def test_clique_closure_is_itself(self):
        closure = _upward_closure(canonical_form(catalog.clique(5)))
        assert len(closure) == 1

    def test_clique_minus_edge_closure_is_two(self):
        for k in (5, 6, 7, 8):
            closure = _upward_closure(
                canonical_form(catalog.clique_minus_edge(k))
            )
            assert len(closure) == 2, k

    def test_triangle_closure(self):
        # 3-chain -> {3-chain, triangle}.
        closure = _upward_closure(canonical_form(catalog.chain(3)))
        assert len(closure) == 2

    def test_size4_chain_closure_covers_denser_patterns(self):
        closure = _upward_closure(canonical_form(catalog.chain(4)))
        # All 6 connected 4-vertex classes contain a spanning 4-chain
        # except the 3-star: closure has 5 entries.
        assert len(closure) == 5


class TestRequirements:
    def test_pseudo_clique_requirements_tiny(self):
        """The fix validated by Table 3's 7/8-PC rows: requirements for
        nearly-complete patterns never touch the full pattern universe."""
        for k in (7, 8):
            requirements = edge_induced_requirements(
                catalog.clique_minus_edge(k)
            )
            assert len(requirements) == 2

    def test_requirement_identity_random_graph(self):
        graph = erdos_renyi(13, 0.45, seed=33)
        for pattern in (catalog.chain(4), catalog.cycle(4),
                        catalog.diamond(), catalog.clique_minus_edge(5)):
            total = sum(
                coeff * reference.count_embeddings(graph, host)
                for host, coeff in edge_induced_requirements(pattern)
            )
            assert total == reference.count_embeddings(
                graph, pattern, induced=True
            ), pattern.name

    def test_disconnected_pattern_rejected(self):
        with pytest.raises(ValueError):
            edge_induced_requirements(Pattern(3, [(0, 1)]))


class TestSpanningCountsViaHoms:
    def test_cme_in_clique(self):
        # K_k contains C(k,2) spanning copies of clique-minus-edge.
        import math

        for k in (4, 5, 6):
            assert spanning_subgraph_count(
                catalog.clique_minus_edge(k), catalog.clique(k)
            ) == math.comb(k, 2)

    def test_chain_in_cycle(self):
        for k in (4, 5, 6):
            assert spanning_subgraph_count(
                catalog.chain(k), catalog.cycle(k)
            ) == k

    def test_labeled_spanning_counts(self):
        chain = Pattern(3, [(0, 1), (1, 2)], labels=[0, 1, 0])
        triangle_ok = Pattern(3, [(0, 1), (0, 2), (1, 2)], labels=[0, 0, 1])
        triangle_bad = Pattern(3, [(0, 1), (0, 2), (1, 2)], labels=[1, 1, 0])
        assert spanning_subgraph_count(chain, triangle_ok) == 1
        assert spanning_subgraph_count(chain, triangle_bad) == 0


class TestSessionInducedRouting:
    def test_large_sparse_pattern_uses_direct_plan(self):
        """Vertex-induced counting of a sparse 6-vertex pattern must not
        trigger closure construction (which would visit most of the 112
        size-6 classes)."""
        from repro.api import DecoMine

        graph = erdos_renyi(14, 0.3, seed=5)
        session = DecoMine(graph)
        pattern = catalog.chain(6)
        got = session.get_pattern_count(pattern, induced=True)
        assert got == reference.count_embeddings(graph, pattern,
                                                 induced=True)
        # Only the direct induced plan (plus possibly the EI plan) was
        # compiled — no host-closure plans.
        induced_plans = [
            plan for plan in session._plan_cache.values()
            if getattr(plan.spec, "induced", False)
        ]
        assert len(induced_plans) == 1

    def test_dense_pattern_may_use_conversion(self):
        from repro.api import DecoMine

        graph = erdos_renyi(14, 0.45, seed=6)
        session = DecoMine(graph)
        pattern = catalog.clique_minus_edge(6)
        got = session.get_pattern_count(pattern, induced=True)
        assert got == reference.count_embeddings(graph, pattern,
                                                 induced=True)
