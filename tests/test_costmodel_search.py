"""Tests for profiling, the three cost models, and the algorithm search."""

from __future__ import annotations

import copy
import dataclasses
import random
from functools import cached_property

import pytest

from repro.baselines import reference
from repro.compiler.build import build_ast
from repro.compiler.passes import optimize
from repro.compiler.pipeline import compile_pattern, compile_spec
from repro.compiler.search import (
    SearchOptions,
    enumerate_candidates,
    random_spec,
    search,
)
from repro.compiler.specs import DecompSpec, DirectSpec
from repro.costmodel import (
    ApproxMiningCostModel,
    AutoMineCostModel,
    LocalityAwareCostModel,
    estimate_cost,
    get_model,
    profile_graph,
)
from repro.exceptions import CompilationError
from repro.graph.generators import erdos_renyi, small_world
from repro.patterns import catalog
from repro.patterns.generation import all_connected_patterns
from repro.patterns.isomorphism import automorphism_count, canonical_code
from repro.patterns.pattern import Pattern
from repro.runtime.engine import execute_plan
from repro.sampling.edge_sampler import sample_edges, sample_vertices
from repro.sampling.neighbor_sampling import estimate_injective_homomorphisms


@pytest.fixture(scope="module")
def clustered_graph():
    return small_world(150, k=8, rewire=0.2, extra_triangles=150, seed=5)


@pytest.fixture(scope="module")
def profile(clustered_graph):
    return profile_graph(clustered_graph, max_pattern_size=4, trials=200)


class TestSampling:
    def test_edge_sampler_budget(self, clustered_graph):
        sample, ratio = sample_edges(clustered_graph, 200, seed=1)
        assert sample.num_edges == 200
        assert ratio == pytest.approx(200 / clustered_graph.num_edges)

    def test_edge_sampler_noop_when_small(self, k4_graph):
        sample, ratio = sample_edges(k4_graph, 100)
        assert sample is k4_graph
        assert ratio == 1.0

    def test_vertex_sampler(self, clustered_graph):
        sample, ratio = sample_vertices(clustered_graph, 50, seed=1)
        assert sample.num_vertices == 50
        assert ratio == pytest.approx(50 / clustered_graph.num_vertices)

    def test_edge_sampling_preserves_hubs_better(self):
        """The paper's section 6.2 claim, measured directly."""
        from repro.graph.generators import power_law

        graph = power_law(400, avg_degree=10.0, exponent=2.0, seed=9)
        budget_edges = graph.num_edges // 4
        edge_sample, _ = sample_edges(graph, budget_edges, seed=2)
        vertex_sample, _ = sample_vertices(graph, graph.num_vertices // 4,
                                           seed=2)
        assert edge_sample.max_degree > vertex_sample.max_degree

    def test_neighbor_sampling_unbiased_estimate(self, clustered_graph):
        exact = reference.count_injective_homomorphisms(
            clustered_graph, catalog.triangle()
        )
        estimate = estimate_injective_homomorphisms(
            clustered_graph, catalog.triangle(), trials=3000, seed=3
        )
        assert estimate == pytest.approx(exact, rel=0.35)

    def test_single_vertex_pattern(self, clustered_graph):
        assert estimate_injective_homomorphisms(
            clustered_graph, catalog.chain(2).induced_subpattern([0])
        ) == clustered_graph.num_vertices

    @pytest.mark.parametrize("trials", [0, -1])
    def test_a_trial_budget_below_one_is_refused(self, clustered_graph,
                                                 trials):
        with pytest.raises(ValueError, match="trials"):
            estimate_injective_homomorphisms(
                clustered_graph, catalog.triangle(), trials=trials)
        with pytest.raises(ValueError, match="trials"):
            profile_graph(clustered_graph, trials=trials)


class TestProfiler:
    def test_table_covers_all_small_patterns(self, profile):
        for size in (2, 3, 4):
            for pattern in all_connected_patterns(size):
                assert canonical_code(pattern) in profile.counts

    def test_lookup_is_reasonable(self, clustered_graph, profile):
        exact = reference.count_injective_homomorphisms(
            clustered_graph, catalog.chain(3)
        )
        assert profile.lookup(catalog.chain(3)) == pytest.approx(exact, rel=0.5)

    def test_on_demand_profiling_for_large_patterns(self, profile):
        value = profile.lookup(catalog.cycle(5))  # beyond the size-4 table
        assert value is not None and value > 0
        assert canonical_code(catalog.cycle(5)) in profile.counts  # cached

    def test_profiling_time_recorded(self, profile):
        assert profile.profiling_seconds > 0

    def test_label_fractions(self, labeled_graph):
        p = profile_graph(labeled_graph, max_pattern_size=3, trials=50)
        total = sum(p.label_fractions.values())
        assert total == pytest.approx(1.0)


class TestCostModels:
    def test_get_model(self):
        assert isinstance(get_model("automine"), AutoMineCostModel)
        assert isinstance(get_model("locality"), LocalityAwareCostModel)
        assert isinstance(get_model("approx_mining"), ApproxMiningCostModel)
        with pytest.raises(KeyError):
            get_model("oracle")

    def test_costs_positive_and_finite(self, profile):
        spec = DirectSpec(catalog.cycle(4), (0, 1, 2, 3))
        root, _ = build_ast(spec, "count")
        optimize(root)
        for name in ("automine", "locality", "approx_mining"):
            cost = estimate_cost(root, profile, get_model(name))
            assert cost > 0 and cost < float("inf")

    def test_automine_underestimates_clustered_graphs(self, clustered_graph,
                                                      profile):
        """The paper's core observation (section 6.1): on clustered real
        graphs the G(n,p) model underestimates dense-pattern loop trips by
        orders of magnitude relative to the approximate-mining model."""
        spec = DirectSpec(catalog.clique(4), (0, 1, 2, 3))
        root, _ = build_ast(spec, "count")
        am = estimate_cost(root, profile, get_model("automine"))
        ax = estimate_cost(root, profile, get_model("approx_mining"))
        assert ax > am

    def test_cost_model_ranking_accuracy(self, clustered_graph, profile):
        """The approx-mining model must rank plans at least as well as
        AutoMine's on a set of random implementations (Figure 11's
        methodology, reduced)."""
        import numpy as np

        pattern = catalog.house()
        rng = random.Random(5)
        specs = [random_spec(pattern, rng) for _ in range(12)]
        runtimes = []
        costs = {"automine": [], "approx_mining": []}
        for spec in specs:
            plan = compile_spec(spec)
            result = execute_plan(plan, clustered_graph)
            runtimes.append(result.seconds)
            for name in costs:
                costs[name].append(
                    estimate_cost(plan.root, profile, get_model(name))
                )

        def correlation(xs):
            return float(np.corrcoef(np.log(xs), np.log(runtimes))[0, 1])

        assert correlation(costs["approx_mining"]) > 0.0


class TestSearch:
    def test_clique_falls_back_to_direct(self, profile):
        best = search(catalog.clique(4), profile, get_model("approx_mining"))
        assert best.spec.kind == "direct"

    def test_search_returns_cheapest(self, profile):
        candidates = list(enumerate_candidates(
            catalog.chain(4), profile, get_model("approx_mining")
        ))
        best = search(catalog.chain(4), profile, get_model("approx_mining"))
        assert best.cost == min(c.cost for c in candidates)

    def test_search_without_any_space_raises(self, profile):
        with pytest.raises(CompilationError):
            search(
                catalog.chain(3), profile, get_model("approx_mining"),
                options=SearchOptions(enable_direct=False,
                                      enable_decomposition=False),
            )

    def test_random_spec_reproducible_and_valid(self, clustered_graph):
        pattern = catalog.house()
        rng = random.Random(3)
        spec = random_spec(pattern, rng)
        plan = compile_spec(spec)
        got = execute_plan(plan, clustered_graph).embedding_count
        assert got == reference.count_embeddings(clustered_graph, pattern)

    def test_random_spec_for_clique_is_direct(self):
        spec = random_spec(catalog.clique(4), random.Random(0))
        assert spec.kind == "direct"

    def test_compile_pattern_end_to_end(self, clustered_graph, profile):
        plan = compile_pattern(catalog.bowtie(), profile)
        result = execute_plan(plan, clustered_graph)
        assert result.embedding_count == reference.count_embeddings(
            clustered_graph, catalog.bowtie()
        )
        assert plan.compile_seconds < 5.0
        assert "plan for" in plan.describe()

    def test_selected_plans_correct_under_every_model(self, clustered_graph):
        graph = erdos_renyi(20, 0.3, seed=2)
        profile = profile_graph(graph, max_pattern_size=3, trials=100)
        for model_name in ("automine", "locality", "approx_mining"):
            plan = compile_pattern(catalog.cycle(5), profile, model_name)
            got = execute_plan(plan, graph).embedding_count
            assert got == reference.count_embeddings(graph, catalog.cycle(5))


class TestSearchMemoScope:
    """The search prices each loop once per call; nothing outlives it."""

    def _own(self, profile):
        own = copy.copy(profile)
        own.counts = dict(profile.counts)
        return own

    def test_count_change_reaches_the_next_search(self, profile):
        own = self._own(profile)
        model = get_model("approx_mining")
        first = search(catalog.house(), own, model).cost
        edge = canonical_code(catalog.chain(2))  # every plan's 2nd loop
        own.counts[edge] = own.counts[edge] * 50.0
        assert search(catalog.house(), own, model).cost != first

    def test_search_leaves_no_cache_on_pattern_or_profile(self, profile):
        own = self._own(profile)
        pattern = catalog.house()
        before_pattern, before_profile = set(vars(pattern)), set(vars(own))
        search(pattern, own, get_model("approx_mining"))
        lazy = {name for name, value in vars(Pattern).items()
                if isinstance(value, cached_property)}
        assert set(vars(pattern)) - before_pattern <= lazy
        assert set(vars(own)) == before_profile
        fields = {f.name for f in dataclasses.fields(own)}
        assert set(vars(copy.copy(own))) == fields

    def test_memoized_candidates_price_like_a_fresh_walk(self, profile):
        own = self._own(profile)
        model = get_model("approx_mining")
        candidates = list(enumerate_candidates(catalog.bowtie(), own, model))
        assert any(c.spec.kind == "decomp" for c in candidates)
        for candidate in candidates:
            cost = estimate_cost(candidate.root, own, model)
            if isinstance(candidate.spec, DecompSpec) \
                    and not candidate.spec.include_shrinkages:
                continue  # plus global quotient estimates
            assert candidate.cost == cost
