"""Unit tests for the cost-model arithmetic (no graph mining involved)."""

from __future__ import annotations

import pytest

from repro.compiler.ast_nodes import (
    Accumulate,
    IfPositive,
    Loop,
    LoopMeta,
    Root,
    ScalarOp,
    SetOp,
)
from repro.costmodel import (
    ApproxMiningCostModel,
    AutoMineCostModel,
    LocalityAwareCostModel,
    estimate_cost,
)
from repro.costmodel.profiler import CostProfile
from repro.patterns import catalog
from repro.patterns.isomorphism import canonical_code
from repro.patterns.pattern import Pattern


def make_profile(n=1000, p=0.01, p_local=0.3, counts=None, labels=None):
    return CostProfile(
        num_vertices=n, num_edges=int(n * n * p / 2), avg_degree=n * p,
        p=p, p_local=p_local, alpha=8, label_fractions=labels,
        counts=counts or {}, max_table_size=4,
    )


class TestAutoMineModel:
    def test_powers_of_p(self):
        profile = make_profile(n=1000, p=0.01)
        model = AutoMineCostModel()
        for degree, expected in [(0, 1000), (1, 10), (2, 0.1), (3, 0.001)]:
            meta = LoopMeta(constraint_degree=degree)
            assert model.level_iterations(meta, profile) == \
                pytest.approx(expected)


class TestLocalityModel:
    def test_first_edge_global_rest_local(self):
        profile = make_profile(n=1000, p=0.01, p_local=0.25)
        model = LocalityAwareCostModel()
        assert model.level_iterations(LoopMeta(constraint_degree=0),
                                      profile) == 1000
        assert model.level_iterations(LoopMeta(constraint_degree=1),
                                      profile) == pytest.approx(10)
        assert model.level_iterations(LoopMeta(constraint_degree=2),
                                      profile) == pytest.approx(2.5)
        assert model.level_iterations(LoopMeta(constraint_degree=3),
                                      profile) == pytest.approx(0.625)

    def test_locality_exceeds_automine_for_dense_constraints(self):
        """The section 6.1 fix: G(n,p) underestimates closed wedges."""
        profile = make_profile(n=1000, p=0.01, p_local=0.3)
        meta = LoopMeta(constraint_degree=2)
        assert LocalityAwareCostModel().level_iterations(meta, profile) > \
            AutoMineCostModel().level_iterations(meta, profile)


class TestApproxModel:
    def test_ratio_of_prefix_counts(self):
        chain2 = catalog.chain(2)
        chain3 = catalog.chain(3)
        counts = {
            canonical_code(chain2): 500.0,
            canonical_code(chain3): 2000.0,
        }
        profile = make_profile(counts=counts)
        model = ApproxMiningCostModel()
        meta = LoopMeta(prefix=chain3, constraint_degree=1)
        # iterations = C(3-chain) / C(edge) = 4
        assert model.level_iterations(meta, profile) == pytest.approx(4.0)

    def test_single_vertex_prefix_is_n(self):
        profile = make_profile(n=777)
        meta = LoopMeta(prefix=Pattern(1, []))
        assert ApproxMiningCostModel().level_iterations(meta, profile) == 777

    def test_single_vertex_parent_counts_the_graph(self):
        # A sampled profile's count of one vertex is the sample's vertex
        # count; an edge's parent must count the graph's vertices.
        edge = catalog.chain(2)
        counts = {canonical_code(Pattern(1, [])): 37.0,
                  canonical_code(edge): 500.0}
        profile = make_profile(n=1000, counts=counts)
        meta = LoopMeta(prefix=edge, constraint_degree=1)
        assert ApproxMiningCostModel().level_iterations(
            meta, profile
        ) == pytest.approx(0.5)

    def test_disconnected_prefix_factorizes(self):
        edge = catalog.chain(2)
        counts = {canonical_code(edge): 100.0}
        profile = make_profile(n=50, counts=counts)
        # Prefix: an edge plus an isolated vertex -> count 100 * 50;
        # parent: the edge alone -> 100; ratio = 50.
        prefix = Pattern(3, [(0, 1)])
        meta = LoopMeta(prefix=prefix)
        assert ApproxMiningCostModel().level_iterations(
            meta, profile
        ) == pytest.approx(50.0)

    def test_fallback_without_table(self):
        profile = make_profile()  # empty counts, no sample attached
        meta = LoopMeta(prefix=catalog.triangle(), constraint_degree=2)
        locality = LocalityAwareCostModel().level_iterations(meta, profile)
        assert ApproxMiningCostModel().level_iterations(meta, profile) == \
            pytest.approx(locality)


class TestAdjustments:
    def test_trims_halve(self):
        profile = make_profile(n=100, p=0.1)
        model = AutoMineCostModel()
        base = model.adjusted_iterations(LoopMeta(constraint_degree=1),
                                         profile)
        trimmed = model.adjusted_iterations(
            LoopMeta(constraint_degree=1, num_trims=2), profile
        )
        assert trimmed == pytest.approx(base / 4)

    def test_label_fraction_scales(self):
        profile = make_profile(labels={3: 0.25})
        model = AutoMineCostModel()
        base = model.adjusted_iterations(LoopMeta(constraint_degree=0),
                                         profile)
        labeled = model.adjusted_iterations(
            LoopMeta(constraint_degree=0, label=3), profile
        )
        assert labeled == pytest.approx(base * 0.25)

    def test_unseen_label_uses_floor(self):
        profile = make_profile(n=100, labels={0: 1.0})
        fraction = profile.label_fraction(9)
        assert fraction == pytest.approx(1 / 100)


class TestWalker:
    def build_root(self, gate_metas=None):
        # for v in V: s = N(v); c = |s|; if guard: acc += c
        body = [
            SetOp("s0", "universe", ()),
            Loop("v1", "s0", [
                SetOp("s1", "neighbors", ("v1",)),
                SetOp("s2", "intersect", ("s1", "s1")),
                ScalarOp("c1", "size", ("s2",)),
                IfPositive("c1", [Accumulate("acc", "c1")],
                           gate_metas=gate_metas),
            ], LoopMeta(constraint_degree=0)),
        ]
        return Root(body, accumulators=("acc",))

    def test_guard_probability_discounts(self):
        profile = make_profile(n=1000, p=0.001)
        model = AutoMineCostModel()
        # Gate expecting ~0.001 * 1000 = 1 iteration -> no discount;
        # a rarer gate must reduce cost.
        common = self.build_root(
            gate_metas=(LoopMeta(constraint_degree=0),)
        )
        rare = self.build_root(
            gate_metas=(LoopMeta(constraint_degree=3),)
        )
        assert estimate_cost(rare, profile, model) < \
            estimate_cost(common, profile, model)

    def test_ungated_charged_fully(self):
        profile = make_profile()
        model = AutoMineCostModel()
        gated = self.build_root(
            gate_metas=(LoopMeta(constraint_degree=3),)
        )
        ungated = self.build_root(gate_metas=None)
        assert estimate_cost(gated, profile, model) <= \
            estimate_cost(ungated, profile, model)

    def test_cost_scales_with_n(self):
        model = AutoMineCostModel()
        small = estimate_cost(self.build_root(), make_profile(n=100), model)
        large = estimate_cost(self.build_root(), make_profile(n=10000), model)
        assert large > small
