"""Tests for globally-counted shrinkage corrections.

``include_shrinkages=False`` replaces Algorithm 1's per-e_C shrinkage
loops by one global count per quotient pattern (Σ over cutting-set
matches of quotient extensions = the quotient's injective count) — the
structure of ESCAPE's error terms.  Counting results must be identical.
"""

from __future__ import annotations

import pytest

from repro.baselines import reference
from repro.compiler.ast_nodes import HashAdd, Loop, walk
from repro.compiler.build import build_ast
from repro.compiler.pipeline import compile_pattern, compile_spec
from repro.compiler.search import SearchOptions, enumerate_candidates
from repro.compiler.specs import DecompSpec
from repro.costmodel import get_model, profile_graph
from repro.exceptions import CompilationError
from repro.graph.generators import erdos_renyi
from repro.patterns import catalog
from repro.patterns.decomposition import all_decompositions
from repro.patterns.generation import all_connected_patterns
from repro.patterns.isomorphism import automorphism_count, canonical_code
from repro.patterns.matching_order import extension_orders
from repro.runtime.engine import execute_plan


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(16, 0.32, seed=21)


@pytest.fixture(scope="module")
def profile(graph):
    return profile_graph(graph, max_pattern_size=3, trials=80)


def global_spec(pattern, which=0):
    deco = all_decompositions(pattern)[which]
    ext = tuple(
        extension_orders(pattern, deco.cutting_set, s.component)[0]
        for s in deco.subpatterns
    )
    return DecompSpec(deco, deco.cutting_set, ext, include_shrinkages=False)


def composite_plan(pattern, profile, which=0):
    spec = global_spec(pattern, which)
    main = compile_spec(spec)
    aux = []
    for shrinkage in spec.decomposition.shrinkages:
        qplan = compile_pattern(shrinkage.pattern, profile)
        aux.append(
            (qplan,
             automorphism_count(shrinkage.pattern) // qplan.info.divisor)
        )
    main.aux_plans = tuple(aux)
    return main


class TestCorrectness:
    @pytest.mark.parametrize("size", [4, 5])
    def test_matches_bruteforce(self, graph, profile, size):
        for pattern in all_connected_patterns(size):
            decos = all_decompositions(pattern)
            if not decos or not decos[0].shrinkages:
                continue
            plan = composite_plan(pattern, profile)
            got = execute_plan(plan, graph).embedding_count
            assert got == reference.count_embeddings(graph, pattern), (
                pattern.name
            )

    def test_quotients_strictly_smaller(self):
        """Recursive quotient compilation terminates: every shrinkage
        pattern has fewer vertices than the decomposed pattern."""
        for pattern in all_connected_patterns(5):
            for deco in all_decompositions(pattern):
                for shrinkage in deco.shrinkages:
                    assert shrinkage.pattern.n < pattern.n


class TestStructure:
    def test_no_shrinkage_loops_or_tables(self):
        spec = global_spec(catalog.cycle(6))
        root, _ = build_ast(spec, "count")
        assert not any(isinstance(n, HashAdd) for n in walk(root))
        roles = {
            n.meta.role for n in walk(root) if isinstance(n, Loop)
        }
        assert "shrinkage" not in roles

    def test_emit_mode_rejected(self):
        spec = global_spec(catalog.cycle(6))
        with pytest.raises(CompilationError):
            build_ast(spec, "emit")

    def test_search_offers_both_variants(self, profile):
        options = SearchOptions(full_eval_limit=10 ** 9)
        variants = {
            getattr(c.spec, "include_shrinkages", None)
            for c in enumerate_candidates(
                catalog.cycle(5), profile, get_model("approx_mining"),
                options=options,
            )
            if c.spec.kind == "decomp"
        }
        assert variants == {True, False}

    def test_emit_search_never_offers_global(self, profile):
        variants = {
            getattr(c.spec, "include_shrinkages", None)
            for c in enumerate_candidates(
                catalog.cycle(5), profile, get_model("approx_mining"),
                mode="emit",
            )
            if c.spec.kind == "decomp"
        }
        assert variants == {True}


class TestPipeline:
    def test_compile_pattern_builds_aux_plans(self, graph, profile):
        # Force the global variant by searching decomposition-only with
        # per-e_C shrinkage priced out via a tiny graph is fiddly; instead
        # verify the wiring through a pattern where search may pick either
        # and, if it picked the global variant, aux plans exist.
        plan = compile_pattern(catalog.cycle(6), profile)
        if getattr(plan.spec, "include_shrinkages", True) is False:
            assert plan.aux_plans
        got = execute_plan(plan, graph).embedding_count
        assert got == reference.count_embeddings(graph, catalog.cycle(6))

    def test_quotient_classes_compile_once(self, graph, profile):
        """Isomorphic shrinkage quotients share one aux plan whose
        multiplier is the sum of theirs (bowtie: 6 quotients, 2 classes)."""
        pattern = catalog.bowtie()
        plan = compile_pattern(pattern, profile)
        assert plan.spec.include_shrinkages is False
        codes = [canonical_code(qplan.pattern) for qplan, _ in plan.aux_plans]
        assert len(codes) == len(set(codes))
        divisors = {
            canonical_code(qplan.pattern): qplan.info.divisor
            for qplan, _ in plan.aux_plans
        }
        shrinkages = plan.spec.decomposition.shrinkages
        assert len(shrinkages) > len(plan.aux_plans)
        assert sum(m for _, m in plan.aux_plans) == sum(
            automorphism_count(s.pattern)
            // divisors[canonical_code(s.pattern)]
            for s in shrinkages
        )
        got = execute_plan(plan, graph).embedding_count
        assert got == reference.count_embeddings(graph, pattern)
