"""Shared machinery for the compilation-style baseline systems.

AutoMine, Peregrine and GraphPi are all pattern-aware vertex-set-based
enumerators *without* pattern decomposition; they differ in how matching
orders and symmetry-breaking restrictions are chosen.  This base class
provides direct-plan compilation, caching, counting, and FSM domain
extraction; subclasses supply the plan-selection policy.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.compiler.passes import PassOptions
from repro.compiler.pipeline import CompiledPlan, compile_spec
from repro.compiler.specs import DirectSpec
from repro.costmodel import CostProfile, profile_graph
from repro.graph.csr import CSRGraph
from repro.patterns.generation import all_connected_patterns
from repro.patterns.isomorphism import automorphisms, canonical_code
from repro.patterns.pattern import Pattern
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import execute_plan

__all__ = ["DirectPlanSystem"]


class DirectPlanSystem:
    """Base class: counts patterns with direct (non-decomposed) plans."""

    name = "direct"

    def __init__(self, graph: CSRGraph, profile: CostProfile | None = None,
                 passes: PassOptions = PassOptions()) -> None:
        self.graph = graph
        self._profile = profile
        self.passes = passes
        self._plan_cache: dict = {}

    @property
    def profile(self) -> CostProfile:
        if self._profile is None:
            self._profile = profile_graph(self.graph)
        return self._profile

    # -- policy hook ----------------------------------------------------
    def select_spec(self, pattern: Pattern, induced: bool,
                    mode: str) -> DirectSpec:
        raise NotImplementedError

    # -- plan management -------------------------------------------------
    def _plan(self, pattern: Pattern, induced: bool, mode: str) -> CompiledPlan:
        key = (canonical_code(pattern) if mode == "count" else pattern,
               induced, mode)
        plan = self._plan_cache.get(key)
        if plan is None:
            started = time.perf_counter()
            spec = self.select_spec(pattern, induced, mode)
            plan = replace(
                compile_spec(spec, mode, self.passes),
                compile_seconds=time.perf_counter() - started,
                model_name=self.name,
            )
            self._plan_cache[key] = plan
        return plan

    # -- Miner interface --------------------------------------------------
    def count(self, pattern: Pattern, induced: bool = False) -> int:
        if pattern.n == 1:
            return self.graph.num_vertices
        plan = self._plan(pattern, induced, "count")
        return execute_plan(plan, self.graph).embedding_count

    def domains(self, pattern: Pattern) -> dict[int, set[int]]:
        if pattern.n == 1:
            vertices = (
                self.graph.vertices_with_label(pattern.labels[0])
                if pattern.is_labeled else self.graph.vertices()
            )
            return {0: set(vertices.tolist())}
        plan = self._plan(pattern, False, "emit")
        collected: dict[int, set[int]] = {v: set() for v in range(pattern.n)}
        auts = automorphisms(pattern) if plan.info.expand_automorphisms else None

        def emit(index: int, vertices: tuple[int, ...], count: int) -> None:
            if auts is None:
                for v, gv in zip(plan.info.emit_layouts[index], vertices):
                    collected[v].add(gv)
            else:
                for sigma in auts:
                    for v in range(pattern.n):
                        collected[v].add(vertices[sigma[v]])

        ctx = ExecutionContext(plan.root.num_tables, emit=emit)
        execute_plan(plan, self.graph, ctx=ctx)
        return collected

    def motif_census(self, k: int) -> dict[Pattern, int]:
        """Per-pattern vertex-induced counting (no decomposition tricks)."""
        return {
            pattern: self.count(pattern, induced=True)
            for pattern in all_connected_patterns(k)
        }

    def constrained_count(self, pattern: Pattern, constraints) -> int:
        """Filter whole embeddings through the predicates (the strategy
        the paper contrasts with DecoMine's partial resolution, §8.6).

        ``constraints`` is a list of ``(predicate, pattern_vertices)``;
        returns satisfying matches (injective homomorphisms)."""
        plan = self._plan(pattern, False, "emit")
        auts = automorphisms(pattern) if plan.info.expand_automorphisms else ((),)
        total = 0

        def check(assignment: dict[int, int]) -> bool:
            return all(
                predicate(*(assignment[v] for v in vertices))
                for predicate, vertices in constraints
            )

        def emit(index: int, vertices: tuple[int, ...], count: int) -> None:
            nonlocal total
            layout = plan.info.emit_layouts[index]
            base = dict(zip(layout, vertices))
            if plan.info.expand_automorphisms:
                for sigma in auts:
                    mapped = {v: base[sigma[v]] for v in range(pattern.n)}
                    if check(mapped):
                        total += 1
            else:
                if check(base):
                    total += 1

        ctx = ExecutionContext(plan.root.num_tables, emit=emit)
        execute_plan(plan, self.graph, ctx=ctx)
        return total
