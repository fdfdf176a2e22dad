"""Correctness of the AST front-end against the brute-force oracle."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import pytest

from repro.baselines import reference
from repro.compiler.ast_nodes import (
    EmitPartial,
    HashAdd,
    IfPositive,
    IfPred,
    Loop,
    SetOp,
    walk,
)
from repro.compiler.build import COUNT_ACC, build_ast, build_skeleton
from repro.compiler.interpreter import run_interpreter
from repro.compiler.specs import Constraint, DecompSpec, DirectSpec
from repro.exceptions import CompilationError
from repro.patterns import catalog
from repro.patterns.decomposition import all_decompositions
from repro.patterns.generation import all_connected_patterns
from repro.patterns.matching_order import connected_orders, extension_orders
from repro.patterns.symmetry import symmetry_breaking_restrictions
from repro.runtime.context import ExecutionContext


def count_with(spec, graph, mode="count"):
    root, info = build_ast(spec, mode)
    ctx = ExecutionContext(root.num_tables)
    raw = run_interpreter(root, graph, ctx)[COUNT_ACC]
    return raw // info.divisor


def first_decomp_spec(pattern, which=0, plr_k=0):
    deco = all_decompositions(pattern)[which]
    ext = tuple(
        extension_orders(pattern, deco.cutting_set, s.component)[0]
        for s in deco.subpatterns
    )
    return DecompSpec(deco, deco.cutting_set, ext, plr_k=plr_k)


class TestDirectPlans:
    @pytest.mark.parametrize("pattern", [
        catalog.triangle(), catalog.chain(3), catalog.chain(4),
        catalog.cycle(4), catalog.tailed_triangle(), catalog.star(3),
    ])
    def test_unrestricted_count(self, pattern, small_random_graph):
        spec = DirectSpec(pattern, connected_orders(pattern)[0])
        expected = reference.count_embeddings(small_random_graph, pattern)
        assert count_with(spec, small_random_graph) == expected

    @pytest.mark.parametrize("pattern", [
        catalog.triangle(), catalog.cycle(4), catalog.clique(4),
        catalog.star(3),
    ])
    def test_symmetry_breaking_count(self, pattern, small_random_graph):
        restrictions = tuple(symmetry_breaking_restrictions(pattern))
        spec = DirectSpec(pattern, connected_orders(pattern)[0],
                          restrictions=restrictions)
        expected = reference.count_embeddings(small_random_graph, pattern)
        assert count_with(spec, small_random_graph) == expected

    @pytest.mark.parametrize("pattern", [
        catalog.chain(3), catalog.cycle(4), catalog.diamond(),
    ])
    def test_vertex_induced_count(self, pattern, small_random_graph):
        spec = DirectSpec(pattern, connected_orders(pattern)[0], induced=True)
        expected = reference.count_embeddings(
            small_random_graph, pattern, induced=True
        )
        assert count_with(spec, small_random_graph) == expected

    def test_every_connected_order_agrees(self, small_random_graph):
        pattern = catalog.tailed_triangle()
        expected = reference.count_embeddings(small_random_graph, pattern)
        for order in connected_orders(pattern):
            spec = DirectSpec(pattern, order)
            assert count_with(spec, small_random_graph) == expected

    def test_invalid_order_rejected(self):
        with pytest.raises(CompilationError):
            DirectSpec(catalog.chain(3), (0, 0, 1))

    def test_labeled_direct_count(self, labeled_graph):
        from repro.patterns.pattern import Pattern

        pattern = Pattern(2, [(0, 1)], labels=[0, 1])
        spec = DirectSpec(pattern, (0, 1))
        expected = reference.count_embeddings(labeled_graph, pattern)
        assert count_with(spec, labeled_graph) == expected


class TestDecompositionPlans:
    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_all_patterns_all_decompositions(self, size, small_random_graph):
        for pattern in all_connected_patterns(size):
            expected = reference.count_embeddings(small_random_graph, pattern)
            for which in range(len(all_decompositions(pattern))):
                spec = first_decomp_spec(pattern, which)
                assert count_with(spec, small_random_graph) == expected, (
                    f"{pattern.name} decomposition {which}"
                )

    def test_all_extension_orders_agree(self, small_random_graph):
        pattern = catalog.house()
        expected = reference.count_embeddings(small_random_graph, pattern)
        deco = all_decompositions(pattern)[0]
        for ext0 in extension_orders(
            pattern, deco.cutting_set, deco.subpatterns[0].component
        ):
            for ext1 in extension_orders(
                pattern, deco.cutting_set, deco.subpatterns[1].component
            ):
                spec = DecompSpec(deco, deco.cutting_set, (ext0, ext1))
                assert count_with(spec, small_random_graph) == expected

    def test_all_vc_orders_agree(self, small_random_graph):
        import itertools

        pattern = catalog.cycle(5)
        expected = reference.count_embeddings(small_random_graph, pattern)
        deco = all_decompositions(pattern)[0]
        ext = tuple(
            extension_orders(pattern, deco.cutting_set, s.component)[0]
            for s in deco.subpatterns
        )
        for vc_order in itertools.permutations(deco.cutting_set):
            spec = DecompSpec(deco, vc_order, ext)
            assert count_with(spec, small_random_graph) == expected

    def test_labeled_decomposition(self, labeled_graph):
        from repro.patterns.pattern import Pattern

        pattern = Pattern(3, [(0, 1), (1, 2)], labels=[0, 1, 0])
        expected = reference.count_embeddings(labeled_graph, pattern)
        spec = first_decomp_spec(pattern)
        assert count_with(spec, labeled_graph) == expected

    def test_ifpositive_guards_present(self):
        spec = first_decomp_spec(catalog.chain(4))
        root, _ = build_ast(spec, "count")
        guards = [n for n in walk(root) if isinstance(n, IfPositive)]
        assert len(guards) >= 2  # one per subpattern

    def test_spec_validation(self):
        deco = all_decompositions(catalog.chain(4))[0]
        good_ext = tuple(
            extension_orders(catalog.chain(4), deco.cutting_set, s.component)[0]
            for s in deco.subpatterns
        )
        with pytest.raises(CompilationError):
            DecompSpec(deco, (9,), good_ext)
        with pytest.raises(CompilationError):
            DecompSpec(deco, deco.cutting_set, good_ext[:-1])
        with pytest.raises(CompilationError):
            DecompSpec(deco, deco.cutting_set, good_ext, plr_k=17)


class TestEmitMode:
    def test_partial_embedding_counts_exact(self, small_random_graph):
        """Each delivered pe carries the exact number of whole embeddings
        extending it (verified by grouping oracle assignments)."""
        pattern = catalog.house()
        spec = first_decomp_spec(pattern)
        root, info = build_ast(spec, "emit")
        got: dict = defaultdict(int)

        def emit(index, vertices, count):
            got[(index, vertices)] += count

        ctx = ExecutionContext(root.num_tables, emit=emit)
        run_interpreter(root, small_random_graph, ctx)

        want: dict = defaultdict(int)

        def oracle(assignment):
            for index, layout in enumerate(info.emit_layouts):
                want[(index, tuple(assignment[v] for v in layout))] += 1

        reference.enumerate_embeddings(
            small_random_graph, pattern, callback=oracle
        )
        assert dict(got) == dict(want)

    def test_completeness_property(self, small_random_graph):
        """Section 4.2: all partial embeddings of a delivered subpattern
        are delivered (no subset is silently dropped)."""
        pattern = catalog.chain(4)
        spec = first_decomp_spec(pattern)
        root, info = build_ast(spec, "emit")
        delivered: set = set()

        def emit(index, vertices, count):
            if count > 0:
                delivered.add((index, vertices))

        ctx = ExecutionContext(root.num_tables, emit=emit)
        run_interpreter(root, small_random_graph, ctx)
        expected: set = set()

        def oracle(assignment):
            for index, layout in enumerate(info.emit_layouts):
                expected.add((index, tuple(assignment[v] for v in layout)))

        reference.enumerate_embeddings(
            small_random_graph, pattern, callback=oracle
        )
        assert delivered == expected

    def test_emit_tables_created(self):
        spec = first_decomp_spec(catalog.chain(4))
        root, _ = build_ast(spec, "emit")
        assert root.num_tables == 2
        assert any(isinstance(n, HashAdd) for n in walk(root))

    def test_count_mode_has_no_emit(self):
        spec = first_decomp_spec(catalog.chain(4))
        root, _ = build_ast(spec, "count")
        assert not any(isinstance(n, EmitPartial) for n in walk(root))
        assert root.num_tables == 0


class TestConstraintsInBuild:
    def test_constraint_must_fit(self):
        pattern = catalog.figure6_pattern()
        deco = all_decompositions(pattern)[0]
        ext = tuple(
            extension_orders(pattern, deco.cutting_set, s.component)[0]
            for s in deco.subpatterns
        )
        # A constraint over all 5 vertices fits no subpattern.
        spec = DecompSpec(
            deco, deco.cutting_set, ext,
            constraints=(Constraint(0, (0, 1, 2, 3, 4)),),
        )
        with pytest.raises(CompilationError):
            build_ast(spec, "count")
        with pytest.raises(CompilationError):
            build_skeleton(spec, "count")

    def test_constrained_direct_count(self, small_random_graph):
        pattern = catalog.chain(3)
        spec = DirectSpec(
            pattern, (1, 0, 2), constraints=(Constraint(0, (0, 2)),),
        )
        root, info = build_ast(spec, "count")
        pred = lambda a, b: a < b
        ctx = ExecutionContext(root.num_tables, predicates=[pred])
        raw = run_interpreter(root, small_random_graph, ctx)[COUNT_ACC]
        expected = 0
        for a in reference._assignments(small_random_graph, pattern, False):
            if a[0] < a[2]:
                expected += 1
        assert raw == expected


def _preorder(root):
    """The nodes below ``root`` in pre-order, each without its body."""
    return [replace(node, body=[]) if hasattr(node, "body") else node
            for node in list(walk(root))[1:]]


class TestSkeleton:
    """``build_skeleton`` lowers the first nodes of ``build_ast``'s tree,
    which is what lets the search bound a candidate on its skeleton."""

    @pytest.mark.parametrize("mode", ["count", "emit"])
    @pytest.mark.parametrize("pattern", [
        catalog.house(), catalog.bowtie(), catalog.figure6_pattern(),
        catalog.chain(5), catalog.cycle(6), catalog.star(4),
    ], ids=lambda p: p.name)
    def test_skeleton_is_a_preorder_prefix(self, pattern, mode):
        for which, deco in enumerate(all_decompositions(pattern)):
            for plr_k in range(len(deco.cutting_set) + 1):
                spec = first_decomp_spec(pattern, which, plr_k)
                skeleton = _preorder(build_skeleton(spec, mode))
                full = _preorder(build_ast(spec, mode)[0])
                assert skeleton == full[: len(skeleton)]
                assert len(skeleton) < len(full)
                # It ends in the first extension vertex's candidate set,
                # inside every cutting-set loop.
                assert isinstance(skeleton[-1], SetOp)
                loops = [n for n in skeleton if isinstance(n, Loop)]
                assert [loop.meta.role for loop in loops] == (
                    ["vc"] * len(deco.cutting_set))

    def test_constrained_skeleton_is_a_preorder_prefix(self):
        pattern = catalog.house()
        deco = all_decompositions(pattern)[0]
        vc = deco.cutting_set
        component = deco.subpatterns[0].component
        spec = replace(
            first_decomp_spec(pattern),
            constraints=(Constraint(0, (vc[0], vc[1])),
                         Constraint(1, (vc[0], component[0]))),
        )
        skeleton = _preorder(build_skeleton(spec))
        full = _preorder(build_ast(spec)[0])
        assert skeleton == full[: len(skeleton)]
        assert any(isinstance(node, IfPred) for node in skeleton)
