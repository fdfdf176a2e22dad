"""Unit tests for graph orientation (repro.graph.transform) and the
compiler's adjacency-rewriting pass (passes/orient.py).

The differential suite proves oriented executions count correctly; the
tests here pin the contracts those proofs rest on: the relabeling is an
exact isomorphism, the oriented views honor the identity-stable contract
the set-op cache keys by, the out-degree bounds hold, the pass rewrites
exactly the guarded chains and falls back soundly on misaligned
restrictions, and the engine refuses the combinations that would leak
relabeled vertex ids.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.compiler.ast_nodes import Accumulate, Loop, Root, ScalarOp, SetOp
from repro.compiler.passes.orient import orient_adjacency
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.costmodel.profiler import CostProfile
from repro.exceptions import CompilationError, ExecutionError
from repro.graph.generators import power_law
from repro.graph.transform import (
    ORIENTATIONS,
    OrientedGraph,
    degeneracy_order,
    degree_order,
    orient,
    reorder,
)
from repro.patterns import catalog
from repro.runtime.engine import (
    EngineOptions,
    _plan_ranges,
    chunk_ranges,
    execute_plan,
)


@pytest.fixture(scope="module")
def graph():
    return power_law(60, avg_degree=6.0, exponent=2.1, seed=11)


# ----------------------------------------------------------------------
# Reordering / relabeling
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ORIENTATIONS)
def test_reordering_round_trips(graph, mode):
    relabeled, mapping = reorder(graph, mode)
    n = graph.num_vertices
    assert relabeled.num_vertices == n
    assert relabeled.num_edges == graph.num_edges
    # order and old_to_new are mutually inverse permutations.
    assert sorted(mapping.order.tolist()) == list(range(n))
    for old in range(n):
        assert mapping.to_old(mapping.to_new(old)) == old
    # Adjacency is preserved exactly under the relabeling.
    for old in range(n):
        new = mapping.to_new(old)
        expected = sorted(
            mapping.to_new(u) for u in graph.neighbors(old).tolist()
        )
        assert relabeled.neighbors(new).tolist() == expected


def test_degree_order_is_degree_ascending(graph):
    order = degree_order(graph)
    degrees = graph.degrees[order]
    assert np.all(np.diff(degrees) >= 0)


def test_degeneracy_order_is_deterministic(graph):
    first = degeneracy_order(graph)
    second = degeneracy_order(graph)
    assert np.array_equal(first, second)


# ----------------------------------------------------------------------
# Oriented views
# ----------------------------------------------------------------------
def test_oriented_views_partition_rows(graph):
    oriented = orient(graph, "degeneracy")
    assert isinstance(oriented, OrientedGraph)
    for v in range(oriented.num_vertices):
        out = oriented.out_neighbors(v)
        into = oriented.in_neighbors(v)
        assert np.all(out > v)
        assert np.all(into < v)
        whole = np.concatenate([into, out])
        assert np.array_equal(whole, oriented.neighbors(v))
    assert int(oriented.out_degrees.sum()) == graph.num_edges


def test_oriented_views_are_identity_stable(graph):
    """Same array object per vertex — the SetOpCache keys by operand id."""
    oriented = orient(graph, "degree")
    for v in (0, 7, oriented.num_vertices - 1):
        assert oriented.out_neighbors(v) is oriented.out_neighbors(v)
        assert oriented.in_neighbors(v) is oriented.in_neighbors(v)
        assert not oriented.out_neighbors(v).flags.writeable


def test_out_degree_bounds(graph):
    by_degree = orient(graph, "degree")
    by_degeneracy = orient(graph, "degeneracy")
    # Degree orientation: each out-neighbor has degree >= the source's,
    # so out-degree <= sqrt(2m).  Degeneracy minimizes the max bound
    # over all orderings, so it can never do worse than degree order.
    assert by_degree.max_out_degree <= math.isqrt(2 * graph.num_edges) + 1
    assert by_degeneracy.max_out_degree <= by_degree.max_out_degree


def test_oriented_view_reports_its_own_max_out_degree(graph):
    """The base graph's cached max degree never stands in for the
    oriented view's out-degrees; relabeling keeps the max degree."""
    assert graph.max_degree == int(graph.degrees.max())
    oriented = orient(graph, "degree")
    assert oriented.max_out_degree == int(oriented.out_degrees.max())
    assert oriented.max_out_degree < graph.max_degree
    assert oriented.max_degree == graph.max_degree


def test_orient_is_memoized(graph):
    assert orient(graph, "none") is graph
    once = orient(graph, "degeneracy")
    assert orient(graph, "degeneracy") is once
    assert orient(once, "degeneracy") is once
    with pytest.raises(ValueError):
        orient(graph, "bogus")


# ----------------------------------------------------------------------
# The orient pass
# ----------------------------------------------------------------------
def _triangle_root() -> Root:
    """Hand-built fully-restricted triangle nest (v0 < v1 < v2)."""
    inner = [
        SetOp("s3", "neighbors", ("v1",)),
        SetOp("s4", "intersect", ("s2", "s3")),
        SetOp("s5", "trim_above", ("s4", "v1")),
        ScalarOp("c0", "size", ("s5",)),
        Accumulate("acc_count", "c0"),
    ]
    body = [
        SetOp("s0", "universe", ()),
        Loop("v0", "s0", [
            SetOp("s1", "neighbors", ("v0",)),
            SetOp("s2", "trim_above", ("s1", "v0")),
            Loop("v1", "s2", inner),
        ]),
    ]
    return Root(body, accumulators=("acc_count",))


def test_pass_rewrites_aligned_restrictions():
    root = _triangle_root()
    stats = orient_adjacency(root)
    assert stats.rewritten == 2
    assert stats.trims_elided == 2
    assert stats.fallbacks == 0
    from repro.compiler.ast_nodes import walk

    ops = [n.op for n in walk(root) if isinstance(n, SetOp)]
    assert "neighbors" not in ops
    assert "trim_above" not in ops
    assert ops.count("oriented") == 2


def test_pass_falls_back_on_misaligned_restriction():
    """A restriction disagreeing with the rank surfaces as trim_below;
    the chain must keep plain adjacency and be counted as a fallback."""
    body = [
        SetOp("s0", "universe", ()),
        Loop("v0", "s0", [
            SetOp("s1", "neighbors", ("v0",)),
            SetOp("s2", "trim_below", ("s1", "v0")),
            ScalarOp("c0", "size", ("s2",)),
            Accumulate("acc_count", "c0"),
        ]),
    ]
    stats = orient_adjacency(Root(body, accumulators=("acc_count",)))
    assert stats.rewritten == 0
    assert stats.fallbacks == 1
    assert body[1].body[0].op == "neighbors"


def test_pass_keeps_unguarded_loop_sources():
    """A set consumed by a loop without any trim exposes every element;
    the pass must leave its adjacency untouched."""
    body = [
        SetOp("s0", "universe", ()),
        Loop("v0", "s0", [
            SetOp("s1", "neighbors", ("v0",)),
            Loop("v1", "s1", [Accumulate("acc_count", 1)]),
        ]),
    ]
    stats = orient_adjacency(Root(body, accumulators=("acc_count",)))
    assert stats.rewritten == 0
    assert body[1].body[0].op == "neighbors"


def test_compile_pattern_rejects_oriented_non_count(graph):
    profile = profile_graph(graph, max_pattern_size=3, trials=40)
    with pytest.raises(CompilationError):
        compile_pattern(
            catalog.triangle(), profile, mode="emit",
            orientation="degeneracy",
        )


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def test_engine_options_validate_orientation():
    with pytest.raises(ExecutionError):
        EngineOptions(orientation="sideways")


def test_weighted_ranges_cover_contiguously(graph):
    oriented = orient(graph, "degeneracy")
    for chunks in (1, 3, 8, 200):
        ranges = _plan_ranges(oriented, "degeneracy", chunks)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == graph.num_vertices
        for (_, stop), (start, _) in zip(ranges, ranges[1:]):
            assert stop == start
    # Unoriented planning keeps the historic even split exactly.
    assert _plan_ranges(graph, "none", 4) == chunk_ranges(
        graph.num_vertices, 4
    )


def test_engine_rejects_conflicting_orientations(graph):
    profile = profile_graph(graph, max_pattern_size=3, trials=40)
    plan = compile_pattern(catalog.triangle(), profile,
                           orientation="degeneracy")
    with pytest.raises(ExecutionError):
        execute_plan(plan, graph, options=EngineOptions(orientation="degree"))
    # The matching orientation (and "none" in the options) both run.
    a = execute_plan(plan, graph,
                     options=EngineOptions(orientation="degeneracy"))
    b = execute_plan(plan, graph, options=EngineOptions())
    assert a.embedding_count == b.embedding_count


def test_session_strips_orientation_for_emit_and_constraints(graph):
    """mine() and count_with_constraints observe original vertex ids, so
    an oriented session must transparently run them unoriented."""
    from repro.api.session import DecoMine

    plain = DecoMine(graph, engine=EngineOptions())
    oriented = DecoMine(graph, engine=EngineOptions(orientation="degeneracy"))
    pattern = catalog.triangle()

    seen_plain: list = []
    seen_oriented: list = []
    plain.mine(pattern, lambda pe: seen_plain.append(pe.graph_vertices))
    oriented.mine(pattern,
                  lambda pe: seen_oriented.append(pe.graph_vertices))
    assert sorted(seen_plain) == sorted(seen_oriented)

    constraint = (lambda a, b, c: a < b < c, (0, 1, 2))
    assert plain.count_with_constraints(pattern, [constraint]) == \
        oriented.count_with_constraints(pattern, [constraint])


def test_session_profile_gains_orientation_stats(graph):
    from repro.api.session import DecoMine

    session = DecoMine(graph, engine=EngineOptions(orientation="degeneracy"))
    session.get_pattern_count(catalog.triangle())
    assert session.profile.orientation == "degeneracy"
    assert session.profile.avg_out_degree > 0.0
    assert (
        session.profile.max_out_degree
        == orient(graph, "degeneracy").max_out_degree
    )


def test_oriented_degree_fallback():
    profile = CostProfile(
        num_vertices=10, num_edges=20, avg_degree=4.0, p=0.4,
        p_local=0.5, alpha=8, label_fractions=None,
    )
    assert profile.oriented_degree() == pytest.approx(2.0)
    profile.avg_out_degree = 1.25
    assert profile.oriented_degree() == pytest.approx(1.25)


def test_cliques_agree_with_oriented_session(graph):
    from repro.api.session import DecoMine
    from repro.apps.cliques import count_cliques

    session = DecoMine(graph, engine=EngineOptions(orientation="degeneracy"))
    for k in (3, 4, 5):
        assert count_cliques(graph, k) == session.get_pattern_count(
            catalog.clique(k)
        )
