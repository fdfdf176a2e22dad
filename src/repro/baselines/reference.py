"""Brute-force reference enumerator.

The correctness oracle for the whole repository: a direct backtracking
subgraph matcher with no compilation, no decomposition and no cleverness.
Every sophisticated counter in the library is property-tested against this
module on random graphs.

Semantics:

* ``count_embeddings(..., induced=False)`` — edge-induced embeddings
  (subgraphs isomorphic to the pattern), the default GPM semantics and the
  one pattern decomposition assumes.
* ``count_embeddings(..., induced=True)`` — vertex-induced embeddings.
* Labeled patterns match only vertices with equal labels.
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.graph.csr import CSRGraph
from repro.patterns.isomorphism import automorphism_count
from repro.patterns.matching_order import greedy_extension_order
from repro.patterns.pattern import Pattern

__all__ = [
    "count_injective_homomorphisms",
    "count_embeddings",
    "enumerate_embeddings",
]


def _matching_order(pattern: Pattern) -> tuple[int, ...]:
    if pattern.n == 1:
        return (0,)
    first = max(range(pattern.n), key=pattern.degree)
    rest = [v for v in range(pattern.n) if v != first]
    return (first,) + greedy_extension_order(pattern, [first], rest)


def _assignments(
    graph: CSRGraph, pattern: Pattern, induced: bool
) -> Iterator[tuple[int, ...]]:
    """Yield injective maps pattern->graph preserving edges (and, when
    ``induced``, non-edges), as tuples indexed by pattern vertex.

    Rows are read as Python lists and edge tests are set lookups (each
    row's set is built the first time it is probed): the graph's
    ``has_edge`` costs a numpy call per test, which made up most of a
    brute-force count.
    """
    order = _matching_order(pattern)
    mapping: dict[int, int] = {}
    rows = graph.adjacency_lists()
    row_sets: dict[int, frozenset] = {}

    def candidates(v: int) -> list[int]:
        """Every image of ``v`` consistent with the current ``mapping``."""
        matched_neighbors = [w for w in pattern.neighbors(v) if w in mapping]
        if matched_neighbors:
            source = rows[mapping[matched_neighbors[0]]]
        else:
            source = range(graph.num_vertices)
        used = set(mapping.values())
        want = pattern.label_of(v)
        # Images ``g`` must be adjacent to, and (induced) must not be.
        adjacent = frozenset(mapping[w] for w in matched_neighbors[1:])
        apart = frozenset(gw for w, gw in mapping.items()
                          if induced and not pattern.has_edge(v, w))
        images = []
        for g in source:
            if g in used:
                continue
            if want is not None and graph.label_of(g) != want:
                continue
            if adjacent or apart:
                members = row_sets.get(g)
                if members is None:
                    members = row_sets[g] = frozenset(rows[g])
                if not (members >= adjacent and members.isdisjoint(apart)):
                    continue
            images.append(g)
        return images

    # Backtracking over an explicit stack of candidate iterators, one per
    # matched depth, so each assignment is one resume away from the caller.
    last = len(order) - 1
    stack = [iter(candidates(order[0]))]
    while stack:
        depth = len(stack) - 1
        v = order[depth]
        g = next(stack[-1], None)
        if g is None:
            stack.pop()
            mapping.pop(v, None)
        elif depth == last:
            mapping[v] = g
            yield tuple(mapping[u] for u in range(pattern.n))
        else:
            mapping[v] = g
            stack.append(iter(candidates(order[depth + 1])))


def count_injective_homomorphisms(
    graph: CSRGraph, pattern: Pattern, induced: bool = False
) -> int:
    """Number of injective (non-)induced homomorphisms pattern -> graph."""
    return sum(1 for _ in _assignments(graph, pattern, induced))


def count_embeddings(
    graph: CSRGraph, pattern: Pattern, induced: bool = False
) -> int:
    """Number of distinct embeddings: injective homs / |Aut(pattern)|."""
    total = count_injective_homomorphisms(graph, pattern, induced)
    aut = automorphism_count(pattern)
    assert total % aut == 0, "injective hom count must divide evenly"
    return total // aut


def enumerate_embeddings(
    graph: CSRGraph,
    pattern: Pattern,
    induced: bool = False,
    callback: Callable[[tuple[int, ...]], None] | None = None,
) -> set | None:
    """Collect distinct embeddings, or stream raw assignments to ``callback``.

    When collecting, the identity of a vertex-induced embedding is its
    vertex set; an edge-induced embedding is identified by its image edge
    set (several distinct subgraphs may share one vertex set — e.g. the
    three 3-chains inside a triangle).  When streaming, every automorphic
    variant of every embedding is passed to ``callback``.
    """
    if callback is not None:
        for assignment in _assignments(graph, pattern, induced):
            callback(assignment)
        return None
    if induced:
        return {
            frozenset(assignment)
            for assignment in _assignments(graph, pattern, induced)
        }
    embeddings = set()
    for assignment in _assignments(graph, pattern, induced):
        edges = frozenset(
            (min(assignment[u], assignment[v]), max(assignment[u], assignment[v]))
            for u, v in pattern.edge_set
        )
        embeddings.add(edges)
    return embeddings
