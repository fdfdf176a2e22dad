"""Neighbor-sampling pattern-count estimation (ASAP-style, paper §6.2).

Estimates the number of injective homomorphisms of a small pattern by
sequential importance sampling: grow a random embedding one vertex at a
time along a connected matching order, tracking the inverse of its
selection probability.  Each trial's weight — the product of candidate-set
sizes along the way (times ``n`` for the seed vertex) — is an unbiased
estimate of the injective homomorphism count; trials are averaged.

As the paper observes, the estimator is accurate for frequent patterns
(many successful trials) and underestimates rare ones — exactly the right
trade-off for a cost model, where frequent patterns drive the loops that
dominate execution time.

Trials run over an adjacency-list view of the sample graph
(:meth:`~repro.graph.csr.CSRGraph.adjacency_lists`, Python lists built
once per graph) rather than over numpy rows: a trial touches a handful
of short rows, where numpy's per-call overhead is most of the cost.  The
candidate sets are the same sorted lists the array kernels produced, and
the trial makes the same ``rng.integers`` draws in the same order and
multiplies the same sizes, so every estimate is unchanged to the bit.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.patterns.matching_order import greedy_extension_order
from repro.patterns.pattern import Pattern

__all__ = ["estimate_injective_homomorphisms", "estimate_many"]


def _sampling_order(pattern: Pattern) -> tuple[int, ...]:
    first = max(range(pattern.n), key=pattern.degree)
    rest = [v for v in range(pattern.n) if v != first]
    if not rest:
        return (first,)
    return (first,) + greedy_extension_order(pattern, [first], rest)


def estimate_injective_homomorphisms(
    graph: CSRGraph,
    pattern: Pattern,
    trials: int = 400,
    seed: int = 0,
) -> float:
    """Unbiased estimate of ``inj(pattern, graph)`` via neighbor sampling."""
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    if n == 0:
        return 0.0
    if pattern.n == 1:
        return float(n)
    order = _sampling_order(pattern)
    # For each vertex after the first: the position in ``order`` of one
    # matched pattern neighbour (whose row is scanned) and of the others
    # (whose rows the candidates must also lie in).
    steps = []
    for i, v in enumerate(order[1:], start=1):
        anchors = [order.index(w) for w in pattern.neighbors(v)
                   if w in order[:i]]
        assert anchors, "sampling order must be connected"
        steps.append((anchors[0], tuple(anchors[1:])))
    adjacency = graph.adjacency_lists()
    rows: dict[int, frozenset] = {}
    total = 0.0
    for _ in range(trials):
        total += _one_trial(adjacency, rows, steps, rng.integers, n)
    return total / trials


def _one_trial(adjacency, rows, steps, draw, n) -> float:
    """One sequential-importance-sampling trial: its weight, or 0.0.

    ``rows`` caches each row's members as a set, for the intersections.
    """
    chosen = [int(draw(0, n))]
    weight = float(n)
    for first, others in steps:
        candidates = [x for x in adjacency[chosen[first]] if x not in chosen]
        for position in others:
            vertex = chosen[position]
            members = rows.get(vertex)
            if members is None:
                members = rows[vertex] = frozenset(adjacency[vertex])
            candidates = [x for x in candidates if x in members]
        if not candidates:
            return 0.0
        weight *= len(candidates)
        chosen.append(candidates[draw(0, len(candidates))])
    return weight


def estimate_many(
    graph: CSRGraph,
    patterns,
    trials: int = 400,
    seed: int = 0,
) -> dict[Pattern, float]:
    """Estimate all ``patterns`` (each with an independent trial budget)."""
    return {
        pattern: estimate_injective_homomorphisms(
            graph, pattern, trials=trials, seed=seed + index
        )
        for index, pattern in enumerate(patterns)
    }
