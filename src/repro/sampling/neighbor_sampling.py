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
the trial multiplies the same sizes.

The trial's random choices are the numbers ``Generator.integers(0, k)``
of ``np.random.default_rng(seed)`` would draw, in the same order, but
read in bulk: :func:`_drawer` reads the PCG64 stream 512 words at a time
and reduces each number to its range in Python, exactly as numpy does,
instead of paying numpy's per-call overhead for every draw.  Every
estimate is therefore unchanged to the bit.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.patterns.matching_order import greedy_extension_order
from repro.patterns.pattern import Pattern

__all__ = ["estimate_injective_homomorphisms"]


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
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
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
    draw = _drawer(seed)
    total = 0.0
    for _ in range(trials):
        total += _one_trial(adjacency, rows, steps, draw, n)
    return total / trials


def _drawer(seed: int):
    """``draw(k)``: what ``Generator.integers(0, k)`` returns for ``k``
    from 1 to ``2**32 - 1``, call after call, on ``default_rng(seed)``.

    numpy serves such a range from 32-bit halves of PCG64's 64-bit
    words, the low half first, keeping the high half for the next draw.
    It reduces a half ``x`` to ``[0, k)`` by Lemire's method: the high
    word of ``x * k``, unless the low word falls below
    ``(2**32 - k) % k``, in which case it takes the next half.  A range
    of one value draws nothing.  Larger ranges take another path in
    numpy, so they raise ``ValueError`` here.
    """
    bits = np.random.default_rng(seed).bit_generator

    def halves():
        while True:
            words = bits.random_raw(512)
            split = np.empty(1024, dtype=np.uint64)
            split[0::2] = words & 0xFFFFFFFF
            split[1::2] = words >> 32
            yield from split.tolist()

    half = halves().__next__

    def draw(k: int) -> int:
        if k == 1:
            return 0
        if not 1 < k < 0x100000000:
            raise ValueError(f"draw range {k} is not in [1, 2**32)")
        m = half() * k
        if m & 0xFFFFFFFF < k:
            threshold = (0x100000000 - k) % k
            while m & 0xFFFFFFFF < threshold:
                m = half() * k
        return m >> 32

    return draw


def _one_trial(adjacency, rows, steps, draw, n) -> float:
    """One sequential-importance-sampling trial: its weight, or 0.0.

    ``rows`` caches each row's members as a set, for the intersections.
    """
    chosen = [draw(n)]
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
        chosen.append(candidates[draw(len(candidates))])
    return weight
