"""Edge-induced ↔ vertex-induced count conversion.

Pattern decomposition counts *edge-induced* embeddings, but motif counting
(and pseudo-clique counting) is defined over *vertex-induced* embeddings.
The two are linearly related (paper Figure 4):

    EI(p) = Σ_H  N(p → H) · VI(H)

where ``H`` ranges over the patterns on the same number of vertices that
contain ``p`` as a spanning subgraph, and ``N(p → H)`` counts the spanning
subgraphs of ``H`` isomorphic to ``p``.  The figure's example is the row
``EI(3-chain) = VI(3-chain) + 3 · VI(triangle)``.

The matrix is unitriangular when patterns are ordered by edge count, so the
system inverts exactly over the integers.
"""

from __future__ import annotations

from functools import lru_cache

from repro.patterns.generation import all_connected_patterns
from repro.patterns.isomorphism import canonical_code, canonical_form
from repro.patterns.pattern import Pattern

__all__ = [
    "spanning_subgraph_count",
    "conversion_matrix",
    "vertex_induced_from_edge_induced",
    "edge_induced_requirements",
]


@lru_cache(maxsize=None)
def spanning_subgraph_count(p: Pattern, host: Pattern) -> int:
    """Number of spanning (all-vertex) subgraphs of ``host`` isomorphic to
    ``p``.

    Computed as the number of injective homomorphisms ``p -> host``
    divided by ``|Aut(p)|`` — each qualifying edge subset hosts exactly
    ``|Aut(p)|`` of them.  (Both patterns have the same vertex count, so
    every injective hom is spanning.)  Enormously faster than enumerating
    edge subsets for dense hosts.  Labels, when present, must match under
    the homomorphism.
    """
    if p.n != host.n or p.num_edges > host.num_edges:
        return 0
    homs = _pattern_homomorphisms(p, host)
    from repro.patterns.isomorphism import automorphism_count

    assert homs % automorphism_count(p) == 0
    return homs // automorphism_count(p)


def _pattern_homomorphisms(p: Pattern, host: Pattern) -> int:
    """Injective edge-preserving maps ``p -> host`` (labels respected)."""
    order = sorted(range(p.n), key=lambda v: -p.degree(v))
    mapping: dict[int, int] = {}

    def backtrack(position: int) -> int:
        if position == p.n:
            return 1
        v = order[position]
        total = 0
        want = p.label_of(v)
        for candidate in range(host.n):
            if candidate in mapping.values():
                continue
            if want is not None and host.label_of(candidate) != want:
                continue
            ok = True
            for w in p.neighbors(v):
                if w in mapping and not host.has_edge(mapping[w], candidate):
                    ok = False
                    break
            if ok:
                mapping[v] = candidate
                total += backtrack(position + 1)
                del mapping[v]
        return total

    return backtrack(0)


@lru_cache(maxsize=None)
def conversion_matrix(k: int) -> tuple[tuple[Pattern, ...], tuple[tuple[int, ...], ...]]:
    """Patterns of size ``k`` (edge-count order) and the EI-from-VI matrix.

    Returns ``(patterns, A)`` with ``EI[i] = Σ_j A[i][j] · VI[j]``;
    ``A`` is upper-unitriangular in this ordering.
    """
    patterns = all_connected_patterns(k)
    matrix = []
    for p in patterns:
        row = []
        for host in patterns:
            row.append(spanning_subgraph_count(p, host))
        matrix.append(tuple(row))
    return patterns, tuple(matrix)


def edge_induced_requirements(pattern: Pattern) -> list[tuple[Pattern, int]]:
    """The edge-induced counts needed to derive one vertex-induced count.

    Returns ``[(host_pattern, coefficient), ...]`` such that
    ``VI(pattern) = Σ coefficient · EI(host)``.

    Only the *upward closure* of the pattern (its same-vertex supergraphs,
    found by repeatedly adding one edge) is visited — never the full
    size-n pattern universe, which explodes combinatorially for n >= 7
    (e.g. the 7-pseudo-clique only needs the 7-clique and itself, not all
    853 connected size-7 patterns).
    """
    if not pattern.is_connected:
        raise ValueError(f"{pattern!r} must be a connected pattern")
    base = canonical_form(pattern)
    closure = _upward_closure(base)
    memo: dict[tuple, dict[tuple, int]] = {}
    expansion = _expand_vi_closure(base, closure, memo)
    return [
        (closure[code], coeff)
        for code, coeff in sorted(expansion.items(), key=repr)
        if coeff
    ]


@lru_cache(maxsize=None)
def _upward_closure(pattern: Pattern) -> "dict[tuple, Pattern]":
    """Canonical representatives of all same-vertex supergraphs."""
    closure: dict[tuple, Pattern] = {canonical_code(pattern): pattern}
    frontier = [pattern]
    while frontier:
        current = frontier.pop()
        for u in range(current.n):
            for v in range(u + 1, current.n):
                if current.has_edge(u, v):
                    continue
                bigger = canonical_form(current.with_edge(u, v))
                code = canonical_code(bigger)
                if code not in closure:
                    closure[code] = bigger
                    frontier.append(bigger)
    return closure


def _expand_vi_closure(pattern, closure, memo) -> dict[tuple, int]:
    """VI(pattern) as an integer combination of EI over the closure.

    VI(p) = EI(p) − Σ_{H ⊋ p} N(p→H) · VI(H); the recursion terminates
    because every step strictly increases the edge count.
    """
    code = canonical_code(pattern)
    if code in memo:
        return memo[code]
    result: dict[tuple, int] = {code: 1}
    for host_code, host in closure.items():
        if host_code == code or host.num_edges <= pattern.num_edges:
            continue
        coefficient = spanning_subgraph_count(pattern, host)
        if coefficient == 0:
            continue
        inner = _expand_vi_closure(host, closure, memo)
        for key, value in inner.items():
            result[key] = result.get(key, 0) - coefficient * value
    memo[code] = result
    return result


def vertex_induced_from_edge_induced(
    k: int, edge_induced_counts: dict[Pattern, int]
) -> dict[Pattern, int]:
    """Convert a full size-``k`` edge-induced census to vertex-induced.

    ``edge_induced_counts`` must be keyed by the canonical patterns from
    :func:`all_connected_patterns`.
    """
    patterns, matrix = conversion_matrix(k)
    ei = [edge_induced_counts[p] for p in patterns]
    # Back-substitute: order by descending edge count; A[i][j] != 0 implies
    # edges(j) >= edges(i), and A[i][i] == 1.
    vi = [0] * len(patterns)
    order = sorted(range(len(patterns)), key=lambda i: -patterns[i].num_edges)
    for i in order:
        total = ei[i]
        for j in range(len(patterns)):
            if j != i and matrix[i][j]:
                total -= matrix[i][j] * vi[j]
        vi[i] = total
    return {patterns[i]: vi[i] for i in range(len(patterns))}
