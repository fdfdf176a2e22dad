"""Small pattern graphs.

A :class:`Pattern` is the user-facing description of what to mine: a tiny
undirected graph (a handful of vertices) with optional vertex labels.
Patterns are immutable and hashable; structural equality is exact (same
vertex numbering), while isomorphism-aware comparison lives in
:mod:`repro.patterns.isomorphism`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

from repro.exceptions import PatternError

__all__ = ["Pattern"]

#: Patterns beyond this size make the 2^n cutting-set search and the
#: permutation-based canonicalization impractical; the paper's largest
#: evaluated pattern has 8 vertices (8-cycle).
MAX_PATTERN_SIZE = 10


def _check_size(num_vertices: int) -> None:
    if not 1 <= num_vertices <= MAX_PATTERN_SIZE:
        raise PatternError(
            f"pattern size {num_vertices} outside [1, {MAX_PATTERN_SIZE}]"
        )


class Pattern:
    """An immutable small undirected graph, optionally vertex-labeled.

    Parameters
    ----------
    num_vertices:
        Number of pattern vertices, numbered ``0..n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops are rejected; duplicates
        are collapsed.
    labels:
        Optional sequence of ``n`` non-negative label ids.
    name:
        Optional human-readable name used in reports.
    """

    __slots__ = ("n", "edge_set", "labels", "name", "_adj", "__dict__")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[int] | None = None,
        name: str | None = None,
    ) -> None:
        _check_size(num_vertices)
        self.n = num_vertices
        normalized = set()
        for u, v in edges:
            if u == v:
                raise PatternError(f"self loop on pattern vertex {u}")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise PatternError(f"edge ({u}, {v}) out of range")
            normalized.add((min(u, v), max(u, v)))
        if labels is not None:
            if len(labels) != num_vertices:
                raise PatternError("labels length must equal num_vertices")
            labels = tuple(int(x) for x in labels)
        self._fill(frozenset(normalized), labels, name)

    @classmethod
    def _derived(
        cls,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        labels: tuple[int, ...] | None,
        name: str | None,
    ) -> "Pattern":
        """A pattern computed from a valid one, skipping the checks.

        ``edges`` are in-range ``(u, v)`` pairs with ``u != v``, each
        listed once, and ``labels`` is already a tuple of ints: the
        derivations below (vertex subsets and permutations of a valid
        pattern) guarantee both, so only the public constructor checks.
        """
        _check_size(num_vertices)
        pattern = object.__new__(cls)
        pattern.n = num_vertices
        pattern._fill(
            frozenset({(u, v) if u < v else (v, u) for u, v in edges}),
            labels, name,
        )
        return pattern

    def _fill(
        self,
        edge_set: frozenset,
        labels: tuple[int, ...] | None,
        name: str | None,
    ) -> None:
        self.edge_set = edge_set
        self.labels = labels
        self.name = name
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in edge_set:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.n

    @property
    def num_edges(self) -> int:
        return len(self.edge_set)

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted ``(u, v)`` pairs with ``u < v``."""
        return sorted(self.edge_set)

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set

    def label_of(self, v: int) -> int | None:
        return None if self.labels is None else self.labels[v]

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @cached_property
    def _connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for w in self._adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == self.n

    @property
    def is_connected(self) -> bool:
        return self._connected

    @property
    def is_clique(self) -> bool:
        return self.num_edges == self.n * (self.n - 1) // 2

    def connected_components(self, removed: Iterable[int] = ()) -> list[tuple[int, ...]]:
        """Connected components after removing ``removed`` vertices.

        Each component is a sorted tuple of original vertex ids.  This is
        the primitive the cutting-set search is built on.
        """
        removed_set = set(removed)
        remaining = [v for v in range(self.n) if v not in removed_set]
        seen: set[int] = set()
        components = []
        for start in remaining:
            if start in seen:
                continue
            component = []
            frontier = [start]
            seen.add(start)
            while frontier:
                v = frontier.pop()
                component.append(v)
                for w in self._adj[v]:
                    if w not in seen and w not in removed_set:
                        seen.add(w)
                        frontier.append(w)
            components.append(tuple(sorted(component)))
        return components

    def induced_subpattern(self, vertices: Sequence[int], name: str | None = None) -> "Pattern":
        """Induced subgraph on ``vertices``, relabeled to ``0..k-1``.

        Vertex ``i`` of the result corresponds to ``vertices[i]``.
        """
        index = {v: i for i, v in enumerate(vertices)}
        if len(index) != len(vertices):
            raise PatternError("duplicate vertices in induced_subpattern")
        edges = [
            (index[u], index[v])
            for u, v in self.edge_set
            if u in index and v in index
        ]
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[v] for v in vertices)
        return Pattern._derived(len(vertices), edges, labels, name)

    def with_edge(self, u: int, v: int) -> "Pattern":
        """A copy of this pattern with one extra edge."""
        return Pattern(self.n, list(self.edge_set) + [(u, v)],
                       labels=self.labels, name=self.name)

    def without_labels(self) -> "Pattern":
        """This pattern's unlabeled form (itself when already unlabeled)."""
        if self.labels is None:
            return self
        return Pattern(self.n, self.edge_set, labels=None, name=self.name)

    def relabeled(self, permutation: Sequence[int]) -> "Pattern":
        """Apply a vertex permutation: new vertex ``permutation[v]`` is old ``v``."""
        if sorted(permutation) != list(range(self.n)):
            raise PatternError(f"{permutation} is not a permutation of "
                               f"0..{self.n - 1}")
        edges = [(permutation[u], permutation[v]) for u, v in self.edge_set]
        labels = None
        if self.labels is not None:
            relabeled = [0] * self.n
            for old, new in enumerate(permutation):
                relabeled[new] = self.labels[old]
            labels = tuple(relabeled)
        return Pattern._derived(self.n, edges, labels, self.name)

    # ------------------------------------------------------------------
    # Hashing / equality (structural, not isomorphism)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self.n == other.n
            and self.edge_set == other.edge_set
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edge_set, self.labels))

    def __repr__(self) -> str:
        tag = self.name or "pattern"
        lab = f", labels={list(self.labels)}" if self.labels else ""
        return f"Pattern({tag!r}, n={self.n}, edges={self.edges()}{lab})"
