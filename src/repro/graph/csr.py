"""Immutable CSR graph used by every enumerator in the repository.

The graph is undirected and simple (no self loops, no duplicate edges —
:mod:`repro.graph.builder` enforces this, mirroring the preprocessing in the
paper's section 8.1).  Neighbor lists are sorted ``int64`` arrays so that the
vertex-set algebra of :mod:`repro.graph.vertex_set` applies directly.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.graph import vertex_set as vs

__all__ = ["CSRGraph"]


class CSRGraph:
    """Compressed-sparse-row undirected graph with optional vertex labels.

    Parameters
    ----------
    indptr, indices:
        Standard CSR arrays.  ``indices[indptr[v]:indptr[v+1]]`` is the
        sorted neighbor list of vertex ``v``.
    labels:
        Optional dense ``int64`` array mapping each vertex to a label id,
        for labeled mining workloads (FSM, label-constrained queries).
    name:
        Human-readable dataset name used in benchmark reports.
    """

    __slots__ = (
        "indptr", "indices", "labels", "name", "_label_index",
        "_neighbor_views", "_degrees", "_fingerprint", "_degree_prefix",
        "_oriented_cache", "shared_descriptor",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
        name: str = "graph",
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=vs.DTYPE)
        self.labels = (
            None if labels is None else np.ascontiguousarray(labels, dtype=np.int64)
        )
        self.name = name
        self._label_index: dict[int, np.ndarray] | None = None
        self._neighbor_views: list | None = None
        self._degrees: np.ndarray | None = None
        #: Content hash, filled in by
        #: :func:`repro.observe.ledger.graph_fingerprint`.
        self._fingerprint: str | None = None
        self._degree_prefix: np.ndarray | None = None
        self._oriented_cache: dict | None = None
        #: Set by :mod:`repro.graph.shared` when this CSR is a view over
        #: a shared-memory segment owned by a long-lived holder (the
        #: serve daemon) — parallel runs then reuse that segment instead
        #: of copying the graph into a fresh per-run one.
        self.shared_descriptor = None
        if self.labels is not None and self.labels.shape[0] != self.num_vertices:
            raise ValueError(
                f"labels array has {self.labels.shape[0]} entries for "
                f"{self.num_vertices} vertices"
            )

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self.indptr.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.indices.shape[0] // 2)

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        """Per-vertex degrees (computed once, cached; treat read-only)."""
        degrees = self._degrees
        if degrees is None:
            degrees = np.diff(self.indptr)
            degrees.setflags(write=False)
            self._degrees = degrees
        return degrees

    @property
    def degree_prefix(self) -> np.ndarray:
        """``prefix[v]`` = total degree of vertices ``< v`` (cached).

        Used by the engine's weighted chunk planner; equals ``indptr``
        for a plain CSR but is kept as a separate read-only array so
        oriented views can expose the same interface over out-degrees.
        """
        prefix = self._degree_prefix
        if prefix is None:
            prefix = self.indptr.copy()
            prefix.setflags(write=False)
            self._degree_prefix = prefix
        return prefix

    @property
    def max_degree(self) -> int:
        d = self.degrees
        return int(d.max()) if d.size else 0

    @property
    def avg_degree(self) -> float:
        n = self.num_vertices
        return float(self.indices.shape[0] / n) if n else 0.0

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor set of ``v`` (zero-copy slice; treat read-only).

        The slice object for each vertex is built once and reused, so
        repeated calls return the *same* array object.  That identity
        stability is what lets the runtime's set-op memo cache
        (:class:`repro.runtime.setops.SetOpCache`) key intersections by
        operand id, and it shaves the two ``indptr`` loads plus slice
        construction off every inner-loop neighbor access.
        """
        views = self._neighbor_views
        if views is None:
            self._neighbor_views = views = [None] * self.num_vertices
        view = views[v]
        if view is None:
            view = self.indices[self.indptr[v]: self.indptr[v + 1]]
            view.setflags(write=False)
            views[v] = view
        return view

    def vertices(self) -> np.ndarray:
        """The full vertex set ``0..n-1`` as a sorted array."""
        return np.arange(self.num_vertices, dtype=vs.DTYPE)

    def has_edge(self, u: int, v: int) -> bool:
        return vs.contains(self.neighbors(u), v)

    def label_of(self, v: int) -> int:
        if self.labels is None:
            raise ValueError("graph has no vertex labels")
        return int(self.labels[v])

    def num_labels(self) -> int:
        if self.labels is None:
            return 0
        return int(self.labels.max()) + 1 if self.labels.size else 0

    # ------------------------------------------------------------------
    # Labeled access
    # ------------------------------------------------------------------
    def vertices_with_label(self, label: int) -> np.ndarray:
        """Sorted array of vertices carrying ``label`` (cached)."""
        if self.labels is None:
            raise ValueError("graph has no vertex labels")
        if self._label_index is None:
            index: dict[int, np.ndarray] = {}
            order = np.argsort(self.labels, kind="stable")
            sorted_labels = self.labels[order]
            boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
            chunks = np.split(order, boundaries)
            for chunk in chunks:
                if chunk.size:
                    index[int(self.labels[chunk[0]])] = np.sort(chunk).astype(vs.DTYPE)
            self._label_index = index
        return self._label_index.get(int(label), vs.EMPTY)

    def filter_label(self, candidates: np.ndarray, label: int) -> np.ndarray:
        """Restrict a candidate set to vertices carrying ``label``."""
        return vs.intersect(candidates, self.vertices_with_label(label))

    # ------------------------------------------------------------------
    # Iteration and export
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    def edge_array(self) -> np.ndarray:
        """All undirected edges as an ``(m, 2)`` array with ``u < v`` rows."""
        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=vs.DTYPE), self.degrees)
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def subgraph_adjacency(self, vertices: Sequence[int]) -> list[tuple[int, int]]:
        """Edges among ``vertices``, as index pairs into the input sequence."""
        out = []
        for i, u in enumerate(vertices):
            for j in range(i + 1, len(vertices)):
                if self.has_edge(u, vertices[j]):
                    out.append((i, j))
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lab = f", labels={self.num_labels()}" if self.is_labeled else ""
        return (
            f"CSRGraph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}{lab})"
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges,
        labels: Mapping[int, int] | Sequence[int] | None = None,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a graph from an iterable of ``(u, v)`` pairs.

        Duplicate edges, reversed duplicates and self loops are removed.
        """
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder(num_vertices, name=name)
        for u, v in edges:
            builder.add_edge(u, v)
        if labels is not None:
            if isinstance(labels, Mapping):
                for v, lab in labels.items():
                    builder.set_label(v, lab)
            else:
                for v, lab in enumerate(labels):
                    builder.set_label(v, lab)
        return builder.build()
