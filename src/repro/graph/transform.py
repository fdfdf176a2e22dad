"""Vertex reordering and graph orientation (the GraphMini trick).

Two transformations over an immutable :class:`~repro.graph.csr.CSRGraph`:

* **Reordering** — relabel vertices along a rank (identity, degree, or
  degeneracy order) so that ``new id == rank position``.  Relabeling is a
  graph isomorphism, so every pattern count is preserved exactly.
* **Orientation** — a directed view of the relabeled graph keeping only
  the arcs ``u -> v`` with ``v > u``.  Because ids equal ranks, the
  out-neighborhood of ``v`` is simply the tail of its sorted CSR row, a
  zero-copy slice.  Under the degeneracy order every out-degree is
  bounded by the graph's degeneracy; under the degree order it is
  bounded by ``sqrt(2m)``.

The compiler's ``orient`` pass rewrites symmetry-breaking
adjacency-and-trim combinations onto these out-neighborhoods, which is
what turns a hub's full neighbor list into a degeneracy-sized candidate
set at the top of the loop nest.

``out_neighbors`` keeps the identity-stable view contract of
:meth:`CSRGraph.neighbors`: repeated calls return the *same* array
object, so the runtime's :class:`~repro.runtime.setops.SetOpCache` can
key memoized set operations by operand id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph import vertex_set as vs
from repro.graph.csr import CSRGraph

__all__ = [
    "ORIENTATIONS",
    "Reordering",
    "OrientedGraph",
    "identity_order",
    "degree_order",
    "degeneracy_order",
    "reorder",
    "orient",
]

#: Valid orientation modes, in the order the CLI exposes them.
ORIENTATIONS = ("none", "degree", "degeneracy")


@dataclass(frozen=True)
class Reordering:
    """A vertex relabeling: ``order[new_id] == old_id`` and its inverse."""

    mode: str
    order: np.ndarray       # new id -> old id
    old_to_new: np.ndarray  # old id -> new id

    def to_new(self, old: int) -> int:
        return int(self.old_to_new[old])

    def to_old(self, new: int) -> int:
        return int(self.order[new])


def identity_order(graph: CSRGraph) -> np.ndarray:
    """The trivial order (rank == vertex id)."""
    return np.arange(graph.num_vertices, dtype=np.int64)


def degree_order(graph: CSRGraph) -> np.ndarray:
    """Degree-ascending order: hubs get the highest ranks.

    With arcs oriented toward higher rank, every out-neighbor of ``v``
    has degree >= degree(v) (ties broken by id), so out-degrees are
    bounded by ``sqrt(2m)`` — the classic degree orientation.  This is
    the rank-reversed view of a degree-descending (hubs-first) listing;
    both orient each edge toward its higher-degree endpoint.
    """
    degrees = graph.degrees
    ids = np.arange(graph.num_vertices, dtype=np.int64)
    return np.lexsort((ids, degrees)).astype(np.int64)


def degeneracy_order(graph: CSRGraph) -> np.ndarray:
    """Degeneracy (smallest-last) order via Matula-Beck bucket peeling.

    Repeatedly removes a minimum-remaining-degree vertex; orienting
    every edge from earlier to later in this order bounds each
    out-degree by the graph's degeneracy.  Fully deterministic (ties
    resolve by bucket insertion order), so relabelings are reproducible
    across runs and processes.
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    degree = graph.degrees.tolist()
    max_degree = max(degree)
    buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
    # Filled in reverse id order so pops yield the smallest id first.
    for v in range(n - 1, -1, -1):
        buckets[degree[v]].append(v)
    removed = [False] * n
    order = np.empty(n, dtype=np.int64)
    current = 0
    for position in range(n):
        while True:
            while current <= max_degree and not buckets[current]:
                current += 1
            v = buckets[current].pop()
            if not removed[v] and degree[v] == current:
                break
        removed[v] = True
        order[position] = v
        for u in graph.neighbors(v).tolist():
            if not removed[u]:
                degree[u] -= 1
                buckets[degree[u]].append(u)
                if degree[u] < current:
                    current = degree[u]
    return order


_ORDER_FUNCTIONS = {
    "none": identity_order,
    "degree": degree_order,
    "degeneracy": degeneracy_order,
}


def _relabel(graph: CSRGraph, order: np.ndarray) -> tuple[np.ndarray, ...]:
    """CSR arrays of the graph relabeled so ``new id == rank``."""
    n = graph.num_vertices
    old_to_new = np.empty(n, dtype=np.int64)
    old_to_new[order] = np.arange(n, dtype=np.int64)
    degrees = graph.degrees
    new_src = np.repeat(old_to_new, degrees)
    new_dst = old_to_new[graph.indices]
    perm = np.lexsort((new_dst, new_src))
    indices = np.ascontiguousarray(new_dst[perm], dtype=vs.DTYPE)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees[order], out=indptr[1:])
    labels = None if graph.labels is None else graph.labels[order]
    return indptr, indices, labels, old_to_new


class OrientedGraph(CSRGraph):
    """A relabeled graph plus its higher-rank-oriented directed view.

    The undirected API (``neighbors`` and friends) is the full relabeled
    graph — plans use it for unoriented set ops.  ``out_neighbors(v)``
    is the suffix of ``neighbors(v)`` with ids ``> v`` (the oriented
    arcs); ``in_neighbors(v)`` is the complementary prefix.  Both are
    zero-copy, identity-stable cached views.
    """

    __slots__ = (
        "orientation", "reordering",
        "_out_views", "_in_views", "_out_degree_prefix",
    )

    def __init__(self, indptr, indices, labels, name, orientation,
                 reordering: Reordering) -> None:
        super().__init__(indptr, indices, labels=labels, name=name)
        self.orientation = orientation
        self.reordering = reordering
        self._out_views: list | None = None
        self._in_views: list | None = None
        self._out_degree_prefix: np.ndarray | None = None

    def out_neighbors(self, v: int) -> np.ndarray:
        """Oriented (higher-id) neighbors of ``v``; identity-stable view."""
        views = self._out_views
        if views is None:
            self._out_views = views = [None] * self.num_vertices
        view = views[v]
        if view is None:
            view = self.indices[self.split[v]: self.indptr[v + 1]]
            view.setflags(write=False)
            views[v] = view
        return view

    def in_neighbors(self, v: int) -> np.ndarray:
        """Lower-id neighbors of ``v`` (the reverse arcs)."""
        views = self._in_views
        if views is None:
            self._in_views = views = [None] * self.num_vertices
        view = views[v]
        if view is None:
            view = self.indices[self.indptr[v]: self.split[v]]
            view.setflags(write=False)
            views[v] = view
        return view

    @property
    def out_degrees(self) -> np.ndarray:
        return self.indptr[1:] - self.split

    @property
    def out_degree_prefix(self) -> np.ndarray:
        """``prefix[v]`` = total out-degree of vertices ``< v`` (cached)."""
        prefix = self._out_degree_prefix
        if prefix is None:
            prefix = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(self.out_degrees, out=prefix[1:])
            self._out_degree_prefix = prefix
        return prefix

    @property
    def max_out_degree(self) -> int:
        d = self.out_degrees
        return int(d.max()) if d.size else 0

    @property
    def avg_out_degree(self) -> float:
        n = self.num_vertices
        return float(self.out_degrees.sum() / n) if n else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OrientedGraph({self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, orientation={self.orientation!r}, "
            f"max_out_degree={self.max_out_degree})"
        )


def reorder(graph: CSRGraph, mode: str) -> tuple[CSRGraph, Reordering]:
    """Relabel ``graph`` along ``mode``'s rank; returns (graph, mapping)."""
    if mode not in _ORDER_FUNCTIONS:
        raise ValueError(
            f"unknown ordering {mode!r}; expected one of {ORIENTATIONS}"
        )
    order = _ORDER_FUNCTIONS[mode](graph)
    indptr, indices, labels, old_to_new = _relabel(graph, order)
    reordering = Reordering(mode=mode, order=order, old_to_new=old_to_new)
    relabeled = CSRGraph(indptr, indices, labels=labels,
                         name=f"{graph.name}[{mode}]")
    return relabeled, reordering


def orient(graph: CSRGraph, mode: str) -> CSRGraph:
    """Oriented (relabeled) view of ``graph``; memoized per graph.

    ``mode == "none"`` returns the graph unchanged.  Results are cached
    on the input graph, so the engine, the session and the clique
    specialist all share one relabeled copy per mode.
    """
    if mode == "none":
        return graph
    if mode not in _ORDER_FUNCTIONS:
        raise ValueError(
            f"unknown orientation {mode!r}; expected one of {ORIENTATIONS}"
        )
    if isinstance(graph, OrientedGraph) and graph.orientation == mode:
        return graph
    cache = graph._oriented_cache
    if cache is None:
        graph._oriented_cache = cache = {}
    oriented = cache.get(mode)
    if oriented is None:
        from repro.observe import metrics as om
        from repro.observe.trace import span

        with span("orient", mode=mode, vertices=graph.num_vertices) as s:
            order = _ORDER_FUNCTIONS[mode](graph)
            indptr, indices, labels, old_to_new = _relabel(graph, order)
            reordering = Reordering(
                mode=mode, order=order, old_to_new=old_to_new
            )
            oriented = OrientedGraph(
                indptr, indices, labels, f"{graph.name}[{mode}]",
                mode, reordering,
            )
            s.set(max_out_degree=oriented.max_out_degree)
        om.counter(
            "repro_orient_edges_dropped_total",
            "reverse arcs removed by graph orientation",
        ).inc(graph.num_edges)
        cache[mode] = oriented
    return oriented
