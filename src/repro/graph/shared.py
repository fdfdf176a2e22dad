"""Zero-copy CSR graphs in POSIX shared memory for fork-pool workers.

The engine's parallel path forks a worker pool per run.  Without shared
memory every worker touches the parent's copy-on-write pages — workable,
but each pool restart re-inherits the parent heap, and nothing
guarantees one physical copy across restarts or across concurrent runs.
This module puts the graph's backing arrays (``indptr``, ``indices``,
optional ``labels``, and the row-split array
:attr:`~repro.graph.csr.CSRGraph.split`) into one ``multiprocessing.shared_memory`` segment:

* the parent calls :func:`share_graph` once per run, getting a
  :class:`SharedGraphHandle` whose ``graph`` is a CSR view over the
  segment and whose ``descriptor`` is a tiny picklable address;
* workers call :func:`attach_cached` with the descriptor — a process-
  local cache attaches each segment at most once per worker, and
  because the parent seeds its own cache before forking, fork children
  inherit the mapping outright and attach zero-copy without even an
  ``shm_open``;
* the parent — and only the parent — unlinks the segment in a
  ``finally`` around the pool's lifetime (:meth:`SharedGraphHandle.close`),
  so pool restarts reuse the segment and worker deaths can never leak
  it.  :func:`active_segments` exposes what this process currently has
  created-and-not-yet-unlinked; the lifecycle tests assert it drains.

CPython's ``resource_tracker`` would double-account segments attached by
name (every attach registers, every process exit unlinks — a known
``SharedMemory`` wart fixed only in 3.13's ``track=False``); attaches
here unregister themselves immediately, leaving exactly one owner: the
creating process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "GraphDescriptor",
    "SharedGraphHandle",
    "share_graph",
    "attach",
    "attach_cached",
    "active_segments",
]


@dataclass(frozen=True)
class GraphDescriptor:
    """Picklable address of a graph living in a shared-memory segment.

    ``arrays`` maps field name -> (byte offset, element count); every
    array is ``int64``.  ``orientation`` is ``None`` for a plain
    :class:`CSRGraph`, else the :class:`OrientedGraph` mode.  The split
    array rides along under ``"split"`` either way.
    """

    segment: str
    name: str
    arrays: tuple[tuple[str, int, int], ...]
    orientation: str | None = None


#: Segments created by THIS process and not yet unlinked: name -> handle.
_CREATED: dict[str, "SharedGraphHandle"] = {}

#: Process-local attach cache: segment name -> (SharedMemory | None, graph).
#: Seeded by the creator (with ``None`` — the creator's mapping is owned
#: by its handle), inherited by fork children, filled by true attaches.
_ATTACHED: dict[str, tuple[object, CSRGraph]] = {}


def active_segments() -> list[str]:
    """Names of segments this process created and has not unlinked."""
    return sorted(_CREATED)


def _graph_fields(graph: CSRGraph) -> list[tuple[str, np.ndarray]]:
    fields = [
        ("indptr", np.ascontiguousarray(graph.indptr, dtype=np.int64)),
        ("indices", np.ascontiguousarray(graph.indices, dtype=np.int64)),
    ]
    if graph.labels is not None:
        fields.append(
            ("labels", np.ascontiguousarray(graph.labels, dtype=np.int64))
        )
    # Workers read the split index off the segment instead of each
    # rebuilding it: oriented rows and the C target's half rows use it.
    fields.append(("split", graph.split))
    return fields


def _build_graph(descriptor: GraphDescriptor, buf) -> CSRGraph:
    """Materialize a CSR view over a segment's buffer (no copies —
    ``CSRGraph.__init__``'s ``ascontiguousarray`` is the identity on the
    already-contiguous ``int64`` views)."""
    views = {}
    for field, offset, count in descriptor.arrays:
        views[field] = np.frombuffer(buf, dtype=np.int64, count=count,
                                     offset=offset)
    if descriptor.orientation is None:
        graph = CSRGraph(views["indptr"], views["indices"],
                         labels=views.get("labels"), name=descriptor.name)
        graph._split = views["split"]
        graph.shared_descriptor = descriptor
        return graph
    from repro.graph.transform import OrientedGraph

    # Bypass OrientedGraph.__init__: workers need no Reordering (only
    # the session's id translation uses it).
    graph = OrientedGraph.__new__(OrientedGraph)
    CSRGraph.__init__(graph, views["indptr"], views["indices"],
                      labels=views.get("labels"), name=descriptor.name)
    graph.orientation = descriptor.orientation
    graph.reordering = None
    graph._split = views["split"]
    graph._out_views = None
    graph._in_views = None
    graph._out_degree_prefix = None
    graph.shared_descriptor = descriptor
    return graph


class SharedGraphHandle:
    """The creating process's ownership of one shared graph segment."""

    def __init__(self, shm, descriptor: GraphDescriptor,
                 graph: CSRGraph) -> None:
        self._shm = shm
        self.descriptor = descriptor
        self.graph = graph

    @property
    def name(self) -> str:
        return self.descriptor.segment

    def close(self) -> None:
        """Unlink and unmap the segment (idempotent).

        Safe while workers still hold mappings: POSIX keeps the memory
        alive until the last mapping closes; unlinking just removes the
        name so nothing can leak past the owning run.
        """
        handle = _CREATED.pop(self.name, None)
        if handle is None:
            return
        _ATTACHED.pop(self.name, None)
        self.graph = None
        try:
            self._shm.close()
        except BufferError:
            # A numpy view into the segment is still alive somewhere
            # (a stale ExecutionResult, a traceback).  The mapping then
            # stays until the views die, but the *name* must not: unlink
            # below is what prevents the leak.  Neutralize the handle so
            # SharedMemory.__del__ does not retry (and fail noisily) at
            # GC time — the live views keep the mmap alive themselves.
            import os

            if getattr(self._shm, "_fd", -1) >= 0:
                os.close(self._shm._fd)
                self._shm._fd = -1
            self._shm._buf = None
            self._shm._mmap = None
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __enter__(self) -> "SharedGraphHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def share_graph(graph: CSRGraph) -> SharedGraphHandle:
    """Copy ``graph``'s backing arrays into a fresh shared segment.

    Returns a handle whose ``graph`` attribute is the shared-memory view
    (hand *that* to in-process users so parent and workers read the same
    physical pages) and whose ``descriptor`` travels to workers.
    """
    from multiprocessing import shared_memory

    fields = _graph_fields(graph)
    layout = []
    offset = 0
    for field, array in fields:
        layout.append((field, offset, int(array.size)))
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for (field, start, count), (_, array) in zip(layout, fields):
        if count:
            np.frombuffer(shm.buf, dtype=np.int64, count=count,
                          offset=start)[:] = array
    descriptor = GraphDescriptor(
        segment=shm.name,
        name=graph.name,
        arrays=tuple(layout),
        orientation=getattr(graph, "orientation", None),
    )
    shared = _build_graph(descriptor, shm.buf)
    handle = SharedGraphHandle(shm, descriptor, shared)
    _CREATED[shm.name] = handle
    # Seed the attach cache: fork children inherit this entry and reuse
    # the already-mapped graph with no attach syscall at all.
    _ATTACHED[shm.name] = (None, shared)
    return handle


def attach(descriptor: GraphDescriptor) -> tuple[object, CSRGraph]:
    """Map an existing segment by name (no cache; see :func:`attach_cached`).

    Returns ``(shm, graph)`` — the caller keeps ``shm`` alive as long as
    the graph is in use.
    """
    from multiprocessing import shared_memory
    from multiprocessing.resource_tracker import unregister

    shm = shared_memory.SharedMemory(name=descriptor.segment)
    # Attaching registered us as a second "owner" with the resource
    # tracker, which would unlink the segment when this process exits —
    # out from under the real owner.  Hand ownership back immediately.
    try:
        unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass
    return shm, _build_graph(descriptor, shm.buf)


def attach_cached(descriptor: GraphDescriptor) -> CSRGraph:
    """Worker-side entry: the segment's graph, attached at most once per
    process (fork children hit the inherited seed and attach nothing)."""
    entry = _ATTACHED.get(descriptor.segment)
    if entry is None:
        entry = attach(descriptor)
        _ATTACHED[descriptor.segment] = entry
    return entry[1]
