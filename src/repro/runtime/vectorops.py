"""Batched (array-at-a-time) vertex-set kernels for the vectorized executor.

The scalar executors (codegen, interpreter) run one partial embedding at
a time: every set operation is one Python-level kernel call on one pair
of operands.  The vectorized executor instead carries a *frontier* of
partial embeddings through the loop nest, so each IR set operation must
apply to a whole batch of per-row operands at once.  This module is
those batch kernels.

The central representation is :class:`Ragged` — a batch of ``rows``
vertex sets packed into one flat ``values`` array with an
``offsets`` prefix (CSR layout for intermediate sets, exactly how the
graph itself stores adjacency).  Two invariants hold everywhere:

* ``values[offsets[i]:offsets[i+1]]`` is row ``i``, sorted ascending and
  duplicate-free (the same contract as :mod:`repro.runtime.setops`);
* rows are independent sets — an operation never moves an element
  across rows.

**The composite-key trick.**  Because every vertex id is in
``[0, num_vertices)``, a batch of per-row sorted sets maps to one
globally sorted array under ``key = row * num_vertices + value``.  A
single ``np.searchsorted`` of one batch's keys into another's then
answers *per-row* membership for every row at once, which is how
:func:`intersect` and :func:`subtract` run a whole frontier's worth of
set operations in O(total log total) NumPy work with no Python-level
loop.  Trims, excludes and label filters are plain boolean masks over
the flat ``values``.

Per-kernel call counts and batch-size histograms are kept in the
per-thread :data:`VSTATS` under ``vec_``-prefixed keys; the engine
reports per-chunk deltas through the same stats channel as the
scalar kernel counters and publishes them as ``repro_vectorized_*``
metrics (see :mod:`repro.observe`).

Like :mod:`repro.runtime.setops`, this module must stay importable with
no intra-package dependencies (NumPy only).
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = [
    "DTYPE",
    "Ragged",
    "VecStats",
    "VSTATS",
    "BATCH_BUCKETS",
    "neighbors_batch",
    "intersect",
    "subtract",
    "trim_below",
    "trim_above",
    "exclude",
    "filter_values",
    "repeat_per_row",
]

DTYPE = np.int64

_EMPTY = np.empty(0, dtype=DTYPE)
_EMPTY.setflags(write=False)
_EMPTY_OFFSETS = np.zeros(1, dtype=DTYPE)
_EMPTY_OFFSETS.setflags(write=False)

#: Upper edges of the batch-size (rows per kernel call) histogram that
#: :data:`VSTATS` keeps per kernel.  The last bucket is open-ended.
BATCH_BUCKETS = (1, 16, 256, 4096, 65536)


class VecStats(threading.local):
    """Per-thread batched-kernel telemetry.

    Dynamic counter dict rather than fixed slots: keys are
    ``vec_<kernel>_calls``, ``vec_<kernel>_rows`` (total frontier rows
    processed) and the per-kernel batch-size buckets
    ``vec_<kernel>_batch_le_<bound>`` / ``..._batch_gt_<last>``.  The
    engine snapshots/deltas it exactly like
    :class:`repro.runtime.setops.KernelStats` (per thread, for the same
    reason).
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def reset(self) -> None:
        self.counts.clear()

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Counter increments since a :meth:`snapshot`."""
        return {
            key: value - before.get(key, 0)
            for key, value in self.counts.items()
            if value != before.get(key, 0)
        }

    def record(self, kernel: str, rows: int) -> None:
        counts = self.counts
        base = f"vec_{kernel}"
        counts[f"{base}_calls"] = counts.get(f"{base}_calls", 0) + 1
        counts[f"{base}_rows"] = counts.get(f"{base}_rows", 0) + rows
        for bound in BATCH_BUCKETS:
            if rows <= bound:
                key = f"{base}_batch_le_{bound}"
                break
        else:
            key = f"{base}_batch_gt_{BATCH_BUCKETS[-1]}"
        counts[key] = counts.get(key, 0) + 1

    @property
    def total_calls(self) -> int:
        return sum(v for k, v in self.counts.items() if k.endswith("_calls"))


VSTATS = VecStats()


class Ragged:
    """A batch of per-row sorted vertex sets in CSR layout.

    ``values`` is the concatenation of all rows; ``offsets`` (length
    ``rows + 1``) delimits them.  Construction does not copy — callers
    hand over arrays they no longer mutate.
    """

    __slots__ = ("values", "offsets")

    def __init__(self, values: np.ndarray, offsets: np.ndarray) -> None:
        self.values = values
        self.offsets = offsets

    @property
    def rows(self) -> int:
        return len(self.offsets) - 1

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    def row(self, i: int) -> np.ndarray:
        return self.values[self.offsets[i]: self.offsets[i + 1]]

    @classmethod
    def empty(cls, rows: int) -> "Ragged":
        if rows == 0:
            return cls(_EMPTY, _EMPTY_OFFSETS)
        return cls(_EMPTY, np.zeros(rows + 1, dtype=DTYPE))

    @classmethod
    def single(cls, values: np.ndarray) -> "Ragged":
        """One-row batch wrapping ``values`` (no copy)."""
        offsets = np.array([0, len(values)], dtype=DTYPE)
        return cls(values, offsets)

    @classmethod
    def broadcast(cls, values: np.ndarray, rows: int) -> "Ragged":
        """``rows`` identical copies of ``values``."""
        n = len(values)
        if rows == 0 or n == 0:
            return cls.empty(rows)
        offsets = np.arange(rows + 1, dtype=DTYPE) * n
        return cls(np.tile(values, rows), offsets)

    def take_rows(self, index: np.ndarray) -> "Ragged":
        """New batch whose row ``i`` is ``self.row(index[i])``."""
        if len(index) == 0 or self.total == 0:
            return Ragged.empty(len(index))
        sizes = self.sizes[index]
        offsets = _prefix(sizes)
        values = self.values[_gather_index(self.offsets[index], sizes)]
        return Ragged(values, offsets)

    def row_ids(self) -> np.ndarray:
        """Row id of every element of ``values``."""
        return np.repeat(np.arange(self.rows, dtype=DTYPE), self.sizes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Ragged(rows={self.rows}, total={self.total})"


def _prefix(sizes: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(sizes) + 1, dtype=DTYPE)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _gather_index(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Flat source indices for gathering variable-length runs.

    For runs ``starts[i] .. starts[i]+sizes[i]`` this is the classic
    arange-minus-offset construction: one global ``arange`` shifted so
    each run restarts at its own ``starts[i]``.
    """
    offsets = _prefix(sizes)
    total = int(offsets[-1])
    index = np.arange(total, dtype=DTYPE)
    # Subtract each run's global offset, add its source start.
    shift = np.repeat(starts - offsets[:-1], sizes)
    return index + shift


def repeat_per_row(column: np.ndarray, ragged: Ragged) -> np.ndarray:
    """Broadcast a per-row column over every element of ``ragged``."""
    return np.repeat(column, ragged.sizes)


def _mask_rows(ragged: Ragged, keep: np.ndarray) -> Ragged:
    """Compress ``ragged`` by an element mask, preserving row structure."""
    if keep.all():
        return ragged
    sizes = np.bincount(ragged.row_ids()[keep],
                        minlength=ragged.rows).astype(DTYPE)
    return Ragged(ragged.values[keep], _prefix(sizes))


# ----------------------------------------------------------------------
# Batched kernels
# ----------------------------------------------------------------------

def neighbors_batch(indptr: np.ndarray, indices: np.ndarray,
                    vertices: np.ndarray,
                    split: np.ndarray | None = None,
                    kernel: str = "neighbors") -> Ragged:
    """Per-row adjacency gather: row ``i`` is the neighbor list of
    ``vertices[i]``.

    With ``split`` (an :class:`~repro.graph.transform.OrientedGraph`'s
    row-split array) the gathered run is the *oriented* suffix
    ``indices[split[v]:indptr[v+1]]`` instead of the whole row.
    """
    VSTATS.record(kernel, len(vertices))
    if len(vertices) == 0:
        return Ragged.empty(0)
    starts = (indptr if split is None else split)[vertices]
    sizes = indptr[vertices + 1] - starts
    values = indices[_gather_index(starts, sizes)]
    return Ragged(values, _prefix(sizes))


def _composite_keys(ragged: Ragged, num_vertices: int,
                    row_map: np.ndarray | None = None) -> np.ndarray:
    """``row * num_vertices + value`` keys.

    Without ``row_map`` the keys are globally sorted (rows ascending,
    values sorted within each row).  ``row_map`` re-labels rows — used
    to align a query batch onto an operand defined at an ancestor
    frontier without gathering the operand; mapped keys serve only as
    ``searchsorted`` *queries*, which need no ordering.
    """
    rows = ragged.row_ids()
    if row_map is not None:
        rows = row_map[rows]
    return rows * np.int64(num_vertices) + ragged.values


def intersect(a: Ragged, b: Ragged, num_vertices: int,
              a_map: np.ndarray | None = None) -> Ragged:
    """Row-wise ``a[i] ∩ b[a_map[i]]`` across the whole batch
    (``a_map=None`` reads as the identity: ``a[i] ∩ b[i]``).

    ``a_map`` is the zero-copy path for operands defined at an ancestor
    frontier: instead of gathering ``b`` into ``a``'s row space (a copy
    proportional to the *child* frontier), ``a``'s query keys are mapped
    into ``b``'s row space and probed against ``b``'s existing sorted
    keys.
    """
    VSTATS.record("intersect", a.rows)
    if a.total == 0 or b.total == 0:
        return Ragged.empty(a.rows)
    ak = _composite_keys(a, num_vertices, a_map)
    bk = _composite_keys(b, num_vertices)
    idx = bk.searchsorted(ak)
    keep = bk.take(idx, mode="clip") == ak
    return _mask_rows(a, keep)


def subtract(a: Ragged, b: Ragged, num_vertices: int,
             a_map: np.ndarray | None = None) -> Ragged:
    """Row-wise ``a[i] - b[a_map[i]]`` across the whole batch
    (``a_map=None``: ``a[i] - b[i]``; see :func:`intersect` for the
    ancestor-operand mapping)."""
    VSTATS.record("subtract", a.rows)
    if a.total == 0:
        return Ragged.empty(a.rows)
    if b.total == 0:
        return a
    ak = _composite_keys(a, num_vertices, a_map)
    bk = _composite_keys(b, num_vertices)
    idx = bk.searchsorted(ak)
    keep = bk.take(idx, mode="clip") != ak
    return _mask_rows(a, keep)


def trim_below(a: Ragged, bounds: np.ndarray) -> Ragged:
    """Row-wise ``{x in a[i] : x < bounds[i]}``."""
    VSTATS.record("trim", a.rows)
    if a.total == 0:
        return a
    return _mask_rows(a, a.values < repeat_per_row(bounds, a))


def trim_above(a: Ragged, bounds: np.ndarray) -> Ragged:
    """Row-wise ``{x in a[i] : x > bounds[i]}``."""
    VSTATS.record("trim", a.rows)
    if a.total == 0:
        return a
    return _mask_rows(a, a.values > repeat_per_row(bounds, a))


def exclude(a: Ragged, columns: list[np.ndarray]) -> Ragged:
    """Row-wise removal of each ``columns[k][i]`` from ``a[i]``."""
    VSTATS.record("exclude", a.rows)
    if a.total == 0 or not columns:
        return a
    keep = np.ones(len(a.values), dtype=bool)
    for column in columns:
        keep &= a.values != repeat_per_row(column, a)
    return _mask_rows(a, keep)


def filter_values(a: Ragged, keep: np.ndarray) -> Ragged:
    """Row-wise filter by a precomputed per-element boolean mask
    (label filters: ``keep = labels[a.values] == label``)."""
    VSTATS.record("filter", a.rows)
    if a.total == 0:
        return a
    return _mask_rows(a, keep)
