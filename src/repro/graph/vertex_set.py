"""Sorted-array vertex set algebra.

Every vertex set handled by the runtime is a strictly increasing
one-dimensional ``numpy`` array of vertex ids (``int64``).  The operations in
this module are exactly the vertex-set operation nodes the DecoMine AST
supports (paper section 7.1): intersection, subtraction, their bounded
(trim-fused) variants, copy assignment, bound trimming and neighbor-set
loading (the latter lives on :class:`repro.graph.csr.CSRGraph`).

The hot operations — intersect/subtract and their bounded and size-only
forms — are the adaptive galloping/merge kernels of
:mod:`repro.runtime.setops`, re-exported here unchanged so that generated
code, the interpreter and every baseline call the *same* function objects
(see that module for the dispatch thresholds and counters).  This module
adds only the thin operations that need no dispatch.

All operations are non-destructive: inputs are never mutated, outputs may
share memory with inputs (slices) and must be treated as read-only.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.setops import (
    DTYPE,
    EMPTY,
    STATS,
    intersect,
    intersect_from,
    intersect_size,
    intersect_upto,
    subtract,
    subtract_from,
    subtract_size,
    subtract_upto,
)

__all__ = [
    "DTYPE",
    "EMPTY",
    "as_vertex_set",
    "intersect",
    "subtract",
    "exclude",
    "trim_below",
    "trim_above",
    "contains",
    "intersect_size",
    "subtract_size",
    "intersect_upto",
    "intersect_from",
    "subtract_upto",
    "subtract_from",
    "union",
]


def as_vertex_set(values) -> np.ndarray:
    """Build a vertex set from an arbitrary iterable of vertex ids.

    Duplicates are removed and the result is sorted.  Use this at API
    boundaries; internal code assumes its inputs are already valid sets.
    """
    arr = np.unique(np.asarray(list(values), dtype=DTYPE))
    return arr


def exclude(a: np.ndarray, *vertices: int) -> np.ndarray:
    """Remove specific vertex ids from a sorted vertex set.

    This implements the injectivity constraints of the enumeration loops:
    a candidate vertex must differ from every already-matched vertex.
    One binary search per excluded vertex; when none is present the input
    is returned unchanged (zero copies) — the common case, since matched
    vertices are usually outside the candidate neighborhood.
    """
    if a.size == 0 or not vertices:
        return a
    STATS.exclude += 1
    mask = None
    for v in vertices:
        idx = int(np.searchsorted(a, v))
        if idx < a.size and a[idx] == v:
            if mask is None:
                mask = np.ones(a.size, dtype=bool)
            mask[idx] = False
    if mask is None:
        return a
    return a[mask]


def trim_below(a: np.ndarray, bound: int) -> np.ndarray:
    """Keep only elements strictly smaller than ``bound``.

    This is the trimming operation used to realize symmetry-breaking
    restrictions such as ``v2 < v1``.  When it directly follows an
    intersect/subtract the compiler fuses the pair into the bounded
    kernels (:func:`intersect_upto` and friends) instead.
    """
    return a[: np.searchsorted(a, bound, side="left")]


def trim_above(a: np.ndarray, bound: int) -> np.ndarray:
    """Keep only elements strictly greater than ``bound``."""
    return a[np.searchsorted(a, bound, side="right"):]


def contains(a: np.ndarray, v: int) -> bool:
    """Membership test on a sorted vertex set."""
    idx = np.searchsorted(a, v)
    return bool(idx < a.size and a[idx] == v)


def union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Set union (used by the builder and tests, not by hot loops)."""
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    return np.union1d(a, b)
