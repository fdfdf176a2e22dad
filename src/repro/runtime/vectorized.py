"""Vectorized (array-at-a-time) executor for the DecoMine AST.

The third ``EngineOptions.executor`` backend.  Where codegen and the
interpreter walk the loop nest one partial embedding at a time — one
Python-level set-op call per embedding — this executor carries a
**frontier** of partial embeddings through the same scheduled IR and
turns every node into one batched NumPy kernel per loop level:

* a :class:`_Frontier` is a batch of partial embeddings; loop variables
  and scalars bound at that level are ``int64`` column arrays indexed by
  frontier row, and vertex sets are :class:`~repro.runtime.vectorops.Ragged`
  batches (one set per row);
* ``Loop`` *descends*: the child frontier has one row per (parent row,
  source element) pair, with a ``parent_map`` recording which parent row
  each child row extends — the flattened equivalent of the scalar
  executors' nested iteration;
* ``SetOp`` nodes become the batched kernels of
  :mod:`repro.runtime.vectorops` (composite-key intersect/subtract,
  CSR adjacency gathers, mask trims);
* ``IfPositive``/``IfPred`` become row filters: the body runs on a
  sub-frontier selecting the passing rows (sound because the IR is
  single-assignment and body effects are only associative
  accumulations);
* ``Accumulate`` either folds a column into a root accumulator or
  scatter-adds into a scalar column at an ancestor frontier
  (``np.add.at`` through the composed ancestor row map) — the
  vectorized form of the extension-count ``m += 1`` updates that
  decomposed plans hang ``IfPositive`` guards on.

Values defined at an ancestor frontier are resolved on demand by
composing parent maps (cached per frontier), so cross-level reads cost
one gather instead of per-row Python work.

Semantics are locked against the scalar executors by the differential
suites (``tests/test_differential_engines.py`` and the randomized
``tests/test_differential_random.py``): every plan the compiler can emit
in count mode — decompositions with extension/shrinkage loops, fused
bounded kernels, oriented adjacency, label constraints — must produce
bit-identical accumulators on all three backends.

Emit-mode plans (hash tables, partial-embedding delivery) observe
per-embedding execution order and are out of scope: they raise
:class:`~repro.exceptions.ExecutionError` here and keep running on the
scalar backends.

Memory is bounded per loop: a descend whose child frontier would exceed
:data:`MAX_FRONTIER_ROWS` rows splits the parent frontier into
contiguous row groups and runs the loop body once per group — correct
for the same reason chunked parallel execution is (all side effects are
associative/commutative accumulations).

Orientation-pass output is reused unchanged: ``oriented`` set ops read
the :class:`~repro.graph.transform.OrientedGraph` row-split array as a
batched suffix gather.  At single-row frontiers (the root of every
plan) intersect/subtract route through ``ctx.intersect``/``ctx.subtract``
— the same adaptive kernels and :class:`~repro.runtime.setops.SetOpCache`
memoization the scalar executors use — so root-level set algebra shares
one implementation and one cache across all three backends.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.ast_nodes import (
    Accumulate,
    IfPositive,
    IfPred,
    Loop,
    Node,
    Root,
    ScalarOp,
    SetOp,
)
from repro.exceptions import ExecutionError
from repro.graph.csr import CSRGraph
from repro.runtime import vectorops as vo
from repro.runtime.context import ExecutionContext
from repro.runtime.vectorops import Ragged

__all__ = ["run_vectorized", "MAX_FRONTIER_ROWS"]

#: Frontier-size cap per loop descend: larger frontiers are processed in
#: contiguous parent-row groups so peak memory stays bounded (each row
#: costs a few int64 columns; 2**20 rows ≈ tens of MB per live level).
MAX_FRONTIER_ROWS = 1 << 20

#: Buckets of the in-process frontier-size histogram (rows per descend).
_FRONTIER_BUCKETS = (1.0, 16.0, 256.0, 4096.0, 65536.0, 1048576.0)

_VERTEX = 0
_SCALAR = 1
_SET = 2


class _Frontier:
    """A batch of partial embeddings at one loop level.

    ``parent_map`` maps each row to the row of ``parent`` it extends;
    the root frontier (one empty embedding) has neither.  ``map_to``
    composes parent maps up the chain (memoized); ``None`` encodes the
    identity map to avoid materializing ``arange`` for same-level reads.
    """

    __slots__ = ("size", "parent", "parent_map", "_maps", "cache")

    def __init__(self, size, parent=None, parent_map=None):
        self.size = size
        self.parent = parent
        self.parent_map = parent_map
        self._maps: dict[int, np.ndarray] = {}
        #: Per-frontier memo of resolved (immutable) values, keyed by
        #: variable name.  Dies with the frontier.
        self.cache: dict[str, object] = {}

    def map_to(self, ancestor: "_Frontier") -> np.ndarray | None:
        if ancestor is self:
            return None
        cached = self._maps.get(id(ancestor))
        if cached is not None:
            return cached
        mapping = self.parent_map
        frontier = self.parent
        while frontier is not ancestor:
            if frontier is None:
                raise ExecutionError(
                    "vectorized executor: variable read outside its "
                    "defining loop nest (malformed plan)"
                )
            if frontier.parent_map is not None:
                mapping = frontier.parent_map[mapping]
            frontier = frontier.parent
        self._maps[id(ancestor)] = mapping
        return mapping


def run_vectorized(
    root: Root,
    graph: CSRGraph,
    ctx: ExecutionContext,
    start: int | None = None,
    stop: int | None = None,
) -> dict[str, int]:
    """Execute the tree batch-wise; returns this invocation's
    accumulator values.

    Drop-in replacement for
    :func:`~repro.compiler.interpreter.run_interpreter`:
    ``start``/``stop`` restrict the outermost loop to a slice of its
    source set (the parallel engine's chunking hook).
    """
    if root.num_tables:
        raise ExecutionError(
            "the vectorized executor supports counting plans only — "
            "emit-mode plans (hash tables, partial-embedding delivery) "
            "observe per-embedding order; run them with "
            "executor='codegen' or 'interpreter'"
        )
    acc = {name: 0 for name in root.accumulators}
    _Vectorized(graph, ctx, acc, start, stop).block(
        root.body, _Frontier(1), outer=True
    )
    return acc


class _Vectorized:
    def __init__(self, graph, ctx, acc, start, stop):
        self.graph = graph
        self.ctx = ctx
        self.acc = acc
        self.start = start
        self.stop = stop
        self.num_vertices = graph.num_vertices
        self.env: dict[str, list] = {}
        self._universe: np.ndarray | None = None
        self._split = (graph.split if getattr(graph, "orientation", None)
                       else None)
        # Resource governor (None on ungoverned runs): shrinks the
        # effective frontier-row cap and is polled per descend slice.
        self.resources = getattr(ctx, "resources", None)
        from repro.observe import metrics as om

        self._frontier_hist = om.histogram(
            "repro_vectorized_frontier_rows",
            "rows per vectorized loop descend",
            buckets=_FRONTIER_BUCKETS,
        )

    # ------------------------------------------------------------------
    # Value resolution
    # ------------------------------------------------------------------
    def _resolve_column(self, var: str, frontier: _Frontier):
        """A vertex/scalar variable as a column at ``frontier`` (or a
        plain ``int`` for an unpromoted uniform scalar)."""
        kind, def_frontier, data = self.env[var]
        if isinstance(data, int):
            return data
        if def_frontier is frontier:
            return data
        if kind == _SCALAR:
            # Scalar columns are mutable (Accumulate targets) — never
            # memoize their gathers.
            mapping = frontier.map_to(def_frontier)
            return data if mapping is None else data[mapping]
        cached = frontier.cache.get(var)
        if cached is None:
            mapping = frontier.map_to(def_frontier)
            cached = data if mapping is None else data[mapping]
            frontier.cache[var] = cached
        return cached

    def _resolve_set(self, var: str, frontier: _Frontier) -> Ragged:
        kind, def_frontier, data = self.env[var]
        if def_frontier is frontier:
            return data
        cached = frontier.cache.get(var)
        if cached is None:
            mapping = frontier.map_to(def_frontier)
            cached = data if mapping is None else data.take_rows(mapping)
            frontier.cache[var] = cached
        return cached

    def _resolve_set_lazy(self, var: str,
                          frontier: _Frontier) -> tuple[Ragged, object]:
        """A set variable as ``(ragged, row_map)`` where ``row_map``
        sends ``frontier`` rows to rows of the returned ragged
        (``None`` = identity).

        This is the zero-copy view of an ancestor-defined operand:
        ``_resolve_set`` would gather it to the child frontier with a
        ``take_rows`` proportional to the *child's* total set volume —
        the dominant cost on wide frontiers.  Probe-side consumers
        (the mapped kernels in :mod:`repro.runtime.vectorops`) only
        need the map, because composed parent maps are non-decreasing
        and so leave the ancestor's composite keys sorted.
        """
        kind, def_frontier, data = self.env[var]
        if def_frontier is frontier:
            return data, None
        cached = frontier.cache.get(var)
        if cached is not None:  # already paid for the gather — reuse it
            return cached, None
        return data, frontier.map_to(def_frontier)

    def _set_pair(self, va: str, vb: str, frontier: _Frontier,
                  symmetric: bool) -> tuple[Ragged, Ragged, object]:
        """Resolve an operand pair for a binary set op as
        ``(a, b, b_map)``: ``a`` materialized at ``frontier``, ``b``
        possibly left at an ancestor frontier behind ``b_map``.

        For ``symmetric`` ops (intersection) the operands are swapped
        when that lets the ancestor-defined side stay un-gathered —
        sorted set intersection is order-insensitive, so the result is
        identical either way.
        """
        a, a_map = self._resolve_set_lazy(va, frontier)
        b, b_map = self._resolve_set_lazy(vb, frontier)
        if a_map is not None:
            # Swapping probes every element of the current-level operand
            # against the ancestor's (tiny) sorted keys; materializing
            # pays the gather but then probes only the gathered volume.
            # Pick whichever moves fewer elements (2x: the gather and
            # the probe both touch the materialized copy).
            gathered = int(a.sizes[a_map].sum())
            if symmetric and b_map is None and b.total <= 2 * gathered:
                a, b, b_map = b, a, a_map
            else:
                a = self._resolve_set(va, frontier)
        return a, b, b_map

    def _set_sizes(self, var: str, frontier: _Frontier) -> np.ndarray:
        """Per-row sizes of a set variable at ``frontier`` without
        materializing the gathered values."""
        kind, def_frontier, data = self.env[var]
        sizes = data.sizes
        if def_frontier is frontier:
            return sizes
        mapping = frontier.map_to(def_frontier)
        return sizes if mapping is None else sizes[mapping]

    # ------------------------------------------------------------------
    # Block / node dispatch
    # ------------------------------------------------------------------
    def block(self, nodes: list[Node], frontier: _Frontier,
              outer: bool = False) -> None:
        if frontier.size == 0:
            return
        for node in nodes:
            self.execute(node, frontier, outer)

    def execute(self, node: Node, frontier: _Frontier,
                outer: bool = False) -> None:
        if isinstance(node, SetOp):
            self.env[node.target] = self.set_op(node, frontier)
        elif isinstance(node, ScalarOp):
            self.env[node.target] = self.scalar_op(node, frontier)
        elif isinstance(node, Loop):
            self.loop(node, frontier, outer)
        elif isinstance(node, Accumulate):
            self.accumulate(node, frontier)
        elif isinstance(node, IfPositive):
            value = self._resolve_column(node.scalar, frontier)
            if isinstance(value, int):
                if value > 0:
                    self.block(node.body, frontier)
                return
            mask = value > 0
            self._filtered(node.body, frontier, mask)
        elif isinstance(node, IfPred):
            pred = self.ctx.predicates[node.pred]
            columns = [
                self._resolve_column(v, frontier) for v in node.vertices
            ]
            rows = zip(*(column.tolist() for column in columns))
            mask = np.fromiter(
                (bool(pred(*row)) for row in rows),
                dtype=bool, count=frontier.size,
            )
            self._filtered(node.body, frontier, mask)
        else:
            raise ExecutionError(
                f"vectorized executor cannot run {type(node).__name__} "
                "nodes (emit-mode plans run on the scalar executors)"
            )

    def _filtered(self, body: list[Node], frontier: _Frontier,
                  mask: np.ndarray) -> None:
        """Run ``body`` on the rows of ``frontier`` where ``mask``."""
        if mask.all():
            self.block(body, frontier)
            return
        selected = np.flatnonzero(mask).astype(np.int64)
        if selected.size == 0:
            return
        self.block(body, _Frontier(int(selected.size), frontier, selected))

    # ------------------------------------------------------------------
    # Loops
    # ------------------------------------------------------------------
    def loop(self, node: Loop, frontier: _Frontier, outer: bool) -> None:
        source = self._resolve_set(node.source, frontier)
        if outer:
            # Chunking hook: slice the (single-row) outer source set.
            lo = self.start if self.start is not None else 0
            hi = self.stop if self.stop is not None else source.total
            source = Ragged.single(source.values[lo:hi])
        total = source.total
        if total == 0:
            return
        # The governor can shrink the effective cap below the static
        # MAX_FRONTIER_ROWS: each watchdog downshift halves it, and a
        # max_frontier_bytes budget clamps it outright.  Re-read per
        # loop so a mid-chunk downshift takes effect immediately.
        cap = (
            self.resources.frontier_rows_cap(MAX_FRONTIER_ROWS)
            if self.resources is not None else MAX_FRONTIER_ROWS
        )
        if total <= cap or frontier.size <= 1:
            self._descend(node, frontier, source, None)
            return
        # Split the parent rows into contiguous groups whose child
        # frontiers stay under the cap (one oversized row still runs
        # alone — it cannot be split without breaking row identity).
        ends = np.asarray(source.offsets[1:])
        lo = 0
        while lo < frontier.size:
            budget = int(source.offsets[lo]) + cap
            hi = int(np.searchsorted(ends, budget, side="right"))
            hi = max(hi, lo + 1)
            rows = np.arange(lo, hi, dtype=np.int64)
            self._descend(node, frontier, source.take_rows(rows), rows)
            lo = hi

    def _descend(self, node: Loop, frontier: _Frontier, source: Ragged,
                 row_index: np.ndarray | None) -> None:
        """One batched execution of a loop body: the child frontier has
        one row per (parent row, source element) pair."""
        sizes = source.sizes
        if row_index is None:
            parent_map = np.repeat(
                np.arange(frontier.size, dtype=np.int64), sizes
            )
        else:
            parent_map = np.repeat(row_index, sizes)
        child = _Frontier(source.total, frontier, parent_map)
        if self.resources is not None:
            # Frontier-bytes accounting + cancel poll, before the body
            # touches the child: an over-budget slice raises MemoryError
            # (the supervisor bisects the chunk) right here.
            self.resources.note_frontier(child.size)
        vo.VSTATS.record("frontier", child.size)
        self._frontier_hist.observe(float(child.size))
        self.env[node.var] = [_VERTEX, child, source.values]
        self.block(node.body, child)

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def accumulate(self, node: Accumulate, frontier: _Frontier) -> None:
        if isinstance(node.value, str):
            value = self._resolve_column(node.value, frontier)
        else:
            value = node.value
        if node.target in self.acc:
            if isinstance(value, int):
                self.acc[node.target] += value * frontier.size
            else:
                self.acc[node.target] += int(value.sum())
            return
        entry = self.env[node.target]
        if entry[0] != _SCALAR:
            raise ExecutionError(
                f"accumulate target {node.target!r} is not a scalar"
            )
        if isinstance(entry[2], int):
            # Promote the uniform constant to a mutable column at its
            # defining frontier on first accumulation.
            entry[2] = np.full(entry[1].size, entry[2], dtype=np.int64)
        column = entry[2]
        mapping = frontier.map_to(entry[1])
        if mapping is None:
            if isinstance(value, int):
                column += value
            else:
                column += value
        else:
            np.add.at(column, mapping, value)

    # ------------------------------------------------------------------
    # Scalar ops
    # ------------------------------------------------------------------
    def scalar_op(self, node: ScalarOp, frontier: _Frontier) -> list:
        op = node.op
        args = node.args
        if op == "const":
            return [_SCALAR, frontier, int(args[0])]
        if op == "size":
            sizes = self._set_sizes(args[0], frontier)
            return [_SCALAR, frontier, np.ascontiguousarray(sizes,
                                                            dtype=np.int64)]

        def value(arg):
            if isinstance(arg, str):
                return self._resolve_column(arg, frontier)
            return arg

        a, b = value(args[0]), value(args[1])
        if op == "mul":
            result = a * b
        elif op == "add":
            result = a + b
        elif op == "sub":
            result = a - b
        elif op == "floordiv":
            result = a // b
        else:
            raise ExecutionError(f"unknown scalar op {op!r}")
        if not isinstance(result, (int, np.ndarray)):
            result = int(result)
        return [_SCALAR, frontier, result]

    # ------------------------------------------------------------------
    # Set ops
    # ------------------------------------------------------------------
    def set_op(self, node: SetOp, frontier: _Frontier) -> list:
        graph = self.graph
        op = node.op
        args = node.args
        n = self.num_vertices
        if op == "universe":
            if self._universe is None:
                self._universe = graph.vertices()
            return self._wrap(frontier,
                              self._broadcast(self._universe, frontier))
        if op == "neighbors":
            return self._wrap(frontier, self._adjacency(args[0], frontier,
                                                        oriented=False))
        if op == "oriented":
            return self._wrap(frontier, self._adjacency(args[0], frontier,
                                                        oriented=True))
        if op == "intersect":
            a, b, b_map = self._set_pair(args[0], args[1], frontier,
                                         symmetric=True)
            return self._wrap(frontier, self._intersect(a, b, b_map))
        if op == "subtract":
            a, b, b_map = self._set_pair(args[0], args[1], frontier,
                                         symmetric=False)
            return self._wrap(frontier, self._subtract(a, b, b_map))
        if op == "copy":
            return self.env[args[0]]
        if op == "trim_below":
            a = self._resolve_set(args[0], frontier)
            bounds = self._bound_column(args[1], frontier)
            return self._wrap(frontier, vo.trim_below(a, bounds))
        if op == "trim_above":
            a = self._resolve_set(args[0], frontier)
            bounds = self._bound_column(args[1], frontier)
            return self._wrap(frontier, vo.trim_above(a, bounds))
        if op in ("intersect_upto", "intersect_from",
                  "subtract_upto", "subtract_from"):
            a, b, b_map = self._set_pair(
                args[0], args[1], frontier,
                symmetric=op.startswith("intersect"),
            )
            bounds = self._bound_column(args[2], frontier)
            # Pre-trim the probing operand: the bounded kernels'
            # never-materialize-the-untrimmed-set trick, batch-wise.
            # Trims commute with intersection, so pre-trimming whichever
            # operand _set_pair kept materialized is still the bounded
            # intersection; subtraction is never swapped, so its trim
            # always lands on the original probing operand.
            if op.endswith("upto"):
                a = vo.trim_below(a, bounds)
            else:
                a = vo.trim_above(a, bounds)
            if op.startswith("intersect"):
                return self._wrap(frontier, self._intersect(a, b, b_map))
            return self._wrap(frontier, self._subtract(a, b, b_map))
        if op == "exclude":
            a = self._resolve_set(args[0], frontier)
            columns = [self._bound_column(arg, frontier)
                       for arg in args[1:]]
            return self._wrap(frontier, vo.exclude(a, columns))
        if op == "filter_label":
            a = self._resolve_set(args[0], frontier)
            keep = graph.labels[a.values] == args[1]
            return self._wrap(frontier, vo.filter_values(a, keep))
        if op == "label_universe":
            base = graph.vertices_with_label(args[0])
            return self._wrap(frontier, self._broadcast(base, frontier))
        raise ExecutionError(f"unknown set op {op!r}")

    @staticmethod
    def _wrap(frontier: _Frontier, ragged: Ragged) -> list:
        return [_SET, frontier, ragged]

    def _broadcast(self, values: np.ndarray, frontier: _Frontier) -> Ragged:
        if frontier.size == 1:
            return Ragged.single(values)
        return Ragged.broadcast(values, frontier.size)

    def _bound_column(self, var: str, frontier: _Frontier) -> np.ndarray:
        column = self._resolve_column(var, frontier)
        if isinstance(column, int):  # cannot happen for vertex vars
            return np.full(frontier.size, column, dtype=np.int64)
        return column

    def _adjacency(self, var: str, frontier: _Frontier,
                   oriented: bool) -> Ragged:
        column = self._resolve_column(var, frontier)
        graph = self.graph
        if oriented and self._split is None:
            raise ExecutionError(
                "plan contains oriented set ops but the graph is not an "
                "OrientedGraph; execute with the matching orientation"
            )
        if len(column) == 1:
            # Identity-stable single rows: the same cached CSR view the
            # scalar executors use, so the SetOpCache can key on it.
            vertex = int(column[0])
            row = (graph.out_neighbors(vertex) if oriented
                   else graph.neighbors(vertex))
            vo.VSTATS.record("oriented" if oriented else "neighbors", 1)
            return Ragged.single(row)
        return vo.neighbors_batch(
            graph.indptr, graph.indices, column,
            split=self._split if oriented else None,
            kernel="oriented" if oriented else "neighbors",
        )

    def _intersect(self, a: Ragged, b: Ragged, b_map=None) -> Ragged:
        if b_map is None and a.rows == 1 and b.rows == 1:
            vo.VSTATS.record("intersect", 1)
            return Ragged.single(self.ctx.intersect(a.values, b.values))
        return vo.intersect(a, b, self.num_vertices, a_map=b_map)

    def _subtract(self, a: Ragged, b: Ragged, b_map=None) -> Ragged:
        if b_map is None and a.rows == 1 and b.rows == 1:
            vo.VSTATS.record("subtract", 1)
            return Ragged.single(self.ctx.subtract(a.values, b.values))
        return vo.subtract(a, b, self.num_vertices, a_map=b_map)
