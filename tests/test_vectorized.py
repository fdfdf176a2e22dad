"""Unit tests for the vectorized executor stack.

Three layers, bottom up: the batched ragged-set kernels
(:mod:`repro.runtime.vectorops`), the frontier executor
(:mod:`repro.runtime.vectorized`), and the shared-memory graph segments
(:mod:`repro.graph.shared`) — plus the engine-level contracts around
them: eager ``EngineOptions.executor`` validation and the empty-frontier
edge cases (pattern larger than graph, zero-degree vertices, isolated
vertices) that no fixture graph in the differential suites exercises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import reference
from repro.compiler.pipeline import compile_pattern
from repro.costmodel import profile_graph
from repro.exceptions import ExecutionError, ReproError
from repro.graph import shared
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi
from repro.graph.transform import orient
from repro.patterns import catalog
from repro.runtime import vectorops
from repro.runtime.context import ExecutionContext
from repro.runtime.engine import EXECUTORS, EngineOptions, execute_plan
from repro.runtime.vectorized import run_vectorized
from repro.runtime.vectorops import Ragged


def ragged(*rows):
    values = np.array([x for row in rows for x in row], dtype=np.int64)
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    return Ragged(values, offsets)


def as_lists(r: Ragged) -> list[list[int]]:
    return [list(r.row(i)) for i in range(r.rows)]


class TestRagged:
    def test_shape_accessors(self):
        r = ragged([1, 4, 7], [], [2, 9])
        assert r.rows == 3 and r.total == 5
        assert list(r.sizes) == [3, 0, 2]
        assert as_lists(r) == [[1, 4, 7], [], [2, 9]]

    def test_empty_and_single(self):
        assert as_lists(Ragged.empty(3)) == [[], [], []]
        assert Ragged.empty(0).rows == 0
        assert as_lists(Ragged.single(np.array([2, 5]))) == [[2, 5]]

    def test_broadcast(self):
        r = Ragged.broadcast(np.array([1, 3], dtype=np.int64), 3)
        assert as_lists(r) == [[1, 3], [1, 3], [1, 3]]
        assert Ragged.broadcast(np.array([], dtype=np.int64), 2).total == 0

    def test_take_rows_repeats_and_reorders(self):
        r = ragged([1, 2], [5], [], [7, 8, 9])
        taken = r.take_rows(np.array([3, 0, 0, 2]))
        assert as_lists(taken) == [[7, 8, 9], [1, 2], [1, 2], []]

    def test_row_ids(self):
        r = ragged([1, 2], [], [5])
        assert list(r.row_ids()) == [0, 0, 2]


class TestBatchedKernels:
    def test_intersect_per_row(self):
        a = ragged([1, 3, 5], [2, 4], [], [0, 9])
        b = ragged([3, 5, 7], [4], [1], [1, 2])
        out = vectorops.intersect(a, b, num_vertices=10)
        assert as_lists(out) == [[3, 5], [4], [], []]

    def test_intersect_does_not_cross_rows(self):
        # Row 0 of a and row 1 of b share values; they must not match.
        a = ragged([1, 2], [8])
        b = ragged([8], [1, 2])
        out = vectorops.intersect(a, b, num_vertices=9)
        assert as_lists(out) == [[], []]

    def test_subtract_per_row(self):
        a = ragged([1, 3, 5], [2, 4], [7])
        b = ragged([3], [2, 4], [])
        out = vectorops.subtract(a, b, num_vertices=8)
        assert as_lists(out) == [[1, 5], [], [7]]

    def test_trims(self):
        a = ragged([1, 3, 5], [2, 4, 6])
        bounds = np.array([4, 4], dtype=np.int64)
        assert as_lists(vectorops.trim_below(a, bounds)) == [[1, 3], [2]]
        assert as_lists(vectorops.trim_above(a, bounds)) == [[5], [6]]

    def test_exclude(self):
        a = ragged([1, 2, 3], [4, 5])
        cols = [np.array([2, 4], dtype=np.int64),
                np.array([3, 9], dtype=np.int64)]
        assert as_lists(vectorops.exclude(a, cols)) == [[1], [5]]

    def test_filter_values(self):
        a = ragged([1, 2, 3], [4, 5])
        keep = np.array([True, False, True, False, True])
        assert as_lists(vectorops.filter_values(a, keep)) == [[1, 3], [5]]

    def test_neighbors_batch_matches_graph(self):
        graph = erdos_renyi(20, 0.3, seed=1)
        vertices = np.array([0, 7, 7, 19], dtype=np.int64)
        out = vectorops.neighbors_batch(graph.indptr, graph.indices, vertices)
        for i, v in enumerate(vertices):
            assert list(out.row(i)) == list(graph.neighbors(int(v)))

    def test_neighbors_batch_oriented_split(self):
        graph = orient(erdos_renyi(20, 0.3, seed=1), "degree")
        vertices = np.array([3, 11, 3], dtype=np.int64)
        out = vectorops.neighbors_batch(
            graph.indptr, graph.indices, vertices, split=graph.split
        )
        for i, v in enumerate(vertices):
            assert list(out.row(i)) == list(graph.out_neighbors(int(v)))

    def test_empty_batches(self):
        empty = Ragged.empty(0)
        assert vectorops.intersect(empty, empty, 5).rows == 0
        assert vectorops.neighbors_batch(
            np.zeros(1, np.int64), np.zeros(0, np.int64),
            np.zeros(0, np.int64),
        ).rows == 0

    def test_vstats_records_calls_rows_and_buckets(self):
        before = vectorops.VSTATS.snapshot()
        a = ragged([1, 2], [3], [4])
        vectorops.intersect(a, a, 5)
        delta = vectorops.VSTATS.delta(before)
        assert delta["vec_intersect_calls"] == 1
        assert delta["vec_intersect_rows"] == 3
        assert delta["vec_intersect_batch_le_16"] == 1


class TestVectorizedExecutor:
    @pytest.fixture(scope="class")
    def case(self):
        graph = erdos_renyi(24, 0.3, seed=13)
        profile = profile_graph(graph, max_pattern_size=3, trials=40)
        return graph, profile

    @pytest.mark.parametrize(
        "pattern",
        [catalog.triangle(), catalog.house(), catalog.clique(5),
         catalog.figure6_pattern()],
        ids=lambda p: p.name,
    )
    def test_matches_interpreter(self, case, pattern):
        from repro.compiler.interpreter import run_interpreter

        graph, profile = case
        plan = compile_pattern(pattern, profile)
        expected = run_interpreter(
            plan.root, graph, ExecutionContext(plan.root.num_tables)
        )
        got = run_vectorized(
            plan.root, graph, ExecutionContext(plan.root.num_tables)
        )
        assert got == expected

    def test_partial_range_slices_outer_loop(self, case):
        graph, profile = case
        plan = compile_pattern(catalog.triangle(), profile)
        whole = run_vectorized(
            plan.root, graph, ExecutionContext(plan.root.num_tables)
        )
        mid = graph.num_vertices // 2
        lo = run_vectorized(
            plan.root, graph, ExecutionContext(plan.root.num_tables),
            start=0, stop=mid,
        )
        hi = run_vectorized(
            plan.root, graph, ExecutionContext(plan.root.num_tables),
            start=mid, stop=graph.num_vertices,
        )
        assert {
            key: lo.get(key, 0) + hi.get(key, 0) for key in whole
        } == whole

    def test_emit_plans_rejected(self, case):
        graph, profile = case
        plan = compile_pattern(catalog.triangle(), profile, mode="emit")
        with pytest.raises(ExecutionError, match="emit"):
            run_vectorized(
                plan.root, graph,
                ExecutionContext(plan.root.num_tables, emit=lambda *a: None),
            )


class TestExecutorValidation:
    def test_unknown_executor_rejected_eagerly(self):
        with pytest.raises(ExecutionError) as excinfo:
            EngineOptions(executor="jit")
        message = str(excinfo.value)
        for choice in EXECUTORS:
            assert choice in message

    def test_validation_error_is_repro_error(self):
        with pytest.raises(ReproError):
            EngineOptions(executor="")

    def test_known_executors_accepted(self):
        for executor in EXECUTORS:
            assert EngineOptions(executor=executor).executor == executor


class TestEmptyFrontiers:
    """Degenerate inputs every executor must count (as zero or not)
    without tripping on empty arrays."""

    def _counts(self, graph, pattern):
        profile = profile_graph(graph, max_pattern_size=3, trials=20)
        plan = compile_pattern(pattern, profile)
        return {
            executor: execute_plan(
                plan, graph, options=EngineOptions(executor=executor)
            ).embedding_count
            for executor in EXECUTORS
        }

    def test_pattern_larger_than_graph(self):
        graph = CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        counts = self._counts(graph, catalog.clique(4))
        assert counts == dict.fromkeys(EXECUTORS, 0)

    def test_edgeless_graph(self):
        graph = CSRGraph.from_edges(6, [])
        counts = self._counts(graph, catalog.triangle())
        assert counts == dict.fromkeys(EXECUTORS, 0)

    def test_isolated_vertices_are_skipped(self):
        # A triangle among 0-2 plus five isolated vertices: zero-degree
        # start vertices produce empty frontiers at depth 1.
        graph = CSRGraph.from_edges(8, [(0, 1), (1, 2), (0, 2)])
        expected = reference.count_embeddings(graph, catalog.triangle())
        counts = self._counts(graph, catalog.triangle())
        assert counts == dict.fromkeys(EXECUTORS, expected)
        assert expected == 1

    def test_star_dissolves_on_sparse_graph(self):
        # Chain graph has no degree-3 vertex: star4 counts must be zero
        # and the executors must survive frontiers dying mid-nest.
        graph = CSRGraph.from_edges(5, [(i, i + 1) for i in range(4)])
        counts = self._counts(graph, catalog.star(4))
        assert counts == dict.fromkeys(EXECUTORS, 0)


class TestSharedMemorySegments:
    def test_round_trip_plain_graph(self):
        graph = erdos_renyi(25, 0.3, seed=5)
        with shared.share_graph(graph) as handle:
            assert shared.active_segments() == [handle.name]
            view = handle.graph
            assert np.array_equal(view.indptr, graph.indptr)
            assert np.array_equal(view.indices, graph.indices)
            # The view's arrays live in the segment, not the heap.
            assert view.indices.base is not graph.indices
        assert shared.active_segments() == []

    def test_round_trip_oriented_graph(self):
        oriented = orient(erdos_renyi(25, 0.3, seed=5), "degeneracy")
        with shared.share_graph(oriented) as handle:
            view = handle.graph
            assert view.orientation == "degeneracy"
            for v in range(oriented.num_vertices):
                assert np.array_equal(
                    view.out_neighbors(v), oriented.out_neighbors(v)
                )
        assert shared.active_segments() == []

    def test_round_trip_labeled_graph(self):
        graph = CSRGraph.from_edges(
            4, [(0, 1), (1, 2), (2, 3)], labels=[0, 1, 0, 1]
        )
        with shared.share_graph(graph) as handle:
            assert np.array_equal(handle.graph.labels, graph.labels)
        assert shared.active_segments() == []

    def test_descriptor_attach_round_trip(self):
        graph = erdos_renyi(25, 0.3, seed=5)
        handle = shared.share_graph(graph)
        try:
            shm, attached = shared.attach(handle.descriptor)
            assert np.array_equal(attached.indices, graph.indices)
            del attached  # drop the buffer exports before unmapping
            shm.close()
        finally:
            handle.close()
        assert shared.active_segments() == []

    def test_attach_cached_reuses_creator_mapping(self):
        graph = erdos_renyi(25, 0.3, seed=5)
        with shared.share_graph(graph) as handle:
            assert shared.attach_cached(handle.descriptor) is handle.graph

    def test_close_is_idempotent_and_survives_live_views(self):
        graph = erdos_renyi(25, 0.3, seed=5)
        handle = shared.share_graph(graph)
        view = handle.graph.indices  # keeps a buffer export alive
        handle.close()
        handle.close()
        assert shared.active_segments() == []
        assert view[0] >= 0  # the mapping itself stays valid

    def test_vectorized_runs_on_shared_view(self):
        from repro.compiler.interpreter import run_interpreter

        graph = erdos_renyi(25, 0.3, seed=5)
        profile = profile_graph(graph, max_pattern_size=3, trials=20)
        plan = compile_pattern(catalog.house(), profile)
        # Raw accumulators (pre aux-plan correction) on the heap graph
        # vs the vectorized run on the shared-memory view: identical.
        expected = run_interpreter(
            plan.root, graph, ExecutionContext(plan.root.num_tables)
        )
        with shared.share_graph(graph) as handle:
            result = run_vectorized(
                plan.root, handle.graph,
                ExecutionContext(plan.root.num_tables),
            )
        assert result == expected
