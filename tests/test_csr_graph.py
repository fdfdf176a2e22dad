"""Tests for the CSR graph and its builder."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PatternError
from repro.graph.builder import GraphBuilder, compact_vertex_ids
from repro.graph.csr import CSRGraph


class TestBuilder:
    def test_basic_build(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_vertices == 4
        assert g.num_edges == 3
        assert g.neighbors(1).tolist() == [0, 2]

    def test_duplicate_edges_removed(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loops_removed(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_out_of_range_edge_rejected(self):
        builder = GraphBuilder(3)
        with pytest.raises(ValueError):
            builder.add_edge(0, 5)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            GraphBuilder(-1)

    def test_empty_graph(self):
        g = GraphBuilder(5).build()
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.neighbors(0).size == 0

    def test_neighbors_sorted(self):
        g = CSRGraph.from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)])
        assert g.neighbors(2).tolist() == [0, 1, 3, 4]

    def test_compact_vertex_ids(self):
        edges, mapping = compact_vertex_ids([(100, 7), (7, 42)])
        assert mapping == {100: 0, 7: 1, 42: 2}
        assert edges == [(0, 1), (1, 2)]


class TestAccessors:
    def test_degrees(self, tiny_graph):
        assert tiny_graph.degree(4) == len(tiny_graph.neighbors(4))
        assert tiny_graph.degrees.tolist() == [
            tiny_graph.degree(v) for v in range(tiny_graph.num_vertices)
        ]

    def test_edge_iteration_each_edge_once(self, tiny_graph):
        edges = list(tiny_graph.edges())
        assert len(edges) == tiny_graph.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_edge_array_matches_edges(self, tiny_graph):
        array_edges = {tuple(e) for e in tiny_graph.edge_array().tolist()}
        assert array_edges == set(tiny_graph.edges())

    def test_has_edge_symmetric(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert tiny_graph.has_edge(1, 0)
        assert not tiny_graph.has_edge(0, 6)

    def test_vertices(self, k4_graph):
        assert k4_graph.vertices().tolist() == [0, 1, 2, 3]

    def test_subgraph_adjacency(self, k4_graph):
        assert len(k4_graph.subgraph_adjacency([0, 1, 2])) == 3

    def test_split_marks_each_rows_part_above_its_vertex(self, tiny_graph):
        # Vertex 7 is isolated; 6's neighbors all lie below it.
        g = CSRGraph.from_edges(8, [*tiny_graph.edges(), (0, 6)])
        split = g.split
        for v in range(g.num_vertices):
            row = g.neighbors(v)
            cut = int(split[v] - g.indptr[v])
            assert (row[:cut] < v).all() and (row[cut:] > v).all()
        assert split[7] == g.indptr[7] == g.indptr[8]
        assert split[6] == g.indptr[7]
        assert g.split is split and not split.flags.writeable

    def test_avg_and_max_degree(self, k4_graph):
        assert k4_graph.avg_degree == 3.0
        assert k4_graph.max_degree == 3


class TestLabels:
    def test_labels_roundtrip(self):
        g = CSRGraph.from_edges(3, [(0, 1)], labels=[2, 0, 1])
        assert g.label_of(0) == 2
        assert g.num_labels() == 3

    def test_vertices_with_label(self):
        g = CSRGraph.from_edges(5, [(0, 1)], labels=[1, 0, 1, 1, 0])
        assert g.vertices_with_label(1).tolist() == [0, 2, 3]
        assert g.vertices_with_label(0).tolist() == [1, 4]
        assert g.vertices_with_label(9).size == 0

    def test_filter_label(self):
        g = CSRGraph.from_edges(5, [(0, 1)], labels=[1, 0, 1, 1, 0])
        cands = np.asarray([0, 1, 2], dtype=np.int64)
        assert g.filter_label(cands, 1).tolist() == [0, 2]

    def test_unlabeled_graph_raises(self, k4_graph):
        with pytest.raises(ValueError):
            k4_graph.label_of(0)
        with pytest.raises(ValueError):
            k4_graph.vertices_with_label(0)

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph(
                np.asarray([0, 0, 0]), np.asarray([], dtype=np.int64),
                labels=np.asarray([1]),
            )
