"""Tests for the shared CSR builder (``repro.graph.csr``).

``graph_to_csr`` grew out of ``graph/distance.py`` and now serves the
distance/stretch analytics; these are its direct unit tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import NodeNotFoundError
from repro.graph.csr import graph_to_csr
from repro.graph.distance import graph_to_csr as reexported
from repro.graph.graph import Graph


def dense(mat):
    return np.asarray(mat.todense())


class TestGeneric:
    def test_empty_graph(self):
        mat, order = graph_to_csr(Graph())
        assert mat.shape == (0, 0)
        assert order == []

    def test_isolated_nodes(self):
        g = Graph([3, 1, 2])
        mat, order = graph_to_csr(g)
        assert mat.nnz == 0
        assert mat.shape == (3, 3)
        assert order == [3, 1, 2]

    def test_adjacency_contents(self):
        g = Graph.from_edges([("a", "b"), ("b", "c")])
        mat, order = graph_to_csr(g)
        idx = {u: i for i, u in enumerate(order)}
        d = dense(mat)
        assert d[idx["a"], idx["b"]] == 1 == d[idx["b"], idx["a"]]
        assert d[idx["a"], idx["c"]] == 0
        assert mat.nnz == 4  # both directions of both edges

    def test_node_order_stability(self):
        g = Graph.from_edges([(2, 0), (0, 1)])
        default_order = graph_to_csr(g)[1]
        assert default_order == list(g.nodes())
        explicit = [1, 2, 0]
        mat, order = graph_to_csr(g, explicit)
        assert order == explicit
        assert order is not explicit  # defensive copy
        assert dense(mat)[0, 2] == 1  # (1, 0) edge under explicit order

    def test_order_subset_drops_outside_edges(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        mat, order = graph_to_csr(g, [0, 1])
        assert order == [0, 1]
        assert mat.nnz == 2

    def test_duplicate_order_rejected(self):
        g = Graph([0, 1])
        with pytest.raises(ValueError):
            graph_to_csr(g, [0, 0])

    def test_unknown_order_node_rejected(self):
        with pytest.raises(NodeNotFoundError):
            graph_to_csr(Graph([0]), [0, 9])

    def test_distance_reexport_is_same_function(self):
        assert reexported is graph_to_csr

