"""The shared CSR builder: one graph → scipy-CSR conversion for everyone.

Grown out of ``graph/distance.py::graph_to_csr`` (which now re-exports
it): the distance/stretch analytics and any future numpy consumer all
build their sparse adjacency here, so the row-order contract
("``order[i]`` is the node label of matrix row ``i``") and its
validation exist exactly once. The builder walks ``neighbors_view`` per
node, so it works for any ``Graph``-interface object and any explicit
``order``.
"""

from __future__ import annotations

from typing import Hashable, Sequence

import numpy as np

from repro.errors import NodeNotFoundError
from repro.graph.graph import Graph

__all__ = ["graph_to_csr"]

Node = Hashable


def graph_to_csr(graph: Graph, order: Sequence[Node] | None = None):
    """Convert ``graph`` to a scipy CSR adjacency matrix.

    Returns ``(csr_matrix, order)`` where ``order[i]`` is the node label
    of matrix row ``i``. Passing an explicit ``order`` lets callers keep
    a consistent indexing across the original and healed graphs (needed
    for stretch, where the two graphs share surviving labels).
    """
    from scipy.sparse import csr_matrix

    if order is None:
        order = list(graph.nodes())
    index = {u: i for i, u in enumerate(order)}
    if len(index) != len(order):
        raise ValueError("order contains duplicate node labels")
    rows: list[int] = []
    cols: list[int] = []
    for u in order:
        if not graph.has_node(u):
            raise NodeNotFoundError(u)
        iu = index[u]
        for v in graph.neighbors_view(u):
            iv = index.get(v)
            if iv is not None:
                rows.append(iu)
                cols.append(iv)
    n = len(order)
    data = np.ones(len(rows), dtype=np.int8)
    mat = csr_matrix((data, (rows, cols)), shape=(n, n))
    return mat, list(order)

