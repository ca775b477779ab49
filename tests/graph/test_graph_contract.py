"""Graph against a plain dict-of-sets model.

The campaign engine, the fused kernel and the checkpoint code all rely
on the exact ``Graph`` contract: return values, exception types, and the
degree-listener mutation stream. The mirrored random-op test drives a
``Graph`` and a minimal reference model through the same operation
sequence and compares after every step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    EdgeNotFoundError,
    NodeNotFoundError,
    SelfLoopError,
)
from repro.graph.graph import Graph


class Model:
    """The Graph contract in its simplest form."""

    def __init__(self, nodes=()):
        self.adj = {u: set() for u in nodes}

    def add_node(self, u):
        self.adj.setdefault(u, set())

    def remove_node(self, u):
        if u not in self.adj:
            raise NodeNotFoundError(u)
        nbrs = self.adj.pop(u)
        for v in nbrs:
            self.adj[v].discard(u)
        return nbrs

    def add_edge(self, u, v):
        if u == v:
            raise SelfLoopError(u)
        self.add_node(u)
        self.add_node(v)
        new = v not in self.adj[u]
        self.adj[u].add(v)
        self.adj[v].add(u)
        return new

    def remove_edge(self, u, v):
        for w in (u, v):
            if w not in self.adj:
                raise NodeNotFoundError(w)
        if v not in self.adj[u]:
            raise EdgeNotFoundError(u, v)
        self.adj[u].discard(v)
        self.adj[v].discard(u)


def assert_matches(g: Graph, m: Model):
    assert list(g.nodes()) == list(m.adj)
    assert g.degrees() == {u: len(n) for u, n in m.adj.items()}
    assert g.num_edges == sum(len(n) for n in m.adj.values()) // 2
    assert {frozenset(e) for e in g.edges()} == {
        frozenset((u, v)) for u, n in m.adj.items() for v in n
    }
    for u, nbrs in m.adj.items():
        assert g.neighbors(u) == nbrs
    assert g == Graph.from_edges(
        [(u, v) for u, n in m.adj.items() for v in n], nodes=m.adj
    )


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["add_node", "remove_node", "add_edge", "remove_edge"]
        ),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_random_op_sequences_match_model(ops):
    g, m = Graph(range(3)), Model(range(3))
    g.max_degree()  # build the degree index so every op maintains it
    for op, u, v in ops:
        results = []
        for t in (g, m):
            try:
                if op == "add_node":
                    results.append(("ok", t.add_node(u)))
                elif op == "remove_node":
                    results.append(("ok", t.remove_node(u)))
                elif op == "add_edge":
                    results.append(("ok", t.add_edge(u, v)))
                else:
                    results.append(("ok", t.remove_edge(u, v)))
            except Exception as exc:  # noqa: BLE001 - compared below
                results.append((type(exc).__name__, None))
        assert results[0] == results[1]
        assert_matches(g, m)
        g.check_degree_index()


def test_from_edges_keeps_isolated_nodes():
    g = Graph.from_edges([(0, 1), (1, 2)], nodes=[5])
    assert sorted(g.nodes()) == [0, 1, 2, 5]
    assert g.degree(5) == 0 and g.num_edges == 2


def test_remove_returns_ex_neighbor_set():
    g = Graph.from_edges([(0, 1), (1, 2)])
    assert g.remove_node(1) == {0, 2}
    assert g.num_edges == 0


def test_readded_node_starts_isolated():
    g = Graph.from_edges([(0, 1), (1, 2)])
    g.remove_node(1)
    g.add_node(1)
    assert g.degree(1) == 0
    assert not g.has_edge(0, 1)
    assert g.num_nodes == 3


def test_neighbors_view_is_live():
    g = Graph.from_edges([(0, 1), (0, 2)])
    assert isinstance(g.neighbors(0), frozenset)
    view = g.neighbors_view(0)
    g.add_edge(0, 3)
    assert 3 in view
    with pytest.raises(NodeNotFoundError):
        g.neighbors_view(9)


def test_degree_of_and_degrees_of():
    g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (2, 3)])
    assert g.degree_of(0) == 3
    assert g.degree_of(9) is None
    assert g.degrees_of([2, 3], offset=1) == {2: 3, 3: 3}
    with pytest.raises(NodeNotFoundError):
        g.degrees_of([2, 9])


def test_degree_listener_stream_is_exact():
    """The full ordered stream, not just membership: the network's δ
    bookkeeping replays it step by step."""
    g = Graph(range(4))
    calls = []
    g.degree_listener = lambda *args: calls.append(args)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    g.remove_edge(0, 1)
    g.remove_node(2)
    g.add_node(2)
    assert calls == [
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 2),
        (2, 0, 1),
        (0, 1, 0),
        (1, 2, 1),
        (2, 1, None),
        (1, 1, 0),
        (2, None, 0),
    ]
