"""Dynamic undirected simple graph backed by adjacency sets.

This is the substrate the whole reproduction runs on. The self-healing
simulation makes three kinds of topology changes at high frequency —
node deletion (the adversary), edge insertion (the healer), and neighbor
queries (both) — so the structure is optimized for O(1) expected-time
mutation and neighbor iteration rather than for static analytics.

Design notes
------------
* Nodes are arbitrary hashable labels; the library itself uses ints.
* Simple graph: no self-loops, no parallel edges. Healing algorithms in
  the paper never need either, and forbidding them catches bugs early.
* ``neighbors()`` returns an *immutable snapshot* (a ``frozenset`` copy);
  ``neighbors_view()`` is the live no-copy alternative for hot loops.
* No edge/node attribute dictionaries: per-node algorithm state (IDs,
  degree deltas, weights) lives in the healing context, not the graph,
  which keeps this structure lean and the healers explicit about state.
* A :class:`~repro.graph.degree_index.DegreeIndex` makes ``max_degree``/
  ``min_degree`` and the extreme-degree-node queries the targeted
  adversaries issue each round O(1)-ish instead of full-node scans. It is
  built lazily on the *first* such query (O(n)) and maintained
  incrementally from then on, so graphs whose extremes are never queried
  — bulk construction, the healing-edge graph G′, untargeted campaigns —
  pay nothing. External consumers (the δ-index in
  :class:`~repro.core.network.SelfHealingNetwork`) can tap the same
  mutation stream through :attr:`Graph.degree_listener`.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Iterator

from repro.errors import (
    EdgeNotFoundError,
    NodeNotFoundError,
    SelfLoopError,
)
from repro.graph.degree_index import DegreeIndex

__all__ = ["Graph"]

Node = Hashable


class Graph:
    """Mutable undirected simple graph.

    >>> g = Graph.from_edges([(0, 1), (1, 2)])
    >>> g.degree(1)
    2
    >>> sorted(g.remove_node(1))
    [0, 2]
    >>> sorted(g.nodes())
    [0, 2]
    >>> g.num_edges
    0
    """

    __slots__ = ("_adj", "_num_edges", "_deg_index", "degree_listener")

    def __init__(self, nodes: Iterable[Node] = ()) -> None:
        self._adj: dict[Node, set[Node]] = {}
        self._num_edges: int = 0
        #: degree-bucket index, built lazily by :meth:`_index` on the
        #: first extreme-degree query; ``None`` means "never queried" and
        #: the mutators skip all index bookkeeping.
        self._deg_index: DegreeIndex | None = None
        #: Optional mutation-stream tap, called *after* each degree change
        #: as ``listener(node, old_degree, new_degree)`` — ``old_degree``
        #: is ``None`` when the node is created, ``new_degree`` is ``None``
        #: when it is removed. One listener slot; the owner of the graph
        #: (the self-healing network) sets it.
        self.degree_listener: Callable[
            [Node, int | None, int | None], None
        ] | None = None
        for node in nodes:
            self.add_node(node)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[Node, Node]], nodes: Iterable[Node] = ()
    ) -> "Graph":
        """Build a graph from an edge list (plus optional isolated nodes)."""
        g = cls(nodes)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def copy(self) -> "Graph":
        """Deep copy of the topology (node labels are shared, sets are not).

        The copy starts with no degree index (one is built lazily if its
        extremes are ever queried); the listener is *not* carried over
        (it belongs to the original's owner).
        """
        g = Graph()
        g._adj = {u: set(nbrs) for u, nbrs in self._adj.items()}
        g._num_edges = self._num_edges
        return g

    def subgraph(self, keep: Iterable[Node]) -> "Graph":
        """Induced subgraph on ``keep`` (unknown labels are ignored).

        Built by intersecting adjacency sets directly — no per-edge
        ``has_edge`` probes, and each undirected edge is materialized once
        per endpoint by the set intersection itself.
        """
        keep_set = {u for u in keep if u in self._adj}
        g = Graph()
        adj = {u: self._adj[u] & keep_set for u in keep_set}
        g._adj = adj
        g._num_edges = sum(len(nbrs) for nbrs in adj.values()) // 2
        return g

    def degree_of(self, node: Node) -> int | None:
        """Degree of ``node``, or ``None`` when absent (no exception).

        The non-raising sibling of :meth:`degree`; also the degree
        index's ground-truth oracle and the cheapest building block for
        the network's δ oracle.
        """
        nbrs = self._adj.get(node)
        return None if nbrs is None else len(nbrs)

    def _index(self) -> DegreeIndex:
        """The degree index, built on first demand (O(n) scan, then
        maintained incrementally by the mutators)."""
        idx = self._deg_index
        if idx is None:
            idx = self._deg_index = DegreeIndex(self.degree_of)
            for u, nbrs in self._adj.items():
                idx.push(u, len(nbrs))
        return idx

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` (idempotent)."""
        if node not in self._adj:
            self._adj[node] = set()
            if self._deg_index is not None:
                self._deg_index.push(node, 0)
            if self.degree_listener is not None:
                self.degree_listener(node, None, 0)

    def remove_node(self, node: Node) -> set[Node]:
        """Remove ``node`` and all incident edges; returns its ex-neighbor
        set (ownership transfers to the caller — the graph no longer
        references it, so no defensive copy is needed).

        Raises :class:`NodeNotFoundError` if absent — deleting a node twice
        in the simulation is always a logic error worth failing loudly on.
        """
        try:
            nbrs = self._adj.pop(node)
        except KeyError:
            raise NodeNotFoundError(node) from None
        idx = self._deg_index
        listener = self.degree_listener
        if idx is None and listener is None:
            for v in nbrs:
                self._adj[v].discard(node)
        else:
            # The removed node itself needs no index work: its stale
            # entries self-invalidate against the adjacency ground truth.
            if listener is not None:
                listener(node, len(nbrs), None)
            for v in nbrs:
                s = self._adj[v]
                d = len(s) - 1
                s.discard(node)
                if idx is not None:
                    idx.push(v, d)
                if listener is not None:
                    listener(v, d + 1, d)
        self._num_edges -= len(nbrs)
        return nbrs

    def has_node(self, node: Node) -> bool:
        return node in self._adj

    def nodes(self) -> Iterator[Node]:
        """Iterate over node labels (insertion order)."""
        return iter(self._adj)

    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(self, u: Node, v: Node) -> bool:
        """Add edge ``{u, v}``, creating endpoints as needed.

        Returns ``True`` when the edge was newly inserted, ``False`` when it
        already existed (the healers use the return value to count *new*
        healing edges). Self-loops raise :class:`SelfLoopError`.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_node(u)
        self.add_node(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        idx = self._deg_index
        listener = self.degree_listener
        if idx is not None or listener is not None:
            du = len(self._adj[u])
            dv = len(self._adj[v])
            if idx is not None:
                idx.push(u, du)
                idx.push(v, dv)
            if listener is not None:
                listener(u, du - 1, du)
                listener(v, dv - 1, dv)
        return True

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``{u, v}``; raises :class:`EdgeNotFoundError` if absent."""
        if u not in self._adj:
            raise NodeNotFoundError(u)
        if v not in self._adj:
            raise NodeNotFoundError(v)
        if v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._num_edges -= 1
        idx = self._deg_index
        listener = self.degree_listener
        if idx is not None or listener is not None:
            du = len(self._adj[u])
            dv = len(self._adj[v])
            if idx is not None:
                idx.push(u, du)
                idx.push(v, dv)
            if listener is not None:
                listener(u, du + 1, du)
                listener(v, dv + 1, dv)

    def has_edge(self, u: Node, v: Node) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def edges(self) -> Iterator[tuple[Node, Node]]:
        """Iterate each undirected edge exactly once as ``(u, v)``.

        The orientation is the one in which the edge is first discovered
        during iteration; callers needing canonical order should sort.
        """
        seen: set[Node] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    # ------------------------------------------------------------------
    # Neighborhood queries
    # ------------------------------------------------------------------
    def neighbors(self, node: Node) -> frozenset[Node]:
        """Neighbors of ``node`` as an immutable snapshot.

        Returns a ``frozenset`` copy: O(deg) but safe against concurrent
        mutation, which the healing loops perform constantly (for the
        live, no-copy alternative see :meth:`neighbors_view`). Profiling
        on the fig8 workload showed the copies are <3% of runtime, a
        price worth paying for mutation safety.
        """
        try:
            return frozenset(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def neighbors_view(self, node: Node) -> set[Node]:
        """The *live* adjacency set (no copy). Callers must not mutate it
        and must not hold it across topology mutations. Used in hot
        traversal loops (BFS) where the copy in :meth:`neighbors` shows up
        in profiles."""
        try:
            return self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degrees(self) -> dict[Node, int]:
        """Degree of every node as a dict (snapshot)."""
        return {u: len(nbrs) for u, nbrs in self._adj.items()}

    def degrees_of(
        self, nodes: Iterable[Node], offset: int = 0
    ) -> dict[Node, int]:
        """Degree (+``offset``) of each of ``nodes`` as a dict.

        Bulk sibling of :meth:`degree` for the per-round snapshot builds
        (one dict comprehension, no per-node method dispatch); ``offset``
        lets the deletion path reconstruct pre-round degrees from
        post-removal adjacency. Raises :class:`NodeNotFoundError` on the
        first unknown node.
        """
        adj = self._adj
        try:
            return {u: len(adj[u]) + offset for u in nodes}
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None

    def max_degree(self) -> int:
        """Largest degree in the graph; 0 for an empty graph. O(1)
        amortized (first call builds the degree index)."""
        return self._index().max_key(default=0)

    def min_degree(self) -> int:
        """Smallest degree in the graph; 0 for an empty graph. O(1)
        amortized (first call builds the degree index)."""
        return self._index().min_key(default=0)

    def max_degree_node(self) -> Node | None:
        """The maximum-degree node, smallest label on ties; ``None`` when
        empty. Indexed — no per-call node scan (see
        :mod:`repro.graph.degree_index`)."""
        return self._index().top_node()

    def min_degree_node(self) -> Node | None:
        """The minimum-degree node, smallest label on ties; ``None`` when
        empty. Indexed — no per-call node scan."""
        return self._index().bottom_node()

    def degree_bucket(self, degree: int) -> frozenset[Node]:
        """Snapshot of all nodes currently at exactly ``degree``."""
        return self._index().bucket(degree)

    def check_degree_index(self) -> None:
        """Verify the degree index against a fresh :meth:`degrees` scan.

        A never-built lazy index is vacuously consistent and is left
        unbuilt — building it here would both prove nothing (it would be
        constructed from the very adjacency it is checked against) and
        silently activate per-mutation bookkeeping on graphs that never
        query their extremes.

        O(n); raises :class:`~repro.errors.SimulationError` on mismatch.
        Used by paranoid mode and the ``check_degree_index`` invariant.
        """
        if self._deg_index is not None:
            self._deg_index.check(self.degrees())

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same node set and same edge set."""
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"
