"""Seeded graph generators.

The paper's experiments run on Barabási–Albert preferential-attachment
graphs; its lower bound runs on complete (M+2)-ary trees. The remaining
generators exist for the wider test matrix (healers must work on *any*
initial topology — "irrespective of the topology of the initial network")
and for the example applications.

All generators take an explicit ``seed`` (where stochastic) and label
nodes ``0..n-1``, so downstream experiments are reproducible and node
labels can double as array indices.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections.abc import Mapping

from repro.errors import ConfigurationError
from repro.graph.graph import Graph
from repro.registry import Registry
from repro.utils.rng import make_rng

__all__ = [
    "preferential_attachment",
    "erdos_renyi",
    "gnm_random",
    "random_tree",
    "complete_kary_tree",
    "kary_tree_size",
    "kary_parent",
    "kary_children",
    "kary_level",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "watts_strogatz",
    "GENERATORS",
]


def preferential_attachment(
    n: int, m: int = 2, seed: int | None = None
) -> Graph:
    """Barabási–Albert preferential-attachment graph on ``n`` nodes.

    This is the workload of the paper's experiments (Section 4.1, citing
    Barabási & Albert 1999). Growth starts from an ``m``-node seed star
    and each arriving node attaches to ``m`` distinct existing nodes
    chosen with probability proportional to degree, via the standard
    repeated-endpoints sampling trick (each endpoint appears in the
    sampling list once per incident edge, giving degree-proportional
    selection in O(1) per draw).

    Parameters
    ----------
    n:
        Total number of nodes; must satisfy ``n >= m + 1``.
    m:
        Edges added per arriving node; ``m >= 1``.
    seed:
        RNG seed.
    """
    if m < 1:
        raise ConfigurationError(f"m must be >= 1, got {m}")
    if n < m + 1:
        raise ConfigurationError(f"n must be >= m+1 = {m + 1}, got {n}")
    rng = make_rng(seed)
    g = Graph(range(n))
    # Seed graph: a star on nodes 0..m (node m is the hub). Any connected
    # seed works; a star keeps the degree sequence non-degenerate for m=1.
    repeated: list[int] = []
    for i in range(m):
        g.add_edge(i, m)
        repeated.extend((i, m))
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(repeated[rng.randrange(len(repeated))])
        for t in targets:
            g.add_edge(new, t)
            repeated.extend((new, t))
    return g


def erdos_renyi(n: int, p: float, seed: int | None = None) -> Graph:
    """G(n, p) random graph: each of the C(n,2) edges appears independently."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    rng = make_rng(seed)
    g = Graph(range(n))
    if p == 0.0:
        return g
    if p == 1.0:
        for u, v in itertools.combinations(range(n), 2):
            g.add_edge(u, v)
        return g
    # Geometric skipping (Batagelj–Brandes): O(n + m) expected time.
    log_q = math.log(1.0 - p)
    v = 1
    w = -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            g.add_edge(v, w)
    return g


def gnm_random(n: int, m: int, seed: int | None = None) -> Graph:
    """G(n, m) random graph: ``m`` distinct edges drawn uniformly."""
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ConfigurationError(
            f"m={m} exceeds max edges {max_edges} for n={n}"
        )
    rng = make_rng(seed)
    g = Graph(range(n))
    added = 0
    while added < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v and g.add_edge(u, v):
            added += 1
    return g


def random_tree(n: int, seed: int | None = None) -> Graph:
    """Uniform random recursive tree on ``n`` nodes.

    Node ``i`` (``i >= 1``) attaches to a uniformly random node in
    ``0..i-1``. (Not Prüfer-uniform over all labelled trees, but a standard
    random tree model; the lower-bound experiments use deterministic k-ary
    trees, and tests only need *some* seeded tree family.)
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    rng = make_rng(seed)
    g = Graph(range(n))
    for i in range(1, n):
        g.add_edge(i, rng.randrange(i))
    return g


# ----------------------------------------------------------------------
# Complete k-ary trees (the Theorem 2 substrate)
# ----------------------------------------------------------------------
def kary_tree_size(branching: int, depth: int) -> int:
    """Number of nodes in a complete ``branching``-ary tree of ``depth`` levels
    below the root (depth 0 = a single root node)."""
    if branching < 1:
        raise ConfigurationError(f"branching must be >= 1, got {branching}")
    if depth < 0:
        raise ConfigurationError(f"depth must be >= 0, got {depth}")
    if branching == 1:
        return depth + 1
    return (branching ** (depth + 1) - 1) // (branching - 1)


def kary_parent(node: int, branching: int) -> int | None:
    """Heap-order parent of ``node`` (``None`` for the root, node 0)."""
    if node == 0:
        return None
    return (node - 1) // branching


def kary_children(node: int, branching: int, n: int) -> list[int]:
    """Heap-order children of ``node`` present in a tree of ``n`` nodes."""
    first = branching * node + 1
    return [c for c in range(first, first + branching) if c < n]


def kary_level(node: int, branching: int) -> int:
    """Level (root = 0) of ``node`` in heap order."""
    if branching == 1:
        return node
    level = 0
    # Level L spans indices [(b^L - 1)/(b-1), (b^{L+1} - 1)/(b-1)).
    while kary_tree_size(branching, level) <= node:
        level += 1
    return level


def complete_kary_tree(branching: int, depth: int) -> Graph:
    """Complete ``branching``-ary tree of the given ``depth`` in heap order.

    Node 0 is the root; node ``i > 0`` has parent ``(i-1) // branching``.
    This is the (M+2)-ary tree of Theorem 2 / Figure 7 (set
    ``branching = M + 2``).
    """
    n = kary_tree_size(branching, depth)
    g = Graph(range(n))
    for i in range(1, n):
        g.add_edge(i, (i - 1) // branching)
    return g


# ----------------------------------------------------------------------
# Deterministic fixed topologies
# ----------------------------------------------------------------------
def path_graph(n: int) -> Graph:
    """Simple path 0–1–…–(n−1)."""
    g = Graph(range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> Graph:
    """Simple cycle on ``n >= 3`` nodes."""
    if n < 3:
        raise ConfigurationError(f"cycle needs n >= 3, got {n}")
    g = path_graph(n)
    g.add_edge(n - 1, 0)
    return g


def star_graph(n: int) -> Graph:
    """Star: node 0 is the hub, nodes 1..n−1 are leaves. ``n >= 1``."""
    if n < 1:
        raise ConfigurationError(f"star needs n >= 1, got {n}")
    g = Graph(range(n))
    for i in range(1, n):
        g.add_edge(0, i)
    return g


def complete_graph(n: int) -> Graph:
    """Clique on ``n`` nodes."""
    g = Graph(range(n))
    for u, v in itertools.combinations(range(n), 2):
        g.add_edge(u, v)
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    """``rows`` × ``cols`` 4-neighbor grid, nodes labelled row-major."""
    if rows < 1 or cols < 1:
        raise ConfigurationError(
            f"grid needs rows, cols >= 1, got {rows}x{cols}"
        )
    g = Graph(range(rows * cols))
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                g.add_edge(u, u + 1)
            if r + 1 < rows:
                g.add_edge(u, u + cols)
    return g


def watts_strogatz(
    n: int, k: int, p: float, seed: int | None = None
) -> Graph:
    """Watts–Strogatz small-world graph (ring lattice + rewiring).

    ``k`` must be even and < n. Rewiring keeps the graph simple (rewired
    edges avoid self-loops and duplicates; if no target is available the
    edge is kept in place).
    """
    if k % 2 != 0 or k >= n or k < 2:
        raise ConfigurationError(f"need even 2 <= k < n, got k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"p must be in [0, 1], got {p}")
    rng = make_rng(seed)
    g = Graph(range(n))
    for u in range(n):
        for j in range(1, k // 2 + 1):
            g.add_edge(u, (u + j) % n)
    for u in range(n):
        for j in range(1, k // 2 + 1):
            v = (u + j) % n
            if rng.random() < p and g.has_edge(u, v):
                candidates = [
                    w for w in range(n) if w != u and not g.has_edge(u, w)
                ]
                if candidates:
                    g.remove_edge(u, v)
                    g.add_edge(u, rng.choice(candidates))
    return g


#: the graph backends spec strings could once select with ``backend=``
_RETIRED_BACKENDS = ("object", "array")


class _GeneratorRegistry(Registry):
    """The generator registry; it drops the retired ``backend=`` argument.

    Specs once chose a graph storage backend (``"pa:n=100,backend=array"``
    or ``generator_params={"backend": "array"}``). Only
    :class:`~repro.graph.graph.Graph` remains, but job records and
    experiment specs on disk still carry the argument, so a known backend
    name is accepted as a deprecated no-op and any other value fails
    fast. :meth:`validate_spec` and :meth:`make` both read their
    arguments through here.
    """

    def _arguments(
        self, spec: str, overrides: Mapping[str, object] | None
    ) -> tuple[str, tuple[object, ...], dict[str, object]]:
        name, args, kwargs = super()._arguments(spec, overrides)
        if "backend" in kwargs:
            backend = kwargs.pop("backend")
            if backend not in _RETIRED_BACKENDS:
                raise ConfigurationError(
                    f"unknown graph backend {backend!r} for generator "
                    f"{spec!r}; known backends: "
                    f"{', '.join(_RETIRED_BACKENDS)}"
                )
            warnings.warn(
                f"generator {spec!r}: backend= is deprecated and ignored; "
                "every generator builds a Graph",
                DeprecationWarning,
                stacklevel=3,
            )
        return name, args, kwargs


#: Name → factory registry used by the CLI and experiment specs (a
#: :class:`~repro.registry.Registry`: spec strings like
#: ``"erdos_renyi:p=0.1"`` work anywhere a generator name does, and the
#: sweep runner injects ``n``/``seed`` only where a factory accepts them).
GENERATORS: Registry = _GeneratorRegistry(
    "generator",
    {
        "preferential_attachment": preferential_attachment,
        "erdos_renyi": erdos_renyi,
        "gnm_random": gnm_random,
        "random_tree": random_tree,
        "complete_kary_tree": complete_kary_tree,
        "path": path_graph,
        "cycle": cycle_graph,
        "star": star_graph,
        "complete": complete_graph,
        "grid": grid_graph,
        "watts_strogatz": watts_strogatz,
    },
    injected=("n", "seed"),
)
#: short alias used throughout the benchmarks and docs ("pa:n=16000,m=3")
GENERATORS.alias("pa", "preferential_attachment")
