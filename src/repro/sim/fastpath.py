"""Fused unobservable-mode campaign kernel.

The generic engine pays, every round, for machinery whose output the
caller has explicitly declined: ``HealEvent`` construction
(``keep_events=False``), component member lists and message accounting
(no metrics, no recorder), and per-mutation degree/δ index upkeep (the
result only reports the *peak* δ, which the kernel can track directly at
the moments δ changes). When a campaign asks for scalars only —
``SimulationResult.initial_n / deletions / final_alive / peak_delta`` —
all of that work is unobservable.

This module runs such campaigns as one fused loop over *slot lists*:
``adj[u]`` is the live adjacency set of node ``u`` (``None`` once dead)
for G and G′. On the array backend the slot list is the ``ArrayGraph``
slot store itself; on the object graph it aliases the ``_adj`` dict's
own sets by label (:func:`_slot_list`), so every edge the kernel adds or
drops lands in the caller's graph, and only the tombstones are written
back on exit (:func:`_write_back`). The component tracker is three
parallel arrays (parent/size/label-origin) with inline path-compressed
find, and the DASH plan (UN(v,G) ∪ N(v,G′) sorted ascending by (δ,
initial ID) into a complete binary tree) is computed with plain ints —
node labels, which are their own slot indices. Labels are recovered
through the label↔origin bijection: every label the tracker ever
installs is ``initial_ids[origin]``, so one float per slot
(``rand[origin]``) reconstructs full ID comparisons, with the origin int
as the lexicographic tie-break.

Exactness: the kernel is differential-tested against the generic path
on both substrates (``tests/sim/test_fused_kernel.py``) for identical
result scalars, identical adversary RNG state afterwards, and an
identical graph left behind — it consumes exactly one
``random.Random.choice`` per round, like
:class:`~repro.adversary.classic.RandomAttack.choose_target`, and reuses
(and keeps accurate) the adversary's own sorted survivor list.

Eligibility (:func:`supports`) is deliberately narrow — exactly DASH ×
RandomAttack (or a verbatim churn adversary) on a ``Graph`` or
``ArrayGraph`` whose labels are exactly ``0..n−1``, with nothing
observing intermediate state. ``batch_fast_path=False`` (the engine's
reference switch) or ``keep_events=True`` forces the generic path, which
is how the differential tests obtain the reference side.

After the loop the kernel *repairs* the invariants it bypassed: dead
nodes leave the graphs, the cached node/edge counts are recomputed, the
degree/δ indexes are invalidated / re-pushed, and ``network.peak_delta``
is set. The component tracker and ``network.events``/``deleted_nodes``
are NOT maintained by :func:`run_fused` — which is why eligibility
requires ``keep_network=False``: the network object is dropped without
another observer ever reading it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Sequence

from repro.adversary.classic import RandomAttack
from repro.churn.adversaries import ChurnAdversary, TraceChurnAdversary
from repro.core.dash import Dash
from repro.graph.array_backend import ArrayGraph
from repro.graph.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.base import Adversary
    from repro.core.network import SelfHealingNetwork
    from repro.sim.engine import SimulationResult
    from repro.sim.metrics import Metric

__all__ = ["supports", "run_fused", "run_fused_churn"]

#: campaigns completed by the fused kernel (test observability — the
#: differential tests assert this moves only for eligible configs)
_fused_campaigns = 0

#: above this n, victim draws go through the Fenwick survivor view
#: instead of the adversary's sorted list: list.pop(i) moves O(n) slots
#: per round (O(n²) bytes per campaign — terabytes at n=10⁶), the tree
#: answers rank-select in O(log n). Below it, the C-speed list wins.
#: Module-level so the differential tests can force the tree at small n.
_FENWICK_THRESHOLD = 1 << 17


class _FenwickAliveView:
    """The sorted survivor list as a rank-select Fenwick tree.

    Duck-types as the sequence ``random.Random.choice`` consumes —
    ``choice(seq)`` is ``seq[self._randbelow(len(seq))]`` — so drawing
    from this view advances the adversary's RNG bit-for-bit like drawing
    from its real sorted list: ``len`` is the live count, ``view[i]`` is
    the i-th smallest surviving node (a log-n tree descent instead of a
    list index).
    """

    __slots__ = ("_tree", "_n", "_top", "_count")

    def __init__(self, n: int) -> None:
        # O(n) build with every slot alive.
        tree = [0] * (n + 1)
        for i in range(1, n + 1):
            tree[i] += 1
            j = i + (i & -i)
            if j <= n:
                tree[j] += tree[i]
        self._tree = tree
        self._n = n
        self._top = 1 << (n.bit_length() - 1) if n else 0
        self._count = n

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int) -> int:
        """The i-th (0-based) surviving node, ascending."""
        k = i + 1
        pos = 0
        bit = self._top
        tree = self._tree
        n = self._n
        while bit:
            npos = pos + bit
            if npos <= n and tree[npos] < k:
                pos = npos
                k -= tree[npos]
            bit >>= 1
        return pos

    def remove(self, node: int) -> None:
        j = node + 1
        tree = self._tree
        n = self._n
        while j <= n:
            tree[j] -= 1
            j += j & -j
        self._count -= 1


def _dense_labels(graph: Graph, healing_graph: Graph) -> bool:
    """True iff G's labels are exactly ``0..n−1`` and G′ holds the same
    nodes — the slot-list layout the kernel indexes.

    On the array backend that is a hole-free slot store. On the object
    graph it is an O(n) check at C speed: n unique keys that are all
    exact ``int`` (no ``bool``, no numpy ints) in ``[0, n)`` are exactly
    ``range(n)``.
    """
    if type(graph) is ArrayGraph:
        n = len(graph._nbrs)
        return graph.num_nodes == n and len(healing_graph._nbrs) == n
    keys = graph._adj.keys()
    if not keys:
        return not healing_graph._adj
    return (
        set(map(type, keys)) == {int}
        and min(keys) >= 0
        and max(keys) < len(keys)
        and healing_graph._adj.keys() == keys
    )


def _slot_list(graph: Graph) -> list:
    """``graph``'s adjacency as a list indexed by node label.

    The array backend's slot store is that list already. On the object
    graph the list holds the ``_adj`` dict's own sets (labels are
    exactly ``0..n−1``, see :func:`_dense_labels`), so every add and
    discard the kernel makes lands in the graph; the kernel's tombstones
    (slots set to ``None``) reach the dict in :func:`_write_back`.
    """
    if type(graph) is ArrayGraph:
        return graph._nbrs
    adj = graph._adj
    return list(map(adj.__getitem__, range(len(adj))))


def _write_back(graph: Graph, slots: list, n_alive: int) -> None:
    """Repair what the kernel bypassed in ``graph``: dead nodes, the
    node/edge counters and the degree index (dropped; rebuilt lazily on
    the next extreme-degree query)."""
    if type(graph) is ArrayGraph:
        graph._n_alive = n_alive
    else:
        # In-place deletes keep the survivors' insertion order, exactly
        # as the generic path's remove_node leaves it.
        adj = graph._adj
        for u, s in enumerate(slots):
            if s is None:
                del adj[u]
    graph._num_edges = sum(len(s) for s in slots if s is not None) // 2
    graph._deg_index = None


def _live_distinct(ops: list[tuple], slots: list) -> bool:
    """True iff the ops of a delete-only churn round name distinct live
    labels (exact ``int`` slot indices whose slot is not dead)."""
    n = len(slots)
    for op in ops:
        v = op[1]
        if type(v) is not int or not 0 <= v < n or slots[v] is None:
            return False
    return len(ops) == 1 or len({op[1] for op in ops}) == len(ops)


def supports(
    network: "SelfHealingNetwork",
    adversary: "Adversary",
    *,
    metrics: Sequence["Metric"],
    batch_rounds: bool,
    keep_events: bool,
    keep_network: bool,
) -> bool:
    """True iff this campaign is safely fusable.

    Exact-type checks (not ``isinstance``): a subclass may override any
    hook the kernel inlines, so only the verbatim classes qualify.
    Churn adversaries qualify too — their rounds dictate victims (no RNG
    draw), their ``choose_round`` never consults the network (which the
    kernel passes with stale public counters), and the kernel bails back
    to the generic loop at the first insertion round
    (:func:`run_fused_churn`). The O(n) label check runs last, only for
    campaigns that pass every O(1) condition.
    """
    graph = network.graph
    if type(adversary) is RandomAttack:
        # A mixed-round flag on a RandomAttack instance signals a
        # nonstandard protocol the kernel does not speak — refuse.
        adversary_ok = (
            not getattr(adversary, "mixed_rounds", False)
            and adversary._alive is not None
        )
    else:
        # Churn kernels speak the op protocol, so the flag must be ON.
        adversary_ok = (
            type(adversary) in (ChurnAdversary, TraceChurnAdversary)
            and getattr(adversary, "mixed_rounds", False)
        )
    return (
        adversary_ok
        and type(graph) in (Graph, ArrayGraph)
        and type(network.healer) is Dash
        and not metrics
        and not batch_rounds
        and not keep_events
        and not keep_network
        and not network.check_invariants
        and network.batch_fast_path
        and not network.deleted_nodes
        and not network.events
        and _dense_labels(graph, network.healing_graph)
    )


def run_fused(
    network: "SelfHealingNetwork",
    adversary: RandomAttack,
    *,
    stop_alive: int,
    max_rounds: int | None,
    max_deletions: int | None,
) -> "SimulationResult":
    """Run the whole campaign as one fused loop; return the result.

    Caller contract: ``supports(...)`` returned True, ``adversary.reset``
    has run, and nothing has been deleted yet.
    """
    from repro.sim.engine import SimulationResult

    global _fused_campaigns
    graph = network.graph
    healing_graph = network.healing_graph
    adj = _slot_list(graph)
    padj = _slot_list(healing_graph)
    n = len(adj)
    initial_ids = network.initial_ids
    # label↔origin bijection: initial_ids[u] == (rand[u], u)
    rand = [initial_ids[u][0] for u in range(n)]
    init_deg = [len(s) for s in adj]
    # Union-find over slots; dead slots may serve as representatives
    # (their label lives on until a merge relabels the component).
    parent = list(range(n))
    size = [1] * n
    lab_origin = list(range(n))
    peak_delta = network.peak_delta

    # The adversary's own state IS the kernel's: draws come from its RNG
    # (one choice() per round, like choose_target) and victims leave its
    # sorted survivor list, which choose_target would otherwise pop
    # lazily on the next call. Above the threshold the list is swapped
    # for the Fenwick view (same draws, same RNG stream, no O(n) pops)
    # and rebuilt from the slot store on exit.
    choice = adversary._rng.choice
    survivors = adversary._alive
    use_tree = n >= _FENWICK_THRESHOLD
    if use_tree:
        view = _FenwickAliveView(n)
        draw_pool = view
        kill = view.remove
    else:
        draw_pool = survivors

        def kill(v: int) -> None:
            survivors.pop(bisect_left(survivors, v))

    classes: dict[int, int] = {}
    cget = classes.get
    cclear = classes.clear
    cvalues = classes.values

    n_alive = n
    rounds = 0
    while n_alive > stop_alive:
        if max_rounds is not None and rounds >= max_rounds:
            break
        if max_deletions is not None and rounds >= max_deletions:
            break
        v = choice(draw_pool)

        # find(v) with path compression; decrement its component.
        root = v
        while parent[root] != root:
            root = parent[root]
        x = v
        while parent[x] != root:
            parent[x], x = root, parent[x]
        vlo = lab_origin[root]
        s = size[root] - 1
        size[root] = s
        old_root = root if s else -1

        # Delete v from G and G′ (grab its neighbor sets first).
        g_nbrs = adj[v]
        adj[v] = None
        for w in g_nbrs:
            adj[w].discard(v)
        gp = padj[v]
        padj[v] = None
        for w in gp:
            padj[w].discard(v)
        n_alive -= 1
        rounds += 1
        kill(v)

        # UN(v,G): one min-initial-ID representative per foreign class.
        # E′ ⊆ E, so every G′-neighbor is also in g_nbrs — skipping
        # ``w in gp`` keeps UN ∩ N(v,G′) = ∅ exactly like the snapshot.
        cclear()
        for w in g_nbrs:
            if w in gp:
                continue
            r = parent[w]
            if parent[r] != r:
                while parent[r] != r:
                    r = parent[r]
                x = w
                while parent[x] != r:
                    parent[x], x = r, parent[x]
            lo = lab_origin[r]
            if lo != vlo:
                best = cget(lo)
                if best is None or rand[w] < rand[best] or (
                    rand[w] == rand[best] and w < best
                ):
                    classes[lo] = w
        k = len(classes) + len(gp)
        if k < 2:
            continue

        # DASH layout: ascending (δ, initial ID). Every participant lost
        # its edge to v above, so pre-round δ = len(adj[u]) + 1 − deg₀.
        participants = list(cvalues())
        participants.extend(gp)
        if k == 2:
            a, b = participants
            if (len(adj[a]) + 1 - init_deg[a], rand[a], a) <= (
                len(adj[b]) + 1 - init_deg[b], rand[b], b
            ):
                ordered = participants
            else:
                ordered = [b, a]
        else:
            ordered = sorted(
                participants,
                key=lambda u: (len(adj[u]) + 1 - init_deg[u], rand[u], u),
            )

        # Complete binary tree in heap order; peak δ can only move at an
        # edge actually added to G, at its two endpoints, right now.
        for i in range(1, k):
            a = ordered[(i - 1) >> 1]
            b = ordered[i]
            la = adj[a]
            if b not in la:
                la.add(b)
                adj[b].add(a)
                d = len(la) - init_deg[a]
                if d > peak_delta:
                    peak_delta = d
                d = len(adj[b]) - init_deg[b]
                if d > peak_delta:
                    peak_delta = d
            padj[a].add(b)
            padj[b].add(a)

        # MINID propagation (Algorithm 1, step 5): union all touched
        # components; the survivor root takes the minimum class label.
        roots = []
        if gp and old_root >= 0:
            roots.append(old_root)
        for u in cvalues():
            r = parent[u]
            while parent[r] != r:
                r = parent[r]
            if r not in roots:
                roots.append(r)
        if len(roots) > 1:
            fo = lab_origin[roots[0]]
            big = roots[0]
            bl = size[big]
            for r in roots[1:]:
                o = lab_origin[r]
                if rand[o] < rand[fo] or (rand[o] == rand[fo] and o < fo):
                    fo = o
                L = size[r]
                if L > bl:
                    big = r
                    bl = L
            tot = 0
            for r in roots:
                tot += size[r]
                if r != big:
                    parent[r] = big
            size[big] = tot
            lab_origin[big] = fo

    # Repair what the fused loop bypassed, so the graphs and the
    # adversary leave this function with accurate public state.
    adversary._last = None
    if use_tree:
        adversary._alive = [
            u for u, s in enumerate(adj) if s is not None
        ]
        survivors = adversary._alive
    _write_back(graph, adj, n_alive)
    _write_back(healing_graph, padj, n_alive)
    network.peak_delta = peak_delta
    # Survivors' δ moved without the mutation stream firing: re-push
    # current values (stale lower/higher entries self-invalidate against
    # the index's oracle).
    delta_index = network._delta_index
    for u in survivors:
        delta_index.push(u, len(adj[u]) - init_deg[u])

    _fused_campaigns += 1
    return SimulationResult(
        initial_n=network.initial_n,
        deletions=rounds,
        final_alive=n_alive,
        peak_delta=peak_delta,
        values={},
        events=None,
        network=None,
    )


def run_fused_churn(
    network: "SelfHealingNetwork",
    adversary: "ChurnAdversary | TraceChurnAdversary",
    *,
    stop_alive: int,
    max_rounds: int | None,
    max_deletions: int | None,
) -> tuple["SimulationResult | None", tuple[int, int, object] | None]:
    """Fuse the delete-only prefix of a churn campaign.

    Churn rounds dictate victims, so each deletion runs the same fused
    delete+heal body as :func:`run_fused` minus the RNG draw. The kernel
    cannot execute insertions (its slot lists and the result accounting
    assume the construction-time population), so at the first round
    containing an ``add`` op — or a victim that is not a distinct live
    label, whose error the generic loop reports — it *bails out*:
    repairs every invariant it bypassed — dead nodes, graph node/edge
    counters, degree/δ indexes, ``peak_delta``, ``deleted_nodes``, and
    the component tracker (rebuilt from the kernel arrays via
    :meth:`ComponentTracker.rebuild_from_fused
    <repro.core.components.ComponentTracker.rebuild_from_fused>`) — and
    hands the already-chosen round back to the generic loop.

    Returns ``(result, None)`` when the kernel ran the whole campaign, or
    ``(None, (rounds, deletions, pending_round))`` on bailout; the caller
    resumes :func:`~repro.sim.engine._drive_campaign` with those counters
    and the pending round. The slot-list aliases and the O(n) kernel
    arrays are built lazily on the first delete-only round, so a campaign
    whose very first round inserts (steady-state churn) bails with zero
    setup or repair cost.
    """
    from repro.sim.engine import SimulationResult, _normalize_churn_ops

    global _fused_campaigns
    graph = network.graph
    healing_graph = network.healing_graph
    n = graph.num_nodes

    armed = False
    adj: list = []
    padj: list = []
    rand: list[float] = []
    init_deg: list[int] = []
    parent: list[int] = []
    size: list[int] = []
    lab_origin: list[int] = []
    peak_delta = network.peak_delta
    victims: list[int] = []

    classes: dict[int, int] = {}
    cget = classes.get
    cclear = classes.clear
    cvalues = classes.values

    n_alive = graph.num_nodes
    rounds = 0
    deletions = 0
    pending = None
    while n_alive > stop_alive:
        if max_rounds is not None and rounds >= max_rounds:
            break
        if max_deletions is not None and deletions >= max_deletions:
            break
        chosen = adversary.choose_round(network)
        if not chosen:
            break
        ops = _normalize_churn_ops(adversary, chosen)
        if any(op[0] == "add" for op in ops):
            pending = chosen
            break
        if not armed:
            adj = _slot_list(graph)
            padj = _slot_list(healing_graph)
            initial_ids = network.initial_ids
            rand = [initial_ids[u][0] for u in range(n)]
            init_deg = [len(s) for s in adj]
            parent = list(range(n))
            size = [1] * n
            lab_origin = list(range(n))
            armed = True
        if not _live_distinct(ops, adj):
            # A dead, unknown or repeated victim: the generic loop runs
            # this round from its first op and raises its own error,
            # against a repaired graph.
            pending = chosen
            break
        for op in ops:
            v = op[1]
            # find(v) with path compression; decrement its component.
            root = v
            while parent[root] != root:
                root = parent[root]
            x = v
            while parent[x] != root:
                parent[x], x = root, parent[x]
            vlo = lab_origin[root]
            s = size[root] - 1
            size[root] = s
            old_root = root if s else -1

            # Delete v from G and G′ (grab its neighbor sets first).
            g_nbrs = adj[v]
            adj[v] = None
            for w in g_nbrs:
                adj[w].discard(v)
            gp = padj[v]
            padj[v] = None
            for w in gp:
                padj[w].discard(v)
            n_alive -= 1
            victims.append(v)

            # UN(v,G): one min-initial-ID representative per foreign
            # class (see run_fused for the invariant arguments).
            cclear()
            for w in g_nbrs:
                if w in gp:
                    continue
                r = parent[w]
                if parent[r] != r:
                    while parent[r] != r:
                        r = parent[r]
                    x = w
                    while parent[x] != r:
                        parent[x], x = r, parent[x]
                lo = lab_origin[r]
                if lo != vlo:
                    best = cget(lo)
                    if best is None or rand[w] < rand[best] or (
                        rand[w] == rand[best] and w < best
                    ):
                        classes[lo] = w
            k = len(classes) + len(gp)
            if k < 2:
                continue

            # DASH layout: ascending (δ, initial ID).
            participants = list(cvalues())
            participants.extend(gp)
            if k == 2:
                a, b = participants
                if (len(adj[a]) + 1 - init_deg[a], rand[a], a) <= (
                    len(adj[b]) + 1 - init_deg[b], rand[b], b
                ):
                    ordered = participants
                else:
                    ordered = [b, a]
            else:
                ordered = sorted(
                    participants,
                    key=lambda u: (
                        len(adj[u]) + 1 - init_deg[u], rand[u], u
                    ),
                )

            # Complete binary tree in heap order.
            for i in range(1, k):
                a = ordered[(i - 1) >> 1]
                b = ordered[i]
                la = adj[a]
                if b not in la:
                    la.add(b)
                    adj[b].add(a)
                    d = len(la) - init_deg[a]
                    if d > peak_delta:
                        peak_delta = d
                    d = len(adj[b]) - init_deg[b]
                    if d > peak_delta:
                        peak_delta = d
                padj[a].add(b)
                padj[b].add(a)

            # MINID propagation over the touched components.
            roots = []
            if gp and old_root >= 0:
                roots.append(old_root)
            for u in cvalues():
                r = parent[u]
                while parent[r] != r:
                    r = parent[r]
                if r not in roots:
                    roots.append(r)
            if len(roots) > 1:
                fo = lab_origin[roots[0]]
                big = roots[0]
                bl = size[big]
                for r in roots[1:]:
                    o = lab_origin[r]
                    if rand[o] < rand[fo] or (
                        rand[o] == rand[fo] and o < fo
                    ):
                        fo = o
                    L = size[r]
                    if L > bl:
                        big = r
                        bl = L
                tot = 0
                for r in roots:
                    tot += size[r]
                    if r != big:
                        parent[r] = big
                size[big] = tot
                lab_origin[big] = fo
        rounds += 1
        deletions += len(ops)

    if not armed:
        # No fused round ran: nothing was mutated, nothing to repair.
        if pending is not None:
            return None, (rounds, deletions, pending)
        return SimulationResult(
            initial_n=network.initial_n,
            deletions=0,
            final_alive=n_alive,
            peak_delta=peak_delta,
            values={"insertions": 0.0},
            events=None,
            network=None,
        ), None

    # Repair what the fused prefix bypassed (both exits): dead nodes,
    # counters, the degree/δ machinery, and the deletion log.
    _write_back(graph, adj, n_alive)
    _write_back(healing_graph, padj, n_alive)
    network.peak_delta = peak_delta
    network.deleted_nodes.extend(victims)
    alive = [u for u, s in enumerate(adj) if s is not None]
    delta_index = network._delta_index
    for u in alive:
        delta_index.push(u, len(adj[u]) - init_deg[u])

    _fused_campaigns += 1
    if pending is None:
        return SimulationResult(
            initial_n=network.initial_n,
            deletions=deletions,
            final_alive=n_alive,
            peak_delta=peak_delta,
            values={"insertions": 0.0},
            events=None,
            network=None,
        ), None

    # Insertion round incoming: the generic loop takes over mid-campaign,
    # so the component tracker must now expose the kernel's state.
    network.tracker.rebuild_from_fused(parent, lab_origin, alive)
    return None, (rounds, deletions, pending)
