"""Array-backed :class:`~repro.core.components.ComponentTracker`.

The object tracker keeps five dicts with one entry per ever-seen node
(`_parent`, `_root_label`, `_root_members`, `_label_root`, plus the
counters). At n=10⁶ those dicts are the memory and cache-miss budget of
a campaign. :class:`ArrayComponentTracker` stores the same state in flat
parallel arrays indexed by the int node label:

* ``_parent`` → one ``array('q')`` of parent slots (``-1`` = never
  tracked);
* ``_root_label`` → two parallel arrays per *root* slot: the label's
  random draw (``array('d')``) and its origin node (``array('q')``) —
  valid because every label the tracker ever installs is some node's
  initial ID ``(rand, origin)``, so a label is fully described by its
  origin;
* ``_label_root`` → one ``array('q')`` mapping a label's *origin* to the
  root currently carrying that label (labels are unique per origin, so
  origin is a perfect key);
* ``_root_members`` → a slot list of member sets.

Each array is wrapped in a tiny container that speaks the exact dict
protocol the base class uses (``[]``/``get``/``del``/``pop``/``in``/
``items``/``values``/``len``/iteration, with dict-identical ``KeyError``
semantics), so **every algorithm in ``components.py`` runs unmodified**
— the fast rounds, the lazy deferral machinery, the BFS fallback, the
accounting, and the checkpoint export all stay one implementation,
byte-identical across backends by construction (enforced by the
differential suites in ``tests/integration/test_backend_differential.py``).

``import_state``, ``rebuild_from_healing_graph`` and
``rebuild_from_fused`` in the base class rebuild plain dicts wholesale;
the subclass lets them, then re-packs the result into arrays
(:meth:`ArrayComponentTracker._rearm`) — restore and fused-churn
handoff paths run once per campaign, so the one-time conversion is free
in context.
"""

from __future__ import annotations

from array import array
from typing import Hashable, Iterator, Mapping

from repro.core.components import ComponentTracker, NodeId
from repro.errors import SimulationError

__all__ = ["ArrayComponentTracker"]

Node = Hashable

#: slot sentinel: "no entry"
_ABSENT = -1


def _grown_capacity(slot: int, current: int) -> int:
    """Capacity after growing to cover ``slot``: amortized doubling.

    Churn mints monotonically increasing labels, so slot stores grow one
    past the end over and over; exact-fit extension would realloc-and-copy
    every time (quadratic bytes moved over a campaign). Doubling keeps the
    total copy cost linear. Trailing slots are filled with the absent
    sentinel and are semantically identical to never-grown slots.
    """
    return max(slot + 1, 2 * current, 8)


def _slot_of(key) -> int:
    """The slot index for ``key``, or ``-1`` when it cannot be one."""
    if isinstance(key, int) and key >= 0:
        return key
    return _ABSENT


class _IntSlotMap:
    """``dict[Node, Node]`` on one int array (the union-find parents)."""

    __slots__ = ("_slots", "_count")

    def __init__(self) -> None:
        self._slots = array("q")
        self._count = 0

    def _grow(self, slot: int) -> None:
        slots = self._slots
        if slot >= len(slots):
            cap = _grown_capacity(slot, len(slots))
            slots.extend([_ABSENT] * (cap - len(slots)))

    def __getitem__(self, key: Node) -> Node:
        slot = _slot_of(key)
        slots = self._slots
        if 0 <= slot < len(slots):
            v = slots[slot]
            if v != _ABSENT:
                return v
        raise KeyError(key)

    def __setitem__(self, key: Node, value: Node) -> None:
        slot = _slot_of(key)
        vslot = _slot_of(value)
        if slot == _ABSENT or vslot == _ABSENT:
            raise SimulationError(
                f"array tracker requires non-negative int nodes, got "
                f"{key!r} -> {value!r}"
            )
        self._grow(slot)
        if self._slots[slot] == _ABSENT:
            self._count += 1
        self._slots[slot] = vslot

    def __contains__(self, key: Node) -> bool:
        slot = _slot_of(key)
        slots = self._slots
        return 0 <= slot < len(slots) and slots[slot] != _ABSENT

    def __iter__(self) -> Iterator[Node]:
        return (
            u for u, v in enumerate(self._slots) if v != _ABSENT
        )

    def __len__(self) -> int:
        return self._count

    @classmethod
    def from_dict(cls, mapping: Mapping[Node, Node]) -> "_IntSlotMap":
        m = cls()
        for u, v in mapping.items():
            m[u] = v
        return m


class _LabelSlotMap:
    """``dict[Node, NodeId]`` keyed by root slot (the per-root labels).

    A label is ``(random_draw, origin_node)``; per root it is stored as
    two parallel scalars and materialized back into the tuple on read.
    """

    __slots__ = ("_rand", "_origin", "_count")

    def __init__(self) -> None:
        self._rand = array("d")
        self._origin = array("q")
        self._count = 0

    def _grow(self, slot: int) -> None:
        origin = self._origin
        if slot >= len(origin):
            pad = _grown_capacity(slot, len(origin)) - len(origin)
            origin.extend([_ABSENT] * pad)
            self._rand.extend([0.0] * pad)

    def __getitem__(self, key: Node) -> NodeId:
        slot = _slot_of(key)
        origin = self._origin
        if 0 <= slot < len(origin):
            o = origin[slot]
            if o != _ABSENT:
                return (self._rand[slot], o)
        raise KeyError(key)

    def get(self, key: Node, default=None):
        slot = _slot_of(key)
        origin = self._origin
        if 0 <= slot < len(origin):
            o = origin[slot]
            if o != _ABSENT:
                return (self._rand[slot], o)
        return default

    def __setitem__(self, key: Node, value: NodeId) -> None:
        slot = _slot_of(key)
        rand, o = value
        oslot = _slot_of(o)
        if slot == _ABSENT or oslot == _ABSENT:
            raise SimulationError(
                f"array tracker requires int nodes and (float, int) "
                f"labels, got {key!r} -> {value!r}"
            )
        self._grow(slot)
        if self._origin[slot] == _ABSENT:
            self._count += 1
        self._origin[slot] = oslot
        self._rand[slot] = rand

    def __delitem__(self, key: Node) -> None:
        slot = _slot_of(key)
        origin = self._origin
        if not (0 <= slot < len(origin)) or origin[slot] == _ABSENT:
            raise KeyError(key)
        origin[slot] = _ABSENT
        self._count -= 1

    def pop(self, key: Node, default=None):
        slot = _slot_of(key)
        origin = self._origin
        if 0 <= slot < len(origin):
            o = origin[slot]
            if o != _ABSENT:
                origin[slot] = _ABSENT
                self._count -= 1
                return (self._rand[slot], o)
        return default

    def __contains__(self, key: Node) -> bool:
        slot = _slot_of(key)
        origin = self._origin
        return 0 <= slot < len(origin) and origin[slot] != _ABSENT

    def __len__(self) -> int:
        return self._count

    @classmethod
    def from_dict(cls, mapping: Mapping[Node, NodeId]) -> "_LabelSlotMap":
        m = cls()
        for u, lbl in mapping.items():
            m[u] = lbl
        return m


class _LabelRootMap:
    """``dict[NodeId, Node]`` — the label → root inverse index.

    Keyed by the label's *origin* slot: labels are initial IDs, at most
    one label per origin ever exists, so origin is a perfect int key. A
    lookup additionally verifies the queried tuple against the stored
    random draw, so a never-installed label that happens to share an
    origin misses exactly like it would in a dict.
    """

    __slots__ = ("_rand", "_root", "_count")

    def __init__(self) -> None:
        self._rand = array("d")
        self._root = array("q")
        self._count = 0

    def _grow(self, slot: int) -> None:
        root = self._root
        if slot >= len(root):
            pad = _grown_capacity(slot, len(root)) - len(root)
            root.extend([_ABSENT] * pad)
            self._rand.extend([0.0] * pad)

    def _slot_for(self, label) -> int:
        """Slot holding exactly ``label``, else ``-1``."""
        try:
            rand, o = label
        except (TypeError, ValueError):
            return _ABSENT
        slot = _slot_of(o)
        root = self._root
        if (
            0 <= slot < len(root)
            and root[slot] != _ABSENT
            and self._rand[slot] == rand
        ):
            return slot
        return _ABSENT

    def __getitem__(self, label: NodeId) -> Node:
        slot = self._slot_for(label)
        if slot == _ABSENT:
            raise KeyError(label)
        return self._root[slot]

    def get(self, label: NodeId, default=None):
        slot = self._slot_for(label)
        if slot == _ABSENT:
            return default
        return self._root[slot]

    def __setitem__(self, label: NodeId, value: Node) -> None:
        try:
            rand, o = label
        except (TypeError, ValueError):
            raise SimulationError(
                f"array tracker requires (float, int) labels, got "
                f"{label!r}"
            ) from None
        slot = _slot_of(o)
        vslot = _slot_of(value)
        if slot == _ABSENT or vslot == _ABSENT:
            raise SimulationError(
                f"array tracker requires (float, int) labels and int "
                f"roots, got {label!r} -> {value!r}"
            )
        self._grow(slot)
        if self._root[slot] == _ABSENT:
            self._count += 1
        self._root[slot] = vslot
        self._rand[slot] = rand

    def __delitem__(self, label: NodeId) -> None:
        slot = self._slot_for(label)
        if slot == _ABSENT:
            raise KeyError(label)
        self._root[slot] = _ABSENT
        self._count -= 1

    def pop(self, label: NodeId, default=None):
        slot = self._slot_for(label)
        if slot == _ABSENT:
            return default
        r = self._root[slot]
        self._root[slot] = _ABSENT
        self._count -= 1
        return r

    def __contains__(self, label) -> bool:
        return self._slot_for(label) != _ABSENT

    def __len__(self) -> int:
        return self._count

    @classmethod
    def from_dict(cls, mapping: Mapping[NodeId, Node]) -> "_LabelRootMap":
        m = cls()
        for lbl, r in mapping.items():
            m[lbl] = r
        return m


class _MembersSlotMap:
    """``dict[Node, set[Node]]`` keyed by root slot (class member sets).

    Values are ordinary Python sets (the merge loops union, pop, and
    hand them out by reference exactly as with the dict backend); only
    the keying is flattened to slots.
    """

    __slots__ = ("_sets", "_count")

    def __init__(self) -> None:
        self._sets: list[set[Node] | None] = []
        self._count = 0

    def _grow(self, slot: int) -> None:
        sets = self._sets
        if slot >= len(sets):
            pad = _grown_capacity(slot, len(sets)) - len(sets)
            sets.extend([None] * pad)

    def __getitem__(self, key: Node) -> set[Node]:
        slot = _slot_of(key)
        sets = self._sets
        if 0 <= slot < len(sets):
            s = sets[slot]
            if s is not None:
                return s
        raise KeyError(key)

    def get(self, key: Node, default=None):
        slot = _slot_of(key)
        sets = self._sets
        if 0 <= slot < len(sets):
            s = sets[slot]
            if s is not None:
                return s
        return default

    def __setitem__(self, key: Node, value: set[Node]) -> None:
        slot = _slot_of(key)
        if slot == _ABSENT or not isinstance(value, set):
            raise SimulationError(
                f"array tracker requires int roots and set members, got "
                f"{key!r} -> {value!r}"
            )
        self._grow(slot)
        if self._sets[slot] is None:
            self._count += 1
        self._sets[slot] = value

    def __delitem__(self, key: Node) -> None:
        slot = _slot_of(key)
        sets = self._sets
        if not (0 <= slot < len(sets)) or sets[slot] is None:
            raise KeyError(key)
        sets[slot] = None
        self._count -= 1

    def pop(self, key: Node, default=None):
        slot = _slot_of(key)
        sets = self._sets
        if 0 <= slot < len(sets):
            s = sets[slot]
            if s is not None:
                sets[slot] = None
                self._count -= 1
                return s
        return default

    def __contains__(self, key: Node) -> bool:
        slot = _slot_of(key)
        sets = self._sets
        return 0 <= slot < len(sets) and sets[slot] is not None

    def items(self) -> Iterator[tuple[Node, set[Node]]]:
        return (
            (u, s) for u, s in enumerate(self._sets) if s is not None
        )

    def values(self) -> Iterator[set[Node]]:
        return (s for s in self._sets if s is not None)

    def __iter__(self) -> Iterator[Node]:
        return (u for u, s in enumerate(self._sets) if s is not None)

    def __len__(self) -> int:
        return self._count

    @classmethod
    def from_dict(
        cls, mapping: Mapping[Node, set[Node]]
    ) -> "_MembersSlotMap":
        m = cls()
        for u, s in mapping.items():
            m[u] = s
        return m


class ArrayComponentTracker(ComponentTracker):
    """:class:`ComponentTracker` with flat-array state tables.

    Construction, the round protocol, accounting, lazy labels, and the
    checkpoint protocol are all inherited — only the storage changes.
    Requires non-negative int node labels (what
    :class:`~repro.graph.array_backend.ArrayGraph` guarantees);
    :class:`~repro.core.network.SelfHealingNetwork` selects this class
    automatically for array-backend graphs.
    """

    def __post_init__(self) -> None:
        ids = self.initial_ids
        n = len(ids)
        # Bulk path for the universal case — nodes 0..n-1 in order, each
        # labelled by its own initial ID: every state table is then some
        # permutation-free fill of 0..n-1 plus the rand vector, built at
        # C speed instead of via n per-key protocol round-trips.
        rands = array("d", bytes(8 * n))
        bulk = True
        u = 0
        try:
            for node, iid in ids.items():
                if node != u or len(iid) != 2 or iid[1] != u:
                    bulk = False
                    break
                rands[u] = iid[0]
                u += 1
        except (TypeError, ValueError, IndexError):
            bulk = False
        if bulk:
            identity = array("q", range(n))
            parent = _IntSlotMap()
            parent._slots = array("q", identity)
            parent._count = n
            root_label = _LabelSlotMap()
            root_label._rand = rands
            root_label._origin = array("q", identity)
            root_label._count = n
            label_root = _LabelRootMap()
            label_root._rand = array("d", rands)
            label_root._root = identity
            label_root._count = n
            root_members = _MembersSlotMap()
            root_members._sets = [{v} for v in range(n)]
            root_members._count = n
        else:
            parent = _IntSlotMap()
            root_label = _LabelSlotMap()
            root_members = _MembersSlotMap()
            label_root = _LabelRootMap()
            for u, iid in ids.items():
                parent[u] = u
                root_label[u] = iid
                root_members[u] = {u}
                label_root[iid] = u
        self._parent = parent
        self._root_label = root_label
        self._root_members = root_members
        self._label_root = label_root
        self._dirty_roots = set()
        self.id_changes = dict.fromkeys(ids, 0)
        self.messages_sent = dict.fromkeys(ids, 0)
        self.messages_received = dict.fromkeys(ids, 0)

    def _rearm(self) -> None:
        """Re-pack plain-dict state tables into the array containers
        (the base class's restore paths rebuild them as dicts)."""
        self._parent = _IntSlotMap.from_dict(self._parent)
        self._root_label = _LabelSlotMap.from_dict(self._root_label)
        self._root_members = _MembersSlotMap.from_dict(self._root_members)
        self._label_root = _LabelRootMap.from_dict(self._label_root)

    def import_state(self, state: Mapping) -> None:
        super().import_state(state)
        self._rearm()

    def rebuild_from_healing_graph(self) -> None:
        super().rebuild_from_healing_graph()
        self._rearm()

    def rebuild_from_fused(
        self, parent: list[int], lab_origin: list[int], alive: list[int]
    ) -> None:
        super().rebuild_from_fused(parent, lab_origin, alive)
        self._rearm()
