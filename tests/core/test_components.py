"""Unit tests for the component tracker (MINID machinery)."""

from __future__ import annotations

import pytest

from repro.core.components import ComponentTracker, make_node_ids
from repro.errors import SimulationError
from repro.graph.graph import Graph
from repro.utils.rng import make_rng


def build(nodes, g_edges=(), gp_edges=()):
    """A tracker over a hand-built G/G′ with deterministic IDs.

    IDs are (i/100, i) so node order == ID order: node 0 has the smallest.
    """
    g = Graph(nodes)
    for e in g_edges:
        g.add_edge(*e)
    gp = Graph(nodes)
    for e in gp_edges:
        gp.add_edge(*e)
    ids = {u: (u / 100.0, u) for u in nodes}
    tracker = ComponentTracker(graph=g, healing_graph=gp, initial_ids=ids)
    return g, gp, tracker, ids


class TestInit:
    def test_singletons(self):
        _, _, tracker, ids = build([1, 2, 3])
        assert tracker.num_components() == 3
        for u in (1, 2, 3):
            assert tracker.label_of(u) == ids[u]
            assert tracker.component_members(u) == {u}

    def test_make_node_ids_unique_and_ordered(self):
        ids = make_node_ids(range(100), make_rng(0))
        assert len({v for v in ids.values()}) == 100
        for u, (draw, label) in ids.items():
            assert 0 <= draw < 1
            assert label == u


class TestMergeRound:
    def test_basic_merge_adopts_min_label(self):
        # Delete 9; neighbors 1, 2 (singleton comps) get an RT edge.
        g, gp, tracker, ids = build(
            [1, 2, 9], g_edges=[(9, 1), (9, 2)]
        )
        # Simulate the network's actions: remove 9, add heal edge (1,2).
        g.remove_node(9)
        g.add_edge(1, 2)
        gp.remove_node(9)
        gp.add_edge(1, 2)
        stats = tracker.round(
            deleted=9,
            deleted_label=ids[9],
            participants=(1, 2),
            gprime_neighbors=frozenset(),
            component_safe=True,
            plan_edges=((1, 2),),
        )
        assert tracker.label_of(1) == ids[1]
        assert tracker.label_of(2) == ids[1]  # adopted the min
        assert stats.id_changes == 1  # only node 2 changed
        assert stats.components_merged == 2
        assert stats.components_after == 1
        assert not stats.split
        tracker.check_consistency()

    def test_message_fanout_counts_degree(self):
        # Node 2 changes ID and has G-degree 2 afterwards → 2 sends.
        g, gp, tracker, ids = build(
            [1, 2, 3, 9], g_edges=[(9, 1), (9, 2), (2, 3)]
        )
        g.remove_node(9)
        g.add_edge(1, 2)
        gp.remove_node(9)
        gp.add_edge(1, 2)
        tracker.round(
            deleted=9,
            deleted_label=ids[9],
            participants=(1, 2),
            gprime_neighbors=frozenset(),
            component_safe=True,
            plan_edges=((1, 2),),
        )
        assert tracker.messages_sent[2] == 2  # to 1 and 3
        assert tracker.messages_received[1] == 1
        assert tracker.messages_received[3] == 1
        assert tracker.id_changes[2] == 1
        assert tracker.id_changes[1] == 0

    def test_gprime_neighbor_pieces_merge(self):
        # G' tree: 1-9, 9-2 (so 9's deletion splits {1},{2}); heal re-merges.
        g, gp, tracker, ids = build(
            [1, 2, 9],
            g_edges=[(9, 1), (9, 2), (1, 2)],
            gp_edges=[(9, 1), (9, 2)],
        )
        # Put all three in one tracked component first (G′ connects them).
        tracker.rebuild_from_healing_graph()
        assert tracker.component_members(1) == {1, 2, 9}
        assert tracker.label_of(9) == ids[1]
        g.remove_node(9)
        gp.remove_node(9)
        gp.add_edge(1, 2)
        stats = tracker.round(
            deleted=9,
            deleted_label=ids[1],
            participants=(1, 2),
            gprime_neighbors=frozenset({1, 2}),
            component_safe=True,
            plan_edges=((1, 2),),
        )
        assert stats.id_changes == 0  # label already minimal everywhere
        assert tracker.component_members(1) == {1, 2}
        tracker.check_consistency()

    def test_unknown_deleted_raises(self):
        _, _, tracker, ids = build([1])
        with pytest.raises(SimulationError):
            tracker.round(
                deleted=99,
                deleted_label=(0.5, 99),
                participants=(),
                gprime_neighbors=frozenset(),
                component_safe=True,
                plan_edges=(),
            )


class TestSplitRound:
    def test_no_heal_split_relabels_pieces(self):
        """NoHeal on a G′ path 1-9-2: pieces {1} and {2} must get distinct
        labels after 9 dies (the library extension beyond the paper)."""
        g, gp, tracker, ids = build(
            [1, 2, 9],
            g_edges=[(9, 1), (9, 2)],
            gp_edges=[(9, 1), (9, 2)],
        )
        tracker.rebuild_from_healing_graph()
        assert tracker.component_members(1) == {1, 2, 9}
        g.remove_node(9)
        gp.remove_node(9)
        stats = tracker.round(
            deleted=9,
            deleted_label=ids[1],
            participants=(),
            gprime_neighbors=frozenset({1, 2}),
            component_safe=False,
            plan_edges=(),
        )
        assert stats.split
        assert tracker.label_of(1) != tracker.label_of(2)
        tracker.check_consistency()

    def test_isolated_deletion(self):
        g, gp, tracker, ids = build([1, 9])
        g.remove_node(9)
        gp.remove_node(9)
        stats = tracker.round(
            deleted=9,
            deleted_label=ids[9],
            participants=(),
            gprime_neighbors=frozenset(),
            component_safe=True,
            plan_edges=(),
        )
        assert stats.id_changes == 0
        assert tracker.num_components() == 1
        tracker.check_consistency()


class TestDeadAndGrownNodes:
    def test_querying_a_deleted_node_raises_even_after_merges(self):
        """A victim's tombstone chains to the survivors' root; querying it
        must fail loudly, not leak the surviving component's label."""
        g, gp, tracker, ids = build([1, 2, 9], g_edges=[(9, 1), (9, 2)])
        g.remove_node(9)
        g.add_edge(1, 2)
        gp.remove_node(9)
        gp.add_edge(1, 2)
        tracker.round(
            deleted=9,
            deleted_label=ids[9],
            participants=(1, 2),
            gprime_neighbors=frozenset(),
            component_safe=True,
            plan_edges=((1, 2),),
        )
        with pytest.raises(SimulationError):
            tracker.label_of(9)
        with pytest.raises(SimulationError):
            tracker.component_members(9)

    def test_add_node_records_initial_id_for_later_splits(self):
        """A grown node must survive a split relabel (which consults
        initial IDs) and a full rebuild."""
        g, gp, tracker, ids = build([1, 9], gp_edges=[(9, 1)])
        tracker.rebuild_from_healing_graph()
        g.add_node(4)
        gp.add_edge(9, 4)
        tracker.add_node(4, (0.04, 4))
        tracker.rebuild_from_healing_graph()  # consults initial_ids[4]
        assert tracker.component_members(4) == {1, 4, 9}
        # NoHeal-style deletion splits {1} from {4}: the split relabel
        # takes min(initial_ids) over each piece.
        g.remove_node(9)
        gp.remove_node(9)
        stats = tracker.round(
            deleted=9,
            deleted_label=tracker.labels()[1],
            participants=(),
            gprime_neighbors=frozenset({1, 4}),
            component_safe=False,
            plan_edges=(),
        )
        assert stats.split
        assert tracker.label_of(1) != tracker.label_of(4)
        tracker.check_consistency()

    def test_add_node_guards(self):
        _, _, tracker, ids = build([1])
        with pytest.raises(SimulationError):
            tracker.add_node(1, (0.5, 999))  # already tracked
        with pytest.raises(SimulationError):
            tracker.add_node(7, ids[1])  # label already in use


class TestRebuildFromFused:
    """Adopting a fused kernel's union-find arrays (churn bailout)."""

    def kernel_state(self):
        # Pre-campaign classes {0,1,2,3} (root 0, label ID(0)), {4,5}
        # (root 5, label ID(4)) and {6}; then nodes 0, 5 and 6 died.
        # The dead roots 0 and 5 carry the survivors' labels; 6 left no
        # survivors, but stays in the forest as a tombstone all the same.
        g, gp, tracker, ids = build(
            range(7), gp_edges=[(0, 1), (1, 2), (2, 3), (4, 5)]
        )
        for dead in (0, 5, 6):
            g.remove_node(dead)
            gp.remove_node(dead)
        gp.add_edge(1, 3)  # the heal that kept {1, 2, 3} together
        parent = [0, 0, 1, 0, 5, 5, 6]
        lab_origin = [0, 1, 2, 3, 4, 4, 6]
        return tracker, ids, parent, lab_origin, [1, 2, 3, 4]

    def test_reproduces_partition_and_labels(self):
        tracker, ids, parent, lab_origin, alive = self.kernel_state()
        tracker.id_changes[2] = 3
        tracker.rebuild_from_fused(parent, lab_origin, alive)
        assert tracker.components() == {
            ids[0]: frozenset({1, 2, 3}),
            ids[4]: frozenset({4}),
        }
        assert tracker.label_of(2) == ids[0]
        assert tracker.label_of(4) == ids[4]
        tracker.check_consistency()
        # cumulative counters are left as they were
        assert tracker.id_changes[2] == 3
        for dead in (0, 5, 6):
            with pytest.raises(SimulationError, match="not tracked"):
                tracker.label_of(dead)

    def test_refuses_to_re_add_a_tombstoned_label(self):
        tracker, ids, parent, lab_origin, alive = self.kernel_state()
        tracker.rebuild_from_fused(parent, lab_origin, alive)
        for dead in (0, 5, 6):
            with pytest.raises(SimulationError, match="already tracked"):
                tracker.add_node(dead, (0.9, 100 + dead))
        tracker.add_node(7, (0.07, 7))
        assert tracker.label_of(7) == (0.07, 7)


class TestConsistencyChecker:
    def test_detects_mislabel(self):
        g, gp, tracker, ids = build([1, 2])
        # Corrupt the union-find: node 1's class claims node 2's label.
        tracker._root_label[1] = ids[2]
        with pytest.raises(SimulationError):
            tracker.check_consistency()

    def test_detects_component_mismatch(self):
        g, gp, tracker, ids = build([1, 2])
        gp.add_edge(1, 2)  # true G' merged, tracker not told
        with pytest.raises(SimulationError):
            tracker.check_consistency()
