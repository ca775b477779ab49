"""Unit tests for the mixed-round (churn) engine machinery.

Covers the op protocol guardrails, insertion error handling, the
δ-neutrality of announced join edges, tracker accounting, and the
fast-path exclusion — the engine-level contract the churn subsystem
builds on.
"""

from __future__ import annotations

import pytest

from repro.churn.trace import ScriptedChurn
from repro.errors import (
    ConfigurationError,
    NodeNotFoundError,
    SimulationError,
)
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.graph.generators import GENERATORS
from repro.graph.graph import Graph
from repro.sim.engine import run_campaign


def _path(n=6):
    return GENERATORS.make("path", force={"n": n})


def _network(healer="dash", n=6, **kwargs):
    return SelfHealingNetwork(_path(n), HEALERS.make(healer), **kwargs)


# ----------------------------------------------------------------------
# Op protocol
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "bad_op",
    [
        "delete",                       # not a tuple
        ("delete",),                    # missing victim
        ("delete", 1, 2),               # delete is binary
        ("add", 99),                    # add without targets
        ("add", 99, [1], "extra"),      # add is ternary
        ("rename", 1, [2]),             # unknown kind
        42,                             # not even a sequence
    ],
)
def test_malformed_churn_op_raises(bad_op):
    # A raw adversary, bypassing ScriptedChurn's eager decode, so the
    # engine's own _normalize_churn_ops guard is what fires.
    class Raw(ScriptedChurn):
        def __init__(self, op):
            self._op, self._pos = op, 0

        def choose_round(self, network):
            if self._pos:
                return None
            self._pos = 1
            return [self._op]

    with pytest.raises(SimulationError, match="malformed churn op"):
        run_campaign(
            _path(), HEALERS.make("dash"), Raw(bad_op), id_seed=0,
        )


def test_scripted_churn_rejects_malformed_ops_eagerly():
    with pytest.raises(SimulationError, match="malformed churn op"):
        ScriptedChurn([[("rename", 1, [2])]])


def test_mixed_and_batch_rounds_are_mutually_exclusive():
    class Both(ScriptedChurn):
        batch_rounds = True

    with pytest.raises(ConfigurationError, match="mixed and batch"):
        run_campaign(_path(), HEALERS.make("dash"), Both([]), id_seed=0)


def test_deleting_a_dead_node_in_a_churn_round_raises():
    with pytest.raises(SimulationError, match="dead node"):
        run_campaign(
            _path(),
            HEALERS.make("dash"),
            ScriptedChurn([[("delete", 0)], [("delete", 0)]]),
            id_seed=0,
        )


# ----------------------------------------------------------------------
# insert_and_heal error handling
# ----------------------------------------------------------------------

def test_inserting_a_present_node_raises():
    network = _network()
    with pytest.raises(SimulationError, match="already"):
        network.insert_and_heal(3, (0,))


def test_reusing_a_deleted_label_raises():
    network = _network()
    network.delete_and_heal(3)
    with pytest.raises(SimulationError):
        network.insert_and_heal(3, (0,))


def test_inserting_with_a_dead_target_raises():
    network = _network()
    network.delete_and_heal(3)
    with pytest.raises(NodeNotFoundError):
        network.insert_and_heal(99, (3,))


# ----------------------------------------------------------------------
# Insertion semantics
# ----------------------------------------------------------------------

def test_isolated_join_registers_as_singleton_component():
    network = _network(check_invariants=True)
    event = network.insert_and_heal(99, ())
    assert event.action == "insert"
    assert event.new_edges == ()
    assert event.components_merged == 1  # just its own fresh label
    assert network.graph.has_node(99)
    assert network.graph.degree(99) == 0
    # The invariant checkers (run on the next op) must accept the
    # singleton — a deletion elsewhere exercises them.
    network.delete_and_heal(2)


def test_inserted_node_can_be_deleted_and_healed():
    network = _network(check_invariants=True)
    network.insert_and_heal(99, (0, 5))
    event = network.delete_and_heal(99)
    assert event.action == "delete"
    assert not network.graph.has_node(99)
    assert network.inserted_nodes == [99]  # roster keeps the history


def test_announced_join_edges_are_delta_neutral():
    """Edges created by a join absorb into both endpoints' baselines:
    δ stays 0 for everyone, and only *healing* (here: the deletion
    afterwards) moves it."""
    network = _network(n=8)
    deltas_before = dict(network.deltas())
    network.insert_and_heal(99, tuple(range(8)))  # default healer: all
    assert network.graph.degree(99) == 8
    assert network.delta(99) == 0
    for u, d in network.deltas().items():
        assert d == deltas_before.get(u, 0) == 0, u
    assert network.peak_delta == 0


def test_tracker_counts_insert_rounds():
    network = _network()
    assert network.tracker.insert_rounds == 0
    network.insert_and_heal(99, (0,))
    network.insert_and_heal(100, (99,))
    assert network.tracker.insert_rounds == 2


def test_insertions_surface_in_result_values():
    result = run_campaign(
        _path(),
        HEALERS.make("dash"),
        ScriptedChurn([[("add", 99, (0,)), ("delete", 3)]]),
        id_seed=0,
        keep_events=True,
    )
    assert result.insertions == 1
    assert result.deletions == 1
    assert result.values["insertions"] == 1.0
    assert [e.action for e in result.events] == ["insert", "delete"]


def test_duplicate_targets_are_deduped():
    network = _network()
    event = network.insert_and_heal(99, (0, 0, 1, 0))
    assert event.participants == (0, 1)


# ----------------------------------------------------------------------
# Fast path exclusion
# ----------------------------------------------------------------------

def test_fast_path_eligibility_for_mixed_round_adversaries_object_graph():
    """Exactly the verbatim churn adversary classes may enter the fused
    kernel (their delete-only prefixes fuse; insertion rounds bail out to
    the honest loop) — a mixed-round flag on anything else, or a churn
    subclass, is a protocol mismatch and must be refused."""
    from repro.adversary.classic import RandomAttack
    from repro.churn.adversaries import ChurnAdversary
    from repro.sim import fastpath

    graph = GENERATORS.make("erdos_renyi:p=0.2", force={"n": 32})
    network = SelfHealingNetwork(graph, HEALERS.make("dash"))

    adversary = RandomAttack(seed=1)
    adversary.reset(network)
    kwargs = dict(
        metrics=[], batch_rounds=False, keep_events=False,
        keep_network=False,
    )
    assert fastpath.supports(network, adversary, **kwargs)

    # Same verbatim type, but flagged as mixed-round: instantly refused
    # (it would yield victim lists, not op lists, to the churn kernel).
    adversary.mixed_rounds = True
    assert not fastpath.supports(network, adversary, **kwargs)

    # The genuine churn classes qualify...
    churn = ChurnAdversary(rate=1.0, rounds=4, seed=1)
    churn.reset(network)
    assert fastpath.supports(network, churn, **kwargs)

    # ...but not with the flag stripped, and not as a subclass (either
    # may override hooks the kernel inlines).
    churn.mixed_rounds = False
    assert not fastpath.supports(network, churn, **kwargs)

    class TweakedChurn(ChurnAdversary):
        pass

    sub = TweakedChurn(rate=1.0, rounds=4, seed=1)
    sub.reset(network)
    assert not fastpath.supports(network, sub, **kwargs)


def test_scripted_churn_on_two_disjoint_edges_keeps_graph_consistent():
    """End-to-end mini-scenario touching every op kind, with paranoid
    invariant checking on."""
    g = Graph(range(4))
    g.add_edge(0, 1)
    g.add_edge(2, 3)
    result = run_campaign(
        g,
        HEALERS.make("forgiving-graph"),
        ScriptedChurn(
            [
                [("add", 10, (1, 2))],        # bridge the two edges
                [("delete", 10)],             # and tear the bridge down
                [("add", 11, ()), ("add", 12, (11,))],
            ]
        ),
        id_seed=5,
        keep_events=True,
        check_invariants=True,
    )
    assert result.insertions == 3
    assert result.deletions == 1
    assert [e.action for e in result.events] == [
        "insert", "delete", "insert", "insert"
    ]
