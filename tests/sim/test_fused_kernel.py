"""Differential tests for the fused scalar-only campaign kernel.

The kernel (``repro.sim.fastpath``) may only change *speed*: every
result scalar, the adversary's RNG stream, its survivor list, and the
graph the caller handed in must be exactly what the generic engine
produces. The generic path is obtained by forcing an observer
(``keep_events=True``), which makes the kernel ineligible.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from repro.adversary import ADVERSARIES
from repro.core.network import SelfHealingNetwork
from repro.core.registry import HEALERS
from repro.errors import SimulationError
from repro.graph.generators import preferential_attachment, random_tree
from repro.graph.graph import Graph
from repro.graph.validation import validate_graph
from repro.sim import fastpath
from repro.sim.engine import run_campaign


def make(n=160, seed=1):
    return preferential_attachment(n, 3, seed=seed)


def shuffled(graph, seed=0):
    """``graph`` rebuilt as an object graph whose nodes were inserted in
    a random order: labels are still exactly 0..n-1, but dict order is
    not label order."""
    order = list(graph.nodes())
    random.Random(seed).shuffle(order)
    return Graph.from_edges(sorted(graph.edges()), nodes=order)


@pytest.fixture
def networks(monkeypatch):
    """Every network built while the test runs, in order — a probe that
    keeps the network a scalar-only campaign drops."""
    built = []
    init = SelfHealingNetwork.__init__

    def probe(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SelfHealingNetwork, "__init__", probe)
    return built


def assert_same_graph(fused, generic):
    """Same nodes in the same order, same adjacency, same edge count."""
    assert list(fused.nodes()) == list(generic.nodes())
    assert fused._adj == generic._adj
    assert fused.num_edges == generic.num_edges
    assert generic.num_edges == sum(generic.degrees().values()) // 2


def assert_object_fused_matches_generic(
    networks, make_graph, make_adversary, *, id_seed=7, **kw
):
    """One campaign on the object graph, fused and forced-generic:
    scalars, adversary state, the caller's graph, G′ and the δ-index
    the probe kept must all agree."""
    before = fastpath._fused_campaigns
    g_fused, adv_fused = make_graph(), make_adversary()
    fused = run_campaign(
        g_fused, HEALERS.make("dash"), adv_fused, id_seed=id_seed, **kw
    )
    assert fastpath._fused_campaigns == before + 1
    g_gen, adv_gen = make_graph(), make_adversary()
    generic = run_campaign(
        g_gen,
        HEALERS.make("dash"),
        adv_gen,
        id_seed=id_seed,
        keep_events=True,
        **kw,
    )
    assert fastpath._fused_campaigns == before + 1
    net_fused, net_gen = networks[-2:]

    assert scalars(fused) == scalars(generic)[:5] + (None, None)
    assert adv_fused._rng.getstate() == adv_gen._rng.getstate()
    # The generic adversary pops its final (now dead) victim lazily on
    # the next draw; the kernel pops eagerly. Normalize and compare.
    expected_alive = [u for u in adv_gen._alive if u != adv_gen._last]
    assert adv_fused._alive == expected_alive
    assert adv_fused._last is None
    assert sorted(g_fused.nodes()) == expected_alive

    assert_same_graph(g_fused, g_gen)
    assert_same_graph(net_fused.healing_graph, net_gen.healing_graph)
    validate_graph(g_fused)
    assert net_fused.peak_delta == net_gen.peak_delta
    net_fused.check_delta_index()
    assert net_fused.max_delta() == net_gen.max_delta()
    assert net_fused.max_delta_node() == net_gen.max_delta_node()
    return fused


def scalars(result):
    return (
        result.initial_n,
        result.deletions,
        result.final_alive,
        result.peak_delta,
        result.values,
        result.events,
        result.network,
    )


def run(graph, adversary, **kw):
    return run_campaign(
        graph, HEALERS.make("dash"), adversary, id_seed=7, **kw
    )


CASES = [
    {},
    {"stop_alive": 40},
    {"max_rounds": 23},
    {"max_deletions": 57},
    {"max_rounds": 0},
]


def test_fused_survivor_list_exact():
    adv_fused = ADVERSARIES.make("random", seed=5)
    fused = run(make(seed=3), adv_fused, stop_alive=50)
    adv_gen = ADVERSARIES.make("random", seed=5)
    generic = run(
        make(seed=3), adv_gen, stop_alive=50, keep_events=True,
        keep_network=True,
    )
    survivors = sorted(generic.network.graph.nodes())
    assert adv_fused._alive == survivors
    assert fused.final_alive == len(survivors) == 50


@pytest.mark.parametrize("kw", CASES, ids=[str(c) for c in CASES])
def test_object_fused_matches_generic(networks, kw):
    """The kernel on the object graph: it aliases the ``_adj`` sets, so
    the caller's graph must come out exactly as the generic engine's
    remove_node/add_edge stream leaves it."""
    assert_object_fused_matches_generic(
        networks,
        lambda: make(),
        lambda: ADVERSARIES.make("random", seed=2),
        **kw,
    )


@pytest.mark.parametrize("kw", [{}, {"stop_alive": 40}])
def test_object_fused_indexes_by_label_not_dict_order(networks, kw):
    """Labels 0..n-1 inserted in a shuffled order still fuse: the slot
    list is built by label, and survivors keep their dict order."""
    assert_object_fused_matches_generic(
        networks,
        lambda: shuffled(make()),
        lambda: ADVERSARIES.make("random", seed=2),
        **kw,
    )


@pytest.mark.parametrize(
    "graph_seed,attack_seed,id_seed", [(1, 2, 3), (4, 5, 6), (7, 8, 9)]
)
def test_fused_seed_grid(networks, graph_seed, attack_seed, id_seed):
    assert_object_fused_matches_generic(
        networks,
        lambda: make(n=220, seed=graph_seed),
        lambda: ADVERSARIES.make("random", seed=attack_seed),
        id_seed=id_seed,
    )


def _label_mismatched_graphs():
    """Object graphs whose labels are not exactly the ints 0..n-1."""
    base = make(n=40)

    def relabel(f):
        return Graph.from_edges((f(u), f(v)) for u, v in base.edges())

    with_hole = make(n=40)
    with_hole.remove_node(7)
    return {
        "str": relabel(str),
        "hole": with_hole,
        "bool": relabel(lambda u: True if u == 1 else u),
        "numpy-int": relabel(lambda u: np.int64(u) if u == 3 else u),
    }


def test_fused_engages_only_when_unobserved():
    before = fastpath._fused_campaigns
    ineligible = [
        dict(keep_events=True),
        dict(keep_network=True),
        dict(check_invariants=True),
        dict(batch_fast_path=False),
    ]
    for kw in ineligible:
        run(make(n=40), ADVERSARIES.make("random", seed=1), **kw)
    # non-Dash healer, non-random adversary
    run_campaign(
        make(n=40),
        HEALERS.make("sdash"),
        ADVERSARIES.make("random", seed=1),
        id_seed=7,
    )
    run_campaign(
        make(n=40),
        HEALERS.make("dash"),
        ADVERSARIES.make("neighbor-of-max", seed=1),
        id_seed=7,
    )
    # object graphs whose labels are not exactly 0..n-1
    for graph in _label_mismatched_graphs().values():
        run(graph, ADVERSARIES.make("random", seed=1))
    assert fastpath._fused_campaigns == before
    run(make(n=40), ADVERSARIES.make("random", seed=1))
    assert fastpath._fused_campaigns == before + 1


def _supports(network):
    adversary = ADVERSARIES.make("random", seed=1)
    adversary.reset(network)
    return fastpath.supports(
        network,
        adversary,
        metrics=[],
        batch_rounds=False,
        keep_events=False,
        keep_network=False,
    )


@pytest.mark.parametrize("name", list(_label_mismatched_graphs()))
def test_object_label_check_refuses(name):
    network = SelfHealingNetwork(
        _label_mismatched_graphs()[name], HEALERS.make("dash")
    )
    assert not _supports(network)


def test_object_label_check_requires_matching_healing_graph():
    """G′ must hold exactly G's nodes: one missing or one extra refuses."""
    network = SelfHealingNetwork(make(n=40), HEALERS.make("dash"))
    assert _supports(network)
    network.healing_graph.remove_node(5)
    assert not _supports(network)
    network = SelfHealingNetwork(make(n=40), HEALERS.make("dash"))
    network.healing_graph.add_node(40)
    assert not _supports(network)


def test_fused_on_tree_topology(networks):
    assert_object_fused_matches_generic(
        networks,
        lambda: random_tree(150, seed=2),
        lambda: ADVERSARIES.make("random", seed=4),
        id_seed=1,
    )


@pytest.mark.parametrize("kw", [{}, {"stop_alive": 33}])
def test_fenwick_survivor_view_identical(monkeypatch, kw):
    """Above the threshold, victim draws go through the Fenwick
    rank-select view instead of the adversary's list. Forcing the tree
    at small n must change nothing: same scalars, same RNG stream, same
    rebuilt survivor list."""
    adv_list = ADVERSARIES.make("random", seed=9)
    with_list = run(make(n=180, seed=4), adv_list, **kw)

    monkeypatch.setattr(fastpath, "_FENWICK_THRESHOLD", 1)
    adv_tree = ADVERSARIES.make("random", seed=9)
    with_tree = run(make(n=180, seed=4), adv_tree, **kw)

    assert scalars(with_tree) == scalars(with_list)
    assert adv_tree._rng.getstate() == adv_list._rng.getstate()
    assert adv_tree._alive == adv_list._alive
    assert adv_tree._last is None


def test_object_fenwick_view_matches_generic(networks, monkeypatch):
    """The Fenwick draw path rebuilds the survivor list from the slot
    list on exit; on the object graph that list aliases ``_adj``."""
    monkeypatch.setattr(fastpath, "_FENWICK_THRESHOLD", 1)
    assert_object_fused_matches_generic(
        networks,
        lambda: make(n=180, seed=4),
        lambda: ADVERSARIES.make("random", seed=9),
        stop_alive=33,
    )


def test_fenwick_view_unit():
    view = fastpath._FenwickAliveView(6)
    assert len(view) == 6
    assert [view[i] for i in range(6)] == [0, 1, 2, 3, 4, 5]
    view.remove(0)
    view.remove(3)
    assert len(view) == 4
    assert [view[i] for i in range(4)] == [1, 2, 4, 5]
    view.remove(5)
    assert [view[i] for i in range(3)] == [1, 2, 4]


# ----------------------------------------------------------------------
# Fused churn kernel (delete-only prefixes fuse; insertions bail out)
# ----------------------------------------------------------------------

def _schedule(tmp_path, rounds):
    path = tmp_path / "schedule.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rounds) + "\n")
    return path


def _churn_scalars(result):
    return (
        result.initial_n,
        result.deletions,
        result.insertions,
        result.final_alive,
        result.peak_delta,
        result.values,
    )


def _run_both_ways(make_adversary, **kw):
    """One churn campaign, fused and forced-generic; the scalars must
    agree. Returns the fused result."""
    fused = run(make(), make_adversary(), **kw)
    generic = run(make(), make_adversary(), keep_events=True, **kw)
    assert _churn_scalars(fused) == _churn_scalars(generic)
    return fused


def test_fused_churn_pure_death_completes_in_kernel():
    """A churn schedule that never inserts (rate=0) runs start to finish
    inside the kernel — one fused campaign, scalars identical to the
    generic path."""
    before = fastpath._fused_campaigns
    _run_both_ways(lambda: ADVERSARIES.make("churn:rate=0.0", seed=6))
    assert fastpath._fused_campaigns == before + 1


def _prefix_then_insert_trace(tmp_path):
    rounds = [[["delete", u]] for u in range(40)]
    rounds.append([["delete", 77], ["delete", 78]])
    rounds.append([["add", 500, [100, 101]], ["delete", 100]])
    rounds.append([["add", 501, [500]]])
    rounds.append([["delete", 500]])
    return _schedule(tmp_path, rounds)


def test_fused_churn_delete_prefix_then_bailout(tmp_path):
    """A trace with a long delete-only prefix fuses the prefix, bails on
    the first insertion round, and the generic engine finishes the
    campaign — byte-identical to never having fused at all."""
    path = _prefix_then_insert_trace(tmp_path)
    before = fastpath._fused_campaigns
    fused = _run_both_ways(
        lambda: ADVERSARIES.make(f"trace-churn:path={path}")
    )
    assert fastpath._fused_campaigns == before + 1  # armed, then bailed
    assert fused.deletions == 44
    assert fused.insertions == 2


def test_object_fused_churn_bailout_is_byte_identical(networks, tmp_path):
    """On the object graph the handoff must be invisible: the generic
    tail after the bailout emits the same events — insertions included,
    whose ID-change and message costs read the rebuilt tracker — and
    leaves the same graphs, tracker partition and δ-index as a campaign
    that never fused."""
    path = _prefix_then_insert_trace(tmp_path)
    g_fused, g_gen = make(), make()
    run(g_fused, ADVERSARIES.make(f"trace-churn:path={path}"))
    run(g_gen, ADVERSARIES.make(f"trace-churn:path={path}"), keep_events=True)
    net_fused, net_gen = networks[-2:]

    # the generic tail: [add 500, delete 100], [add 501], [delete 500]
    assert len(net_fused.events) == 4
    assert net_fused.events == net_gen.events[-4:]
    assert net_fused.deleted_nodes == net_gen.deleted_nodes
    assert net_fused.inserted_nodes == net_gen.inserted_nodes == [500, 501]
    assert_same_graph(g_fused, g_gen)
    assert_same_graph(net_fused.healing_graph, net_gen.healing_graph)
    assert net_fused.tracker.components() == net_gen.tracker.components()
    net_fused.tracker.check_consistency()
    net_fused.check_delta_index()
    assert net_fused.peak_delta == net_gen.peak_delta


def test_fused_churn_first_round_insertion_bails_unarmed(tmp_path):
    """Steady-state churn inserts from round one: the kernel must hand
    off before building any of its O(n) arrays — no fused campaign is
    counted, and nothing needs repair."""
    path = _schedule(
        tmp_path,
        [[["add", 500, [0]], ["delete", 1]], [["delete", 500]]],
    )
    before = fastpath._fused_campaigns
    _run_both_ways(lambda: ADVERSARIES.make(f"trace-churn:path={path}"))
    assert fastpath._fused_campaigns == before


def test_fused_churn_bailout_repairs_graph_state(tmp_path):
    """After an armed bailout the graph the generic engine inherits must
    have accurate public counters, a consistent degree index, and a
    valid adjacency — the kernel bypassed all of them live."""
    rounds = [[["delete", u]] for u in range(30)]
    rounds.append([["add", 900, [50, 51]]])
    path = _schedule(tmp_path, rounds)
    g = make()
    run(g, ADVERSARIES.make(f"trace-churn:path={path}"))
    assert g.has_node(900)
    assert g.num_nodes == 160 - 30 + 1
    assert g.num_edges == sum(g.degrees().values()) // 2
    g.check_degree_index()
    validate_graph(g)


def test_fused_churn_dead_victim_error_parity(tmp_path):
    """A trace that re-kills a dead node raises the same SimulationError
    fused as forced-generic: the kernel hands the bad round to the
    generic loop, which reports it against a repaired graph — the very
    graph a generic run leaves."""
    path = _schedule(tmp_path, [[["delete", 3]], [["delete", 3]]])
    messages = set()
    graphs = []
    for extra in ({}, {"keep_events": True}):
        g = make()
        with pytest.raises(SimulationError, match="dead node") as exc:
            run(g, ADVERSARIES.make(f"trace-churn:path={path}"), **extra)
        messages.add(str(exc.value))
        graphs.append(g)
    assert len(messages) == 1
    assert_same_graph(*graphs)
    validate_graph(graphs[0])


def test_fused_repairs_graph_counters():
    """After a fused stop_alive campaign the graph's public counters and
    degree machinery must be accurate (the kernel bypasses them live)."""
    g = make(n=120, seed=6)
    adv = ADVERSARIES.make("random", seed=8)
    run(g, adv, stop_alive=30)
    assert g.num_nodes == 30
    assert sorted(g.nodes()) == adv._alive
    assert g.num_edges == sum(g.degrees().values()) // 2
    g.check_degree_index()
    validate_graph(g)
