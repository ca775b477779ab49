"""Engine-path differential: every way of running a campaign agrees.

One campaign can run down several engine paths: the batched tracker
fast path or the honest traversal reference (``batch_fast_path=False``),
with or without paranoid invariant checks (``check_invariants=True``),
and observed or scalar-only (``keep_events=False``, which hands
eligible DASH campaigns to the fused kernel). None of these may change
what the campaign computes. Each test runs one campaign twice — the
observed default as the reference, then one alternative path — over
healers × topologies × single-victim, wave, and mixed churn schedules,
and compares everything the alternative path exposes: the HealEvent
streams, the result scalars, the tracker accounting and labels, and
the final graphs.

The traversal path only differs from the reference on batch (wave)
rounds, so it is exercised on wave schedules only.
"""

from __future__ import annotations

import pytest

from repro.adversary import ADVERSARIES
from repro.core.registry import HEALERS
from repro.graph.generators import (
    erdos_renyi,
    preferential_attachment,
    random_tree,
    watts_strogatz,
)
from repro.sim.engine import run_campaign

TOPOLOGIES = {
    "pa": lambda: preferential_attachment(96, 3, seed=5),
    "gnp": lambda: erdos_renyi(80, 0.08, seed=6),
    "ws": lambda: watts_strogatz(80, 4, 0.1, seed=7),
    "tree": lambda: random_tree(90, seed=8),
}

HEALER_NAMES = ["dash", "sdash", "graph-heal"]

#: Alternative engine paths, each compared against the observed default.
PATHS = {
    "traversal": dict(batch_fast_path=False),
    "paranoid": dict(check_invariants=True),
    "unobserved": dict(keep_events=False, keep_network=False),
}
SINGLE_PATHS = ["paranoid", "unobserved"]
WAVE_PATHS = ["traversal", "paranoid", "unobserved"]


def campaign(make_graph, healer, make_adversary, id_seed, path=None):
    kw = dict(keep_events=True, keep_network=True)
    if path is not None:
        kw.update(PATHS[path])
    return run_campaign(
        make_graph(),
        HEALERS.make(healer),
        make_adversary(),
        id_seed=id_seed,
        **kw,
    )


SCALARS = (
    "initial_n",
    "deletions",
    "insertions",
    "final_alive",
    "peak_delta",
    "values",
)


def assert_identical(reference, other):
    for attr in SCALARS:
        assert getattr(other, attr) == getattr(reference, attr), attr
    if other.network is None:
        # Scalar-only run: no events and no network to compare.
        assert other.events is None
        return
    assert other.events == reference.events
    ref_net, net = reference.network, other.network
    assert net.graph == ref_net.graph
    assert net.healing_graph == ref_net.healing_graph
    ref_tr, tr = ref_net.tracker, net.tracker
    assert tr.id_changes == ref_tr.id_changes
    assert tr.messages_sent == ref_tr.messages_sent
    assert tr.messages_received == ref_tr.messages_received
    state, ref_state = tr.export_state(), ref_tr.export_state()
    if not ref_net.batch_fast_path or not net.batch_fast_path:
        # The only difference the traversal path may leave is the
        # counter of which path each batch round took.
        ref_fast = ref_state.pop("fast_batch_rounds")
        ref_slow = ref_state.pop("slow_batch_rounds")
        assert ref_fast > 0
        assert state.pop("fast_batch_rounds") == 0
        assert state.pop("slow_batch_rounds") == ref_fast + ref_slow
    assert state == ref_state
    for u in net.graph.nodes():
        assert tr.label_of(u) == ref_tr.label_of(u)


def assert_path_matches(make_graph, healer, make_adversary, id_seed, path):
    reference = campaign(make_graph, healer, make_adversary, id_seed)
    other = campaign(make_graph, healer, make_adversary, id_seed, path)
    assert_identical(reference, other)
    return reference


def _attack_cases():
    for schedule, paths in (
        ("random", SINGLE_PATHS),
        ("random-wave:size=5", WAVE_PATHS),
    ):
        for healer in HEALER_NAMES:
            for topology in sorted(TOPOLOGIES):
                for path in paths:
                    yield pytest.param(
                        healer,
                        topology,
                        schedule,
                        path,
                        id=f"{healer}-{topology}-{schedule}-{path}",
                    )


@pytest.mark.parametrize("healer,topology,schedule,path", _attack_cases())
def test_path_differential(healer, topology, schedule, path):
    reference = assert_path_matches(
        TOPOLOGIES[topology],
        healer,
        lambda: ADVERSARIES.make(schedule, seed=13),
        3,
        path,
    )
    assert reference.final_alive == 0


@pytest.mark.parametrize("path", SINGLE_PATHS)
@pytest.mark.parametrize(
    "adversary", ["neighbor-of-max", "neighbor-of-max-delta"]
)
def test_index_extreme_adversaries(adversary, path):
    """The degree/δ index extremes feed these adversaries' target choice;
    identical victim sequences prove the index streams agree on every
    path."""
    assert_path_matches(
        lambda: preferential_attachment(96, 3, seed=9),
        "dash",
        lambda: ADVERSARIES.make(adversary, seed=17),
        4,
        path,
    )


CHURN_SCHEDULES = [
    "churn:rate=1.5,rounds=24",
    "churn:rate=2.0,lifetime=pareto,mean=4,shape=2.2,rounds=24",
]
CHURN_HEALERS = ["dash", "forgiving-tree", "forgiving-graph"]


@pytest.mark.parametrize("path", SINGLE_PATHS)
@pytest.mark.parametrize("schedule", CHURN_SCHEDULES)
@pytest.mark.parametrize("healer", CHURN_HEALERS)
def test_churn_path_differential(healer, schedule, path):
    """Mixed insert/delete rounds: the whole observable surface — insert
    HealEvents included — must not depend on the path. For DASH the
    scalar-only run starts in the fused churn kernel and bails back to
    the generic loop at the first insertion round."""
    reference = assert_path_matches(
        lambda: erdos_renyi(64, 0.08, seed=21),
        healer,
        lambda: ADVERSARIES.make(schedule, seed=23),
        6,
        path,
    )
    assert reference.insertions > 0
    assert any(e.action == "insert" for e in reference.events)


@pytest.mark.parametrize("path", SINGLE_PATHS)
def test_scripted_churn_with_far_labels_matches(path):
    """Scripted joins far past the initial label range, and the deletion
    of a joined node, replay identically on every path."""
    from repro.churn.trace import ScriptedChurn

    script = [
        [("delete", 3)],
        [("add", 200, (0, 1)), ("delete", 5)],
        [("add", 300, ())],
        [("delete", 200), ("add", 201, (300,))],
    ]
    reference = assert_path_matches(
        lambda: erdos_renyi(40, 0.1, seed=25),
        "dash",
        lambda: ScriptedChurn(script),
        7,
        path,
    )
    assert reference.insertions == 3
