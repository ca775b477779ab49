"""Tests for single-victim attack/heal campaigns (``batch_rounds=False``)."""

from __future__ import annotations

import pytest

from repro.adversary import RandomAttack, ScriptedAttack
from repro.core.dash import Dash
from repro.errors import ConfigurationError, SimulationError
from repro.graph.generators import path_graph, preferential_attachment
from repro.sim.metrics import DegreeMetric, Metric
from repro.sim.engine import run_campaign


def run_single(graph, healer, adversary, **kwargs):
    """One single-victim campaign: every round deletes one victim."""
    return run_campaign(graph, healer, adversary, batch_rounds=False, **kwargs)


class TestTermination:
    def test_deletes_everything_by_default(self):
        g = preferential_attachment(20, 2, seed=0)
        res = run_single(g, Dash(), RandomAttack(seed=1))
        assert res.final_alive == 0
        assert res.deletions == 20

    def test_stop_alive(self):
        g = preferential_attachment(20, 2, seed=0)
        res = run_single(g, Dash(), RandomAttack(seed=1), stop_alive=5)
        assert res.final_alive == 5
        assert res.deletions == 15

    def test_max_deletions(self):
        g = preferential_attachment(20, 2, seed=0)
        res = run_single(g, Dash(), RandomAttack(seed=1), max_deletions=3)
        assert res.deletions == 3
        assert res.final_alive == 17

    def test_adversary_none_stops(self):
        g = path_graph(6)
        res = run_single(g, Dash(), ScriptedAttack([0, 1]))
        assert res.deletions == 2
        assert res.final_alive == 4

    def test_invalid_config(self):
        g = path_graph(4)
        with pytest.raises(ConfigurationError):
            run_single(g, Dash(), RandomAttack(0), stop_alive=-1)
        with pytest.raises(ConfigurationError):
            run_single(g, Dash(), RandomAttack(0), max_deletions=-2)


class TestMetricsPlumbing:
    def test_metric_values_merged(self):
        g = preferential_attachment(15, 2, seed=2)
        res = run_single(
            g, Dash(), RandomAttack(seed=2), metrics=[DegreeMetric()]
        )
        assert "max_degree_increase" in res.values
        assert res["max_degree_increase"] == float(res.peak_delta)

    def test_duplicate_metric_names_rejected(self):
        g = path_graph(5)
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_single(
                g,
                Dash(),
                RandomAttack(seed=0),
                metrics=[DegreeMetric(), DegreeMetric()],
            )

    def test_on_event_called_per_round(self):
        calls = []

        class Spy(Metric):
            def on_event(self, network, event):
                calls.append(event.step)

            def finalize(self, network):
                return {"spy": float(len(calls))}

        g = path_graph(6)
        res = run_single(g, Dash(), RandomAttack(seed=0), metrics=[Spy()])
        assert res["spy"] == res.deletions
        assert calls == list(range(1, res.deletions + 1))


class TestRetention:
    def test_events_kept_on_request(self):
        g = path_graph(5)
        res = run_single(g, Dash(), RandomAttack(seed=0), keep_events=True)
        assert res.events is not None
        assert len(res.events) == res.deletions

    def test_events_dropped_by_default(self):
        g = path_graph(5)
        res = run_single(g, Dash(), RandomAttack(seed=0))
        assert res.events is None
        assert res.network is None

    def test_network_kept_on_request(self):
        g = path_graph(5)
        res = run_single(
            g, Dash(), RandomAttack(seed=0), stop_alive=2, keep_network=True
        )
        assert res.network is not None
        assert res.network.num_alive == 2


class TestDeadTargetDetection:
    class StupidAdversary(RandomAttack):
        def choose_target(self, network):
            return "ghost"

    def test_dead_target_raises(self):
        g = path_graph(4)
        with pytest.raises(SimulationError, match="dead node"):
            run_single(g, Dash(), self.StupidAdversary(seed=0))
