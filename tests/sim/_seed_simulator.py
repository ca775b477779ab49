"""The pre-engine simulation loops, preserved verbatim for differential
tests (the PR-4 analogue of ``tests/core/_seed_tracker.py`` and
``tests/adversary/_scan_adversaries.py``).

These are the bodies of the package's former single-victim and wave
simulation entry points exactly as they stood before
:func:`repro.sim.engine.run_campaign` replaced both.
``tests/sim/test_campaign_engine.py`` replays identical campaigns
through the engine (``batch_rounds=False`` / ``True``) and through these
loops and asserts byte-identical :class:`HealEvent` streams and
:class:`SimulationResult` fields.

The one intentional divergence is the wave loop's accounting bug the
engine fixes: this seed loop hands the *raw* wave (duplicates included)
to ``delete_batch_and_heal`` and counts ``len(set(wave))``. None of the
shipped wave adversaries emit duplicates, so differential comparisons
over them are unaffected; the dedupe fix is covered by a dedicated test
with a duplicate-emitting adversary.
"""

from __future__ import annotations

from typing import Sequence

from repro.adversary.base import Adversary
from repro.adversary.waves import WaveAdversary
from repro.core.base import Healer
from repro.core.network import SelfHealingNetwork
from repro.errors import ConfigurationError, SimulationError
from repro.graph.graph import Graph
from repro.sim.metrics import Metric
from repro.sim.engine import SimulationResult

__all__ = ["seed_single_victim_loop", "seed_wave_loop"]


def seed_single_victim_loop(
    graph: Graph,
    healer: Healer,
    adversary: Adversary,
    *,
    id_seed: int = 0,
    metrics: Sequence[Metric] = (),
    stop_alive: int = 0,
    max_deletions: int | None = None,
    check_invariants: bool = False,
    keep_events: bool = False,
    keep_network: bool = False,
) -> SimulationResult:
    """The pre-engine single-victim loop, verbatim."""
    if stop_alive < 0:
        raise ConfigurationError(f"stop_alive must be >= 0, got {stop_alive}")
    if max_deletions is not None and max_deletions < 0:
        raise ConfigurationError(
            f"max_deletions must be >= 0, got {max_deletions}"
        )

    network = SelfHealingNetwork(
        graph, healer, seed=id_seed, check_invariants=check_invariants
    )
    adversary.reset(network)

    deletions = 0
    while network.num_alive > max(stop_alive, 0) and network.num_alive > 0:
        if max_deletions is not None and deletions >= max_deletions:
            break
        victim = adversary.choose_target(network)
        if victim is None:
            break
        if not network.graph.has_node(victim):
            raise SimulationError(
                f"adversary {adversary.name} chose dead node {victim!r}"
            )
        event = network.delete_and_heal(victim)
        deletions += 1
        for metric in metrics:
            metric.on_event(network, event)

    values: dict[str, float] = {}
    for metric in metrics:
        out = metric.finalize(network)
        overlap = values.keys() & out.keys()
        if overlap:
            raise ConfigurationError(
                f"duplicate metric names: {sorted(overlap)}"
            )
        values.update(out)

    return SimulationResult(
        initial_n=network.initial_n,
        deletions=deletions,
        final_alive=network.num_alive,
        peak_delta=network.peak_delta,
        values=values,
        events=list(network.events) if keep_events else None,
        network=network if keep_network else None,
    )


def seed_wave_loop(
    graph: Graph,
    healer: Healer,
    adversary: WaveAdversary,
    *,
    id_seed: int = 0,
    metrics: Sequence[Metric] = (),
    stop_alive: int = 0,
    max_waves: int | None = None,
    check_invariants: bool = False,
    keep_events: bool = False,
    keep_network: bool = False,
    batch_fast_path: bool = True,
) -> SimulationResult:
    """The pre-engine wave loop, verbatim."""
    if stop_alive < 0:
        raise ConfigurationError(f"stop_alive must be >= 0, got {stop_alive}")
    if max_waves is not None and max_waves < 0:
        raise ConfigurationError(f"max_waves must be >= 0, got {max_waves}")

    network = SelfHealingNetwork(
        graph,
        healer,
        seed=id_seed,
        check_invariants=check_invariants,
        batch_fast_path=batch_fast_path,
    )
    adversary.reset(network)

    waves = 0
    deletions = 0
    while network.num_alive > stop_alive:
        if max_waves is not None and waves >= max_waves:
            break
        wave = adversary.choose_wave(network)
        if not wave:
            break
        for victim in wave:
            if not network.graph.has_node(victim):
                raise SimulationError(
                    f"adversary {adversary.name} chose dead node {victim!r}"
                )
        events = network.delete_batch_and_heal(wave)
        waves += 1
        deletions += len(set(wave))
        for metric in metrics:
            for event in events:
                metric.on_event(network, event)

    values: dict[str, float] = {"waves": float(waves)}
    for metric in metrics:
        out = metric.finalize(network)
        overlap = values.keys() & out.keys()
        if overlap:
            raise ConfigurationError(
                f"duplicate metric names: {sorted(overlap)}"
            )
        values.update(out)

    return SimulationResult(
        initial_n=network.initial_n,
        deletions=deletions,
        final_alive=network.num_alive,
        peak_delta=network.peak_delta,
        values=values,
        events=list(network.events) if keep_events else None,
        network=network if keep_network else None,
    )
