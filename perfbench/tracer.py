"""Outside-in span tracing for the traced benchmark run.

Spans are recorded around calls into each layer's public functions by
class-level wrappers that this module installs and removes again; the
program under test is not edited. Wrapping the methods on the classes
(rather than subclassing) keeps every exact-type check in the program
— ``repro.sim.fastpath.supports`` tests ``type(x) is ...`` — passing,
so the traced run takes the same code paths as the untraced one.

A span is ``(name, start, end, self time, parent, campaign)``. Spans
live in flat arrays while the run goes and are written out once, when
it ends. A span's self time is its duration minus the part of it its
child spans cover; garbage-collector pauses are child spans too (named
``gc``), so they never count as a layer's own work.
"""

from __future__ import annotations

import gc
import gzip
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer"]

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.campaign = array("l")
        #: open spans, innermost last: [span index, child time so far]
        self._stack: list[list] = []
        #: inner spans are recorded only while a campaign span is open;
        #: outside one (graph generation, graph copies) the wrappers
        #: just call through
        self.recording = False
        self.campaign_id = -1
        #: per campaign: kind ("timed" or "check") and the network its
        #: engine built (captured by the SelfHealingNetwork.__init__
        #: wrapper, so tracker counters can be read afterwards)
        self.campaign_kind: dict[int, str] = {}
        self.networks: dict[int, object] = {}
        #: per campaign: "generic", "fused" or "fused-handoff@<round>"
        self.paths: dict[int, str] = {}
        #: per campaign: event counts (new edges, checkpoint bytes, ...)
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._patches: list[tuple[object, str, object, bool]] = []
        self._gc_start = 0.0

    # -- spans -----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> None:
        # Allocate first: a collection may start on any allocation of a
        # container, and its callback appends a span of its own, so the
        # index is taken only once nothing else can allocate.
        entry = [0, 0.0]
        nid = self._name_id(name)
        parent = self._stack[-1][0] if self._stack else -1
        entry[0] = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.campaign.append(self.campaign_id)
        self.end.append(0.0)
        self.self_time.append(0.0)
        self._stack.append(entry)
        self.start.append(_clock())

    def finish(self) -> None:
        now = _clock()
        index, child = self._stack.pop()
        duration = now - self.start[index]
        self.end[index] = now
        self.self_time[index] = duration - child
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.finish()

    @contextmanager
    def campaign_span(self, kind: str):
        """A top-level span around one campaign, inside which the layer
        wrappers record; only ``"timed"`` campaigns feed the per-layer
        figures."""
        self.campaign_id += 1
        self.campaign_kind[self.campaign_id] = kind
        self.paths[self.campaign_id] = "generic"
        self.recording = True
        try:
            with self.span("campaign"):
                yield self.campaign_id
        finally:
            self.recording = False

    def _gc_callback(self, phase: str, info: dict) -> None:
        if not self.recording:
            return
        if phase == "start":
            self._gc_start = _clock()
            return
        now = _clock()
        duration = now - self._gc_start
        self.name.append(self._name_id("gc"))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.campaign.append(self.campaign_id)
        self.start.append(self._gc_start)
        self.end.append(now)
        self.self_time.append(duration)
        if self._stack:
            self._stack[-1][1] += duration

    # -- class-level wrappers -------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after=None,
        *,
        opaque: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(tracer, args, result)`` runs after the call while the
        campaign records, to count what the call did. An ``opaque`` span
        records no spans inside it. An attribute that ``owner`` only
        inherits is set on ``owner`` itself, so the wrapper is per class
        and leaves the base class alone.
        """
        own = attr in vars(owner)
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return original(*args, **kwargs)
            tracer.begin(name)
            tracer.recording = not opaque
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.recording = True
                tracer.finish()
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", attr)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced layer boundary (see README.md's layer map)."""
        from repro.adversary.classic import NeighborOfMaxAttack, RandomAttack
        from repro.churn.adversaries import ChurnAdversary
        from repro.core.components import ComponentTracker
        from repro.core.dash import Dash
        from repro.core.network import SelfHealingNetwork
        from repro.graph.generators import GENERATORS
        from repro.graph.graph import Graph
        from repro.recovery.checkpoint import CampaignRecorder, Checkpointer
        from repro.sim import fastpath
        from repro.sim.metrics import default_metrics

        def capture_network(tracer, args, result):
            tracer.networks[tracer.campaign_id] = args[0]

        def new_edge(tracer, args, added):
            tracer.counts[tracer.campaign_id]["add_edge.new"] += bool(added)

        def checkpoint_bytes(tracer, args, result):
            path, _ = result
            tracer.counts[tracer.campaign_id]["checkpoint.bytes"] += (
                path.stat().st_size
            )

        def fused(tracer, args, result):
            tracer.paths[tracer.campaign_id] = "fused"

        def fused_churn(tracer, args, result):
            fused_result, handoff = result
            tracer.paths[tracer.campaign_id] = (
                "fused"
                if fused_result is not None
                else f"fused-handoff@{handoff[0]}"
            )

        # Generation inside a campaign (run_request generates its own
        # graph) is one span; its edge insertions are not heal work.
        self.wrap(GENERATORS, "make", "graph.generate", opaque=True)
        self.wrap(Graph, "remove_node", "graph.remove_node")
        self.wrap(Graph, "add_edge", "graph.add_edge", new_edge)
        self.wrap(
            SelfHealingNetwork, "__init__", "core.network.init",
            capture_network,
        )
        self.wrap(
            SelfHealingNetwork, "delete_and_heal",
            "core.network.delete_and_heal",
        )
        self.wrap(
            SelfHealingNetwork, "insert_and_heal",
            "core.network.insert_and_heal",
        )
        self.wrap(Dash, "plan", "core.dash.plan")
        self.wrap(ComponentTracker, "round", "core.components.round")
        self.wrap(
            ComponentTracker, "insert_round", "core.components.insert_round"
        )
        for cls in (RandomAttack, NeighborOfMaxAttack, ChurnAdversary):
            self.wrap(cls, "reset", "adversary.reset")
            self.wrap(cls, "choose_round", "adversary.choose_round")
        for cls in {type(m) for m in default_metrics()}:
            self.wrap(cls, "on_event", "sim.metrics.on_event")
            self.wrap(cls, "finalize", "sim.metrics.finalize")
        self.wrap(CampaignRecorder, "after_round", "recovery.after_round")
        self.wrap(
            Checkpointer, "write", "recovery.checkpoint.write",
            checkpoint_bytes,
        )
        self.wrap(fastpath, "run_fused", "sim.fastpath.run_fused", fused)
        self.wrap(
            fastpath, "run_fused_churn", "sim.fastpath.run_fused",
            fused_churn,
        )
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- aggregation -----------------------------------------------------
    def campaigns(self, kind: str = "timed") -> list[int]:
        return [c for c, k in self.campaign_kind.items() if k == kind]

    def layer_totals(self, kind: str = "timed") -> dict[str, list[float]]:
        """``name -> [calls, total seconds, self seconds]`` summed over
        the campaigns of ``kind`` (top-level spans excluded)."""
        wanted = set(self.campaigns(kind))
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(len(self.start)):
            if self.campaign[i] not in wanted or self.parent[i] < 0:
                continue
            row = totals[self.names[self.name[i]]]
            row[0] += 1
            row[1] += self.end[i] - self.start[i]
            row[2] += self.self_time[i]
        return totals

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name[i] == nid
        ]

    def top_level(self) -> list[tuple[float, float]]:
        """(start, end) of every top-level span but GC pauses."""
        return [
            (self.start[i], self.end[i])
            for i in range(len(self.start))
            if self.parent[i] < 0 and self.names[self.name[i]] != "gc"
        ]

    def write(self, path: Path, header: dict) -> None:
        """All spans as gzip'd CSV, times relative to the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("# " + json.dumps(header, sort_keys=True) + "\n")
            fh.write("index,name,start_s,end_s,self_s,parent,campaign\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},"
                    f"{self.start[i] - origin:.9f},"
                    f"{self.end[i] - origin:.9f},"
                    f"{self.self_time[i]:.9f},"
                    f"{self.parent[i]},{self.campaign[i]}\n"
                )
