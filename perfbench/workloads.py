"""The four workloads: what each runs, measures and checks.

Every workload is a closed loop with one client. The three campaign
workloads run ``repro.api.run_campaign`` in this process; ``service``
drives a ``repro serve`` process through ``repro.api.ServiceClient``.
A run measures for ``--seconds`` seconds and reports the median over
the repeats it fits in; all inputs derive from ``--seed``.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from stats import (
    HostSpeed,
    Summary,
    cpu_timed,
    peak_rss_mb,
    percentile,
    summarize,
    threads_cpu_s,
    tree_cpu_s,
)
from tracer import Tracer

_clock = time.perf_counter

#: distinct inputs per run, each from its own seed derived from the
#: run's: campaigns cycle through them, so a run's medians do not hang
#: on one graph; setup_s is the median of their generations
INPUTS = 8
#: server launches per run; setup_s of ``service`` is their median
SERVICE_LAUNCHES = 5
#: status polls must leave >= 10 samples beyond their p95
MIN_STATUS_POLLS = 200


@dataclass(frozen=True)
class Sizes:
    kill_n: int
    churn_n: int
    nms_n: int
    service_n: int
    #: period of the service client's status polls while a job runs
    status_period_s: float


FULL = Sizes(
    kill_n=16_000,
    churn_n=16_000,
    nms_n=8_000,
    service_n=1_000,
    status_period_s=0.05,
)
#: the smoke test's sizes: every code path, in seconds
TINY = Sizes(
    kill_n=300,
    churn_n=300,
    nms_n=300,
    service_n=200,
    status_period_s=0.01,
)


class Checks:
    """Output checks, counted per attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures)


@dataclass
class Outcome:
    """One run's findings.

    ``end_to_end`` holds every end-to-end metric by name — a
    :class:`Summary`, a plain number, or ``None`` where the metric does
    not apply to the workload; ``per_layer`` is filled by traced runs.
    """

    end_to_end: dict[str, Summary | float | None]
    checks: Checks
    per_layer: dict[str, float] = field(default_factory=dict)
    #: traced runs: per-layer [calls, self seconds] per campaign, for
    #: every layer that ran (the report prints them all)
    layer_table: dict[str, tuple[float, float]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    #: traced runs: the spans, written out when the run ends
    tracer: Tracer | None = None


# ----------------------------------------------------------------------
# Campaign workloads
# ----------------------------------------------------------------------
def _seeds(seed: int) -> tuple[int, int, int]:
    """(graph, id, attack) seeds: distinct streams from one seed."""
    return seed, seed + 1_000_003, seed + 2_000_003


def input_seeds(seed: int) -> list[int]:
    """The seeds of a run's inputs: distinct for distinct run seeds."""
    return [seed * INPUTS + i for i in range(INPUTS)]


def generate(n: int, seed: int):
    from repro.api import GENERATORS

    return GENERATORS.make(
        "pa", seed=_seeds(seed)[0], overrides={"n": n, "m": 3}
    )


def _population_ok(result, n: int) -> list[str]:
    failures = []
    if result.insertions <= 0 or result.deletions <= 0:
        failures.append(
            f"churn needs insertions and deletions, got "
            f"{result.insertions}/{result.deletions}"
        )
    if abs(result.final_alive - n) > 0.1 * n:
        failures.append(
            f"population drifted to {result.final_alive} (n={n})"
        )
    return failures


def _full_kill(result, n: int) -> list[str]:
    if result.deletions == n and result.final_alive == 0:
        return []
    return [
        f"full kill deleted {result.deletions} of {n} "
        f"({result.final_alive} alive)"
    ]


@dataclass(frozen=True)
class CampaignWorkload:
    n: Callable[[Sizes], int]
    adversary: Callable[[int], str]
    expect: Callable[[object, int], list[str]]
    #: default_metrics() on, plus a per-round ledger
    audited: bool = False

    def run(
        self,
        n: int,
        base,
        seed: int,
        work: Path,
        tracer: Tracer | None = None,
        kind: str = "timed",
        **kwargs,
    ):
        """One campaign on a copy of ``base`` — inside a campaign span
        of ``tracer`` when given; returns a :class:`Sample`."""
        from repro.api import (
            default_metrics,
            make_adversary,
            make_healer,
            run_campaign,
        )

        _, id_seed, attack_seed = _seeds(seed)
        graph = base.copy()
        healer = make_healer("dash")
        adversary = make_adversary(self.adversary(n), seed=attack_seed)
        if self.audited:
            ledger = work / "campaign.jsonl"
            ledger.unlink(missing_ok=True)
            kwargs.update(metrics=default_metrics(), ledger=ledger)
        gc.collect()
        span = nullcontext() if tracer is None else tracer.campaign_span(kind)
        with span:
            result, cpu, wall = cpu_timed(
                lambda: run_campaign(
                    graph, healer, adversary, id_seed=id_seed, **kwargs
                )
            )
        if tracer is not None and self.audited:
            tracer.counts[tracer.campaign_id]["ledger.bytes"] = (
                ledger.stat().st_size
            )
        return Sample(seed, _ops(result), wall, cpu, result)


def _ops(result) -> int:
    return result.deletions + result.insertions


@dataclass(frozen=True)
class Sample:
    """One timed campaign: its input's seed, operations, wall and CPU
    seconds, and result."""

    seed: int
    ops: int
    wall: float
    cpu: float
    result: object


def scalars(result) -> dict:
    """What must repeat exactly for one seed."""
    return {
        "initial_n": result.initial_n,
        "deletions": result.deletions,
        "insertions": result.insertions,
        "final_alive": result.final_alive,
        "peak_delta": result.peak_delta,
        "values": dict(result.values),
    }


def check_campaign(workload, n: int, result, reference) -> list[str]:
    """Every output check on one campaign result."""
    from repro.analysis.theory import dash_degree_bound

    failures = workload.expect(result, n)
    bound = dash_degree_bound(n + result.insertions)
    if result.peak_delta > bound:
        failures.append(
            f"peak_delta {result.peak_delta} exceeds Theorem 1's "
            f"{bound:.2f}"
        )
    if reference is not None and scalars(result) != reference:
        failures.append("statistics differ between repeats of one seed")
    return failures


def cost_units(result, network=None) -> dict[str, float | None]:
    """The paper's cost units (Figs. 8-9): read from the tracker of
    ``network`` when given, else from the metric values, else n/a."""
    ops = result.deletions + result.insertions
    units = {"peak_delta": float(result.peak_delta)}
    if network is not None:
        tracker = network.tracker
        changes = tracker.id_changes.values()
        max_ids = float(max(changes, default=0))
        total_ids = float(sum(changes))
        messages = float(sum(tracker.messages_sent.values()))
    elif "total_id_changes" in result.values:
        max_ids = result.values["max_id_changes"]
        total_ids = result.values["total_id_changes"]
        messages = result.values["total_messages_sent"]
    else:
        return {
            **units,
            "max_id_changes": None,
            "id_changes_per_op": None,
            "messages_per_op": None,
        }
    return {
        **units,
        "max_id_changes": max_ids,
        "id_changes_per_op": total_ids / ops,
        "messages_per_op": messages / ops,
    }


def _timed_loop(
    run_once, seconds: float, checks, check, probe: Callable[[], float]
) -> tuple[list, list[float]]:
    """Repeat ``run_once`` between host-speed probes until ``seconds``
    have passed (at least once); returns its samples and the probes,
    one more than the samples."""
    samples, probes = [], [probe()]
    start = _clock()
    while not samples or _clock() - start < seconds:
        sample = run_once()
        probes.append(probe())
        checks.record(check(sample))
        samples.append(sample)
    return samples, probes


def campaign_run(
    workload: CampaignWorkload,
    sizes: Sizes,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
) -> Outcome:
    from repro.analysis.theory import id_change_bound

    n = workload.n(sizes)
    checks = Checks()
    speed = HostSpeed()
    setup, measured, inputs, probes = [], [], [], []
    for sub in input_seeds(seed):
        probes.append(speed.probe())
        base, cpu, wall = cpu_timed(lambda: generate(n, sub))
        setup.append(cpu)
        measured.append(wall)
        inputs.append((base, sub))
    probes.append(speed.probe())

    reference: dict[int, dict] = {}

    def check(sample):
        result = sample.result
        failures = check_campaign(
            workload, n, result, reference.get(sample.seed)
        )
        reference.setdefault(sample.seed, scalars(result))
        return failures

    order = itertools.cycle(inputs)
    samples, loop_probes = _timed_loop(
        lambda: workload.run(n, *next(order), work),
        seconds,
        checks,
        check,
        speed.probe,
    )
    cpu_rates = [s.ops / s.cpu for s in samples]
    ref_rates = HostSpeed.bracketed(cpu_rates, loop_probes, 1)
    # the first campaign ran on the first input: its cost units repeat
    # for the seed
    units = cost_units(samples[0].result)
    e2e = {
        "setup_s": summarize(HostSpeed.bracketed(setup, probes, -1)),
        "ops_per_s": summarize([s.ops / s.wall for s in samples]),
        "ops_per_cpu_s": summarize(cpu_rates),
        "ref_ops_per_cpu_s": summarize(ref_rates),
        "peak_rss_mb": peak_rss_mb() - speed.table_mb,
        **units,
    }
    notes = {
        "n": n,
        "ops": summarize([s.ops for s in samples]),
        "adversary": workload.adversary(n),
        "inputs": len(inputs),
        "setup_cpu_s": summarize(setup),
        "setup_wall_s": summarize(measured),
        "host_slowdown": HostSpeed.slowdown(probes + loop_probes),
    }
    if units["max_id_changes"] is not None:
        notes["max_id_changes_margin"] = (
            id_change_bound(n) - units["max_id_changes"]
        )
    outcome = Outcome(end_to_end=e2e, checks=checks, notes=notes)
    if trace:
        _trace_campaigns(
            outcome,
            workload,
            n,
            seed,
            seconds,
            work,
            e2e["ref_ops_per_cpu_s"].median,
            check,
            speed,
        )
    return outcome


def _trace_campaigns(
    outcome, workload, n, seed, seconds, work, untraced_rate, check, speed
) -> None:
    tracer = Tracer()

    def probe():
        # a span of its own, so the probes do not count as uncovered
        with tracer.span("bench.probe"):
            return speed.probe()

    try:
        tracer.install()
        phase_start = _clock()
        inputs = []
        for sub in input_seeds(seed):
            with tracer.span("graph.generate"):
                inputs.append((generate(n, sub), sub))

        order = itertools.cycle(inputs)
        samples, probes = _timed_loop(
            lambda: workload.run(n, *next(order), work, tracer),
            seconds,
            outcome.checks,
            check,
            probe,
        )
        phase_end = _clock()
        first = samples[0].result
        network = None
        if not workload.audited:
            # keep_network forces the generic engine: its scalars must
            # equal the untraced run's, whichever path that took.
            generic = workload.run(
                n, *inputs[0], work, tracer, "check", keep_network=True
            )
            outcome.checks.record(check(generic))
            first, network = generic.result, generic.result.network
    finally:
        tracer.uninstall()

    traced_rate = statistics.median(
        HostSpeed.bracketed([s.ops / s.cpu for s in samples], probes, 1)
    )
    _finish_trace(
        outcome,
        tracer,
        phase_start,
        phase_end,
        overhead_pct=100.0 * (untraced_rate / traced_rate - 1),
        units=cost_units(first, network),
    )


def _finish_trace(
    outcome, tracer, phase_start, phase_end, *, overhead_pct, units
) -> None:
    totals = tracer.layer_totals("timed")
    layers = _layer_metrics(tracer, totals, phase_start, phase_end)
    layers["trace.overhead_pct"] = overhead_pct
    layers.update(
        {
            "core.network.peak_delta": units["peak_delta"],
            "core.components.max_id_changes": units["max_id_changes"],
            "core.components.id_changes_per_op": units["id_changes_per_op"],
            "core.components.messages_per_op": units["messages_per_op"],
        }
    )
    outcome.per_layer = layers
    campaigns = len(tracer.campaigns("timed"))
    outcome.layer_table = {
        name: (row[0] / campaigns, row[2] / campaigns)
        for name, row in sorted(totals.items())
    }
    paths: dict[str, Counter] = defaultdict(Counter)
    for campaign, path in tracer.paths.items():
        paths[tracer.campaign_kind[campaign]][path] += 1
    outcome.notes["paths"] = {k: dict(v) for k, v in paths.items()}
    outcome.tracer = tracer


def _layer_metrics(
    tracer: Tracer, totals: dict, phase_start: float, phase_end: float
) -> dict[str, float]:
    """The per-layer figures, per timed campaign."""
    timed = tracer.campaigns("timed")
    k = len(timed)

    def calls(name):
        return totals[name][0] / k if name in totals else 0.0

    def total_s(name):
        return totals[name][1] / k if name in totals else 0.0

    def self_s(name):
        return totals[name][2] / k if name in totals else 0.0

    def count(key):
        return sum(tracer.counts[c][key] for c in timed) / k

    def tracker(attr):
        return (
            sum(
                getattr(tracer.networks[c].tracker, attr)
                for c in timed
                if c in tracer.networks
            )
            / k
        )

    handoffs = [
        int(tracer.paths[c].rsplit("@", 1)[1])
        for c in timed
        if "@" in tracer.paths[c]
    ]
    add_calls = calls("graph.add_edge")
    covered = sum(
        end - start
        for start, end in tracer.top_level()
        if phase_start <= start and end <= phase_end
    )
    return {
        "graph.generate_s": summarize(
            tracer.durations("graph.generate")
        ).median,
        "core.network.init_s": total_s("core.network.init"),
        "core.network.delete_and_heal.self_s": self_s(
            "core.network.delete_and_heal"
        ),
        "core.network.insert_and_heal.calls": calls(
            "core.network.insert_and_heal"
        ),
        "graph.remove_node.calls": calls("graph.remove_node"),
        "graph.remove_node.self_s": self_s("graph.remove_node"),
        "graph.add_edge.calls": add_calls,
        "graph.add_edge.self_s": self_s("graph.add_edge"),
        "graph.add_edge.new_ratio": (
            count("add_edge.new") / add_calls if add_calls else 0.0
        ),
        "core.dash.plan.self_s": self_s("core.dash.plan"),
        "core.components.round.self_s": self_s("core.components.round"),
        "core.components.insert_round.calls": calls(
            "core.components.insert_round"
        ),
        "core.components.fast_rounds": tracker("fast_rounds"),
        "core.components.deferred_rounds": tracker("deferred_rounds"),
        "core.components.lazy_resolutions": tracker("lazy_resolutions"),
        "adversary.reset_s": total_s("adversary.reset"),
        "adversary.choose_round.self_s": self_s("adversary.choose_round"),
        "sim.fastpath.fused_campaigns": float(
            sum(tracer.paths[c] != "generic" for c in timed)
        ),
        "sim.fastpath.handoff_round": (
            summarize(handoffs).median if handoffs else 0.0
        ),
        "sim.metrics.on_event.calls": calls("sim.metrics.on_event"),
        "recovery.after_round.calls": calls("recovery.after_round"),
        "recovery.ledger.bytes": count("ledger.bytes"),
        "recovery.checkpoint.write.calls": calls(
            "recovery.checkpoint.write"
        ),
        "recovery.checkpoint.bytes": count("checkpoint.bytes"),
        "gc.collections": calls("gc"),
        "gc.pause_s": total_s("gc"),
        "trace.uncovered_s": (phase_end - phase_start) - covered,
    }


CAMPAIGNS = {
    "dash-kill": CampaignWorkload(
        n=lambda s: s.kill_n,
        adversary=lambda n: "random",
        expect=_full_kill,
    ),
    "dash-churn": CampaignWorkload(
        n=lambda s: s.churn_n,
        # steady state: 4 joins a round against exponential lifetimes
        # of mean n/4 keep the population near n for n/8 rounds
        adversary=lambda n: (
            f"churn:rate=4,lifetime=exp,mean={n // 4},rounds={n // 8}"
        ),
        expect=_population_ok,
    ),
    "nms-audited": CampaignWorkload(
        n=lambda s: s.nms_n,
        adversary=lambda n: "neighbor-of-max",
        expect=_full_kill,
        audited=True,
    ),
}


# ----------------------------------------------------------------------
# Service workload
# ----------------------------------------------------------------------
class ServerProcess:
    """One ``repro serve`` subprocess in its own session, so that it and
    its workers can be stopped as a group."""

    def __init__(self, root: Path, log: Path) -> None:
        from repro.api import ServiceClient

        socket = root / "service.sock"
        self.client = ServiceClient(socket, timeout=60.0)
        self._log = open(log, "ab")
        try:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--root", str(root),
                    "--socket", str(socket),
                    "--workers", "1",
                ],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=self._log,
                start_new_session=True,
            )
        except OSError:
            self._log.close()
            raise
        self.usage = None

    def wait_ready(self, timeout: float = 60.0) -> None:
        from repro.errors import ServiceError

        deadline = _clock() + timeout
        while True:
            try:
                if self.client.ping():
                    return
            except ServiceError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}"
                )
            if _clock() > deadline:
                raise RuntimeError("repro serve never answered a ping")
            time.sleep(0.005)

    def _reap(self, timeout: float) -> bool:
        deadline = _clock() + timeout
        while True:
            pid, status, usage = os.wait4(self.process.pid, os.WNOHANG)
            if pid:
                self.process.returncode = os.waitstatus_to_exitcode(status)
                self.usage = usage
                return True
            if _clock() > deadline:
                return False
            time.sleep(0.01)

    def stop(self) -> None:
        """Shut down cleanly (the service kills and reaps its workers);
        kill the whole group if that fails. Waits for every process."""
        from repro.errors import ServiceError

        try:
            if self.process.returncode is None:
                try:
                    self.client.shutdown()
                except ServiceError:
                    pass
                if self._reap(30.0):
                    return
            self.kill()
        finally:
            self._log.close()

    def kill(self) -> None:
        self._log.close()
        pgid = self.process.pid
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if self.process.returncode is None:
            self._reap(30.0)
        # orphaned workers are reaped by init; wait until none is left
        deadline = _clock() + 30.0
        while _clock() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)


@dataclass
class JobSample:
    #: the request's seed
    seed: int
    submit_s: float
    first_round_s: float | None
    job_s: float
    #: CPU seconds of the server and its workers, submit to done
    cpu_s: float
    end: dict | None
    final: dict | None
    created: bool
    error: str | None


def run_job(
    client, request, period: float, polls: list, checks, cpu
) -> JobSample:
    """Submit one request, watch it stream, and poll its status on a
    fixed period until the stream ends; ``cpu()`` reads the CPU seconds
    the service has used."""
    from repro.errors import ServiceError

    cpu_start = cpu()
    start = _clock()
    job_id, created = client.submit(request)
    submitted = _clock()
    seen: dict = {"first": None, "end": None, "final": None, "error": None}

    def watch():
        try:
            for item in client.watch(job_id):
                if item.get("done"):
                    seen["final"] = item
                    seen["done_at"] = _clock()
                elif item.get("type") == "round" and seen["first"] is None:
                    seen["first"] = _clock()
                elif item.get("type") == "end":
                    seen["end"] = item
        except Exception as exc:  # reported as a failed job below
            seen["error"] = repr(exc)

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    due = submitted
    while watcher.is_alive():
        due += period
        time.sleep(max(0.0, due - _clock()))
        if not watcher.is_alive():
            break
        asked = _clock()
        try:
            client.status(job_id)
        except ServiceError as exc:
            checks.record([f"status {job_id}: {exc}"])
            continue
        polls.append(1000.0 * (_clock() - asked))
        checks.record([])
    watcher.join()
    # "done" arrives once the manager has reaped the job's worker, so
    # the worker's CPU time is in the server's children's by now.
    cpu_s = cpu() - cpu_start
    first = seen["first"]
    return JobSample(
        seed=request.seed,
        submit_s=submitted - start,
        first_round_s=None if first is None else first - start,
        job_s=seen.get("done_at", _clock()) - start,
        cpu_s=cpu_s,
        end=seen["end"],
        final=seen["final"],
        created=created,
        error=seen["error"],
    )


def check_job(job: JobSample, reference: dict) -> list[str]:
    failures = []
    if job.error:
        failures.append(f"watch failed: {job.error}")
    if not job.created:
        failures.append("submit was deduped onto an earlier job")
    state = (job.final or {}).get("state")
    if state != "done":
        failures.append(f"job ended {state!r}, not 'done'")
    if job.first_round_s is None:
        failures.append("no round was streamed")
    if job.end is None:
        failures.append("no end record was streamed")
    else:
        got = {k: job.end.get(k) for k in reference}
        if got != reference:
            failures.append(
                f"job end {got} differs from one-shot run_request "
                f"{reference}"
            )
    return failures


def _end_of(result) -> dict:
    """A one-shot result in the ledger end record's terms."""
    return {
        "deletions": result.deletions,
        "final_alive": result.final_alive,
        "peak_delta": result.peak_delta,
        "values": json.loads(json.dumps(dict(result.values))),
    }


def service_run(
    sizes: Sizes, seed: int, seconds: float, trace: bool, work: Path
) -> Outcome:
    from repro.analysis.theory import id_change_bound
    from repro.api import CampaignRequest, run_request
    from repro.errors import ServiceError

    checks = Checks()
    requests = [
        CampaignRequest(
            generator=f"pa:n={sizes.service_n},m=3",
            healer="dash",
            adversary="neighbor-of-max",
            seed=sub,
        )
        for sub in input_seeds(seed)
    ]
    setup, measured = [], []
    server = None

    def launch_server(root):
        nonlocal server
        server = ServerProcess(root, work / "serve.log")
        server.wait_ready()

    try:
        for launch in range(SERVICE_LAUNCHES):
            root = work / f"service{launch}"
            shutil.rmtree(root, ignore_errors=True)
            root.mkdir(parents=True)
            start = _clock()
            launch_server(root)
            measured.append(_clock() - start)
            setup.append(threads_cpu_s(server.process.pid))
            if launch < SERVICE_LAUNCHES - 1:
                server.stop()
                server = None

        # Only now: a server forked from a process that holds the
        # probe's table would count that table in its peak RSS.
        speed = HostSpeed()
        probes = [speed.probe()]
        polls: list[float] = []
        jobs: list[JobSample] = []
        order = itertools.cycle(requests)
        start = _clock()
        while not jobs or (
            (_clock() - start < seconds or len(polls) < MIN_STATUS_POLLS)
            and _clock() - start < 4 * seconds
        ):
            try:
                jobs.append(
                    run_job(
                        server.client,
                        next(order),
                        sizes.status_period_s,
                        polls,
                        checks,
                        lambda: tree_cpu_s(server.process.pid),
                    )
                )
            except ServiceError as exc:
                checks.record([f"submit refused: {exc}"])
                break
            probes.append(speed.probe())
        server.stop()
        rss = peak_rss_mb(server.usage) if server.usage else None
        server = None
    finally:
        if server is not None:
            server.kill()

    # The one-shot references, outside the timed loop.
    one_shots = {
        r.seed: run_request(r)
        for r in requests
        if any(j.seed == r.seed for j in jobs)
    }
    references = {k: _end_of(v) for k, v in one_shots.items()}
    for job in jobs:
        checks.record(check_job(job, references[job.seed]))

    # Every job's end equals its one-shot's (checked above), so the
    # cost units and the operation counts are read off the one-shots.
    ops = [_ops(one_shots[j.seed]) for j in jobs]
    units = cost_units(one_shots[requests[0].seed])
    firsts = [j.first_round_s for j in jobs if j.first_round_s is not None]
    # the launches ran before the probe's table existed: their set-up
    # times are scaled by the run's median probe
    slowdown = HostSpeed.slowdown(probes)
    cpu_rates = [k / j.cpu_s for k, j in zip(ops, jobs)]
    e2e = {
        "setup_s": summarize([t / slowdown for t in setup]),
        "ops_per_s": summarize([k / j.job_s for k, j in zip(ops, jobs)]),
        "ops_per_cpu_s": summarize(cpu_rates),
        "ref_ops_per_cpu_s": summarize(
            HostSpeed.bracketed(cpu_rates, probes, 1)
        ),
        "peak_rss_mb": rss,
        **units,
        "first_round_s": summarize(firsts) if firsts else None,
        "job_s": summarize([j.job_s for j in jobs]),
        "status_ms_p50": summarize(polls) if polls else None,
        "status_ms_p95": percentile(polls, 95) if polls else None,
    }
    notes = {
        "n": sizes.service_n,
        "ops": summarize(ops),
        "jobs": len(jobs),
        "inputs": len(one_shots),
        "status_polls": len(polls),
        "setup_cpu_s": summarize(setup),
        "setup_wall_s": summarize(measured),
        "host_slowdown": slowdown,
        "submit_ms": summarize([1000.0 * j.submit_s for j in jobs]),
        "max_id_changes_margin": (
            id_change_bound(sizes.service_n) - units["max_id_changes"]
        ),
    }
    outcome = Outcome(end_to_end=e2e, checks=checks, notes=notes)
    if trace:
        _trace_service(
            outcome, requests[0], references[requests[0].seed], jobs, work
        )
    return outcome


def _trace_service(outcome, request, reference, jobs, work) -> None:
    """Attribute a service job's time: replay the request inline through
    ``run_request`` at the worker's checkpoint cadence, untraced and
    traced, in this process."""
    from repro.api import run_request
    from repro.service.worker import DEFAULT_CHECKPOINT_EVERY

    state = work / "replay"
    ledger = state / "campaign.jsonl"

    def replay():
        return run_request(
            request,
            checkpoint_every=DEFAULT_CHECKPOINT_EVERY,
            checkpoint_dir=state / "checkpoints",
            ledger=ledger,
        )

    def fresh_state():
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir(parents=True)
        gc.collect()

    fresh_state()
    result, untraced_cpu, _ = cpu_timed(replay)
    outcome.checks.record(
        [] if _end_of(result) == reference else ["inline replay differs"]
    )
    fresh_state()
    tracer = Tracer()
    try:
        tracer.install()
        phase_start = _clock()
        with tracer.campaign_span("timed") as campaign:
            result, traced_cpu, _ = cpu_timed(replay)
        phase_end = _clock()
    finally:
        tracer.uninstall()
    outcome.checks.record(
        [] if _end_of(result) == reference else ["traced replay differs"]
    )
    tracer.counts[campaign]["ledger.bytes"] = ledger.stat().st_size
    _finish_trace(
        outcome,
        tracer,
        phase_start,
        phase_end,
        overhead_pct=100.0 * (traced_cpu / untraced_cpu - 1),
        units=cost_units(result, tracer.networks.get(campaign)),
    )
    # The service's own layer, timed by the client around its calls.
    outcome.layer_table["service.submit"] = (
        1.0, outcome.notes["submit_ms"].median / 1e3
    )
    firsts = [j.first_round_s for j in jobs if j.first_round_s is not None]
    if firsts:
        outcome.layer_table["service.first_record"] = (
            1.0, summarize(firsts).median
        )
    outcome.notes["replay_ops_per_cpu_s"] = _ops(result) / untraced_cpu
