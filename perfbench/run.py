"""The simulator's benchmark: one workload per run, every metric printed.

Run from the repository root::

    python3 perfbench/run.py --workload dash-kill --seed 1 --seconds 25 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
them again and then repeats the workload with span tracing on, and
reports the per-layer metrics. The metric names and units come from
``BENCHMARK.json``. The output is a human-readable report (every
metric with its sample count and quartiles, and the run's provenance)
and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Spans of traced runs and a copy of each report land in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("dash-kill", "dash-churn", "nms-audited", "service")
#: every end-to-end metric the report prints, in order, with its unit
REPORTED = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("ops_per_cpu_s", "1/s"),
    ("ref_ops_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "ratio"),
    ("peak_delta", "count"),
    ("max_id_changes", "count"),
    ("id_changes_per_op", "1/op"),
    ("messages_per_op", "1/op"),
    ("first_round_s", "s"),
    ("job_s", "s"),
    ("status_ms_p50", "ms"),
    ("status_ms_p95", "ms"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke-test sizes (see smoke.py)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _value(entry):
    return getattr(entry, "median", entry)


def report_lines(outcome, table: dict) -> list[str]:
    """The human-readable report: every end-to-end metric, then (traced
    runs) every layer."""
    checks = outcome.checks
    e2e = dict(outcome.end_to_end)
    e2e["failed_frac"] = checks.failed / checks.attempted
    lines = ["end-to-end:"]
    for name, unit in REPORTED:
        entry = e2e.get(name)
        if entry is None:
            lines.append(f"  {name:<20} n/a")
            continue
        extra = f"  ({entry.describe()})" if hasattr(entry, "describe") else ""
        lines.append(f"  {name:<20} {_value(entry):.6g} {unit}{extra}")
    for message in checks.messages[:20]:
        lines.append(f"  FAILED: {message}")
    for key, value in outcome.notes.items():
        value = getattr(value, "median", value)
        lines.append(f"  note {key}: {value}")
    if outcome.layer_table:
        lines.append("layers (per timed campaign): calls, self s")
        for name, (calls, self_s) in outcome.layer_table.items():
            lines.append(f"  {name:<34} {calls:>12.1f} {self_s:>12.6f}")
        lines.append("per-layer metrics:")
        units = {m["name"]: m["unit"] for m in table["per_layer"]}
        for name, value in outcome.per_layer.items():
            lines.append(f"  {name:<40} {value:.6g} {units.get(name, '')}")
    return lines


def result_line(outcome, table: dict, trace: bool) -> dict:
    """The final JSON object: exactly the metrics BENCHMARK.json names
    for this trace mode."""
    checks = outcome.checks
    source = outcome.per_layer if trace else outcome.end_to_end
    metrics = {}
    for metric in table["per_layer" if trace else "end_to_end"]:
        value = _value(source.get(metric["name"]))
        if value is None:
            raise RuntimeError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "api.py").is_file():
        print(f"perfbench: no simulator source at {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # One CPU for the whole run, the service's server and worker
    # included: the host-speed probe then times the CPU the measured
    # work runs on. The host's contention differs between CPUs, and a
    # probe on the other one explained half as much of a job's swing.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    import workloads
    from stats import provenance

    table = json.loads((ROOT / "BENCHMARK.json").read_text())
    sizes = workloads.TINY if args.tiny else workloads.FULL
    # Relative to the root (the working directory from here on): the
    # service's Unix socket lives under it, and socket paths are short.
    out = Path(".perfbench")
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service":
            outcome = workloads.service_run(
                sizes, args.seed, args.seconds, bool(args.trace), work
            )
        else:
            outcome = workloads.campaign_run(
                workloads.CAMPAIGNS[args.workload],
                sizes,
                args.seed,
                args.seconds,
                bool(args.trace),
                work,
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    origin = provenance(
        ROOT,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        sizes=dataclasses.asdict(sizes),
    )
    lines = report_lines(outcome, table)
    result = result_line(outcome, table, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if outcome.tracer is not None:
        outcome.tracer.write(out / f"{stem}.spans.csv.gz", origin)
    (out / f"{stem}.report.txt").write_text(
        "\n".join([json.dumps(origin), *lines, json.dumps(result)]) + "\n"
    )
    print(f"provenance: {json.dumps(origin, sort_keys=True)}")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
