"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the repository root::

    python3 perfbench/smoke.py

It checks that every workload runs in both trace modes and prints
every metric by name and unit, that a corrupted result counts as
failed, and that the benchmark refuses to run without the simulator's
source. Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def check_workloads(table: dict) -> None:
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            done = bench(
                "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--tiny",
            )
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, lines
            # tiny campaigns take milliseconds: the loop must repeat
            assert result["attempted"] > 2, result["attempted"]
            wanted = table["per_layer" if trace == "1" else "end_to_end"]
            assert list(result["metrics"]) == [m["name"] for m in wanted]
            for metric in wanted:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], metric
                assert isinstance(got["value"], (int, float)), metric
            report = "\n".join(lines[:-1])
            for name, _ in run.REPORTED:
                assert f"  {name} " in report, (workload, name)
            print(f"ok  {workload} --trace {trace}")


def check_corruption() -> None:
    sizes = workloads.TINY
    kill = workloads.CAMPAIGNS["dash-kill"]
    base = workloads.generate(sizes.kill_n, 5)
    result = kill.run(sizes.kill_n, base, 5, ROOT).result
    reference = workloads.scalars(result)
    checks = workloads.Checks()
    checks.record(
        workloads.check_campaign(kill, sizes.kill_n, result, reference)
    )
    corrupted = dataclasses.replace(result, peak_delta=result.peak_delta + 1)
    checks.record(
        workloads.check_campaign(kill, sizes.kill_n, corrupted, reference)
    )
    short = dataclasses.replace(result, deletions=result.deletions - 1)
    checks.record(
        workloads.check_campaign(kill, sizes.kill_n, short, None)
    )
    assert (checks.attempted, checks.failed) == (3, 2), checks.messages

    job = workloads.JobSample(
        seed=5,
        submit_s=0.001,
        first_round_s=0.1,
        job_s=1.0,
        cpu_s=0.9,
        end={"deletions": 10, "final_alive": 0, "peak_delta": 2,
             "values": {"max_id_changes": 3.0}},
        final={"state": "done"},
        created=True,
        error=None,
    )
    reference = dict(job.end)
    assert workloads.check_job(job, reference) == []
    job.end = {**job.end, "values": {"max_id_changes": 4.0}}
    assert workloads.check_job(job, reference), "corrupt job passed"
    print("ok  corrupted results count as failed")


def check_bare_directory() -> None:
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = bench(
            "--workload", "dash-kill", "--seed", "1", "--seconds", "1",
            "--trace", "0", cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    print("ok  refuses to run without the simulator source")


def main() -> int:
    table = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_workloads(table)
    check_corruption()
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
