"""Shared benchmark configuration.

Each ``bench_*`` file regenerates one paper artifact (figure/table) and
benchmarks the regeneration. Figure tables are printed to stdout (visible
with ``pytest -s`` and in ``--benchmark-only`` logs) and persisted under
``results/`` so the numbers survive the run. Machine-readable wall-time /
throughput measurements additionally land in ``results/BENCH_core.json``
(merge-on-write; see :mod:`repro.utils.benchrecord`), so the perf
trajectory of the hot paths is tracked across PRs.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import pytest

from repro.utils.benchrecord import BenchRecorder

#: where figure CSVs/tables land
RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: machine-readable per-workload timings (committed; merge-on-write)
BENCH_JSON = RESULTS_DIR / "BENCH_core.json"

#: Sweep scale knob: CI-quick by default; export REPRO_BENCH_FULL=1 for
#: paper-fidelity sizes (30 repetitions, larger n).
FULL = bool(int(os.environ.get("REPRO_BENCH_FULL", "0")))


def provenance() -> dict[str, str]:
    """Where a measurement was taken: the commit (``-dirty`` when the
    working tree has uncommitted changes; ``unknown`` outside a git
    checkout) and the host's CPU model and core count."""
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=RESULTS_DIR.parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"sha": sha, "host": f"{cpu}, {os.cpu_count()} cpus"}


def emit(fig) -> None:
    """Print and persist a FigureResult."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    print()
    print(fig.table)
    print(fig.chart)
    (RESULTS_DIR / f"{fig.name}.txt").write_text(fig.summary() + "\n")


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_recorder() -> BenchRecorder:
    """Session-wide recorder for ``results/BENCH_core.json``."""
    return BenchRecorder(BENCH_JSON)


def sweep_jobs() -> int:
    from repro.sim.parallel import default_jobs

    return default_jobs()
