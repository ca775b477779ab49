"""Genuine-SIGKILL recovery tests: a campaign killed by the OS resumes
from its ledger + last intact checkpoint to a byte-identical result.

Unlike the in-process ``SimulatedCrash`` tests, nothing here unwinds
politely — the child process dies by ``SIGKILL`` mid-round, exactly like
an OOM kill or a machine reboot, and the only state that survives is
what the recorder had already fsync'd.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

DRIVER = Path(__file__).parent / "_crash_driver.py"
SRC = Path(__file__).resolve().parents[2] / "src"


def _run_driver(args, *, env_extra=None, expect_kill=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(env_extra or {})
    proc = subprocess.run(
        [sys.executable, str(DRIVER), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    if expect_kill:
        assert proc.returncode == -signal.SIGKILL, (
            f"expected SIGKILL, got rc={proc.returncode}; "
            f"stderr: {proc.stderr[-2000:]}"
        )
        return None
    assert proc.returncode == 0, f"driver failed: {proc.stderr[-2000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ≥3 healers × all three round schedules (single-victim, wave, and
# mixed churn), per the crash-safety acceptance bar.
MATRIX = [
    ("dash", "max-node"),
    ("dash", "random-wave"),
    ("dash", "churn:rate=0.5,mean=10"),
    ("dash-random-order", "random"),
    ("dash-random-order", "targeted-wave"),
    ("graph-heal-delta", "max-node"),
    ("graph-heal-delta", "random-wave"),
    ("forgiving-tree", "churn"),
    ("forgiving-graph", "churn:rate=1.5,lifetime=pareto,mean=6"),
]


@pytest.mark.parametrize("healer,adversary", MATRIX)
def test_sigkilled_campaign_resumes_byte_identical(
    tmp_path, healer, adversary
):
    n, seed = 50, 13
    straight = _run_driver(["straight", healer, adversary, n, seed])

    state = tmp_path / "state"
    state.mkdir()
    _run_driver(
        ["run", healer, adversary, n, seed, state],
        env_extra={
            "REPRO_CRASH_AT_ROUND": "4",
            "REPRO_CHECKPOINT_EVERY": "3",
            "REPRO_CRASH_OK": "1",
        },
        expect_kill=True,
    )
    # The kill was real: the ledger must lack an end record.
    ledger_text = (state / "campaign.jsonl").read_text()
    assert '"type":"end"' not in ledger_text

    resumed = _run_driver(["resume", state])
    assert resumed == straight


def test_sigkill_then_sigkill_then_resume(tmp_path):
    """Two consecutive hard kills — the resume itself is crashed —
    still converge to the uninterrupted result."""
    healer, adversary, n, seed = "dash", "max-node", 50, 13
    straight = _run_driver(["straight", healer, adversary, n, seed])

    state = tmp_path / "state"
    state.mkdir()
    kill_env = {
        "REPRO_CRASH_AT_ROUND": "4",
        "REPRO_CHECKPOINT_EVERY": "3",
        "REPRO_CRASH_OK": "1",
    }
    _run_driver(
        ["run", healer, adversary, n, seed, state],
        env_extra=kill_env,
        expect_kill=True,
    )
    # Resume in a child that the OS kills again a few rounds later
    # (fresh latch key via a different round number).
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            (
                "import sys, os\n"
                "from repro.recovery import resume_from_ledger\n"
                "from repro.recovery.faults import crash_once, kill_self\n"
                "class Kill:\n"
                "    checkpoint_exempt = True\n"
                "    checkpointable = False\n"
                "    seen = None\n"
                "    def on_event(self, network, event):\n"
                "        self.seen = (self.seen or set()) | {event.step}\n"
                "        if len(self.seen) > 3 and crash_once(sys.argv[1], 'second'):\n"
                "            kill_self()\n"
                "    def finalize(self, network):\n"
                "        return {}\n"
                "from repro.registry import component_registries\n"
                "regs = component_registries()\n"
                "mets = [regs['metric'].make('messages'),\n"
                "        regs['metric'].make('components'), Kill()]\n"
                "resume_from_ledger(os.path.join(sys.argv[1], 'campaign.jsonl'),\n"
                "                   metrics=mets)\n"
            ),
            str(state),
        ],
        capture_output=True,
        text=True,
        env={**env, "REPRO_CRASH_OK": "1"},
        timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, (
        f"rc={proc.returncode} stderr={proc.stderr[-2000:]}"
    )

    resumed = _run_driver(["resume", state])
    assert resumed == straight


def test_chaos_seeded_sigkill(tmp_path):
    """CI chaos leg: ``REPRO_CHAOS_SEED`` (one per matrix entry) derives
    the healer/adversary pairing, the crash round, and the checkpoint
    cadence, so every seed explores a different crash/checkpoint
    alignment without hand-picking any. Locally it runs as seed 0."""
    from repro.recovery.faults import chaos_round

    seed = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
    healer, adversary = MATRIX[seed % len(MATRIX)]
    crash_at = chaos_round(seed, low=2, high=12)
    every = chaos_round(seed + 1, low=1, high=4)
    n, id_seed = 50, 13 + seed

    straight = _run_driver(["straight", healer, adversary, n, id_seed])

    state = tmp_path / f"chaos-seed{seed}"
    state.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(
        {
            "REPRO_CRASH_AT_ROUND": str(crash_at),
            "REPRO_CHECKPOINT_EVERY": str(every),
            "REPRO_CRASH_OK": "1",
        }
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(DRIVER),
            *map(str, ["run", healer, adversary, n, id_seed, state]),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    if proc.returncode == 0:
        # Short campaign (wave schedules can finish in a handful of
        # rounds): it ended before the chaos round fired, so the
        # crash-run result itself must already match.
        completed = json.loads(proc.stdout.strip().splitlines()[-1])
        assert completed == straight
        return
    assert proc.returncode == -signal.SIGKILL, (
        f"chaos seed {seed}: rc={proc.returncode}; "
        f"stderr: {proc.stderr[-2000:]}"
    )
    resumed = _run_driver(["resume", state])
    assert resumed == straight, (
        f"chaos seed {seed}: {healer}/{adversary} killed at round "
        f"{crash_at} (checkpoint_every={every}) did not resume "
        "byte-identical"
    )
