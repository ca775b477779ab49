"""Fused-kernel and array-backend campaign benchmarks.

PRs 1–5 took the healing core to O(α) per round, but the *storage* was
still the dict-of-sets object graph plus four tracker dicts — boxed
keys, hash probes, and per-node allocation made n=10⁵ the practical
sweep ceiling. The array backend keeps the exact ``Graph`` /
``ComponentTracker`` interfaces on flat slot arrays, and the fused
scalar-only kernel (``repro.sim.fastpath``) runs unobserved DASH ×
random-attack campaigns without paying for events, member lists, or
index upkeep nobody reads — on the object graph and the array backend
alike.

Acceptance workloads:

* ``campaign_dash_array_pa16000_m3`` — n=16,000 full kill on the object
  graph, fused vs forced-generic (``keep_events=True``) **interleaved in
  the same process** (best-of-3), so the recorded ``speedup_vs_generic``
  is a real like-for-like ratio. The workload name predates the object
  graph fusing: until then it compared the fused array backend with the
  generic object graph (~6.4×). The in-test assert and the CI perf gate
  both demand ≥5×.
* ``campaign_dash_array_pa1000000_m3`` — n=1,000,000 full kill on the
  array backend under 300 s with peak-RSS memory-per-node recorded
  (FULL mode only; measured ~65 s and ~1.7 KB/node at introduction).

Every measurement persists to ``results/BENCH_core.json``
(merge-on-write).
"""

from __future__ import annotations

import resource

import pytest

from benchmarks.conftest import FULL, provenance
from repro.adversary.classic import RandomAttack
from repro.core.registry import make_healer
from repro.graph.generators import preferential_attachment
from repro.sim import fastpath
from repro.sim.engine import run_campaign
from repro.utils.timing import Timer


def _run_dash_campaign(
    n: int, *, keep_events: bool = False
) -> tuple[float, "object"]:
    """One full-kill random-attack DASH campaign on the object graph;
    graph gen excluded. ``keep_events=True`` forces the generic
    engine."""
    g = preferential_attachment(n, 3, seed=1)
    with Timer() as t:
        res = run_campaign(
            g,
            make_healer("dash"),
            RandomAttack(seed=2),
            id_seed=0,
            keep_events=keep_events,
        )
    assert res.final_alive == 0
    assert res.deletions == n
    return t.elapsed, res


def test_campaign_dash_array_pa16000(bench_recorder):
    """Acceptance workload: full-kill DASH on PA n=16,000 (m=3) on the
    object graph, fused kernel vs forced-generic engine interleaved
    best-of-3. The two sides are identical in outcome (asserted here on
    the scalars; the full differential lives in
    ``tests/sim/test_fused_kernel.py``), so the ratio is pure kernel
    win."""
    fused_before = fastpath._fused_campaigns
    generic_s = fused_s = float("inf")
    for _ in range(3):  # interleaved: both sides see the same conditions
        g, gen_res = _run_dash_campaign(16_000, keep_events=True)
        f, fused_res = _run_dash_campaign(16_000)
        generic_s = min(generic_s, g)
        fused_s = min(fused_s, f)
        assert (
            fused_res.deletions,
            fused_res.final_alive,
            fused_res.peak_delta,
        ) == (gen_res.deletions, gen_res.final_alive, gen_res.peak_delta)
    assert fastpath._fused_campaigns == fused_before + 3
    speedup = generic_s / fused_s
    bench_recorder.record(
        "campaign_dash_array_pa16000_m3",
        seconds=fused_s,
        rounds=16_000,
        adversary="random",
        healer="dash",
        n=16_000,
        topology="preferential-attachment-m3",
        backend="object",
        generic_seconds=round(generic_s, 6),
        speedup_vs_generic=round(speedup, 2),
        **provenance(),
    )
    print(
        f"\ndash pa16000 acceptance: generic {generic_s:.3f}s vs fused "
        f"{fused_s:.3f}s ({speedup:.2f}x)"
    )
    assert speedup > 5.0, (
        f"n=16000 fused DASH campaign only {speedup:.2f}x over the "
        "generic engine on the object graph (floor 5x) — the fused "
        "kernel has regressed or stopped engaging"
    )


@pytest.mark.skipif(not FULL, reason="REPRO_BENCH_FULL=1 only")
def test_campaign_dash_array_pa1000000(bench_recorder):
    """Acceptance workload: n=1,000,000 full-kill DASH under 300 s,
    memory-per-node recorded — the scale the object backend could not
    reach (its campaign alone projects to ~2 hours)."""
    n = 1_000_000
    with Timer() as gen_t:
        g = preferential_attachment(n, 3, seed=1, backend="array")
    with Timer() as t:
        res = run_campaign(
            g, make_healer("dash"), RandomAttack(seed=2), id_seed=0
        )
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert res.final_alive == 0
    assert res.deletions == n
    bench_recorder.record(
        "campaign_dash_array_pa1000000_m3",
        seconds=t.elapsed,
        rounds=n,
        adversary="random",
        healer="dash",
        n=n,
        topology="preferential-attachment-m3",
        backend="array",
        budget_seconds=300,
        gen_seconds=round(gen_t.elapsed, 3),
        peak_delta=res.peak_delta,
        peak_rss_mb=round(peak_rss_kb / 1024, 1),
        bytes_per_node=round(peak_rss_kb * 1024 / n, 1),
    )
    print(
        f"\ndash pa1000000: gen {gen_t.elapsed:.1f}s, campaign "
        f"{t.elapsed:.1f}s, peak rss {peak_rss_kb / 1024:.0f} MB "
        f"({peak_rss_kb * 1024 / n:.0f} B/node), peak δ {res.peak_delta}"
    )
    assert t.elapsed < 300, (
        f"n=1e6 full-kill DASH took {t.elapsed:.0f}s — over the 300s "
        "budget (measured ~65s at introduction)"
    )
