"""Small statistics helpers used by the experiment harness.

The paper averages every measured statistic over 30 random graph
instances; we additionally report the sample standard deviation and a
normal-approximation confidence interval, so the figure tables (e.g.
``results/fig8.txt``) and the ``theorem1`` harness table can set
measured values against the paper's with error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Summary", "summarize", "mean", "sample_std", "confidence_interval"]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean. Raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("mean() of empty sequence")
    return float(sum(values)) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Sample (n-1) standard deviation; 0.0 for sequences of length < 2."""
    n = len(values)
    if n < 2:
        return 0.0
    mu = mean(values)
    var = sum((x - mu) ** 2 for x in values) / (n - 1)
    return math.sqrt(var)


def confidence_interval(
    values: Sequence[float], z: float = 1.96
) -> tuple[float, float]:
    """Normal-approximation confidence interval of the mean.

    ``z`` defaults to 1.96 (95%). For the 30-repetition experiments in the
    paper the normal approximation is adequate; tests only assert ordering
    relationships, never interval endpoints.
    """
    if not values:
        raise ValueError("confidence_interval() of empty sequence")
    mu = mean(values)
    half = z * sample_std(values) / math.sqrt(len(values))
    return (mu - half, mu + half)


@dataclass(frozen=True)
class Summary:
    """Summary statistics for one cell of a result table."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.3f} ± {self.std:.3f} (n={self.count})"


def summarize(values: Iterable[float], z: float = 1.96) -> Summary:
    """Build a :class:`Summary` from an iterable of observations."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("summarize() of empty sequence")
    lo, hi = confidence_interval(vals, z=z)
    return Summary(
        count=len(vals),
        mean=mean(vals),
        std=sample_std(vals),
        minimum=min(vals),
        maximum=max(vals),
        ci_low=lo,
        ci_high=hi,
    )
