"""Order statistics used by the benchmark and its steadiness mode."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

MIN_ABOVE = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile of values.

    A percentile is only reported when at least MIN_ABOVE samples lie above
    it, so that one outlier cannot decide it; otherwise ValueError.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile rank must lie strictly between 0 and 100, got {q}")
    xs = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(xs)))
    above = len(xs) - rank
    if above < MIN_ABOVE:
        raise ValueError(
            f"p{q:g} of {len(xs)} samples has {above} above it; at least {MIN_ABOVE} needed"
        )
    return xs[rank - 1]


def quartile_spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else math.inf
    return q1, med, q3, spread
