"""Percentiles with the sample-count rule."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: a percentile is reported only when at least this many samples lie
#: strictly beyond its rank
MIN_BEYOND = 10


def percentile(samples: Sequence[float], fraction: float) -> Optional[float]:
    """The nearest-rank ``fraction`` percentile of ``samples``, or None
    when fewer than ``MIN_BEYOND`` samples lie beyond it."""
    count = len(samples)
    if count == 0:
        return None
    rank = max(1, math.ceil(fraction * count))
    if count - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]

