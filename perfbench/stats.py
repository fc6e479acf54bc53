"""Order statistics for the serving benchmark.

A percentile is only named when the sample leaves at least
:data:`MIN_BEYOND` observations strictly above its rank: a p99 needs
1,000 samples, a p90 needs 100 and a median needs 20.  Asking for a
percentile the sample cannot support raises :class:`InsufficientSamples`
instead of quietly reporting the maximum.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Observations that must lie beyond a percentile's rank for it to be named.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """The sample is too small to name the requested percentile."""


def rank(count: int, q: float) -> int:
    """The 1-based nearest rank of percentile ``q`` (0 < q < 100) in ``count``."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    return max(1, math.ceil(q / 100.0 * count))


def supports(count: int, q: float) -> bool:
    """Whether ``count`` samples leave ``MIN_BEYOND`` beyond percentile ``q``."""
    return count > 0 and count - rank(count, q) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank percentile ``q`` of ``values``.

    Raises :class:`InsufficientSamples` when fewer than ``MIN_BEYOND``
    values lie beyond the rank.
    """
    count = len(values)
    if not supports(count, q):
        raise InsufficientSamples(
            f"p{q:g} needs {MIN_BEYOND} samples beyond its rank; "
            f"{count} sample(s) leave {max(0, count - rank(count, q)) if count else 0}"
        )
    return sorted(values)[rank(count, q) - 1]

