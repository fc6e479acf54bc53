"""Shared helpers for the greedy protector-selection algorithms."""

from __future__ import annotations

import time
from itertools import accumulate
from operator import sub
from typing import Callable, Iterable, List, Optional, Tuple

from repro.graphs.graph import Edge, edge_sort_key

__all__ = ["argmax_edge", "edge_sort_key", "similarity_trace", "Stopwatch"]


def argmax_edge(
    candidates: Iterable[Edge], score: Callable[[Edge], float]
) -> Optional[Tuple[Edge, float]]:
    """Return the ``(edge, score)`` pair with maximal score.

    Ties are broken by :func:`edge_sort_key` so runs are reproducible across
    Python hash seeds.  Returns ``None`` when ``candidates`` is empty.
    """
    best_edge: Optional[Edge] = None
    best_score = float("-inf")
    for edge in sorted(candidates, key=edge_sort_key):
        value = score(edge)
        if value > best_score:
            best_score = value
            best_edge = edge
    if best_edge is None:
        return None
    return best_edge, best_score


def similarity_trace(initial: int, killed: Iterable[int]) -> List[int]:
    """Return ``[s_0, s_1, ...]`` where ``s_i`` is ``initial`` minus the
    instances the first ``i`` deletions killed (one entry per deletion
    plus the initial similarity)."""
    return list(accumulate(killed, sub, initial=initial))


class Stopwatch:
    """Tiny wall-clock stopwatch used to fill ``ProtectionResult.runtime_seconds``."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Return the seconds elapsed since construction."""
        return time.perf_counter() - self._start
