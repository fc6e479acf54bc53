"""In-memory span recording around calls into a layer's public functions.

A :class:`SpanRecorder` wraps callables so that every call records one
span ``(id, parent, name, start, end, empty)``: ``start``/``end`` are
:func:`time.monotonic` readings (the same clock in every process on the
host, so the benchmark can line server spans up with its own timed
window), ``parent`` is the enclosing span of the same thread or asyncio
task (tracked in a :class:`contextvars.ContextVar`, so coroutines that
interleave on one event loop do not adopt each other's spans) and
``empty`` marks calls that returned ``None`` (e.g. a keep-alive read that
saw the client hang up).  Spans stay in memory until :meth:`dump`.

:func:`self_times` gives each span's self time: its duration minus the
part of its interval that its direct children cover.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded call: (id, parent id or None, name, start, end, returned None).
Span = Tuple[int, Optional[int], str, float, float, bool]


class SpanRecorder:
    """Wrap callables and keep one span per call in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Return ``function`` recording a span named ``name`` per call."""
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            result = None
            start = time.monotonic()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                current.reset(token)
                spans.append((span_id, parent, name, start, end, result is None))

        return traced

    def wrap_async(
        self, function: Callable[..., Any], name: str
    ) -> Callable[..., Any]:
        """Like :meth:`wrap` for a coroutine function (the span covers the await)."""
        spans, ids, current = self.spans, self._ids, self._current

        @functools.wraps(function)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            parent = current.get()
            token = current.set(span_id)
            result = None
            start = time.monotonic()
            try:
                result = await function(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                current.reset(token)
                spans.append((span_id, parent, name, start, end, result is None))

        return traced

    def dump(self, path: Path) -> None:
        """Write every recorded span to ``path`` as a JSON list."""
        Path(path).write_text(json.dumps(self.spans), encoding="utf-8")


def load_spans(path: Path) -> List[Span]:
    """Read spans written by :meth:`SpanRecorder.dump`."""
    return [
        (int(i), None if p is None else int(p), str(n), float(s), float(e), bool(z))
        for i, p, n, s, e, z in json.loads(Path(path).read_text(encoding="utf-8"))
    ]


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for low, high in intervals
        if min(end, high) > max(start, low)
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = 0.0
    for low, high in clipped:
        if run_start is None or low > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = low, high
        else:
            run_end = max(run_end, high)
    if run_start is not None:
        total += run_end - run_start
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Map each span id to its direct children."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    return children


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    children = children_of(spans)
    return {
        span[0]: (span[4] - span[3])
        - covered(((c[3], c[4]) for c in children.get(span[0], ())), span[3], span[4])
        for span in spans
    }
