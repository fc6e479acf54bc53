"""Shared harness of the offline benchmarks: timing, host recording and the
one report schema every ``BENCH_*.json`` follows.

Each ``bench_<kind>.py`` script times its cells with :func:`best_of` or
:func:`round_p50s` and writes a :func:`report`; ``check_bench_regression.py``
gates a fresh report against the committed one, and reprolint R6 runs
:func:`validate` over every committed report.  A report is::

    {
      "kind": one of KINDS,
      "config": {
        "instance": {...},   # what was measured; must match to compare
        "harness": {...}     # how it was sampled, and on which host
      },
      "native_available": bool,
      "identity": {flag: bool, ...},          # every flag must be true
      "cells": {name: {"us": float,            # the gated timing
                       "ceiling_us": float,    # its committed ceiling
                       ...informational fields}}
    }

A ceiling is twice the maximum of at least five committed-scale runs of
unchanged code, rounded up to two significant figures (the runs' spread is
recorded in CHANGES.md).  Ceilings bound the native kernel, so they do not
apply to a report whose ``native_available`` is false.

Stdlib only: reprolint loads this file without the library's dependencies.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from numbers import Real
from pathlib import Path
from typing import Callable, Dict, Hashable, List

#: The benchmark kinds; ``BENCH_<kind>.json`` is written by ``bench_<kind>.py``.
KINDS = ("engine_kernel", "index_build", "index_update", "snapshot")


def best_of(fn: Callable[[], object], repeats: int, min_seconds: float = 0.0) -> float:
    """Return the lowest wall-clock seconds of ``fn`` over a noise-robust
    sample: it runs until both ``repeats`` runs *and* ``min_seconds`` of
    accumulated wall-clock have happened, so cheap calls repeat many times
    and expensive ones stop at ``repeats``."""
    best = float("inf")
    total = 0.0
    runs = 0
    while runs < max(1, repeats) or total < min_seconds:
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
        total += elapsed
        runs += 1
    return best


def round_p50s(
    cells: Dict[Hashable, Callable[[], object]], rounds: int, samples: int
) -> Dict[Hashable, float]:
    """Return, per cell, the lowest over ``rounds`` of a round's p50 of
    ``samples`` calls, in seconds.

    Each round sweeps every cell in turn, so a host slowdown of a few
    seconds lands in one round of a cell, not in all of its samples.
    """
    p50s: Dict[Hashable, List[float]] = {name: [] for name in cells}
    for _ in range(max(1, rounds)):
        for name, fn in cells.items():
            times = []
            for _ in range(max(1, samples)):
                started = time.perf_counter()
                fn()
                times.append(time.perf_counter() - started)
            p50s[name].append(statistics.median(times))
    return {name: min(values) for name, values in p50s.items()}


def host() -> Dict[str, int]:
    """The CPUs of this host, and those this process may run on."""
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        available = os.cpu_count() or 1
    return {"cpu_count": os.cpu_count() or 1, "available_cpus": available}


def us(seconds: float) -> float:
    """Seconds to microseconds, rounded to 0.1 µs."""
    return round(seconds * 1e6, 1)


def report(
    kind: str,
    instance: dict,
    harness: dict,
    native_available: bool,
    identity: Dict[str, bool],
    cells: Dict[str, dict],
) -> dict:
    """Assemble a report in the schema (the host is added to ``harness``)."""
    return {
        "kind": kind,
        "config": {"instance": instance, "harness": {**harness, **host()}},
        "native_available": native_available,
        "identity": identity,
        "cells": cells,
    }


def write(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def validate(payload) -> List[str]:
    """Return the schema problems of a report (empty when it conforms)."""
    if not isinstance(payload, dict):
        return ["a report must be a JSON object"]
    problems = []
    kind = payload.get("kind")
    if kind not in KINDS:
        problems.append(f"unknown kind {kind!r}; the kinds are {list(KINDS)}")
    config = payload.get("config")
    if not (
        isinstance(config, dict)
        and isinstance(config.get("instance"), dict)
        and isinstance(config.get("harness"), dict)
    ):
        problems.append("'config' must map 'instance' and 'harness' to objects")
    if not isinstance(payload.get("native_available"), bool):
        problems.append("'native_available' must be true or false")
    identity = payload.get("identity")
    if not isinstance(identity, dict) or not identity:
        problems.append("'identity' must be a non-empty map of flags")
    else:
        problems.extend(
            f"identity flag {flag!r} must be true or false"
            for flag, value in identity.items()
            if not isinstance(value, bool)
        )
    cells = payload.get("cells")
    if not isinstance(cells, dict) or not cells:
        return problems + ["'cells' must be a non-empty map of timed cells"]
    for name, cell in cells.items():
        if not isinstance(cell, dict):
            problems.append(f"cell {name!r} must be an object")
            continue
        if not _is_number(cell.get("us")):
            problems.append(f"cell {name!r} has no 'us' timing")
        ceiling = cell.get("ceiling_us")
        if not (_is_number(ceiling) and ceiling > 0):
            problems.append(f"cell {name!r} has no positive 'ceiling_us'")
    return problems
