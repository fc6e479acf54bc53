"""Fail when a fresh benchmark report regresses against the committed one.

CI re-runs a benchmark at the committed configuration and compares the
freshly emitted JSON against the report checked into the repository::

    PYTHONPATH=src python benchmarks/bench_engine_kernel.py --output fresh.json
    python benchmarks/check_bench_regression.py fresh.json BENCH_engine_kernel.json

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --output fresh.json
    python benchmarks/check_bench_regression.py fresh.json BENCH_service_throughput.json

    PYTHONPATH=src python benchmarks/bench_index_build.py --output fresh.json
    python benchmarks/check_bench_regression.py fresh.json BENCH_index_build.json

    PYTHONPATH=src python benchmarks/bench_snapshot.py --output fresh.json
    python benchmarks/check_bench_regression.py fresh.json BENCH_snapshot.json

    PYTHONPATH=src python benchmarks/bench_index_update.py --output fresh.json
    python benchmarks/check_bench_regression.py fresh.json BENCH_index_update.json

    PYTHONPATH=src python benchmarks/bench_service_http.py --output fresh.json
    python benchmarks/check_bench_regression.py fresh.json BENCH_service_http.json

The report kind is read from the committed JSON (``"kind"``; missing means
the engine-kernel report).  For the service-http report the check fails if
the HTTP-served traces stopped matching direct in-process solves, if the
coalesced duplicate burst stopped returning byte-identical payloads, if the
coalesce speedup dropped more than ``--max-regression`` below the committed
value, or if the ``coalesce_speedup_met`` / ``coalesced_single_solve``
acceptance flags regressed from the committed report.  For the index-update report the check fails if
delta application stopped being bit-identical to a from-scratch rebuild (or
the greedy traces diverged), if a (motif, delta size) cell's p50
``delta_us`` exceeds the ``ceiling_us`` the committed report records next
to it (an absolute ceiling; ``--max-regression`` does not apply), or if
the fresh run measured another instance than the committed one.  For the
snapshot report the check fails if the
restored index stopped being bit-identical to the built one (or the greedy
traces diverged), if the overall load-vs-build cold-start speedup dropped
more than ``--max-regression`` below the committed value, or if the
``cold_start_speedup_met`` acceptance flag regressed from the committed
report.  For the index-build report the check fails if
the vectorized build stopped being bit-identical to the seed build (or
their greedy traces diverged), if the overall vectorized-vs-seed build
speedup dropped more than ``--max-regression`` below the committed value,
or if the ``vectorized_speedup_met`` acceptance flag regressed from the
committed report.  For the kernel report the check fails (exit 1) if
the native and numpy kernels stopped agreeing on a hot-loop similarity or
on a whole solve's result (``whole_solves_identical``), or if a native
timing — each hot loop's best-of-N µs and each whole-solve cell's p50 µs —
exceeds the ``ceiling_us`` the committed report records next to it, or if
the fresh run measured another instance than the committed one.  The
ceilings are absolute and ``--max-regression`` does not apply to them;
they are skipped when the fresh run records ``native_available: false``
(no C toolchain is machine shape, not a regression — agreement checks
still apply).  For
the service-throughput report it fails if the traces stopped agreeing, if
the shared-vs-rebuild speedup dropped more than ``--max-regression`` below
the committed value, or if an acceptance flag that was true in the committed
report (``shared_speedup_met``) is no longer met.  Larger speedups and new
methods never fail the check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _check_flags(fresh: dict, committed: dict, flags) -> list:
    """Enforce boolean acceptance flags that were true in the committed report."""
    return [
        f"{flag} was true in the committed report, now false"
        for flag in flags
        if committed.get(flag) and not fresh.get(flag, False)
    ]


def compare_index_build(fresh: dict, committed: dict, max_regression: float) -> list:
    """Return the failure list for an ``index_build`` report pair."""
    failures = []
    if not fresh.get("builds_identical", False):
        failures.append(
            "fresh run: vectorized builds are no longer bit-identical to the "
            "seed build"
        )
    if not fresh.get("greedy_traces_agree", False):
        failures.append(
            "fresh run: greedy traces diverge between build strategies"
        )
    committed_speedup = committed.get("overall_vectorized_speedup", 0.0)
    fresh_speedup = fresh.get("overall_vectorized_speedup", 0.0)
    floor = committed_speedup * (1.0 - max_regression)
    if fresh_speedup < floor:
        failures.append(
            f"overall_vectorized_speedup {fresh_speedup:.2f}x fell more than "
            f"{max_regression:.0%} below the committed {committed_speedup:.2f}x "
            f"(floor {floor:.2f}x)"
        )
    failures.extend(_check_flags(fresh, committed, ("vectorized_speedup_met",)))
    return failures


def compare_snapshot(fresh: dict, committed: dict, max_regression: float) -> list:
    """Return the failure list for a ``snapshot`` report pair."""
    failures = []
    if not fresh.get("snapshots_identical", False):
        failures.append(
            "fresh run: restored snapshots are no longer bit-identical to "
            "the built indexes"
        )
    if not fresh.get("greedy_traces_agree", False):
        failures.append(
            "fresh run: greedy traces diverge between built and "
            "snapshot-restored sessions"
        )
    committed_speedup = committed.get("overall_cold_start_speedup", 0.0)
    fresh_speedup = fresh.get("overall_cold_start_speedup", 0.0)
    floor = committed_speedup * (1.0 - max_regression)
    if fresh_speedup < floor:
        failures.append(
            f"overall_cold_start_speedup {fresh_speedup:.2f}x fell more than "
            f"{max_regression:.0%} below the committed {committed_speedup:.2f}x "
            f"(floor {floor:.2f}x)"
        )
    failures.extend(_check_flags(fresh, committed, ("cold_start_speedup_met",)))
    return failures


def compare_index_update(fresh: dict, committed: dict, max_regression: float) -> list:
    """Return the failure list for an ``index_update`` report pair."""
    failures = []
    if not fresh.get("deltas_identical", False):
        failures.append(
            "fresh run: delta-applied indexes are no longer bit-identical to "
            "a from-scratch rebuild"
        )
    if not fresh.get("greedy_traces_agree", False):
        failures.append(
            "fresh run: greedy traces diverge between delta-updated and "
            "rebuilt sessions"
        )
    if _instance(fresh) != _instance(committed):
        failures.append(
            "the fresh run measured another instance than the committed "
            "report, so its ceilings do not apply"
        )
    failures.extend(
        _ceiling_failures(
            _delta_cells(fresh.get("motifs", {})),
            _delta_cells(committed.get("motifs", {})),
            "delta",
        )
    )
    return failures


def compare_service(fresh: dict, committed: dict, max_regression: float) -> list:
    """Return the failure list for a ``service_throughput`` report pair."""
    failures = []
    if not fresh.get("traces_agree", False):
        failures.append(
            "fresh run: service-path protector traces no longer agree with "
            "the legacy direct calls"
        )
    committed_speedup = committed.get("shared_vs_rebuild_speedup", 0.0)
    fresh_speedup = fresh.get("shared_vs_rebuild_speedup", 0.0)
    floor = committed_speedup * (1.0 - max_regression)
    if fresh_speedup < floor:
        failures.append(
            f"shared_vs_rebuild_speedup {fresh_speedup:.2f}x fell more than "
            f"{max_regression:.0%} below the committed {committed_speedup:.2f}x "
            f"(floor {floor:.2f}x)"
        )
    failures.extend(
        _check_flags(fresh, committed, ("shared_speedup_met",))
    )
    return failures


def compare_service_http(fresh: dict, committed: dict, max_regression: float) -> list:
    """Return the failure list for a ``service_http`` report pair."""
    failures = []
    if not fresh.get("traces_agree", False):
        failures.append(
            "fresh run: HTTP-served protector traces no longer agree with "
            "direct in-process solves"
        )
    if not fresh.get("responses_identical", False):
        failures.append(
            "fresh run: coalesced duplicate responses are no longer "
            "byte-identical"
        )
    committed_speedup = committed.get("coalesce_speedup", 0.0)
    fresh_speedup = fresh.get("coalesce_speedup", 0.0)
    floor = committed_speedup * (1.0 - max_regression)
    if fresh_speedup < floor:
        failures.append(
            f"coalesce_speedup {fresh_speedup:.2f}x fell more than "
            f"{max_regression:.0%} below the committed {committed_speedup:.2f}x "
            f"(floor {floor:.2f}x)"
        )
    failures.extend(
        _check_flags(
            fresh, committed, ("coalesce_speedup_met", "coalesced_single_solve")
        )
    )
    return failures


def compare(fresh: dict, committed: dict, max_regression: float) -> list:
    """Return a list of human-readable failures (empty == pass)."""
    if committed.get("kind") == "service_throughput":
        return compare_service(fresh, committed, max_regression)
    if committed.get("kind") == "service_http":
        return compare_service_http(fresh, committed, max_regression)
    if committed.get("kind") == "index_build":
        return compare_index_build(fresh, committed, max_regression)
    if committed.get("kind") == "snapshot":
        return compare_snapshot(fresh, committed, max_regression)
    if committed.get("kind") == "index_update":
        return compare_index_update(fresh, committed, max_regression)
    failures = []
    if not fresh.get("native_loops_agree", False):
        failures.append(
            "fresh run: native and numpy kernels disagree on a hot-loop "
            "similarity"
        )
    if not fresh.get("whole_solves_identical", False):
        failures.append(
            "fresh run: native and numpy kernels disagree on a whole "
            "ProtectionService.solve result"
        )
    # The ceilings bound the native kernel.  A runner with no C toolchain
    # falls back to numpy, which is machine shape, not a regression — skip
    # the ceilings there but keep the agreement checks above.
    if not fresh.get("native_available", False):
        print(
            "native ceilings skipped: fresh runner reports "
            "native_available=false (no C toolchain or REPRO_NATIVE=0)"
        )
        return failures
    for section in ("native", "whole_solve"):
        if _instance(fresh.get(section, {})) != _instance(committed.get(section, {})):
            failures.append(
                f"{section}: the fresh run measured another instance than the "
                "committed report, so its ceilings do not apply"
            )
    failures.extend(
        _ceiling_failures(_native_cells(fresh), _native_cells(committed), "native")
    )
    return failures


def _ceiling_failures(measured: dict, ceilings: dict, what: str) -> list:
    """Compare ``{cell: (µs, ceiling µs)}`` maps: every committed cell must
    carry a ceiling and be measured at or under it in the fresh run."""
    failures = []
    if not ceilings:
        failures.append(f"the committed report records no {what} timing to gate")
    for cell, (_, ceiling) in ceilings.items():
        value = measured.get(cell, (None, None))[0]
        if ceiling is None:
            failures.append(f"{cell}: the committed report records no ceiling_us")
        elif value is None:
            failures.append(f"{cell}: missing from the fresh report")
        elif value > ceiling:
            failures.append(
                f"{cell}: {what} {value:.1f} us exceeds the ceiling "
                f"{ceiling:.1f} us"
            )
    return failures


#: Config keys that describe the harness or the host, not the measured
#: instance.
_HARNESS_KEYS = ("repeats", "min_seconds", "cpu_count")


def _instance(section: dict) -> dict:
    config = section.get("config", {})
    return {key: value for key, value in config.items() if key not in _HARNESS_KEYS}


def _native_cells(report: dict) -> dict:
    """Map each gated cell of an engine-kernel report to
    ``(native µs, ceiling µs)``: the three hot loops (best-of-N) and every
    whole-solve method and budget (p50)."""
    cells = {}
    for loop, row in report.get("native", {}).get("loops", {}).items():
        cells[f"{loop} loop"] = (row.get("native_us"), row.get("ceiling_us"))
    for method, rows in report.get("whole_solve", {}).get("methods", {}).items():
        for row in rows:
            cells[f"{method} solve, budget {row.get('budget')}"] = (
                row.get("native_p50_us"),
                row.get("ceiling_us"),
            )
    return cells


def _delta_cells(motifs: dict) -> dict:
    """Map each (motif, delta size) cell of an index-update report to
    ``(p50 delta µs, ceiling µs)``."""
    return {
        f"{motif} x{size} delta": (row.get("delta_us"), row.get("ceiling_us"))
        for motif, rows in motifs.items()
        for size, row in rows.items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly emitted BENCH_engine_kernel.json")
    parser.add_argument("committed", help="committed BENCH_engine_kernel.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.30,
        help="tolerated fractional speedup drop for the ratio-gated kinds "
        "(default 0.30); the engine-kernel and index-update ceilings are "
        "absolute",
    )
    args = parser.parse_args(argv)

    fresh = json.loads(Path(args.fresh).read_text())
    committed = json.loads(Path(args.committed).read_text())
    failures = compare(fresh, committed, args.max_regression)
    if committed.get("kind") == "snapshot":
        print(
            f"overall_cold_start_speedup: committed "
            f"{committed.get('overall_cold_start_speedup')}x, fresh "
            f"{fresh.get('overall_cold_start_speedup')}x; bit-identical restores: "
            f"{fresh.get('snapshots_identical')}; greedy traces agree: "
            f"{fresh.get('greedy_traces_agree')}"
        )
    elif committed.get("kind") == "index_build":
        print(
            f"overall_vectorized_speedup: committed "
            f"{committed.get('overall_vectorized_speedup')}x, fresh "
            f"{fresh.get('overall_vectorized_speedup')}x; bit-identical builds: "
            f"{fresh.get('builds_identical')}; greedy traces agree: "
            f"{fresh.get('greedy_traces_agree')}"
        )
    elif committed.get("kind") == "index_update":
        measured = _delta_cells(fresh.get("motifs", {}))
        for cell, (_, ceiling) in _delta_cells(committed.get("motifs", {})).items():
            print(
                f"{cell:>20}: fresh {measured.get(cell, (None,))[0]} us, "
                f"ceiling {ceiling} us"
            )
        print(
            f"bit-identical deltas: {fresh.get('deltas_identical')}; greedy "
            f"traces agree: {fresh.get('greedy_traces_agree')}"
        )
    elif committed.get("kind") == "service_throughput":
        print(
            f"shared_vs_rebuild_speedup: committed "
            f"{committed.get('shared_vs_rebuild_speedup')}x, fresh "
            f"{fresh.get('shared_vs_rebuild_speedup')}x; traces agree: "
            f"{fresh.get('traces_agree')}"
        )
    elif committed.get("kind") == "service_http":
        print(
            f"coalesce_speedup: committed {committed.get('coalesce_speedup')}x, "
            f"fresh {fresh.get('coalesce_speedup')}x; serial p50: committed "
            f"{committed.get('serial_p50_ms')}ms, fresh "
            f"{fresh.get('serial_p50_ms')}ms; responses identical: "
            f"{fresh.get('responses_identical')}; single solve: "
            f"{fresh.get('coalesced_single_solve')}"
        )
    elif fresh.get("native_available"):
        measured = _native_cells(fresh)
        for cell, (_, ceiling) in _native_cells(committed).items():
            print(
                f"{cell:>30}: fresh {measured.get(cell, (None,))[0]} us, "
                f"ceiling {ceiling} us"
            )
    if failures:
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"no benchmark regression beyond {args.max_regression:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
