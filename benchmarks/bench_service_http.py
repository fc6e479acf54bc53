"""HTTP serving benchmark (emits ``BENCH_service_http.json``).

Measures what the serving front (:mod:`repro.server`) adds on top of the
in-process session: one ``ProtectionServer`` bound to a loopback port,
exercised three ways over real sockets::

    serial      a distinct-request grid (methods x budgets), one at a time —
                the per-request floor: framing + admission + one solve
    concurrent  the same grid fanned out over --clients threads — queueing
                under load; on a single-CPU runner this measures admission
                overhead, not parallel speedup
    coalesced   a burst of --duplicates *identical* requests fired
                concurrently — they must coalesce onto one executor solve
                and all receive the same payload

and reports p50/p99 latency and queries/sec per phase, plus the coalescing
acceptance facts the regression gate enforces: the burst shared a single
solve (``coalesced_single_solve``), every burst payload was identical after
the per-caller ``coalesced`` flag (``responses_identical``), the serial
HTTP results match direct in-process solves (``traces_agree``), and the
burst beat solving the same duplicates serially by at least
``coalesce_speedup_target`` (``coalesce_speedup``).

Run with::

    PYTHONPATH=src python benchmarks/bench_service_http.py                   # committed scale
    PYTHONPATH=src python benchmarks/bench_service_http.py --nodes 400 --targets 6 \\
        --duplicates 4 --clients 4                                           # smoke scale
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.model import TPPProblem  # noqa: E402
from repro.datasets.targets import sample_degree_weighted_targets  # noqa: E402
from repro.graphs.generators import powerlaw_cluster_graph  # noqa: E402
from repro.server import ProtectionServer, ServingClient, serve_in_background  # noqa: E402
from repro.service import ProtectionRequest, ProtectionService  # noqa: E402

#: Acceptance bar: the duplicate burst must beat solving the duplicates
#: serially by at least this factor (coalescing turns N solves into ~1).
COALESCE_SPEEDUP_TARGET = 2.0

#: The distinct-request grid: method x budget, fixed seeds.
GRID_METHODS = ("SGB-Greedy", "CT-Greedy:TBD", "WT-Greedy:TBD", "RD")
GRID_BUDGETS = (2, 4, 6, 8)


def _percentile_ms(latencies: List[float], quantile: float) -> float:
    ordered = sorted(latencies)
    position = min(len(ordered) - 1, round(quantile * (len(ordered) - 1)))
    return round(ordered[position] * 1000.0, 3)


def _grid(initial_similarity: int) -> List[ProtectionRequest]:
    budgets = [
        max(1, min(budget, initial_similarity)) for budget in GRID_BUDGETS
    ]
    return [
        ProtectionRequest(method, budget, seed=seed)
        for seed, method in enumerate(GRID_METHODS)
        for budget in budgets
    ]


def _timed_solve(
    client: ServingClient, request: ProtectionRequest
) -> Tuple[float, Dict[str, object]]:
    started = time.perf_counter()
    payload = client.solve_payload(request)
    return time.perf_counter() - started, payload


def _phase_report(latencies: List[float], wall_seconds: float) -> Dict[str, float]:
    return {
        "p50_ms": _percentile_ms(latencies, 0.50),
        "p99_ms": _percentile_ms(latencies, 0.99),
        "qps": round(len(latencies) / wall_seconds, 3) if wall_seconds > 0 else 0.0,
        "wall_seconds": round(wall_seconds, 6),
    }


def run(args: argparse.Namespace) -> dict:
    graph = powerlaw_cluster_graph(args.nodes, args.attach, 0.4, seed=args.seed)
    targets = sample_degree_weighted_targets(graph, args.targets, seed=args.seed)
    problem = TPPProblem(graph, targets, motif=args.motif)
    problem.build_index()

    reference = ProtectionService(problem)
    initial = reference.pristine_similarity()
    requests = _grid(initial)
    # the duplicate is deliberately the most expensive request in play —
    # the paper's naive recount baseline, which rebuilds motif counts per
    # step: the longer the shared solve, the more work coalescing saves
    # the burst, and the committed speedup reflects that
    duplicate = ProtectionRequest(
        GRID_METHODS[0],
        max(1, min(args.duplicate_budget, initial)),
        engine="recount",
        seed=99,
    )

    server = ProtectionServer(
        ProtectionService(problem), solver_threads=args.solver_threads
    )
    with serve_in_background(server) as handle:
        client = ServingClient(handle.url, timeout=600.0)

        # -- serial: the per-request floor ------------------------------
        serial_latencies: List[float] = []
        serial_payloads: List[Dict[str, object]] = []
        started = time.perf_counter()
        for request in requests:
            latency, payload = _timed_solve(client, request)
            serial_latencies.append(latency)
            serial_payloads.append(payload)
        serial_wall = time.perf_counter() - started

        # -- concurrent: the same grid under client fan-out -------------
        started = time.perf_counter()
        with ThreadPoolExecutor(args.clients) as pool:
            concurrent_runs = list(
                pool.map(lambda request: _timed_solve(client, request), requests)
            )
        concurrent_wall = time.perf_counter() - started
        concurrent_latencies = [latency for latency, _ in concurrent_runs]

        # -- coalesced: identical duplicates must share one solve -------
        # baseline: the same duplicate solved serially (no overlap — each
        # request pays a full solve; this is what coalescing saves)
        started = time.perf_counter()
        for _ in range(args.duplicates):
            client.solve_payload(duplicate)
        duplicate_serial_wall = time.perf_counter() - started

        # the burst is made deterministic rather than racy: the initiator
        # fires first, the joiners wait until the server reports the solve
        # in flight, then all fire at once through a barrier — so every
        # joiner demonstrably arrives while the shared solve is running
        solves_before = client.stats()["solves_executed"]
        joiners = args.duplicates - 1
        joiner_barrier = threading.Barrier(joiners + 1)

        def joiner(_index: int) -> Tuple[float, Dict[str, object]]:
            joiner_barrier.wait(timeout=60.0)
            return _timed_solve(client, duplicate)

        started = time.perf_counter()
        with ThreadPoolExecutor(args.duplicates) as pool:
            initiator = pool.submit(_timed_solve, client, duplicate)
            while server.stats()["pending"] < 1 and not initiator.done():
                time.sleep(0.0002)
            joined = [pool.submit(joiner, index) for index in range(joiners)]
            joiner_barrier.wait(timeout=60.0)
            burst_runs = [initiator.result()] + [task.result() for task in joined]
        burst_wall = time.perf_counter() - started
        burst_solves = client.stats()["solves_executed"] - solves_before
        burst_latencies = [latency for latency, _ in burst_runs]
        burst_payloads = [payload for _, payload in burst_runs]

        stats = client.stats()

    coalesced_flags = sorted(
        payload["extra"]["server"].pop("coalesced") for payload in burst_payloads
    )
    responses_identical = all(
        payload == burst_payloads[0] for payload in burst_payloads
    )
    coalesced_single_solve = burst_solves == 1 and coalesced_flags == (
        [False] + [True] * (args.duplicates - 1)
    )
    coalesce_speedup = (
        duplicate_serial_wall / burst_wall if burst_wall > 0 else float("inf")
    )

    def protectors(payload: Dict[str, object]) -> Tuple[Tuple[int, int], ...]:
        return tuple(tuple(edge) for edge in payload["protectors"])

    traces_agree = all(
        protectors(payload) == reference.solve(request).protectors
        for request, payload in zip(requests, serial_payloads)
    )

    serial = _phase_report(serial_latencies, serial_wall)
    concurrent = _phase_report(concurrent_latencies, concurrent_wall)
    coalesced = _phase_report(burst_latencies, burst_wall)

    return {
        "kind": "service_http",
        "config": {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "targets": len(targets),
            "motif": args.motif,
            "seed": args.seed,
            "num_requests": len(requests),
            "methods": list(GRID_METHODS),
            "budgets": list(GRID_BUDGETS),
            "clients": args.clients,
            "duplicates": args.duplicates,
            "solver_threads": args.solver_threads,
        },
        "serial_p50_ms": serial["p50_ms"],
        "serial_p99_ms": serial["p99_ms"],
        "serial_qps": serial["qps"],
        "serial_wall_seconds": serial["wall_seconds"],
        "concurrent_p50_ms": concurrent["p50_ms"],
        "concurrent_p99_ms": concurrent["p99_ms"],
        "concurrent_qps": concurrent["qps"],
        "concurrent_wall_seconds": concurrent["wall_seconds"],
        "coalesced_p50_ms": coalesced["p50_ms"],
        "coalesced_p99_ms": coalesced["p99_ms"],
        "coalesced_qps": coalesced["qps"],
        "coalesced_wall_seconds": coalesced["wall_seconds"],
        "duplicate_serial_wall_seconds": round(duplicate_serial_wall, 6),
        "burst_solves_executed": burst_solves,
        "coalesce_speedup": round(coalesce_speedup, 2),
        "coalesce_speedup_target": COALESCE_SPEEDUP_TARGET,
        "coalesce_speedup_met": coalesce_speedup >= COALESCE_SPEEDUP_TARGET,
        "coalesced_single_solve": coalesced_single_solve,
        "responses_identical": responses_identical,
        "traces_agree": traces_agree,
        "server_stats": {
            "requests_total": stats["requests_total"],
            "solves_executed": stats["solves_executed"],
            "coalesced_hits": stats["coalesced_hits"],
            "rejected": stats["rejected"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # committed scale: large enough that a solve dominates HTTP framing and
    # the duplicate burst reliably overlaps one in-flight solve, small
    # enough to finish in seconds on a single-CPU CI runner
    parser.add_argument("--nodes", type=int, default=2_000)
    parser.add_argument("--attach", type=int, default=4, help="edges per new node")
    parser.add_argument("--targets", type=int, default=12)
    parser.add_argument("--motif", default="triangle")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--duplicates", type=int, default=12)
    parser.add_argument(
        "--duplicate-budget",
        type=int,
        default=1,
        help="budget of the duplicated recount-engine request (clamped to "
        "the initial similarity); even budget 1 pays the full initial motif "
        "recount, making the shared solve long enough to demonstrate "
        "coalescing deterministically",
    )
    parser.add_argument("--solver-threads", type=int, default=4)
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_service_http.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run(args)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    config = report["config"]
    print(
        f"{config['num_requests']} distinct requests, "
        f"{config['clients']} clients, {config['duplicates']} duplicates:"
    )
    print(
        f"  serial:     p50 {report['serial_p50_ms']:8.2f}ms  "
        f"p99 {report['serial_p99_ms']:8.2f}ms  {report['serial_qps']:7.2f} q/s"
    )
    print(
        f"  concurrent: p50 {report['concurrent_p50_ms']:8.2f}ms  "
        f"p99 {report['concurrent_p99_ms']:8.2f}ms  {report['concurrent_qps']:7.2f} q/s"
    )
    print(
        f"  coalesced:  p50 {report['coalesced_p50_ms']:8.2f}ms  "
        f"p99 {report['coalesced_p99_ms']:8.2f}ms  {report['coalesced_qps']:7.2f} q/s  "
        f"({report['burst_solves_executed']} solve(s) for "
        f"{config['duplicates']} callers)"
    )
    print(
        f"  coalesce speedup vs serial duplicates: "
        f"{report['coalesce_speedup']:.2f}x "
        f"(target >= {report['coalesce_speedup_target']}x, "
        f"met={report['coalesce_speedup_met']})"
    )
    print(
        f"  responses identical: {report['responses_identical']}; "
        f"single solve: {report['coalesced_single_solve']}; "
        f"traces agree with direct session: {report['traces_agree']}"
    )
    print(f"report written to {args.output}")
    ok = (
        report["responses_identical"]
        and report["traces_agree"]
        and report["burst_solves_executed"] >= 1
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
