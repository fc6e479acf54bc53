"""Service throughput benchmark (emits ``BENCH_service_throughput.json``).

Measures what the session API buys: one ``(graph, targets, motif)`` instance,
a batch of >= 20 protection queries (every registered method x several
budgets — the shape of a Fig. 3/4 sweep), executed two ways::

    rebuild   legacy pre-service flow: a fresh TPPProblem per query, each
              direct call re-enumerates the target-subgraph index
    shared    one ProtectionService session, solve_many() serially — the
              index is built once, every query runs on a state copy

and reports queries/sec for each, the shared-vs-rebuild speedup (acceptance
target: >= 5x), and whether both paths produced byte-identical protector
traces (the benchmark doubles as a differential test and exits non-zero on
any disagreement).

Run with::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py             # committed scale
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --nodes 2000 --targets 20
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.model import TPPProblem  # noqa: E402
from repro.datasets.targets import sample_degree_weighted_targets  # noqa: E402
from repro.graphs.generators import powerlaw_cluster_graph  # noqa: E402
from repro.service import ProtectionRequest, ProtectionService  # noqa: E402
from repro.service.registry import get_method, method_names  # noqa: E402

#: Acceptance bar for the shared-index speedup over rebuild-per-call.
SHARED_SPEEDUP_TARGET = 5.0


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _requests(initial_similarity: int, fractions) -> List[ProtectionRequest]:
    budgets = [max(1, initial_similarity // divisor) for divisor in fractions]
    return [
        ProtectionRequest(method, budget, seed=seed)
        for method in method_names()
        for seed, budget in enumerate(budgets)
    ]


def _run_rebuild_per_call(graph, targets, motif, requests) -> tuple:
    """The legacy flow: every query constructs its own problem + engine state.

    Returns ``(results, index_build_seconds)`` — the second element is the
    total wall-clock the flow spent re-enumerating the target-subgraph index
    (once per query; the per-path build cost the session API eliminates).
    """
    results = []
    build_seconds = 0.0
    for request in requests:
        problem = TPPProblem(graph, targets, motif=motif)  # re-enumerates
        started = time.perf_counter()
        problem.build_index()
        build_seconds += time.perf_counter() - started
        spec = get_method(request.method)
        results.append(
            spec.runner(
                problem, request.budget, request.engine, request.seed,
                **request.options(),
            )
        )
    return results, build_seconds


def run(args: argparse.Namespace) -> dict:
    graph = powerlaw_cluster_graph(args.nodes, args.attach, 0.4, seed=args.seed)
    targets = sample_degree_weighted_targets(graph, args.targets, seed=args.seed)

    # a probe session sizes the budget grid; the timed runs build their own
    probe = ProtectionService(TPPProblem(graph, targets, motif=args.motif))
    initial = probe.pristine_similarity()
    requests = _requests(initial, (16, 8, 4))
    n = len(requests)

    started = time.perf_counter()
    rebuild_results, rebuild_build_seconds = _run_rebuild_per_call(
        graph, targets, args.motif, requests
    )
    rebuild_seconds = time.perf_counter() - started

    # shared-index serial: session build (once) + the whole batch on state
    # copies; the build is included in the rebuild comparison and also
    # reported on its own
    started = time.perf_counter()
    service = ProtectionService(TPPProblem(graph, targets, motif=args.motif))
    build_seconds = time.perf_counter() - started
    started = time.perf_counter()
    shared_results = service.solve_many(requests)
    serial_batch_seconds = time.perf_counter() - started
    shared_seconds = build_seconds + serial_batch_seconds

    def traces(results):
        return [(result.protectors, result.similarity_trace) for result in results]

    traces_agree = traces(rebuild_results) == traces(shared_results)

    shared_speedup = rebuild_seconds / shared_seconds if shared_seconds > 0 else float("inf")

    report = {
        "kind": "service_throughput",
        "config": {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "targets": len(targets),
            "motif": args.motif,
            "seed": args.seed,
            "initial_similarity": initial,
            "num_requests": n,
            "methods": list(method_names()),
            "cpu_count": os.cpu_count(),
        },
        "available_cpus": _available_cpus(),
        "index_build_seconds": round(build_seconds, 6),
        # per execution path: what each flow spends (re)building the index —
        # rebuild pays it once per query, the session once in total
        "index_build_seconds_by_path": {
            "rebuild_total": round(rebuild_build_seconds, 6),
            "shared": round(build_seconds, 6),
        },
        "rebuild_seconds": round(rebuild_seconds, 6),
        "rebuild_qps": round(n / rebuild_seconds, 3),
        "shared_seconds": round(shared_seconds, 6),
        "shared_qps": round(n / shared_seconds, 3),
        "serial_batch_seconds": round(serial_batch_seconds, 6),
        "shared_vs_rebuild_speedup": round(shared_speedup, 2),
        "shared_speedup_target": SHARED_SPEEDUP_TARGET,
        "shared_speedup_met": shared_speedup >= SHARED_SPEEDUP_TARGET,
        "traces_agree": traces_agree,
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # committed scale: 20k nodes / 50 targets.  Chosen so the per-query index
    # rebuild clearly dominates the legacy flow even after the vectorized
    # build (PR 4) halved its cost — at smaller scales the shared-vs-rebuild
    # ratio sits too close to the 5x acceptance bar to gate on reliably.
    parser.add_argument("--nodes", type=int, default=20_000)
    parser.add_argument("--attach", type=int, default=5, help="edges per new node")
    parser.add_argument("--targets", type=int, default=50)
    parser.add_argument(
        "--motif",
        default="rectri",
        help="rectri by default: triangle + rectangle enumeration makes the "
        "per-query index rebuild the legacy flow pays clearly measurable",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_service_throughput.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run(args)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    n = report["config"]["num_requests"]
    print(
        f"{n} requests over {report['config']['methods'].__len__()} methods "
        f"(cpus={report['available_cpus']}):"
    )
    print(
        f"  rebuild-per-call: {report['rebuild_seconds']:8.3f}s  "
        f"({report['rebuild_qps']:7.2f} q/s)"
    )
    print(
        f"  shared serial:    {report['shared_seconds']:8.3f}s  "
        f"({report['shared_qps']:7.2f} q/s, build {report['index_build_seconds']:.3f}s)  "
        f"speedup {report['shared_vs_rebuild_speedup']:.2f}x "
        f"(target >= {SHARED_SPEEDUP_TARGET}x, met={report['shared_speedup_met']})"
    )
    by_path = report["index_build_seconds_by_path"]
    print(
        f"  index build by path: rebuild total {by_path['rebuild_total']:.3f}s, "
        f"shared {by_path['shared']:.3f}s"
    )
    print(f"  traces agree across both paths: {report['traces_agree']}")
    print(f"report written to {args.output}")
    return 0 if report["traces_agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
