"""Index-construction benchmark (emits ``BENCH_index_build.json``).

Session build — ``IndexedGraph`` snapshot + target-subgraph enumeration +
flat-array assembly — is the dominant latency of every new
:class:`~repro.service.ProtectionService` session built from a graph.  This
benchmark measures the two construction strategies on a DBLP-shaped
synthetic graph, per built-in motif::

    seed        assembly="python": the seed's element-wise loops (per-node
                neighbor sorts, per-membership CSR cursors, per-slot counter
                walk)
    vectorized  assembly="numpy" (the default): bulk counting sorts
                (np.lexsort / np.argsort / np.bincount / np.cumsum)

and verifies that the vectorized index is **bit identical** to the seed
build (all ten flat arrays compared by bytes) and that an SGB greedy run on
it produces an identical protector trace — the benchmark doubles as a
differential test and exits non-zero on any mismatch.

Acceptance target: the vectorized build is >= 2x the seed build on a single
CPU at the committed scale.

Run with::

    PYTHONPATH=src python benchmarks/bench_index_build.py                  # committed scale
    PYTHONPATH=src python benchmarks/bench_index_build.py --nodes 2000 --targets 20 --repeats 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.engines import CoverageEngine  # noqa: E402
from repro.core.model import TPPProblem  # noqa: E402
from repro.core.sgb import sgb_greedy  # noqa: E402
from repro.datasets.targets import sample_degree_weighted_targets  # noqa: E402
from repro.graphs.generators import powerlaw_cluster_graph  # noqa: E402
from repro.graphs.graph import canonical_edge  # noqa: E402
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex  # noqa: E402

#: Acceptance bar for the vectorized-vs-seed build speedup (single CPU).
VECTORIZED_SPEEDUP_TARGET = 2.0


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _fingerprint(index: TargetSubgraphIndex) -> tuple:
    arrays = tuple(getattr(index, name).tobytes() for name in INDEX_ARRAY_FIELDS)
    return arrays + (index._target_ranges, index._candidate_ids)


def _greedy_trace(problem: TPPProblem, index: TargetSubgraphIndex, budget: int):
    problem.adopt_index(index)
    engine = CoverageEngine(problem, state=index.new_state())
    result = sgb_greedy(problem, budget, engine=engine)
    return result.protectors, result.similarity_trace


def _timed_build(phase1, targets, motif, repeats: int, **kwargs):
    best = float("inf")
    index = None
    for _ in range(repeats):
        started = time.perf_counter()
        index = TargetSubgraphIndex(phase1, targets, motif, **kwargs)
        best = min(best, time.perf_counter() - started)
    return index, best


def run(args: argparse.Namespace) -> dict:
    graph = powerlaw_cluster_graph(args.nodes, args.attach, 0.4, seed=args.seed)
    targets = [
        canonical_edge(*target)
        for target in sample_degree_weighted_targets(graph, args.targets, seed=args.seed)
    ]
    phase1 = graph.without_edges(targets)

    per_motif: Dict[str, dict] = {}
    all_identical = True
    traces_agree = True
    speedups: List[float] = []
    total_seed_seconds = 0.0
    total_vectorized_seconds = 0.0

    for motif in args.motifs:
        seed_index, seed_seconds = _timed_build(
            phase1, targets, motif, args.repeats, assembly="python"
        )
        vec_index, vec_seconds = _timed_build(phase1, targets, motif, args.repeats)
        reference = _fingerprint(seed_index)
        identical = _fingerprint(vec_index) == reference

        problem = TPPProblem(graph, targets, motif=motif)
        budget = max(1, seed_index.number_of_instances() // 4)
        reference_trace = _greedy_trace(problem, seed_index, budget)
        motif_traces_agree = _greedy_trace(problem, vec_index, budget) == reference_trace

        speedup = seed_seconds / vec_seconds if vec_seconds > 0 else float("inf")
        speedups.append(speedup)
        total_seed_seconds += seed_seconds
        total_vectorized_seconds += vec_seconds
        all_identical = all_identical and identical
        traces_agree = traces_agree and motif_traces_agree
        per_motif[motif] = {
            "instances": seed_index.number_of_instances(),
            "candidate_edges": seed_index.number_of_candidate_edges(),
            "seed_seconds": round(seed_seconds, 6),
            "vectorized_seconds": round(vec_seconds, 6),
            "vectorized_speedup": round(speedup, 2),
            "identical": identical,
            "greedy_trace_agrees": motif_traces_agree,
        }

    min_speedup = min(speedups)
    # the acceptance flag gates on the overall (summed) speedup: per-motif
    # builds take a few hundred ms each, where single-run noise swings a
    # per-motif ratio by 20%+ — the sum across motifs is stable enough for CI
    overall_speedup = (
        total_seed_seconds / total_vectorized_seconds
        if total_vectorized_seconds > 0
        else float("inf")
    )
    report = {
        "kind": "index_build",
        "config": {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "targets": len(targets),
            "seed": args.seed,
            "repeats": args.repeats,
            "motifs": list(args.motifs),
            "cpu_count": os.cpu_count(),
        },
        "available_cpus": _available_cpus(),
        "motifs": per_motif,
        "min_vectorized_speedup": round(min_speedup, 2),
        "overall_vectorized_speedup": round(overall_speedup, 2),
        "vectorized_speedup_target": VECTORIZED_SPEEDUP_TARGET,
        "vectorized_speedup_met": overall_speedup >= VECTORIZED_SPEEDUP_TARGET,
        "builds_identical": all_identical,
        "greedy_traces_agree": traces_agree,
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=12_000)
    parser.add_argument("--attach", type=int, default=5, help="edges per new node")
    parser.add_argument("--targets", type=int, default=100)
    parser.add_argument(
        "--motifs",
        nargs="+",
        default=["triangle", "rectangle", "rectri"],
        help="motifs to build the index for (each measured separately)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=5, help="min-of-N timing")
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_index_build.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run(args)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    config = report["config"]
    print(
        f"index build at n={config['nodes']}, m={config['edges']}, "
        f"|T|={config['targets']} (cpus={report['available_cpus']}):"
    )
    for motif, row in report["motifs"].items():
        print(
            f"  {motif:>10}: seed {row['seed_seconds']:6.3f}s  "
            f"vectorized {row['vectorized_seconds']:6.3f}s "
            f"({row['vectorized_speedup']:.2f}x)  "
            f"identical={row['identical']} trace={row['greedy_trace_agrees']}"
        )
    print(
        f"  vectorized speedup: overall "
        f"{report['overall_vectorized_speedup']:.2f}x, per-motif min "
        f"{report['min_vectorized_speedup']:.2f}x "
        f"(target >= {report['vectorized_speedup_target']}x overall, "
        f"met={report['vectorized_speedup_met']})"
    )
    print(f"report written to {args.output}")
    ok = report["builds_identical"] and report["greedy_traces_agree"]
    if not ok:
        print("ERROR: builds disagree — see the report", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
