"""Index-snapshot cold-start benchmark (emits ``BENCH_snapshot.json``).

A :class:`~repro.service.ProtectionService` session built from a graph
pays its whole startup in target-subgraph enumeration; a snapshot written
by ``TPPProblem.save_index`` / ``repro-tpp build-index`` turns that into a
file read.  Per built-in motif, the cell ``"<motif> load"`` records the
absolute µs to a **first answered query** from the snapshot::

    us        ProtectionService.from_snapshot(path) + one SGB solve  (gated)
    build_us  ProtectionService(graph, targets, motif) + the same solve
              (informational: the path a snapshot saves)

each the lowest of ``--repeats`` rounds that sweep every cell in turn.

Identity flags (see ``harness.py`` for the report schema):

    snapshots_identical  the restored index has the built one's
                         INDEX_ARRAY_FIELDS bytes, target ranges and
                         candidate ids
    greedy_traces_agree  the two sessions' first answers have the same
                         protector trace and initial similarity

The script exits non-zero if either flag is false.  Run with::

    PYTHONPATH=src python benchmarks/bench_snapshot.py                  # committed scale
    PYTHONPATH=src python benchmarks/bench_snapshot.py --nodes 2000 --targets 20 --repeats 1
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import harness  # noqa: E402
from repro._native import native_available  # noqa: E402
from repro.datasets.targets import sample_degree_weighted_targets  # noqa: E402
from repro.graphs.generators import powerlaw_cluster_graph  # noqa: E402
from repro.graphs.graph import canonical_edge  # noqa: E402
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex  # noqa: E402
from repro.service import ProtectionRequest, ProtectionService  # noqa: E402

#: Ceilings (µs) on each motif's load-to-first-answer at the committed
#: configuration: twice the maximum of six runs of unchanged code on a
#: 2-CPU x86-64 box, rounded up to two significant figures (the spreads are
#: recorded in CHANGES.md).
LOAD_CEILING_US = {"triangle": 26000, "rectangle": 32000, "rectri": 35000}


def _fingerprint(index: TargetSubgraphIndex) -> tuple:
    arrays = tuple(getattr(index, name).tobytes() for name in INDEX_ARRAY_FIELDS)
    return arrays + (index._target_ranges, index._candidate_ids)


def _answer(result) -> tuple:
    return result.protectors, result.similarity_trace, result.initial_similarity


def run(args: argparse.Namespace, workdir: Path) -> dict:
    graph = powerlaw_cluster_graph(args.nodes, args.attach, 0.4, seed=args.seed)
    targets = [
        canonical_edge(*target)
        for target in sample_degree_weighted_targets(graph, args.targets, seed=args.seed)
    ]

    # one snapshot per motif, and the budget its first query asks for
    paths, requests, save_seconds = {}, {}, {}
    for motif in args.motifs:
        service = ProtectionService(graph, targets, motif=motif)
        budget = max(1, service.index.number_of_instances() // 4)
        requests[motif] = ProtectionRequest("SGB-Greedy", budget)
        paths[motif] = workdir / f"{motif}.tppsnap"
        started = time.perf_counter()
        service.problem.save_index(paths[motif])
        save_seconds[motif] = time.perf_counter() - started

    sessions, answers = {}, {}

    def build(motif):
        def first_answer():
            service = ProtectionService(graph, targets, motif=motif)
            answers[motif, "build"] = _answer(service.solve(requests[motif]))
            sessions[motif, "build"] = service

        return first_answer

    def load(motif):
        def first_answer():
            service = ProtectionService.from_snapshot(paths[motif])
            answers[motif, "load"] = _answer(service.solve(requests[motif]))
            sessions[motif, "load"] = service

        return first_answer

    timed = {}
    for motif in args.motifs:
        timed[motif, "build"] = build(motif)
        timed[motif, "load"] = load(motif)
    seconds = harness.round_p50s(timed, rounds=args.repeats, samples=1)

    cells = {}
    snapshots_identical = True
    traces_agree = True
    for motif in args.motifs:
        built, loaded = sessions[motif, "build"], sessions[motif, "load"]
        snapshots_identical = snapshots_identical and (
            _fingerprint(loaded.index) == _fingerprint(built.index)
        )
        traces_agree = traces_agree and (
            answers[motif, "load"] == answers[motif, "build"]
        )
        cells[f"{motif} load"] = {
            "us": harness.us(seconds[motif, "load"]),
            "ceiling_us": LOAD_CEILING_US.get(motif),
            "build_us": harness.us(seconds[motif, "build"]),
            "save_us": harness.us(save_seconds[motif]),
            "snapshot_bytes": paths[motif].stat().st_size,
            "instances": built.index.number_of_instances(),
            "budget": requests[motif].budget,
        }

    return harness.report(
        "snapshot",
        instance={
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "attach": args.attach,
            "targets": len(targets),
            "seed": args.seed,
            "motifs": list(args.motifs),
        },
        harness={"repeats": args.repeats},
        native_available=native_available(),
        identity={
            "snapshots_identical": snapshots_identical,
            "greedy_traces_agree": traces_agree,
        },
        cells=cells,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=12_000)
    parser.add_argument("--attach", type=int, default=5, help="edges per new node")
    parser.add_argument("--targets", type=int, default=100)
    parser.add_argument(
        "--motifs",
        nargs="+",
        default=["triangle", "rectangle", "rectri"],
        help="motifs to benchmark (each measured separately)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats", type=int, default=5, help="rounds per cell (lowest reported)"
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_snapshot.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench_snapshot_") as workdir:
        report = run(args, Path(workdir))
    harness.write(report, args.output)

    instance = report["config"]["instance"]
    print(
        f"snapshot cold start at n={instance['nodes']}, m={instance['edges']}, "
        f"|T|={instance['targets']} (native={report['native_available']}):"
    )
    for name, cell in report["cells"].items():
        print(
            f"  {name:>15}: load+solve {cell['us']:10.1f} us "
            f"(ceiling {cell['ceiling_us']})  build+solve {cell['build_us']:10.1f} us  "
            f"save {cell['save_us']:.0f} us  {cell['snapshot_bytes']} bytes"
        )
    print(f"identity: {report['identity']}; report written to {args.output}")
    ok = all(report["identity"].values())
    if not ok:
        print("ERROR: snapshot round trip disagrees — see the report", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
