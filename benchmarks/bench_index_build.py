"""Index-construction benchmark (emits ``BENCH_index_build.json``).

Session build — ``IndexedGraph`` snapshot, target-subgraph enumeration and
instance-CSR assembly — is what every
:class:`~repro.service.ProtectionService` session built from a graph pays
before its first answer: the paper's scalable methods rest on building this
index once.  Per built-in motif, on a DBLP-shaped synthetic graph, the cell
``"<motif> build"`` records the absolute µs of
``TargetSubgraphIndex(phase1_graph, targets, motif)``: the lowest of
``--repeats`` builds, each round sweeping every cell in turn.  With the
native kernel loaded the paper's motif walks and passes 2-3 run in C, and
that is the gated ``us``; the numpy fallback's build (Python walks, numpy
counting sorts — what runs under ``REPRO_NATIVE=0``) is recorded next to it
as ``numpy_us``, informational.

Identity flags (see ``harness.py`` for the report schema):

    builds_identical     the native and numpy builds have the same
                         INDEX_ARRAY_FIELDS bytes, target ranges and
                         candidate ids
    greedy_traces_agree  SGB greedy on either build gives the same
                         protector trace

The script exits non-zero if either flag is false.  Run with::

    PYTHONPATH=src python benchmarks/bench_index_build.py                  # committed scale
    PYTHONPATH=src python benchmarks/bench_index_build.py --nodes 2000 --targets 20 --repeats 1
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import harness  # noqa: E402
from repro._native import native_available  # noqa: E402
from repro.core.engines import CoverageEngine  # noqa: E402
from repro.core.model import TPPProblem  # noqa: E402
from repro.core.sgb import sgb_greedy  # noqa: E402
from repro.datasets.targets import sample_degree_weighted_targets  # noqa: E402
from repro.graphs.generators import powerlaw_cluster_graph  # noqa: E402
from repro.graphs.graph import canonical_edge  # noqa: E402
from repro.motifs import enumeration  # noqa: E402
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex  # noqa: E402

#: Ceilings (µs) on the native build of each motif at the committed
#: configuration: twice the maximum of six runs of unchanged code on a
#: 2-CPU x86-64 box, rounded up to two significant figures (the spreads are
#: recorded in CHANGES.md).
BUILD_CEILING_US = {"triangle": 190000, "rectangle": 210000, "rectri": 230000}


def _fingerprint(index: TargetSubgraphIndex) -> tuple:
    arrays = tuple(getattr(index, name).tobytes() for name in INDEX_ARRAY_FIELDS)
    return arrays + (index._target_ranges, index._candidate_ids)


def _greedy_trace(problem: TPPProblem, index: TargetSubgraphIndex, budget: int):
    problem.adopt_index(index)
    engine = CoverageEngine(problem, state=index.new_state())
    result = sgb_greedy(problem, budget, engine=engine)
    return result.protectors, result.similarity_trace


def _build(phase1, targets, motif, kernel: str) -> TargetSubgraphIndex:
    """Build on the native index side, or on the numpy fallback's."""
    if kernel == "native":
        return TargetSubgraphIndex(phase1, targets, motif)
    with mock.patch.object(enumeration, "load_kernel", lambda: None):
        return TargetSubgraphIndex(phase1, targets, motif)


def run(args: argparse.Namespace) -> dict:
    graph = powerlaw_cluster_graph(args.nodes, args.attach, 0.4, seed=args.seed)
    targets = [
        canonical_edge(*target)
        for target in sample_degree_weighted_targets(graph, args.targets, seed=args.seed)
    ]
    phase1 = graph.without_edges(targets)
    available = native_available()
    kernels = ("native", "numpy") if available else ("numpy",)

    built = {}

    def timed(motif, kernel):
        def build():
            built[motif, kernel] = _build(phase1, targets, motif, kernel)

        return build

    seconds = harness.round_p50s(
        {
            (motif, kernel): timed(motif, kernel)
            for motif in args.motifs
            for kernel in kernels
        },
        rounds=args.repeats,
        samples=1,
    )

    cells = {}
    builds_identical = True
    traces_agree = True
    for motif in args.motifs:
        indexes = [built[motif, kernel] for kernel in kernels]
        identical = all(_fingerprint(i) == _fingerprint(indexes[0]) for i in indexes)
        problem = TPPProblem(graph, targets, motif=motif)
        budget = max(1, indexes[0].number_of_instances() // 4)
        traces = [_greedy_trace(problem, index, budget) for index in indexes]
        trace_agrees = all(trace == traces[0] for trace in traces)
        builds_identical = builds_identical and identical
        traces_agree = traces_agree and trace_agrees
        cells[f"{motif} build"] = {
            "us": harness.us(seconds[motif, kernels[0]]),
            "ceiling_us": BUILD_CEILING_US.get(motif),
            "numpy_us": harness.us(seconds[motif, "numpy"]),
            "instances": indexes[0].number_of_instances(),
            "candidate_edges": indexes[0].number_of_candidate_edges(),
        }

    return harness.report(
        "index_build",
        instance={
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "attach": args.attach,
            "targets": len(targets),
            "seed": args.seed,
            "motifs": list(args.motifs),
        },
        harness={"repeats": args.repeats},
        native_available=available,
        identity={
            "builds_identical": builds_identical,
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
        help="motifs to build the index for (each measured separately)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats", type=int, default=5, help="builds per cell (lowest reported)"
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_index_build.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run(args)
    harness.write(report, args.output)

    instance = report["config"]["instance"]
    print(
        f"index build at n={instance['nodes']}, m={instance['edges']}, "
        f"|T|={instance['targets']} (native={report['native_available']}):"
    )
    for name, cell in report["cells"].items():
        print(
            f"  {name:>16}: {cell['us']:10.1f} us (ceiling {cell['ceiling_us']})  "
            f"numpy {cell['numpy_us']:10.1f} us  instances={cell['instances']}"
        )
    print(f"identity: {report['identity']}; report written to {args.output}")
    ok = all(report["identity"].values())
    if not ok:
        print("ERROR: builds disagree — see the report", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
