"""Incremental index-update benchmark (emits ``BENCH_index_update.json``).

A live serving session sees its graph change a few edges at a time;
rebuilding the whole :class:`~repro.motifs.enumeration.TargetSubgraphIndex`
for every update re-enumerates every target.  ``apply_delta``
(:mod:`repro.motifs.updates`) splices only the motif instances incident to
the changed edges.  This benchmark measures, per built-in motif and per
delta size (1, 10 and 100 edges, half deletions / half insertions), the
absolute microseconds of ``apply_delta``: the lowest, over five rounds that
sweep every cell in turn, of a round's p50 of ``--repeats`` applications.
Random deltas rarely come near a target, so each motif also gets a
*near-target* cell shaped like the serving benchmark's live-updates delta:
ten edges, half deletions and half insertions, half of them at a target
endpoint.  Those cells time the re-enumeration walk that the random ones
skip, and the ``near_target_deltas_change_targets`` flag fails unless each
of them re-enumerates and changes at least one target::

    us           index.apply_delta(delta)                                  (gated)
    rebuild_us   TargetSubgraphIndex(updated_phase1_graph, targets, motif) (context)

and verifies the applied index is **bit identical** to the rebuild (all ten
flat arrays, the per-target ranges and the candidate list compared by
bytes) and that SGB greedy runs on a delta-updated session and a
rebuilt-from-scratch session produce identical protector traces — the
benchmark doubles as a differential test and exits non-zero on any
mismatch.

Each cell ``"<motif> x<size> delta"`` (and ``"<motif> near-target x10
delta"``) carries its ``us`` next to a ``ceiling_us``: the committed
report's ceilings are what ``check_bench_regression.py`` gates a fresh run
on, together with the three identity flags (``deltas_identical``,
``greedy_traces_agree``, ``near_target_deltas_change_targets``).  The
rebuild is timed once, for context only.  ``harness.py`` has the report
schema.

Run with::

    PYTHONPATH=src python benchmarks/bench_index_update.py                   # committed scale
    PYTHONPATH=src python benchmarks/bench_index_update.py --nodes 2000 --targets 20 --repeats 3
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import harness  # noqa: E402
from repro._native import native_available  # noqa: E402
from repro.core.model import TPPProblem  # noqa: E402
from repro.datasets.targets import sample_degree_weighted_targets  # noqa: E402
from repro.graphs.generators import powerlaw_cluster_graph  # noqa: E402
from repro.graphs.graph import canonical_edge  # noqa: E402
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex  # noqa: E402
from repro.motifs.updates import EdgeDelta  # noqa: E402
from repro.service import ProtectionRequest, ProtectionService  # noqa: E402

#: Timing rounds per cell; a cell reports its lowest round p50.
DELTA_ROUNDS = 5

#: Edges in a near-target delta (half deletions, half insertions).
NEAR_TARGET_EDGES = 10

#: Ceilings (µs) on the p50 ``apply_delta`` time of each (motif, delta size)
#: cell at the committed configuration, ``"near"`` for the near-target
#: cell: twice the maximum of five runs of unchanged code on a 2-CPU x86-64
#: box, rounded up to two significant figures (the spreads are recorded in
#: CHANGES.md).
DELTA_CEILING_US = {
    "triangle": {1: 6100, 10: 6500, 100: 11000, "near": 6900},
    "rectangle": {1: 7700, 10: 8000, 100: 13000, "near": 8600},
    "rectri": {1: 7000, 10: 7200, 100: 12000, "near": 7600},
}


def _fingerprint(index: TargetSubgraphIndex) -> tuple:
    arrays = tuple(getattr(index, name).tobytes() for name in INDEX_ARRAY_FIELDS)
    return arrays + (index._target_ranges, index._candidate_ids)


def _trace(result) -> tuple:
    return result.protectors, result.similarity_trace


def _make_delta(phase1, targets, size: int, rng: random.Random) -> EdgeDelta:
    """Build a mixed delta: ``size // 2`` deletions + the rest insertions."""
    target_set = {canonical_edge(*target) for target in targets}
    candidates = [
        edge for edge in phase1.edges() if canonical_edge(*edge) not in target_set
    ]
    deletions = rng.sample(candidates, size // 2)
    nodes = list(phase1.nodes())
    insertions: List[tuple] = []
    taken = set(deletions)
    while len(insertions) < size - size // 2:
        u, v = rng.sample(nodes, 2)
        edge = canonical_edge(u, v)
        if edge in target_set or edge in taken or phase1.has_edge(*edge):
            continue
        taken.add(edge)
        insertions.append(edge)
    return EdgeDelta.from_edges(insert=insertions, delete=deletions)


def _make_near_target_delta(phase1, targets, rng: random.Random) -> EdgeDelta:
    """Build a delta like the serving benchmark's live-updates one: half
    deletions, half insertions, and every other edge at a target endpoint
    (the even positions of the whole edge sequence).  A deletion there
    drops a random edge of the endpoint; an insertion there joins the
    endpoint to a neighbour of the target's other endpoint, closing a
    triangle on the target as a new link usually does, so every motif's
    walk has new instances to find."""
    size = NEAR_TARGET_EDGES
    targets = sorted(canonical_edge(*target) for target in targets)
    target_set = set(targets)
    endpoints = sorted({x for target in targets for x in target})
    nodes = sorted(phase1.nodes())
    edges: List[tuple] = []
    while len(edges) < size:
        position = len(edges)
        near = position % 2 == 0
        if position < size // 2:
            u = rng.choice(endpoints if near else nodes)
            neighbours = sorted(phase1.neighbors(u))
            if not neighbours:
                continue
            edge = canonical_edge(u, rng.choice(neighbours))
        else:
            if near:
                u, v = rng.sample(rng.choice(targets), 2)
                neighbours = sorted(phase1.neighbors(v))
                if not neighbours:
                    continue
                w = rng.choice(neighbours)
            else:
                u, w = rng.choice(nodes), rng.choice(nodes)
            if u == w or phase1.has_edge(u, w):
                continue
            edge = canonical_edge(u, w)
        if edge not in target_set and edge not in edges:
            edges.append(edge)
    return EdgeDelta.from_edges(insert=edges[size // 2 :], delete=edges[: size // 2])


def run(args: argparse.Namespace) -> dict:
    graph = powerlaw_cluster_graph(args.nodes, args.attach, 0.4, seed=args.seed)
    targets = [
        canonical_edge(*target)
        for target in sample_degree_weighted_targets(graph, args.targets, seed=args.seed)
    ]

    cells = []
    for motif in args.motifs:
        problem = TPPProblem(graph, targets, motif=motif)
        index = problem.build_index()
        for size in args.delta_sizes:
            rng = random.Random(args.seed * 1_000 + size)
            delta = _make_delta(problem.phase1_graph, targets, size, rng)
            cells.append((motif, size, problem, index, delta))
        rng = random.Random(f"{args.seed}/near-target")
        delta = _make_near_target_delta(problem.phase1_graph, targets, rng)
        cells.append((motif, "near", problem, index, delta))

    def timed(index, delta):
        return lambda: index.apply_delta(delta)

    seconds = harness.round_p50s(
        {(motif, size): timed(index, delta) for motif, size, _, index, delta in cells},
        rounds=DELTA_ROUNDS,
        samples=args.repeats,
    )

    report_cells = {}
    all_identical = True
    traces_agree = True
    near_targets_changed = True
    for motif, size, problem, index, delta in cells:
        outcome = index.apply_delta(delta)
        # the updated phase-1 graph, built outside the timed rebuild
        updated_phase1 = problem.phase1_graph.copy()
        for u, v in delta.deleted:
            updated_phase1.remove_edge(u, v)
        for u, v in delta.inserted:
            updated_phase1.add_edge(u, v)

        started = time.perf_counter()
        rebuilt = TargetSubgraphIndex(updated_phase1, targets, motif)
        rebuild_seconds = time.perf_counter() - started

        identical = _fingerprint(outcome.index) == _fingerprint(rebuilt)

        # greedy differential: a delta-updated session vs a session built
        # from scratch on the updated graph must answer identically
        applied_problem, _ = problem.apply_delta(delta)
        applied_service = ProtectionService(applied_problem)
        updated_graph = updated_phase1.copy()
        updated_graph.add_edges_from(targets)
        rebuilt_service = ProtectionService(
            TPPProblem(
                updated_graph,
                targets,
                motif=motif,
                constant=applied_problem.constant,
            )
        )
        budget = max(1, outcome.index.number_of_instances() // 4)
        request = ProtectionRequest("SGB-Greedy", budget)
        trace_agrees = _trace(applied_service.solve(request)) == _trace(
            rebuilt_service.solve(request)
        )

        all_identical = all_identical and identical
        traces_agree = traces_agree and trace_agrees
        if size == "near":
            near_targets_changed = (
                near_targets_changed
                and outcome.targets_reenumerated > 0
                and len(outcome.changed_targets) > 0
            )
        name = (
            f"{motif} near-target x{NEAR_TARGET_EDGES} delta"
            if size == "near"
            else f"{motif} x{size} delta"
        )
        report_cells[name] = {
            "us": harness.us(seconds[motif, size]),
            "ceiling_us": DELTA_CEILING_US.get(motif, {}).get(size),
            "inserts": len(delta.inserted),
            "deletes": len(delta.deleted),
            "instances_before": index.number_of_instances(),
            "instances_after": outcome.index.number_of_instances(),
            "changed_targets": len(outcome.changed_targets),
            "targets_reenumerated": outcome.targets_reenumerated,
            "rebuild_us": harness.us(rebuild_seconds),
            "identical": identical,
            "greedy_trace_agrees": trace_agrees,
        }

    return harness.report(
        "index_update",
        instance={
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "attach": args.attach,
            "targets": len(targets),
            "seed": args.seed,
            "delta_sizes": list(args.delta_sizes),
            "near_target_edges": NEAR_TARGET_EDGES,
            "motifs": list(args.motifs),
        },
        harness={"repeats": args.repeats, "rounds": DELTA_ROUNDS},
        native_available=native_available(),
        identity={
            "deltas_identical": all_identical,
            "greedy_traces_agree": traces_agree,
            "near_target_deltas_change_targets": near_targets_changed,
        },
        cells=report_cells,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=20_000)
    parser.add_argument("--attach", type=int, default=5, help="edges per new node")
    parser.add_argument("--targets", type=int, default=100)
    parser.add_argument(
        "--delta-sizes",
        type=int,
        nargs="+",
        default=[1, 10, 100],
        help="edges per delta (half deletions, half insertions)",
    )
    parser.add_argument(
        "--motifs",
        nargs="+",
        default=["triangle", "rectangle", "rectri"],
        help="motifs to benchmark (each measured separately)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats",
        type=int,
        default=15,
        help="delta applications per cell and round (p50)",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_index_update.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run(args)
    harness.write(report, args.output)

    instance = report["config"]["instance"]
    print(
        f"index update at n={instance['nodes']}, m={instance['edges']}, "
        f"|T|={instance['targets']}:"
    )
    for name, cell in report["cells"].items():
        print(
            f"  {name:>30}: delta p50 {cell['us']:9.1f} us "
            f"(ceiling {cell['ceiling_us']})  rebuild {cell['rebuild_us']:10.1f} us  "
            f"reenum={cell['targets_reenumerated']} "
            f"identical={cell['identical']} trace={cell['greedy_trace_agrees']}"
        )
    print(f"identity: {report['identity']}; report written to {args.output}")
    ok = all(report["identity"].values())
    if not ok:
        print("ERROR: delta application disagrees with a rebuild — see the report", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
