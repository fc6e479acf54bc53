"""Coverage kernel micro-benchmark (emits ``BENCH_engine_kernel.json``).

Records absolute native-kernel timings, each next to the numpy fallback's
(reported, not gated) and next to the ceiling the regression gate holds it
to::

    PYTHONPATH=src python benchmarks/bench_engine_kernel.py              # 10k nodes
    PYTHONPATH=src python benchmarks/bench_engine_kernel.py --nodes 2000 # CI smoke

The first section times the three state-level hot loops — the SGB-style
validated-top walk, the CT-style batched pair sweep, and the WT-style
single-target pair walk — on a dense graph where the kernel work (not
Python orchestration) dominates, with a best-of-N harness and a
minimum-total-walltime floor: a measurement repeats until it has both
``--repeats`` runs *and* ``--min-seconds`` of accumulated wall-clock, then
reports the minimum in microseconds.  Sub-millisecond loops therefore
accumulate hundreds of runs and the reported minimum is stable against
scheduler noise.  The native and numpy loops must land on identical
similarities (``native_loops_agree``).

The second section times whole ``ProtectionService.solve`` calls (SGB,
CT:TBD, WT:TBD at 5-30% of the initial similarity) on the serving
benchmark's 12k-node instance (scaled down with ``--nodes`` below the
default 10k), in absolute microseconds: the minimum over five rounds of
each round's p50 of 15 solves per cell.  The rounds sweep every cell in
turn, so a host slowdown of a few seconds lands in one round of a cell,
not in all of its samples.  The two kernels' results must be identical in
every field but the runtime (``whole_solves_identical``).

Each cell's ``us`` is the native timing and carries a ``ceiling_us``: the
committed report's ceilings are what ``check_bench_regression.py`` gates a
fresh run on (``harness.py`` has the report schema).  Without the native
kernel (no compiler, or ``REPRO_NATIVE=0``) only the numpy timings are
taken, ``us`` is the numpy one and the ceilings do not apply.  The script
exits non-zero if the two kernels disagree on any loop or whole solve, so
it doubles as a large-instance differential test.  The paper's naive vs
``-R`` runtime comparison lives in ``bench_fig5_runtime_arenas.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import harness  # noqa: E402
from repro._native import native_available  # noqa: E402
from repro.core.model import TPPProblem  # noqa: E402
from repro.datasets.targets import sample_degree_weighted_targets  # noqa: E402
from repro.graphs.generators import powerlaw_cluster_graph  # noqa: E402
from repro.service import ProtectionRequest, ProtectionService  # noqa: E402

#: The default ``--nodes``: the scale the committed report is measured at.
DEFAULT_NODES = 10_000

#: The whole-solve section's instance (the serving benchmark's, at
#: DEFAULT_NODES) and sampling.
SOLVE_NODES = 12_000
SOLVE_TARGETS = 100
SOLVE_BUDGET_FRACTIONS = (0.05, 0.1, 0.15, 0.2, 0.3)
SOLVE_METHODS = ("SGB-Greedy", "CT-Greedy:TBD", "WT-Greedy:TBD")
SOLVE_SAMPLES = 15
SOLVE_ROUNDS = 5

#: Ceilings (µs) on the native timings at the committed configuration:
#: twice the maximum of six runs of unchanged kernel code on a 2-CPU
#: x86-64 box, rounded up to two significant figures (the spreads are
#: recorded in CHANGES.md).  The numpy fallback is above every ceiling.
NATIVE_LOOP_CEILING_US = {"sgb": 7300, "ct": 26000, "wt": 6800}

#: Per method, one ceiling per SOLVE_BUDGET_FRACTIONS entry, derived the
#: same way from six runs of the five-round harness.
WHOLE_SOLVE_CEILING_US = {
    "SGB-Greedy": (730, 1400, 1800, 2100, 2400),
    "CT-Greedy:TBD": (2500, 3100, 6200, 5700, 6900),
    "WT-Greedy:TBD": (1900, 2700, 3200, 3800, 3800),
}


def _native_loops(index, budget: int):
    """The three state-level hot loops, parameterised by the kernel.

    Each loop drives the public ``CoverageState`` API exactly the way the
    corresponding greedy method does: SGB validates the global max-gain
    heap, CT sweeps the batched cross-target pair argmax, WT walks one
    target's pair heap to exhaustion before moving on.
    """
    constant = index.number_of_instances() + 1
    all_targets = list(index.targets)

    def sgb_loop(state):
        for _ in range(budget):
            top = state.top_gain_edge()
            if top is None:
                break
            state.delete_edge(top[0])
        return state.total_similarity()

    def ct_loop(state):
        for _ in range(budget // 2):
            best = state.best_scored_pair(all_targets, constant)
            if best is None:
                break
            state.delete_edge(best[2])
        return state.total_similarity()

    def wt_loop(state):
        done = 0
        for target in all_targets:
            while done < budget:
                best = state.best_scored_pair((target,), constant)
                if best is None:
                    break
                state.delete_edge(best[2])
                done += 1
            if done >= budget:
                break
        return state.total_similarity()

    return {"sgb": sgb_loop, "ct": ct_loop, "wt": wt_loop}


def run_native_section(
    args: argparse.Namespace, kernels: Tuple[str, ...]
) -> Tuple[dict, dict, bool]:
    """Time the kernel loops on every available kernel (best-of-N).

    Returns the section's instance config, its cells and whether the
    kernels landed on the same similarities.
    """
    graph = powerlaw_cluster_graph(
        args.nodes, args.native_attach, 0.4, seed=args.seed
    )
    targets = sample_degree_weighted_targets(
        graph, args.native_targets, seed=args.seed
    )
    problem = TPPProblem(graph, targets, motif=args.motif)
    index = problem.build_index()
    instance = {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "attach": args.native_attach,
        "targets": len(targets),
        "motif": args.motif,
        "budget": args.native_budget,
        "seed": args.seed,
        "instances": index.number_of_instances(),
        "candidate_edges": index.number_of_candidate_edges(),
    }

    cells = {}
    loops_agree = True
    for label, loop in _native_loops(index, args.native_budget).items():
        seconds = {}
        similarity = {}
        for kernel in kernels:

            def timed(run=loop, kernel=kernel):
                similarity[kernel] = run(index.new_state(kernel=kernel))

            seconds[kernel] = harness.best_of(timed, args.repeats, args.min_seconds)
        agree = len(set(similarity.values())) == 1
        loops_agree = loops_agree and agree
        cells[f"{label} loop"] = {
            "us": harness.us(seconds[kernels[0]]),
            "ceiling_us": NATIVE_LOOP_CEILING_US[label],
            "numpy_us": harness.us(seconds["numpy"]),
            "final_similarity": similarity["numpy"],
            "kernels_agree": agree,
        }
    return instance, cells, loops_agree


def run_whole_solve_section(
    args: argparse.Namespace, kernels: Tuple[str, ...]
) -> Tuple[dict, dict, bool]:
    """Time whole ``ProtectionService.solve`` calls on every available kernel.

    At the default scale the instance is the serving benchmark's
    (``perfbench``): a powerlaw-cluster graph of :data:`SOLVE_NODES`
    nodes (attach 5, seed 0), :data:`SOLVE_TARGETS` degree-weighted
    targets, rectangle motif.  ``--nodes`` scales the node and target
    counts by ``nodes / DEFAULT_NODES`` (never up), so a smoke run stays
    small.  Per method and budget (:data:`SOLVE_BUDGET_FRACTIONS` of the
    initial similarity) the minimum over :data:`SOLVE_ROUNDS` rounds of the
    p50 of :data:`SOLVE_SAMPLES` solves is recorded in absolute
    microseconds — the state copy, the selection and the result
    construction, as a session serves it.  Returns the section's instance
    config, its cells and whether the kernels' results were identical in
    every field but the runtime.
    """
    scale = min(1.0, args.nodes / DEFAULT_NODES)
    graph = powerlaw_cluster_graph(round(SOLVE_NODES * scale), 5, 0.4, seed=0)
    targets = sample_degree_weighted_targets(
        graph, max(5, round(SOLVE_TARGETS * scale)), seed=0
    )
    problem = TPPProblem(graph, targets, motif="rectangle")
    sessions = {kernel: ProtectionService(problem, kernel=kernel) for kernel in kernels}
    initial = sessions[kernels[0]].pristine_similarity()
    budgets = [max(1, int(initial * fraction)) for fraction in SOLVE_BUDGET_FRACTIONS]
    instance = {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "targets": len(targets),
        "motif": "rectangle",
        "instances": initial,
        "budget_fractions": list(SOLVE_BUDGET_FRACTIONS),
        "budgets": budgets,
    }
    answers = {}

    def timed(method, position, kernel):
        request = ProtectionRequest(method, budgets[position])

        def solve():
            answers[method, position, kernel] = sessions[kernel].solve(request)

        return solve

    seconds = harness.round_p50s(
        {
            (method, position, kernel): timed(method, position, kernel)
            for method in SOLVE_METHODS
            for position in range(len(budgets))
            for kernel in kernels
        },
        rounds=SOLVE_ROUNDS,
        samples=SOLVE_SAMPLES,
    )
    cells = {}
    identical = True
    for method in SOLVE_METHODS:
        for position, fraction in enumerate(SOLVE_BUDGET_FRACTIONS):
            fields = [
                answers[method, position, kernel].reproducible_fields()
                for kernel in kernels
            ]
            agree = all(field == fields[0] for field in fields)
            identical = identical and agree
            cells[f"{method} solve at {fraction:.0%}"] = {
                "us": harness.us(seconds[method, position, kernels[0]]),
                "ceiling_us": WHOLE_SOLVE_CEILING_US[method][position],
                "numpy_us": harness.us(seconds[method, position, "numpy"]),
                "budget": budgets[position],
                "identical": agree,
            }
    return instance, cells, identical


def run(args: argparse.Namespace) -> dict:
    available = native_available()
    kernels = ("native", "numpy") if available else ("numpy",)
    loops_instance, loop_cells, loops_agree = run_native_section(args, kernels)
    solve_instance, solve_cells, identical = run_whole_solve_section(args, kernels)
    return harness.report(
        "engine_kernel",
        instance={"loops": loops_instance, "whole_solve": solve_instance},
        harness={
            "repeats": args.repeats,
            "min_seconds": args.min_seconds,
            "samples": SOLVE_SAMPLES,
            "rounds": SOLVE_ROUNDS,
        },
        native_available=available,
        identity={
            "native_loops_agree": loops_agree,
            "whole_solves_identical": identical,
        },
        cells={**loop_cells, **solve_cells},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    parser.add_argument(
        "--motif",
        default="rectangle",
        help="rectangle by default: 3-length paths give the coverage structure "
        "enough instances for the kernel work to dominate",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="minimum timing repetitions per loop measurement; the minimum "
        "wall-clock is reported, which keeps it stable against scheduler "
        "noise",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.5,
        help="minimum accumulated wall-clock per loop measurement: "
        "sub-millisecond loops repeat until this floor is reached, so their "
        "reported minima do not ride on a handful of noisy samples",
    )
    parser.add_argument(
        "--native-attach",
        type=int,
        default=8,
        help="edges per new node for the kernel-loop graph (dense, so kernel "
        "work dominates Python orchestration)",
    )
    parser.add_argument(
        "--native-targets",
        type=int,
        default=250,
        help="degree-weighted targets for the kernel-loop graph",
    )
    parser.add_argument(
        "--native-budget",
        type=int,
        default=400,
        help="deletions per kernel loop (CT uses half: its batched sweep "
        "touches every target per step)",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_engine_kernel.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run(args)
    harness.write(report, args.output)

    for name, cell in report["cells"].items():
        print(
            f"{name:>30}: {cell['us']:9.1f} us (ceiling {cell['ceiling_us']})  "
            f"numpy {cell['numpy_us']:9.1f} us"
        )
    print(f"identity: {report['identity']}; report written to {args.output}")
    return 0 if all(report["identity"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
