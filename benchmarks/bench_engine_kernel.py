"""Old-vs-new coverage engine micro-benchmark (emits ``BENCH_engine_kernel.json``).

Times the scalable greedy algorithms end-to-end on a generated synthetic
graph twice per method: once on the incremental array kernel
(``engine="coverage"``, the default) and once on the seed's hash-set state
(``engine="coverage-set"``), then writes the wall-clocks and speedups to a
JSON file so future PRs can track the trajectory::

    PYTHONPATH=src python benchmarks/bench_engine_kernel.py              # 10k nodes
    PYTHONPATH=src python benchmarks/bench_engine_kernel.py --nodes 2000 # CI smoke

A second section benchmarks the *native C kernel* against the numpy
fallback on the three state-level hot loops the ISSUE targets — the
SGB-style validated-top walk, the CT-style batched pair sweep, and the
WT-style single-target pair walk — on a denser graph where the kernel
work (not Python orchestration) dominates.  The native and numpy loops
must land on identical similarities; their best wall-clocks and speedups
are recorded with a ``native_speedup_met`` acceptance flag (target 5x).

A third section times whole ``ProtectionService.solve`` calls (SGB,
CT:TBD, WT:TBD at 5-30% of the initial similarity) on the serving
benchmark's 12k-node instance (scaled down with ``--nodes`` below the
default 10k), on both kernels, as absolute p50 microseconds.  The two kernels' results must be identical in every field
but the runtime (``whole_solves_identical``).

The first two sections time with a best-of-N harness and a
minimum-total-walltime floor (the third reports the p50 of a fixed 15
solves per cell):
a measurement repeats until it has both ``--repeats`` runs *and*
``--min-seconds`` of accumulated wall-clock, then reports the minimum.
Sub-millisecond loops therefore accumulate hundreds of runs and the
reported minimum is stable against scheduler noise, which keeps the 30%
CI regression gate honest.

Target-subgraph enumeration is shared by both engines (exactly as in the
Fig. 5/6 harness) and reported separately; the timed region is protector
selection only.  The script exits non-zero if the two engines disagree on
any protector sequence or the two kernels disagree on any loop or whole
solve, so it doubles as a large-instance differential test.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro._native import native_available  # noqa: E402
from repro.core.model import TPPProblem  # noqa: E402
from repro.datasets.targets import (  # noqa: E402
    sample_degree_weighted_targets,
    sample_random_targets,
)
from repro.graphs.generators import powerlaw_cluster_graph  # noqa: E402
from repro.service import ProtectionRequest, ProtectionService  # noqa: E402

#: The acceptance bar for the SGB end-to-end kernel speedup.
SGB_SPEEDUP_TARGET = 5.0

#: The acceptance bar for the CT end-to-end kernel speedup (the per-(edge,
#: target) counter matrix + per-target heaps; before them CT sat at ~1.4x).
CT_SPEEDUP_TARGET = 3.0

#: The acceptance bar for every native-vs-numpy kernel loop speedup.
NATIVE_SPEEDUP_TARGET = 5.0

#: The default ``--nodes``: the scale the committed report is measured at.
DEFAULT_NODES = 10_000

#: The whole-solve section's instance (the serving benchmark's, at
#: DEFAULT_NODES) and sampling.
SOLVE_NODES = 12_000
SOLVE_TARGETS = 100
SOLVE_BUDGET_FRACTIONS = (0.05, 0.1, 0.15, 0.2, 0.3)
SOLVE_METHODS = ("SGB-Greedy", "CT-Greedy:TBD", "WT-Greedy:TBD")
SOLVE_SAMPLES = 15


def best_of(fn, repeats: int, min_seconds: float) -> float:
    """Return the minimum wall-clock of ``fn`` over a noise-robust sample.

    Runs until both ``repeats`` runs have happened *and* ``min_seconds``
    of total wall-clock has accumulated — cheap measurements repeat many
    times, expensive ones stop at ``repeats``.  The runs are
    deterministic, so the spread is pure scheduler/GC noise and the
    minimum is the robust statistic (the CI regression gate compares
    speedup ratios of these minima).
    """
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


def _methods(budget: int):
    # the set engine runs SGB with lazy=False: that full argmax sweep per step
    # is exactly what the seed's set-based engine executed by default
    return {
        "SGB-Greedy-R": lambda engine: ProtectionRequest(
            "SGB-Greedy", budget, engine=engine, lazy=engine == "coverage"
        ),
        "CT-Greedy-R:TBD": lambda engine: ProtectionRequest(
            "CT-Greedy:TBD", budget, engine=engine
        ),
        "WT-Greedy-R:TBD": lambda engine: ProtectionRequest(
            "WT-Greedy:TBD", budget, engine=engine
        ),
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


def run_native_section(args: argparse.Namespace) -> dict:
    """Benchmark the native kernel loops against the numpy fallback."""
    if not native_available():
        return {
            "available": False,
            "native_speedup_target": NATIVE_SPEEDUP_TARGET,
            "note": "native kernel unavailable (no compiler or REPRO_NATIVE=0); "
            "loops not timed",
        }
    graph = powerlaw_cluster_graph(
        args.nodes, args.native_attach, 0.4, seed=args.seed
    )
    targets = sample_degree_weighted_targets(
        graph, args.native_targets, seed=args.seed
    )
    problem = TPPProblem(graph, targets, motif=args.motif)
    started = time.perf_counter()
    index = problem.build_index()
    enumeration_seconds = time.perf_counter() - started

    section = {
        "available": True,
        "config": {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "attach": args.native_attach,
            "targets": len(targets),
            "motif": args.motif,
            "budget": args.native_budget,
            "seed": args.seed,
            "instances": index.number_of_instances(),
            "candidate_edges": index.number_of_candidate_edges(),
        },
        "enumeration_seconds": round(enumeration_seconds, 6),
        "native_speedup_target": NATIVE_SPEEDUP_TARGET,
        "loops": {},
    }

    loops_agree = True
    min_speedup = float("inf")
    for label, loop in _native_loops(index, args.native_budget).items():
        timings = {}
        similarity = {}

        def timed(kernel_name, run=loop):
            similarity[kernel_name] = run(index.new_state(kernel=kernel_name))

        for kernel_name in ("native", "numpy"):
            timings[kernel_name] = best_of(
                lambda k=kernel_name: timed(k), args.repeats, args.min_seconds
            )
        agree = similarity["native"] == similarity["numpy"]
        loops_agree = loops_agree and agree
        speedup = (
            timings["numpy"] / timings["native"]
            if timings["native"] > 0
            else float("inf")
        )
        min_speedup = min(min_speedup, speedup)
        section["loops"][label] = {
            "native_seconds": round(timings["native"], 6),
            "numpy_seconds": round(timings["numpy"], 6),
            "native_speedup": round(speedup, 2),
            "final_similarity": similarity["native"],
            "kernels_agree": agree,
        }

    section["native_loops_agree"] = loops_agree
    section["min_native_speedup"] = round(min_speedup, 2)
    section["native_speedup_met"] = min_speedup >= NATIVE_SPEEDUP_TARGET
    return section


def run_whole_solve_section(args: argparse.Namespace) -> Tuple[dict, bool]:
    """Time whole ``ProtectionService.solve`` calls on both kernels.

    At the default scale the instance is the serving benchmark's
    (``perfbench``): a powerlaw-cluster graph of :data:`SOLVE_NODES`
    nodes (attach 5, seed 0), :data:`SOLVE_TARGETS` degree-weighted
    targets, rectangle motif.  ``--nodes`` scales the node and target
    counts by ``nodes / DEFAULT_NODES`` (never up), so a smoke run stays
    small.  Per method and budget (:data:`SOLVE_BUDGET_FRACTIONS` of the initial
    similarity) the p50 of :data:`SOLVE_SAMPLES` solves is recorded in
    absolute microseconds — the state copy, the selection and the result
    construction, as a session serves it.  Returns the section and
    whether the two kernels' results were identical in every field but
    the runtime.
    """
    if not native_available():
        return {
            "available": False,
            "note": "native kernel unavailable (no compiler or REPRO_NATIVE=0); "
            "whole solves not timed",
        }, True
    scale = min(1.0, args.nodes / DEFAULT_NODES)
    graph = powerlaw_cluster_graph(round(SOLVE_NODES * scale), 5, 0.4, seed=0)
    targets = sample_degree_weighted_targets(
        graph, max(5, round(SOLVE_TARGETS * scale)), seed=0
    )
    problem = TPPProblem(graph, targets, motif="rectangle")
    sessions = {
        kernel: ProtectionService(problem, kernel=kernel)
        for kernel in ("native", "numpy")
    }
    initial = sessions["native"].pristine_similarity()
    budgets = [max(1, int(initial * fraction)) for fraction in SOLVE_BUDGET_FRACTIONS]
    section = {
        "available": True,
        "config": {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "targets": len(targets),
            "motif": "rectangle",
            "instances": initial,
            "budget_fractions": list(SOLVE_BUDGET_FRACTIONS),
            "budgets": budgets,
            "samples": SOLVE_SAMPLES,
            "cpu_count": os.cpu_count(),
        },
        "methods": {},
    }
    identical = True
    for method in SOLVE_METHODS:
        rows = []
        for budget in budgets:
            request = ProtectionRequest(method, budget)
            row = {"budget": budget}
            answers = {}
            for kernel, service in sessions.items():
                samples = []
                for _ in range(SOLVE_SAMPLES):
                    started = time.perf_counter()
                    answers[kernel] = service.solve(request)
                    samples.append(time.perf_counter() - started)
                row[f"{kernel}_p50_us"] = round(statistics.median(samples) * 1e6, 1)
            row["identical"] = (
                answers["native"].reproducible_fields()
                == answers["numpy"].reproducible_fields()
            )
            identical = identical and row["identical"]
            rows.append(row)
        section["methods"][method] = rows
    return section, identical


def run(args: argparse.Namespace) -> dict:
    graph = powerlaw_cluster_graph(args.nodes, args.attach, 0.4, seed=args.seed)
    sampler = (
        sample_degree_weighted_targets if args.hub_targets else sample_random_targets
    )
    targets = sampler(graph, args.targets, seed=args.seed)
    # the session owns the shared index; its build time is the enumeration
    # cost both engines share (exactly as in the Fig. 5/6 harness)
    service = ProtectionService(TPPProblem(graph, targets, motif=args.motif))
    index = service.index
    enumeration_seconds = service.build_seconds

    report = {
        "config": {
            "nodes": graph.number_of_nodes(),
            "edges": graph.number_of_edges(),
            "targets": len(targets),
            "motif": args.motif,
            "budget": args.budget,
            "seed": args.seed,
            "repeats": args.repeats,
            "min_seconds": args.min_seconds,
            "instances": index.number_of_instances(),
            "candidate_edges": index.number_of_candidate_edges(),
            "cpu_count": os.cpu_count(),
        },
        "enumeration_seconds": round(enumeration_seconds, 6),
        "sgb_speedup_target": SGB_SPEEDUP_TARGET,
        "ct_speedup_target": CT_SPEEDUP_TARGET,
        "methods": {},
    }

    all_agree = True
    for label, make_request in _methods(args.budget).items():
        timings = {}
        results = {}
        for engine_label, engine in (("kernel", "coverage"), ("set", "coverage-set")):
            request = make_request(engine)

            def solve(req=request, key=engine_label):
                results[key] = service.solve(req)

            timings[engine_label] = best_of(solve, args.repeats, args.min_seconds)
        agree = results["kernel"].protectors == results["set"].protectors
        all_agree = all_agree and agree
        report["methods"][label] = {
            "kernel_seconds": round(timings["kernel"], 6),
            "set_seconds": round(timings["set"], 6),
            "speedup": round(timings["set"] / timings["kernel"], 2)
            if timings["kernel"] > 0
            else float("inf"),
            "budget_used": results["kernel"].budget_used,
            "final_similarity": results["kernel"].final_similarity,
            "initial_similarity": results["kernel"].initial_similarity,
            "protectors_agree": agree,
        }

    sgb = report["methods"]["SGB-Greedy-R"]
    report["sgb_speedup"] = sgb["speedup"]
    report["sgb_speedup_met"] = sgb["speedup"] >= SGB_SPEEDUP_TARGET
    ct = report["methods"]["CT-Greedy-R:TBD"]
    report["ct_speedup"] = ct["speedup"]
    report["ct_speedup_met"] = ct["speedup"] >= CT_SPEEDUP_TARGET
    report["all_protectors_agree"] = all_agree

    native = run_native_section(args)
    report["native"] = native
    report["native_available"] = native["available"]
    report["min_native_speedup"] = native.get("min_native_speedup", 0.0)
    report["native_speedup_met"] = native.get("native_speedup_met", False)
    report["native_loops_agree"] = native.get("native_loops_agree", True)

    report["whole_solve"], report["whole_solves_identical"] = run_whole_solve_section(
        args
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES)
    parser.add_argument("--attach", type=int, default=4, help="edges per new node")
    parser.add_argument("--targets", type=int, default=30)
    parser.add_argument("--budget", type=int, default=25)
    parser.add_argument(
        "--motif",
        default="rectangle",
        help="rectangle by default: 3-length paths give the coverage structure "
        "enough instances for the engine gap to be measurable",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="minimum timing repetitions per measurement; the minimum "
        "wall-clock is reported, which keeps the CI regression gate "
        "stable against scheduler noise",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.5,
        help="minimum accumulated wall-clock per measurement: sub-millisecond "
        "loops repeat until this floor is reached, so their reported "
        "minima do not ride on a handful of noisy samples",
    )
    parser.add_argument(
        "--native-attach",
        type=int,
        default=8,
        help="edges per new node for the native-loop graph (denser than the "
        "end-to-end graph so kernel work dominates Python orchestration)",
    )
    parser.add_argument(
        "--native-targets",
        type=int,
        default=250,
        help="degree-weighted targets for the native-loop graph",
    )
    parser.add_argument(
        "--native-budget",
        type=int,
        default=400,
        help="deletions per native kernel loop (CT uses half: its batched "
        "sweep touches every target per step)",
    )
    parser.add_argument(
        "--uniform-targets",
        dest="hub_targets",
        action="store_false",
        help="sample targets uniformly instead of degree-weighted (hub) links; "
        "hub links carry the dense motif neighborhoods the kernel is built "
        "for, so they are the default workload",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_engine_kernel.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = run(args)
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")

    for label, row in report["methods"].items():
        print(
            f"{label:>18}: set {row['set_seconds']:8.3f}s  "
            f"kernel {row['kernel_seconds']:8.3f}s  "
            f"speedup {row['speedup']:6.2f}x  agree={row['protectors_agree']}"
        )
    native = report["native"]
    if native["available"]:
        for label, row in native["loops"].items():
            print(
                f"{'native ' + label:>18}: numpy {row['numpy_seconds']:8.4f}s  "
                f"native {row['native_seconds']:8.4f}s  "
                f"speedup {row['native_speedup']:6.2f}x  "
                f"agree={row['kernels_agree']}"
            )
    else:
        print("native kernel unavailable: loops not timed")
    whole = report["whole_solve"]
    if whole["available"]:
        for method, rows in whole["methods"].items():
            cells = "  ".join(
                f"{row['native_p50_us']:.0f}/{row['numpy_p50_us']:.0f}" for row in rows
            )
            print(f"{'solve ' + method:>18}: native/numpy p50 us {cells}")
        print(f"whole solves identical across kernels: {report['whole_solves_identical']}")
    print(
        f"SGB speedup {report['sgb_speedup']:.2f}x "
        f"(target >= {SGB_SPEEDUP_TARGET}x, met={report['sgb_speedup_met']}); "
        f"CT speedup {report['ct_speedup']:.2f}x "
        f"(target >= {CT_SPEEDUP_TARGET}x, met={report['ct_speedup_met']}); "
        f"native min speedup {report['min_native_speedup']}x "
        f"(target >= {NATIVE_SPEEDUP_TARGET}x, met={report['native_speedup_met']}); "
        f"report written to {args.output}"
    )
    ok = (
        report["all_protectors_agree"]
        and report["native_loops_agree"]
        and report["whole_solves_identical"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
