"""Micro-benchmarks of the substrate primitives the algorithms are built on.

These are not paper artefacts; they exist so regressions in the hot paths
(motif enumeration, coverage-state queries, utility metrics) show up in the
benchmark history before they show up as hours added to the figure runs.
"""

from __future__ import annotations

import pytest

from repro.core.model import TPPProblem
from repro.motifs.base import get_motif
from repro.utility.metrics import compute_metrics


@pytest.mark.parametrize("motif", ["triangle", "rectangle", "rectri"])
def test_bench_target_subgraph_enumeration(benchmark, arenas_graph, arenas_targets, motif):
    problem = TPPProblem(arenas_graph, arenas_targets, motif=motif)

    index = benchmark(problem.build_index)
    assert index.initial_total_similarity() == problem.initial_similarity()


@pytest.mark.parametrize("motif", ["triangle", "rectangle"])
def test_bench_similarity_recount(benchmark, arenas_graph, arenas_targets, motif):
    pattern = get_motif(motif)
    phase1 = arenas_graph.without_edges(arenas_targets)

    def recount():
        return sum(pattern.count(phase1, target) for target in arenas_targets)

    total = benchmark(recount)
    assert total >= 0


def test_bench_coverage_gain_queries(benchmark, arenas_graph, arenas_targets):
    """Gain queries: the kernel reads live counters (O(1) per edge)."""
    problem = TPPProblem(arenas_graph, arenas_targets, motif="rectangle")
    index = problem.build_index()
    state = index.new_state()
    candidates = index.candidate_edge_list()

    def query_all():
        return sum(state.gain(edge) for edge in candidates)

    total = benchmark(query_all)
    assert total >= len(candidates) * 0  # non-negative


def test_bench_kernel_candidate_scan(benchmark, arenas_graph, arenas_targets):
    """Live-candidate enumeration from the gain counters (no per-edge rescan)."""
    problem = TPPProblem(arenas_graph, arenas_targets, motif="rectangle")
    state = problem.build_index().new_state()

    candidates = benchmark(state.candidate_edge_list)
    assert candidates


def test_bench_kernel_top_gain_drain(benchmark, arenas_graph, arenas_targets):
    """Heap-backed greedy drain: repeatedly pop the max-gain edge and delete it
    (the inner loop of the lazy SGB-Greedy-R)."""
    problem = TPPProblem(arenas_graph, arenas_targets, motif="rectangle")
    index = problem.build_index()

    def drain():
        state = index.new_state()
        deletions = 0
        while True:
            top = state.top_gain_edge()
            if top is None:
                break
            state.delete_edge(top[0])
            deletions += 1
        return deletions

    deletions = benchmark.pedantic(drain, rounds=1, iterations=1)
    assert deletions > 0


def test_bench_scalable_utility_metrics(benchmark, dblp_graph):
    values = benchmark.pedantic(
        lambda: compute_metrics(dblp_graph, metrics=("clust", "cn")),
        rounds=1,
        iterations=1,
    )
    assert set(values) == {"clust", "cn"}
