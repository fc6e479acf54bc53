"""Ablation: coverage index vs naive recount vs lazy (heap) evaluation.

DESIGN.md calls out the coverage formulation and the optional lazy greedy as
the two implementation choices that make the algorithms scale; this ablation
quantifies each step on the same problem instance (SGB-Greedy, Triangle and
Rectangle motifs, full-protection budget).
"""

from __future__ import annotations

import pytest

from repro.core.model import TPPProblem
from repro.core.sgb import sgb_greedy

VARIANTS = {
    "recount": {"engine": "recount", "lazy": False},
    "coverage": {"engine": "coverage", "lazy": False},
    "coverage+lazy": {"engine": "coverage", "lazy": True},
}


@pytest.mark.parametrize("motif", ["triangle", "rectangle"])
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_ablation_engine_variants(benchmark, arenas_graph, arenas_targets, motif, variant):
    problem = TPPProblem(arenas_graph, arenas_targets, motif=motif)
    problem.build_index()
    budget = problem.initial_similarity() + 1
    options = VARIANTS[variant]

    result = benchmark.pedantic(
        lambda: sgb_greedy(problem, budget, **options), rounds=1, iterations=1
    )

    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["budget_used"] = result.budget_used
    assert result.fully_protected

    # all variants reach full protection with the same number of deletions
    reference = sgb_greedy(problem, budget, engine="coverage")
    assert result.budget_used == reference.budget_used
