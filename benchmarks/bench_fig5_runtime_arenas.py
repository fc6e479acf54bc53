"""Figure 5: running time of naive vs scalable greedy (Arenas-email).

The paper reports the naive SGB/CT/WT-Greedy to be roughly 20x slower than
their -R counterparts on Arenas-email.  Here each (algorithm, engine, motif)
combination is its own pytest-benchmark case, so ``--benchmark-only`` output
directly shows the naive-vs-scalable gap; the assertions only check that the
protector selections agree, the timing comparison is the benchmark itself.

Two engines are timed: ``recount`` (naive) and ``coverage`` (the
incremental coverage kernel, -R), so the paper's naive-vs-scalable gap
falls out of one run.
"""

from __future__ import annotations

import pytest

from repro.core.ct import ct_greedy
from repro.core.model import TPPProblem
from repro.core.sgb import sgb_greedy
from repro.core.wt import wt_greedy

BUDGET = 5

ALGORITHMS = {
    "SGB-Greedy": lambda problem, engine: sgb_greedy(problem, BUDGET, engine=engine),
    "CT-Greedy:TBD": lambda problem, engine: ct_greedy(
        problem, BUDGET, budget_division="tbd", engine=engine
    ),
    "WT-Greedy:TBD": lambda problem, engine: wt_greedy(
        problem, BUDGET, budget_division="tbd", engine=engine
    ),
}


@pytest.mark.parametrize("motif", ["triangle", "rectangle", "rectri"])
@pytest.mark.parametrize("engine", ["coverage", "recount"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_fig5_selection_runtime(
    benchmark, arenas_graph, arenas_targets, motif, engine, algorithm
):
    problem = TPPProblem(arenas_graph, arenas_targets, motif=motif)
    problem.build_index()  # enumeration shared by both engines, as in Lemma 5
    runner = ALGORITHMS[algorithm]

    result = benchmark.pedantic(lambda: runner(problem, engine), rounds=1, iterations=1)

    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["budget_used"] = result.budget_used
    benchmark.extra_info["final_similarity"] = result.final_similarity

    # both engines must reach the same protection level for the same budget
    reference = runner(problem, "coverage")
    assert result.final_similarity == reference.final_similarity
