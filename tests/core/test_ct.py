"""Tests for the CT-Greedy algorithm (Algorithm 2)."""

import pytest

from repro.core.budget import make_budget_division
from repro.core.ct import ct_greedy
from repro.core.model import TPPProblem
from repro.core.sgb import sgb_greedy
from repro.core.verification import verify_result
from repro.exceptions import BudgetError
from repro.graphs.graph import Graph


@pytest.fixture
def problem():
    graph = Graph(
        edges=[
            (0, 1),
            (2, 3),
            (0, 4),
            (1, 4),
            (0, 5),
            (1, 5),
            (2, 6),
            (3, 6),
            (2, 7),
            (3, 7),
        ]
    )
    return TPPProblem(graph, [(0, 1), (2, 3)], motif="triangle")


class TestCTGreedy:
    @pytest.mark.parametrize("division", ["tbd", "dbd", "uniform"])
    def test_respects_sub_budgets(self, problem, division):
        result = ct_greedy(problem, budget=3, budget_division=division)
        assert result.budget_division is not None
        assert result.allocation is not None
        for target, protectors in result.allocation.items():
            assert len(protectors) <= result.budget_division[target]

    def test_total_budget_respected(self, problem):
        result = ct_greedy(problem, budget=2, budget_division="tbd")
        assert result.budget_used <= 2

    def test_full_protection_with_tbd_and_enough_budget(self, problem):
        result = ct_greedy(problem, budget=10, budget_division="tbd")
        assert result.fully_protected
        assert verify_result(problem, result)

    def test_explicit_division(self, problem):
        division = {(0, 1): 1, (2, 3): 1}
        result = ct_greedy(problem, budget=2, budget_division=division)
        assert result.budget_used == 2
        assert len(result.allocation[(0, 1)]) == 1
        assert len(result.allocation[(2, 3)]) == 1

    def test_zero_budget(self, problem):
        result = ct_greedy(problem, budget=0)
        assert result.protectors == ()

    def test_negative_budget_rejected(self, problem):
        with pytest.raises(BudgetError):
            ct_greedy(problem, budget=-2)

    def test_never_better_than_sgb(self, problem):
        # SGB optimises globally; CT is constrained by the partition matroid
        for budget in range(1, 5):
            sgb = sgb_greedy(problem, budget)
            ct = ct_greedy(problem, budget, budget_division="tbd")
            assert ct.final_similarity >= sgb.final_similarity

    def test_cross_target_help_is_counted(self):
        # protector (0,4) helps target (0,1) AND target (0,2) via shared node 4:
        # triangles (0,1,4) needs (0,4),(1,4); (0,2,4) needs (0,4),(2,4)
        graph = Graph(edges=[(0, 1), (0, 2), (0, 4), (1, 4), (2, 4)])
        problem = TPPProblem(graph, [(0, 1), (0, 2)], motif="triangle")
        result = ct_greedy(problem, budget=1, budget_division={(0, 1): 1, (0, 2): 0})
        # the single deletion charged to (0,1) should be (0,4): it also breaks
        # the other target's subgraph (cross-target bonus)
        assert result.protectors == ((0, 4),)
        assert result.final_similarity == 0

    def test_trace_monotone(self, problem):
        result = ct_greedy(problem, budget=5, budget_division="tbd")
        trace = result.similarity_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_algorithm_label(self, problem):
        result = ct_greedy(problem, budget=2, budget_division="tbd")
        assert result.algorithm == "CT-Greedy-R:TBD"
        result = ct_greedy(problem, budget=2, budget_division="dbd", engine="recount")
        assert result.algorithm == "CT-Greedy:DBD"

    def test_engines_agree(self, problem):
        for budget in range(0, 5):
            cov = ct_greedy(problem, budget, budget_division="tbd", engine="coverage")
            rec = ct_greedy(problem, budget, budget_division="tbd", engine="recount")
            assert cov.final_similarity == rec.final_similarity

    def test_exhausted_targets_not_charged_further(self, problem):
        division = make_budget_division(problem, 3, "tbd")
        result = ct_greedy(problem, budget=3, budget_division=division)
        for target, protectors in result.allocation.items():
            assert len(protectors) <= division[target]


class TestZeroOwnGainFallback:
    """When only cross-gain edges remain, the deletion must be charged to the
    active target with the most remaining sub-budget (regression: it used to
    be charged to whichever active target came first, burning sub-budget of
    targets that could still have used it)."""

    @pytest.fixture
    def fallback_problem(self):
        # t1=(0,1): one triangle via 4; t2=(8,9): one triangle via 5;
        # t3=(2,3): two triangles via 6 and 7 but a zero sub-budget, so its
        # edges only ever carry cross-target gain for t1/t2.
        graph = Graph(
            edges=[
                (0, 1),
                (8, 9),
                (2, 3),
                (0, 4),
                (1, 4),
                (5, 8),
                (5, 9),
                (2, 6),
                (3, 6),
                (2, 7),
                (3, 7),
            ]
        )
        return TPPProblem(graph, [(0, 1), (8, 9), (2, 3)], motif="triangle")

    @pytest.mark.parametrize("engine", ["coverage", "recount"])
    def test_fallback_charges_target_with_most_remaining_budget(
        self, fallback_problem, engine
    ):
        division = {(0, 1): 2, (8, 9): 3, (2, 3): 0}
        result = ct_greedy(
            fallback_problem, budget=5, budget_division=division, engine=engine
        )
        # steps 1-2 break t1's and t2's own triangles; step 3 is the first
        # fallback: (2,6) must be charged to t2 (remaining 2) not t1
        # (remaining 1, but first in target order); step 4 ties at remaining
        # 1 apiece and resolves to t1 by edge_sort_key of the target link
        assert result.protectors == ((0, 4), (5, 8), (2, 6), (2, 7))
        assert result.allocation[(8, 9)] == ((5, 8), (2, 6))
        assert result.allocation[(0, 1)] == ((0, 4), (2, 7))
        assert result.fully_protected
