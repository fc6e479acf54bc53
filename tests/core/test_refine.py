"""Tests for SGB-Greedy+BB (branch-and-bound tail refinement)."""

import pytest

from repro.core.model import TPPProblem
from repro.core.refine import sgb_greedy_bb
from repro.core.sgb import sgb_greedy
from repro.datasets.synthetic import arenas_email_like, small_social_graph
from repro.datasets.targets import sample_random_targets
from repro.exceptions import BudgetError
from repro.service.registry import get_method, is_greedy_method


@pytest.fixture
def problem():
    graph = small_social_graph(seed=1)
    targets = sample_random_targets(graph, 5, seed=0)
    return TPPProblem(graph, targets, motif="triangle")


@pytest.fixture
def arenas_problem():
    graph = arenas_email_like(nodes=160, seed=2)
    targets = sample_random_targets(graph, 8, seed=1)
    return TPPProblem(graph, targets, motif="rectangle")


class TestSgbGreedyBB:
    def test_negative_budget_rejected(self, problem):
        with pytest.raises(BudgetError):
            sgb_greedy_bb(problem, -1)

    def test_zero_budget(self, problem):
        result = sgb_greedy_bb(problem, 0)
        assert result.protectors == ()
        assert result.similarity_trace == (problem.initial_similarity(),)

    def test_trace_shape(self, arenas_problem):
        result = sgb_greedy_bb(arenas_problem, 6)
        assert len(result.similarity_trace) == len(result.protectors) + 1
        assert result.similarity_trace[0] == arenas_problem.initial_similarity()
        # traces are monotone non-increasing (deletions never help the attacker)
        for before, after in zip(result.similarity_trace, result.similarity_trace[1:]):
            assert after <= before

    def test_deterministic(self, arenas_problem):
        first = sgb_greedy_bb(arenas_problem, 6)
        second = sgb_greedy_bb(arenas_problem, 6)
        assert first.protectors == second.protectors
        assert first.similarity_trace == second.similarity_trace
        assert first.extra["bb_nodes"] == second.extra["bb_nodes"]

    @pytest.mark.parametrize("budget", [2, 4, 6, 9])
    def test_never_worse_than_sgb(self, arenas_problem, budget):
        greedy = sgb_greedy(arenas_problem, budget)
        refined = sgb_greedy_bb(arenas_problem, budget)
        assert refined.final_similarity <= greedy.final_similarity

    def test_depth_zero_matches_plain_greedy(self, arenas_problem):
        greedy = sgb_greedy(arenas_problem, 5)
        refined = sgb_greedy_bb(arenas_problem, 5, depth=0)
        assert refined.protectors == greedy.protectors
        assert refined.similarity_trace == greedy.similarity_trace
        assert refined.extra["refined"] is False

    def test_engines_agree(self, problem):
        results = [
            sgb_greedy_bb(problem, 4, engine=engine)
            for engine in ("coverage", "recount")
        ]
        baseline = results[0]
        for other in results[1:]:
            assert other.protectors == baseline.protectors
            assert other.similarity_trace == baseline.similarity_trace

    def test_algorithm_labels(self, problem):
        assert sgb_greedy_bb(problem, 2).algorithm == "SGB-Greedy-R+BB"
        assert sgb_greedy_bb(problem, 2, engine="recount").algorithm == "SGB-Greedy+BB"

    def test_full_protection_skips_search(self, problem):
        # budget above the critical budget: greedy stops on its own, so the
        # branch and bound is skipped and the result is plain greedy
        budget = problem.initial_similarity() + 1
        greedy = sgb_greedy(problem, budget)
        refined = sgb_greedy_bb(problem, budget)
        assert refined.final_similarity == 0
        assert refined.protectors == greedy.protectors
        assert refined.extra["bb_nodes"] == 0
        assert refined.extra["refined"] is False

    def test_strict_improvement_exists(self):
        # a known instance where the greedy tail is suboptimal: the bound
        # search must strictly beat SGB-Greedy under the same budget
        graph = arenas_email_like(nodes=200, seed=8)
        targets = sample_random_targets(graph, 10, seed=1)
        problem = TPPProblem(graph, targets, motif="rectangle")
        greedy = sgb_greedy(problem, 2)
        refined = sgb_greedy_bb(problem, 2)
        assert refined.final_similarity < greedy.final_similarity
        assert refined.extra["refined"] is True
        assert refined.extra["bb_nodes"] > 0


class TestRegistration:
    def test_registered_as_greedy(self):
        spec = get_method("SGB-Greedy+BB")
        assert spec.is_greedy
        assert is_greedy_method("SGB-Greedy+BB")

    def test_runs_through_registry(self, problem):
        result = get_method("SGB-Greedy+BB").runner(problem, 3, "coverage", 0)
        assert result.algorithm == "SGB-Greedy-R+BB"
        assert result.budget_used <= 3
        assert result.extra["depth"] == 3
