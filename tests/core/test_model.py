"""Tests for TPPProblem and ProtectionResult."""

import pytest

from repro.core.model import ProtectionResult, TPPProblem
from repro.exceptions import InvalidTargetError
from repro.graphs.graph import Graph
from repro.exceptions import BudgetError


@pytest.fixture
def graph():
    # targets (0,1), (2,3); triangles around both
    return Graph(
        edges=[(0, 1), (2, 3), (0, 4), (1, 4), (0, 5), (1, 5), (2, 6), (3, 6)]
    )


class TestTPPProblem:
    def test_valid_construction(self, graph):
        problem = TPPProblem(graph, [(0, 1), (2, 3)], motif="triangle")
        assert problem.targets == ((0, 1), (2, 3))
        assert problem.motif.name == "triangle"

    def test_targets_canonicalised(self, graph):
        problem = TPPProblem(graph, [(1, 0)], motif="triangle")
        assert problem.targets == ((0, 1),)

    def test_non_edge_target_rejected(self, graph):
        with pytest.raises(InvalidTargetError):
            TPPProblem(graph, [(0, 9)], motif="triangle")

    def test_duplicate_target_rejected(self, graph):
        with pytest.raises(InvalidTargetError):
            TPPProblem(graph, [(0, 1), (1, 0)], motif="triangle")

    def test_empty_target_set_rejected(self, graph):
        with pytest.raises(InvalidTargetError):
            TPPProblem(graph, [], motif="triangle")

    def test_phase1_graph_removes_targets_only(self, graph):
        problem = TPPProblem(graph, [(0, 1)], motif="triangle")
        assert not problem.phase1_graph.has_edge(0, 1)
        assert problem.phase1_graph.number_of_edges() == graph.number_of_edges() - 1
        # original graph untouched
        assert graph.has_edge(0, 1)

    def test_initial_similarity(self, graph):
        problem = TPPProblem(graph, [(0, 1), (2, 3)], motif="triangle")
        assert problem.initial_similarity() == 3
        assert problem.initial_similarity_by_target() == {(0, 1): 2, (2, 3): 1}

    def test_default_constant_is_initial_similarity(self, graph):
        problem = TPPProblem(graph, [(0, 1), (2, 3)], motif="triangle")
        assert problem.constant == 3

    def test_constant_too_small_rejected(self, graph):
        with pytest.raises(InvalidTargetError):
            TPPProblem(graph, [(0, 1), (2, 3)], motif="triangle", constant=1)

    def test_released_graph_removes_protectors(self, graph):
        problem = TPPProblem(graph, [(0, 1)], motif="triangle")
        released = problem.released_graph([(0, 4)])
        assert not released.has_edge(0, 4)
        assert not released.has_edge(0, 1)

    def test_dissimilarity_of_protector_set(self, graph):
        problem = TPPProblem(graph, [(0, 1), (2, 3)], motif="triangle")
        assert problem.dissimilarity_of([]) == 0
        assert problem.dissimilarity_of([(0, 4)]) == 1
        assert problem.dissimilarity_of([(0, 4), (0, 5), (2, 6)]) == 3

    def test_index_cached(self, graph):
        problem = TPPProblem(graph, [(0, 1)], motif="triangle")
        assert problem.build_index() is problem.build_index()

    def test_repr(self, graph):
        problem = TPPProblem(graph, [(0, 1)], motif="triangle")
        assert "targets=1" in repr(problem)


class TestProtectionResult:
    def make_result(self, **overrides):
        defaults = dict(
            algorithm="SGB-Greedy-R",
            motif="triangle",
            budget=3,
            protectors=((0, 4), (0, 5)),
            similarity_trace=(3, 2, 0),
            initial_similarity=3,
            runtime_seconds=0.01,
        )
        defaults.update(overrides)
        return ProtectionResult(**defaults)

    def test_final_similarity_and_gain(self):
        result = self.make_result()
        assert result.final_similarity == 0
        assert result.dissimilarity_gain == 3
        assert result.fully_protected
        assert result.budget_used == 2

    def test_not_fully_protected(self):
        result = self.make_result(similarity_trace=(3, 2, 1))
        assert not result.fully_protected

    def test_similarity_at_clamps(self):
        result = self.make_result()
        assert result.similarity_at(0) == 3
        assert result.similarity_at(1) == 2
        assert result.similarity_at(10) == 0
        with pytest.raises(BudgetError):
            result.similarity_at(-1)

    def test_empty_trace_falls_back_to_initial(self):
        result = self.make_result(similarity_trace=(), protectors=())
        assert result.final_similarity == 3
        assert result.dissimilarity_gain == 0

    def test_released_graph(self, graph):
        problem = TPPProblem(graph, [(0, 1)], motif="triangle")
        result = self.make_result()
        released = result.released_graph(problem)
        assert not released.has_edge(0, 4)
        assert not released.has_edge(0, 5)

    def test_summary_mentions_algorithm(self):
        assert "SGB-Greedy-R" in self.make_result().summary()

    def test_reproducible_fields_drop_timings_and_kernel(self):
        service = {"request": "x", "solve_seconds": 0.1, "build_seconds": 2.0}
        fast = self.make_result(
            runtime_seconds=0.01,
            extra={"engine": "coverage", "service": {**service, "kernel": "native"}},
        )
        slow = self.make_result(
            runtime_seconds=5.0,
            extra={
                "engine": "coverage",
                "service": {**service, "solve_seconds": 9.0, "kernel": "numpy"},
            },
        )
        assert fast.reproducible_fields() == slow.reproducible_fields()
        fields = fast.reproducible_fields()
        assert "runtime_seconds" not in fields
        assert fields["protectors"] == ((0, 4), (0, 5))
        assert fields["extra"] == {"engine": "coverage"}
        assert fields["service"] == {"request": "x"}
        other = self.make_result(protectors=((0, 4),))
        assert other.reproducible_fields() != self.make_result().reproducible_fields()
