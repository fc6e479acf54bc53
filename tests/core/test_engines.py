"""Tests for the coverage and recount marginal-gain engines."""

import pytest

from repro.core.engines import CoverageEngine, RecountEngine, make_engine
from repro.core.model import TPPProblem
from repro.graphs.graph import Graph
from repro.exceptions import EngineError


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
            (7, 8),  # edge in no target subgraph
        ]
    )
    return TPPProblem(graph, [(0, 1), (2, 3)], motif="triangle")


class TestMakeEngine:
    def test_factory(self, problem):
        assert isinstance(make_engine(problem, "coverage"), CoverageEngine)
        assert isinstance(make_engine(problem, "recount"), RecountEngine)

    def test_unknown_engine(self, problem):
        for name in ("magic", "coverage-set"):
            with pytest.raises(EngineError):
                make_engine(problem, name)

    def test_prepared_state_must_share_the_index(self, problem):
        other = TPPProblem(problem.graph, problem.targets, motif="triangle")
        with pytest.raises(EngineError):
            CoverageEngine(problem, state=other.build_index().new_state())


@pytest.mark.parametrize("engine_name", ["coverage", "recount"])
class TestEngineBehaviour:
    def test_initial_similarity(self, problem, engine_name):
        engine = make_engine(problem, engine_name)
        assert engine.total_similarity() == 3
        assert engine.similarity_of((0, 1)) == 2
        assert engine.similarity_of((2, 3)) == 1

    def test_total_gain(self, problem, engine_name):
        engine = make_engine(problem, engine_name)
        assert engine.total_gain((0, 4)) == 1
        assert engine.total_gain((7, 8)) == 0

    def test_gain_by_target(self, problem, engine_name):
        engine = make_engine(problem, engine_name)
        assert engine.gain_by_target((2, 6)) == {(2, 3): 1}
        assert engine.gain_for_target((2, 6), (2, 3)) == 1
        assert engine.gain_for_target((2, 6), (0, 1)) == 0

    def test_commit_updates_state(self, problem, engine_name):
        engine = make_engine(problem, engine_name)
        broken = engine.commit((0, 4))
        assert broken == {(0, 1): 1}
        assert engine.total_similarity() == 2
        assert engine.total_gain((1, 4)) == 0  # its instance is already gone

    def test_full_protection(self, problem, engine_name):
        engine = make_engine(problem, engine_name)
        for edge in [(0, 4), (0, 5), (2, 6)]:
            engine.commit(edge)
        assert engine.is_fully_protected()


class TestCandidateSets:
    def test_coverage_restricts_candidates(self, problem):
        engine = CoverageEngine(problem)
        candidates = engine.candidate_edges()
        assert (7, 8) not in candidates
        assert (0, 4) in candidates

    def test_recount_offers_all_remaining_edges(self, problem):
        engine = RecountEngine(problem)
        assert (7, 8) in engine.candidate_edges()
        engine.commit((7, 8))
        assert (7, 8) not in engine.candidate_edges()

    def test_targets_never_candidates(self, problem):
        for engine_name in ("coverage", "recount"):
            engine = make_engine(problem, engine_name)
            assert (0, 1) not in engine.candidate_edges()
            assert (2, 3) not in engine.candidate_edges()


@pytest.mark.parametrize("engine_name", ["coverage", "recount"])
class TestBatchedProtocol:
    """The batched queries (kernel fast paths and generic defaults) agree."""

    def test_top_gain_edge(self, problem, engine_name):
        engine = make_engine(problem, engine_name)
        edge, gain = engine.top_gain_edge()
        assert gain == 1  # every candidate breaks exactly one triangle here
        assert engine.total_gain(edge) == 1
        # exhaust all gains: top becomes None
        for protector in [(0, 4), (0, 5), (2, 6)]:
            engine.commit(protector)
        assert engine.top_gain_edge() is None

    def test_top_k_edges(self, problem, engine_name):
        engine = make_engine(problem, engine_name)
        top = engine.top_k_edges(3)
        assert len(top) == 3
        assert all(gain == 1 for _, gain in top)
        assert len({edge for edge, _ in top}) == 3
        assert engine.top_k_edges(0) == []
        # ordering: descending gain, edge_sort_key ties
        assert top == sorted(
            top, key=lambda pair: (-pair[1], (str(pair[0][0]), str(pair[0][1])))
        )

    def test_iter_gain_breakdowns(self, problem, engine_name):
        engine = make_engine(problem, engine_name)
        rows = list(engine.iter_gain_breakdowns())
        assert rows  # at least the six triangle edges
        for edge, total, gains in rows:
            assert total == sum(gains.values()) > 0
            assert gains == engine.gain_by_target(edge)
        edges = [edge for edge, _, _ in rows]
        assert edges == sorted(edges, key=lambda e: (str(e[0]), str(e[1])))

    def test_target_gain_map(self, problem, engine_name):
        engine = make_engine(problem, engine_name)
        gains = engine.target_gain_map((2, 3))
        assert gains == {(2, 6): 1, (3, 6): 1}
        engine.commit((2, 6))
        assert engine.target_gain_map((2, 3)) == {}


class TestEnginesAgree:
    def test_gains_agree_on_every_edge(self, problem):
        coverage = make_engine(problem, "coverage")
        recount = make_engine(problem, "recount")
        for edge in problem.phase1_graph.edges():
            assert coverage.total_gain(edge) == recount.total_gain(edge)
            assert coverage.gain_by_target(edge) == recount.gain_by_target(edge)

    def test_gains_agree_after_commits(self, problem):
        coverage = make_engine(problem, "coverage")
        recount = make_engine(problem, "recount")
        for committed in [(0, 4), (2, 6)]:
            coverage.commit(committed)
            recount.commit(committed)
        for edge in [(0, 5), (1, 4), (1, 5), (3, 6), (7, 8)]:
            assert coverage.total_gain(edge) == recount.total_gain(edge)
        assert coverage.total_similarity() == recount.total_similarity()
