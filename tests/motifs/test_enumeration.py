"""Tests for the target-subgraph index and coverage state."""

import pytest

from repro.exceptions import MotifError
from repro.graphs.graph import Graph
from repro.motifs.enumeration import TargetSubgraphIndex
from repro.motifs.similarity import similarity_by_target, total_similarity


@pytest.fixture
def phase1_graph():
    # targets (0,1) and (2,3) removed already; (0,1) has triangles via 4 and 5
    # where edge (0,4) also belongs to a triangle of (2,3)?  Build a shared edge:
    # triangle of (2,3) via node 0 requires edges (2,0) and (3,0).
    return Graph(
        edges=[(0, 4), (1, 4), (0, 5), (1, 5), (0, 2), (0, 3)]
    )


TARGETS = [(0, 1), (2, 3)]


class TestTargetSubgraphIndex:
    def test_rejects_targets_still_in_graph(self):
        graph = Graph(edges=[(0, 1), (0, 2), (1, 2)])
        with pytest.raises(MotifError):
            TargetSubgraphIndex(graph, [(0, 1)], "triangle")

    def test_counts_match_recount(self, phase1_graph):
        index = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle")
        assert index.initial_similarity((0, 1)) == 2
        assert index.initial_similarity((2, 3)) == 1
        assert index.initial_total_similarity() == total_similarity(
            phase1_graph, TARGETS, "triangle"
        )

    def test_instances_partitioned_by_target(self, phase1_graph):
        index = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle")
        ids_01 = set(index.instances_of((0, 1)))
        ids_23 = set(index.instances_of((2, 3)))
        assert ids_01.isdisjoint(ids_23)
        assert len(ids_01) + len(ids_23) == index.number_of_instances()

    def test_edge_to_instances(self, phase1_graph):
        index = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle")
        # edge (0,4) participates only in the (0,1) triangle via node 4
        containing = index.instances_containing((4, 0))
        assert len(containing) == 1
        assert index.target_of_instance(next(iter(containing))) == (0, 1)

    def test_candidate_edges_only_subgraph_edges(self, phase1_graph):
        phase1_graph.add_edge(8, 9)  # irrelevant edge
        index = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle")
        candidates = index.candidate_edges()
        assert (8, 9) not in candidates
        assert (0, 4) in candidates

    def test_candidate_edges_of_target(self, phase1_graph):
        index = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle")
        edges = index.candidate_edges_of((2, 3))
        assert edges == {(0, 2), (0, 3)}

    def test_target_order_preserved(self, phase1_graph):
        index = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle")
        assert index.targets == ((0, 1), (2, 3))


class TestCoverageState:
    def test_delete_edge_updates_similarity(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        assert state.total_similarity() == 3
        broken = state.delete_edge((0, 4))
        assert broken == {(0, 1): 1}
        assert state.total_similarity() == 2
        assert state.similarity_of((0, 1)) == 1

    def test_gain_matches_recount(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        for edge in list(phase1_graph.edges()):
            reduced = phase1_graph.without_edges([edge])
            expected = 3 - total_similarity(reduced, TARGETS, "triangle")
            assert state.gain(edge) == expected

    def test_gain_by_target(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        gains = state.gain_by_target((0, 2))
        assert gains == {(2, 3): 1}
        assert state.gain_for_target((0, 2), (2, 3)) == 1
        assert state.gain_for_target((0, 2), (0, 1)) == 0

    def test_deleting_unrelated_edge_breaks_nothing(self, phase1_graph):
        phase1_graph.add_edge(8, 9)
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        assert state.delete_edge((8, 9)) == {}
        assert state.total_similarity() == 3

    def test_double_delete_is_idempotent(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        state.delete_edge((0, 4))
        assert state.delete_edge((0, 4)) == {}
        assert state.total_similarity() == 2

    def test_candidate_edges_shrink_after_deletions(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        before = state.candidate_edges()
        state.delete_edge((1, 4))
        after = state.candidate_edges()
        assert (1, 4) not in after
        # edge (0,4) no longer breaks anything: its only instance died with (1,4)
        assert (0, 4) not in after
        assert after < before

    def test_full_protection_flag(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        for edge in [(0, 4), (0, 5), (0, 2)]:
            state.delete_edge(edge)
        assert state.is_fully_protected()
        assert state.total_similarity() == 0

    def test_copy_is_independent(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        clone = state.copy()
        clone.delete_edge((0, 4))
        assert state.total_similarity() == 3
        assert clone.total_similarity() == 2

    def test_matches_recount_after_deletion(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        assert state.delete_edge((0, 4)) == {(0, 1): 1}
        reduced = phase1_graph.without_edges([(0, 4)])
        assert state.similarity_by_target() == similarity_by_target(
            reduced, TARGETS, "triangle"
        )
        remaining = total_similarity(reduced, TARGETS, "triangle")
        gains = {
            edge: remaining
            - total_similarity(reduced.without_edges([edge]), TARGETS, "triangle")
            for edge in reduced.edges()
        }
        for edge, gain in gains.items():
            assert state.gain(edge) == gain
        assert state.candidate_edges() == {edge for edge, gain in gains.items() if gain > 0}

    def test_deleted_edges_recorded_in_order(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        state.delete_edges([(0, 4), (0, 5)])
        assert state.deleted_edges == ((0, 4), (0, 5))


class TestArrayKernel:
    """Behaviour specific to the incremental array kernel."""

    def test_candidate_edge_list_deterministic_order(self, phase1_graph):
        index = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle")
        ordered = index.candidate_edge_list()
        assert set(ordered) == index.candidate_edges()
        assert ordered == sorted(ordered, key=lambda e: (str(e[0]), str(e[1])))
        state = index.new_state()
        assert state.candidate_edge_list() == ordered
        state.delete_edge((1, 4))
        live = state.candidate_edge_list()
        assert set(live) == state.candidate_edges()
        assert live == sorted(live, key=lambda e: (str(e[0]), str(e[1])))

    def test_top_gain_edge_tracks_deletions(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        edge, gain = state.top_gain_edge()
        assert gain == 1
        # smallest edge_sort_key among the all-tied candidates
        assert edge == min(state.candidate_edges(), key=lambda e: (str(e[0]), str(e[1])))
        for protector in [(0, 4), (0, 5), (0, 2)]:
            state.delete_edge(protector)
        assert state.top_gain_edge() is None

    def test_top_gain_edges_shortlist(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        shortlist = state.top_gain_edges(4)
        assert len(shortlist) == 4
        assert all(gain == 1 for _, gain in shortlist)
        assert state.top_gain_edges(0) == []
        # the shortlist must not consume the heap: top stays answerable
        assert state.top_gain_edge() == shortlist[0]

    def test_iter_positive_gains_matches_gain(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        state.delete_edge((1, 4))
        for edge, gain in state.iter_positive_gains():
            assert gain > 0
            assert gain == state.gain(edge)

    def test_gains_for_target_one_pass(self, phase1_graph):
        state = TargetSubgraphIndex(phase1_graph, TARGETS, "triangle").new_state()
        assert state.gains_for_target((2, 3)) == {(0, 2): 1, (0, 3): 1}
        state.delete_edge((0, 2))
        assert state.gains_for_target((2, 3)) == {}

