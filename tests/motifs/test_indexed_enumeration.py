"""Differential tests: CSR-row enumeration vs tuple-based enumeration.

Every built-in motif implements two enumeration paths: the tuple-based
``enumerate_instances`` (public API over :class:`Graph` adjacency sets) and
the id-based ``enumerate_instance_edge_ids`` the coverage kernel runs over
the :class:`IndexedGraph` CSR rows.  These tests assert the two paths yield
the same multiset of instances on random graphs, and that the base-class
fallback keeps custom (tuple-only) motifs working through the index.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import Graph
from repro.graphs.indexed import IndexedGraph
from repro.motifs.base import MotifPattern, get_motif
from repro.motifs.enumeration import TargetSubgraphIndex
from repro.motifs.extra import CliqueMotif, PathMotif

MOTIFS = ("triangle", "rectangle", "rectri", "path4", "clique4")


def random_phase1_graph(seed):
    """Return ``(graph, target)`` with the target already removed."""
    rng = random.Random(seed)
    n = rng.randint(5, 14)
    graph = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < rng.uniform(0.2, 0.5):
                graph.add_edge(u, v)
    edges = sorted(graph.edges())
    if not edges:
        return None, None
    target = edges[rng.randrange(len(edges))]
    graph.remove_edge(*target)
    return graph, target


def instance_multiset(instances):
    return sorted(sorted(instance) for instance in instances)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=len(MOTIFS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_csr_enumeration_matches_tuple_enumeration(seed, motif_index):
    graph, target = random_phase1_graph(seed)
    if graph is None:
        return
    motif = get_motif(MOTIFS[motif_index])
    indexed = IndexedGraph(graph)
    via_tuples = instance_multiset(motif.enumerate_instances(graph, target))
    via_ids = instance_multiset(
        [indexed.edge_at(edge_id) for edge_id in instance]
        for instance in motif.enumerate_instance_edge_ids(indexed, graph, target)
    )
    assert via_tuples == via_ids
    # the id form of one instance must not repeat an edge: the kernel's
    # kill walk decrements one counter per (instance, edge) membership
    for instance in motif.enumerate_instance_edge_ids(indexed, graph, target):
        assert len(set(instance)) == len(instance)


@pytest.mark.parametrize(
    "motif",
    [PathMotif(2), PathMotif(3), PathMotif(5), CliqueMotif(3), CliqueMotif(5)],
    ids=["path2", "path3", "path5", "clique3", "clique5"],
)
def test_parametrised_extra_motifs_agree(motif):
    for seed in range(25):
        graph, target = random_phase1_graph(seed)
        if graph is None:
            continue
        indexed = IndexedGraph(graph)
        via_tuples = instance_multiset(motif.enumerate_instances(graph, target))
        via_ids = instance_multiset(
            [indexed.edge_at(edge_id) for edge_id in instance]
            for instance in motif.enumerate_instance_edge_ids(indexed, graph, target)
        )
        assert via_tuples == via_ids


def test_missing_endpoint_yields_nothing():
    graph = Graph(edges=[(0, 1), (1, 2)])
    indexed = IndexedGraph(graph)
    for name in MOTIFS:
        motif = get_motif(name)
        assert list(motif.enumerate_instance_edge_ids(indexed, graph, (0, 99))) == []


class TupleOnlyTriangle(MotifPattern):
    """A custom motif with no id-space override (exercises the fallback)."""

    name = "tuple-only-triangle"

    def enumerate_instances(self, graph, target):
        u, v = target
        if not (graph.has_node(u) and graph.has_node(v)):
            return
        for w in graph.common_neighbors(u, v):
            yield frozenset(
                (self._canonical(u, w), self._canonical(w, v))
            )


def test_tuple_only_motif_builds_identical_index():
    graph = Graph(edges=[(0, 4), (1, 4), (0, 5), (1, 5), (0, 2), (0, 3)])
    targets = [(0, 1), (2, 3)]
    fallback = TargetSubgraphIndex(graph, targets, TupleOnlyTriangle())
    builtin = TargetSubgraphIndex(graph, targets, "triangle")
    assert fallback.number_of_instances() == builtin.number_of_instances()
    assert fallback.candidate_edges() == builtin.candidate_edges()
    for target in targets:
        assert fallback.initial_similarity(target) == builtin.initial_similarity(target)
