"""A delta that adds node labels splices to the bytes of a fresh build.

``IndexedGraph._apply_edge_delta`` places each brand-new label in the
``str``-sorted node table and relabels the old storage into the new id
space.  These tests pin the result byte for byte to
``IndexedGraph(updated_graph)`` — node order, CSR, endpoint pairs — and the
returned id maps to the labels' real moves, for fresh labels that sort
first, last or in between, several at once (some at the same position),
and, through ``TargetSubgraphIndex.apply_delta``, the whole index.
"""

import random

import numpy as np
import pytest

from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.indexed import IndexedGraph
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex
from repro.motifs.updates import EdgeDelta


def graph_fingerprint(indexed):
    return (
        indexed.nodes,
        bytes(indexed._indptr),
        bytes(indexed._neighbors),
        bytes(indexed._incident_edges),
        indexed._endpoint_id_pairs().tobytes(),
    )


def base_graph():
    """Int labels 10..59 (``str`` order differs from int order) in a
    random graph with a few isolated nodes."""
    rng = random.Random(11)
    graph = Graph(nodes=range(10, 60))
    for u in range(10, 60):
        for v in range(u + 1, 60):
            if rng.random() < 0.15:
                graph.add_edge(u, v)
    return graph


#: fresh labels by where they sort among "10".."59": "-5" first, "99" last,
#: "2" (between "19" and "20"), "2.5" (at the same position) and "25.5" in
#: between; "several" mixes them with "3" (after "29") and "30.5" (after
#: "30"), and joins two fresh labels by an edge.
CASES = {
    "first": [(-5, 12)],
    "last": [(99, 40)],
    "between": [(2, 33), (25.5, 10), (2.5, 11)],
    "several": [(-5, 12), (99, 40), (3, 21), (30.5, 22), (-5, 99), (2, 3), (2.5, 44)],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_fresh_labels_splice_to_the_bytes_of_a_fresh_build(case):
    graph = base_graph()
    indexed = IndexedGraph(graph)
    inserted = [canonical_edge(*edge) for edge in CASES[case]]
    victims = sorted(graph.edges())[:2]
    deleted = [indexed.edge_id(*edge) for edge in victims]
    spliced, edge_id_map, node_id_map = indexed._apply_edge_delta(deleted, inserted)

    updated = graph.copy()
    updated.remove_edges_from(victims)
    updated.add_edges_from(inserted)
    rebuilt = IndexedGraph(updated)
    assert graph_fingerprint(spliced) == graph_fingerprint(rebuilt)
    assert spliced._node_id == rebuilt._node_id

    # every old node and edge lands on its id in the rebuilt table
    assert node_id_map.tolist() == [rebuilt.node_id(node) for node in indexed.nodes]
    for old_id, edge in enumerate(indexed.edges):
        expected = -1 if old_id in deleted else rebuilt.edge_id(*edge)
        assert edge_id_map[old_id] == expected


@pytest.mark.parametrize("motif", ["triangle", "rectangle", "rectri", "path4"])
def test_fresh_labels_delta_matches_a_rebuilt_index(motif):
    graph = base_graph()
    targets = [canonical_edge(*edge) for edge in sorted(graph.edges())[5:9]]
    phase1 = graph.without_edges(targets)
    index = TargetSubgraphIndex(phase1, targets, motif)
    # fresh labels next to a target endpoint, so re-enumeration sees them
    ends = [x for target in targets for x in target]
    delta = EdgeDelta.inserting(
        canonical_edge(-5, ends[0]),
        canonical_edge(-5, ends[1]),
        canonical_edge(99, ends[2]),
        canonical_edge(3, ends[3]),
        canonical_edge(3, 99),
    )
    outcome = index.apply_delta(delta)
    updated = phase1.copy()
    updated.add_edges_from(delta.inserted)
    rebuilt = TargetSubgraphIndex(updated, targets, motif)
    for name in INDEX_ARRAY_FIELDS:
        assert getattr(outcome.index, name).tobytes() == getattr(rebuilt, name).tobytes()
    assert graph_fingerprint(outcome.index.indexed_graph) == graph_fingerprint(
        rebuilt.indexed_graph
    )
    assert np.array_equal(
        outcome.index._candidate_id_array, rebuilt._candidate_id_array
    )
