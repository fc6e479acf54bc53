"""Tests for the dense integer-indexed graph snapshot."""

from array import array

import pytest

from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.graphs.generators import erdos_renyi_graph
from repro.graphs.graph import Graph, canonical_edge, edge_sort_key
from repro.graphs.indexed import IndexedGraph


@pytest.fixture
def graph():
    return Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)], nodes=[9])


class TestIds:
    def test_node_ids_dense_and_deterministic(self, graph):
        indexed = IndexedGraph(graph)
        assert sorted(indexed.node_id(node) for node in graph.nodes()) == list(
            range(graph.number_of_nodes())
        )
        # str order: "0" < "1" < "2" < "3" < "9"
        assert indexed.nodes == (0, 1, 2, 3, 9)
        assert indexed.node_at(indexed.node_id(3)) == 3

    def test_edge_ids_dense_and_sorted(self, graph):
        indexed = IndexedGraph(graph)
        assert indexed.number_of_edges() == 4
        assert list(indexed.edges) == sorted(
            graph.edges(), key=lambda e: (str(e[0]), str(e[1]))
        )
        for edge_id, edge in enumerate(indexed.edges):
            assert indexed.edge_id(*edge) == edge_id
            assert indexed.edge_at(edge_id) == edge

    def test_edge_id_order_insensitive(self, graph):
        indexed = IndexedGraph(graph)
        assert indexed.edge_id(1, 0) == indexed.edge_id(0, 1)
        assert indexed.find_edge_id(3, 2) == indexed.edge_id(2, 3)

    def test_missing_lookups(self, graph):
        indexed = IndexedGraph(graph)
        with pytest.raises(NodeNotFoundError):
            indexed.node_id(42)
        with pytest.raises(EdgeNotFoundError):
            indexed.edge_id(0, 9)
        assert indexed.find_edge_id(0, 9) is None
        assert not indexed.has_edge(0, 9)
        assert indexed.has_edge(1, 0)


class TestCSR:
    def test_degrees_match(self, graph):
        indexed = IndexedGraph(graph)
        for node in graph.nodes():
            assert indexed.degree_of(indexed.node_id(node)) == graph.degree(node)

    def test_neighbor_rows_match_adjacency(self, graph):
        indexed = IndexedGraph(graph)
        for node in graph.nodes():
            node_id = indexed.node_id(node)
            row = {indexed.node_at(v) for v in indexed.neighbor_ids(node_id)}
            assert row == set(graph.neighbors(node))

    def test_incident_edges_aligned_with_neighbors(self, graph):
        indexed = IndexedGraph(graph)
        for node in graph.nodes():
            node_id = indexed.node_id(node)
            neighbors = indexed.neighbor_ids(node_id)
            incident = indexed.incident_edge_ids(node_id)
            assert len(neighbors) == len(incident)
            for neighbor_id, edge_id in zip(neighbors, incident):
                assert indexed.edge_at(edge_id) == canonical_edge(
                    node, indexed.node_at(neighbor_id)
                )


def seed_assembly(graph):
    """The seed's element-wise ordering + CSR loops: the reference the
    vectorised assembly is pinned to.  Returns
    ``(nodes, edges, indptr, neighbors, incident_edges)``."""
    nodes = tuple(sorted(graph.nodes(), key=str))
    node_id = {node: index for index, node in enumerate(nodes)}
    edges = tuple(sorted(graph.edges(), key=edge_sort_key))
    edge_id = {edge: index for index, edge in enumerate(edges)}

    n = len(nodes)
    indptr = array("l", [0] * (n + 1))
    for i, node in enumerate(nodes):
        indptr[i + 1] = indptr[i] + graph.degree(node)
    neighbors = array("l", [0] * indptr[n])
    incident = array("l", [0] * indptr[n])
    cursor = array("l", indptr[:n])
    for u_id, u in enumerate(nodes):
        # neighbors in node-id order keeps the CSR rows deterministic
        for v in sorted(graph.neighbors(u), key=str):
            v_id = node_id[v]
            position = cursor[u_id]
            neighbors[position] = v_id
            incident[position] = edge_id[canonical_edge(u, v)]
            cursor[u_id] = position + 1
    return nodes, edges, indptr, neighbors, incident


class TestAssemblyModes:
    """The vectorised CSR assembly is byte-identical to the seed's loops."""

    @staticmethod
    def _assert_identical(graph):
        indexed = IndexedGraph(graph)
        nodes, edges, indptr, neighbors, incident = seed_assembly(graph)
        assert indexed.nodes == nodes
        assert indexed.edges == edges
        assert indexed._indptr == indptr
        assert indexed._neighbors == neighbors
        assert indexed._incident_edges == incident
        assert indexed._endpoint_id_pairs().reshape(-1).tolist() == [
            indexed.node_id(x) for edge in edges for x in edge
        ]

    def test_small_graph(self, graph):
        self._assert_identical(graph)

    def test_random_graphs(self):
        for seed in range(15):
            self._assert_identical(erdos_renyi_graph(25, 0.25, seed=seed))

    def test_string_labels_where_str_order_differs_from_value_order(self):
        # nodes 2 and 10: value order (2 < 10) disagrees with str order
        # ("10" < "2"), which is exactly the case the lexsort trick must get
        # right for edge ids to keep matching edge_sort_key
        graph = Graph(edges=[(2, 10), (10, 3), (2, 3), (1, 2)])
        self._assert_identical(graph)
        mixed = Graph(edges=[("b", "a10"), ("a2", "a10"), ("b", "a2"), ("c", "a10")])
        self._assert_identical(mixed)

    def test_empty_and_edgeless_graphs(self):
        self._assert_identical(Graph())
        self._assert_identical(Graph(nodes=[3, 1, 2]))


class TestRoundTrip:
    def test_to_graph_round_trip(self, graph):
        assert IndexedGraph(graph).to_graph() == graph

    def test_round_trip_random_graph(self):
        graph = erdos_renyi_graph(40, 0.15, seed=3)
        assert IndexedGraph(graph).to_graph() == graph

    def test_snapshot_immutable_under_source_mutation(self, graph):
        indexed = IndexedGraph(graph)
        graph.add_edge(0, 9)
        assert not indexed.has_edge(0, 9)
        assert indexed.number_of_edges() == 4

    def test_len_and_iter(self, graph):
        indexed = IndexedGraph(graph)
        assert len(indexed) == graph.number_of_nodes()
        assert set(indexed) == set(graph.nodes())
