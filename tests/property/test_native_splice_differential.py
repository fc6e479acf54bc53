"""Differential suite: the native graph splice vs the numpy splice.

With the native kernel loaded, ``IndexedGraph._apply_edge_delta`` splices
a delta into the graph CSR with one ``repro_splice_graph`` call; the numpy
splice stays as the ``REPRO_NATIVE=0`` fallback.  These tests pin the two
to each other byte for byte (endpoint pairs, ``indptr``, ``neighbors``,
``incident_edges``, the edge-id map and the node-id map) and both to a
fresh ``IndexedGraph`` of the updated graph:

* random deltas with fresh labels that sort first, last and between the
  existing ones, next to pure-insert and pure-delete deltas;
* a delta that deletes every edge of a node, and inserts at the start and
  at the end of a row;
* five threads splicing at once get the bytes of a serial run;
* the target-invariant state a delta carries over from its parent (the
  pair layout, the candidate ids) matches the numpy derivation;
* inputs out of range or out of order are refused with
  :class:`~repro.exceptions.GraphError` before anything is read.

Everything is skipped when the native kernel cannot be loaded (no
compiler, or ``REPRO_NATIVE=0``).
"""

from __future__ import annotations

import contextlib
import random
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._native import load_kernel, native_available
from repro.exceptions import GraphError
from repro.graphs import indexed as indexed_module
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.indexed import NP_LONG, IndexedGraph
from repro.motifs import enumeration
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex
from repro.motifs.updates import EdgeDelta

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="native kernel not loadable (no compiler or REPRO_NATIVE=0)",
)

#: Fresh labels by where they sort among the ``str`` forms of 10..49:
#: "-5" first, "99" last, "2", "2.5" (both between "19" and "20") and
#: "25.5" in between.
FRESH = (-5, 99, 2, 2.5, 25.5)


def numpy_splice():
    """Splice as without a native kernel (the other kernel users keep it)."""
    return mock.patch.object(indexed_module, "load_kernel", lambda: None)


@contextlib.contextmanager
def numpy_index_side():
    """Splice, walk and assemble as without a native kernel."""
    with numpy_splice(), mock.patch.object(enumeration, "load_kernel", lambda: None):
        yield


def splice_bytes(result):
    spliced, edge_id_map, node_id_map = result
    return (
        spliced.nodes,
        bytes(spliced._pair_ids),
        bytes(spliced._indptr),
        bytes(spliced._neighbors),
        bytes(spliced._incident_edges),
        edge_id_map.tobytes(),
        None if node_id_map is None else node_id_map.tobytes(),
    )


def graph_bytes(indexed):
    return (
        indexed.nodes,
        bytes(indexed._pair_ids),
        bytes(indexed._indptr),
        bytes(indexed._neighbors),
        bytes(indexed._incident_edges),
    )


def random_graph(rng, n):
    """Int labels 10.. (``str`` order differs from int order), a few isolated."""
    graph = Graph(nodes=range(10, 10 + n))
    density = rng.uniform(0.1, 0.5)
    for u in range(10, 10 + n):
        for v in range(u + 1, 10 + n):
            if rng.random() < density:
                graph.add_edge(u, v)
    return graph


def check_splice(graph, deleted_edges, inserted_edges):
    """Splice natively and with numpy; both must give a fresh build's bytes."""
    indexed = IndexedGraph(graph)
    deleted = [indexed.edge_id(*edge) for edge in deleted_edges]
    inserted = [canonical_edge(*edge) for edge in inserted_edges]
    native = indexed._apply_edge_delta(deleted, inserted)
    with numpy_splice():
        reference = indexed._apply_edge_delta(deleted, inserted)
    assert splice_bytes(native) == splice_bytes(reference)

    updated = graph.copy()
    updated.remove_edges_from(deleted_edges)
    updated.add_edges_from(inserted)
    assert graph_bytes(native[0]) == graph_bytes(IndexedGraph(updated))
    return native


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["mixed", "insert", "delete"]))
@settings(max_examples=80, deadline=None)
def test_native_splice_equals_the_numpy_splice(seed, kind):
    rng = random.Random(seed)
    graph = random_graph(rng, rng.randint(2, 40))
    edges = sorted(graph.edges())
    nodes = sorted(graph.nodes())
    deleted = [] if kind == "insert" else rng.sample(edges, rng.randint(0, min(8, len(edges))))
    inserted = []
    if kind != "delete":
        pool = nodes + list(rng.sample(FRESH, rng.randint(0, len(FRESH))))
        for _ in range(rng.randint(0, 8)):
            u, v = rng.sample(pool, 2)
            edge = canonical_edge(u, v)
            if not graph.has_edge(*edge) and edge not in inserted:
                inserted.append(edge)
    check_splice(graph, deleted, inserted)


@pytest.mark.parametrize(
    "label, where", [(-5, "first"), (99, "last"), (2, "between"), (25.5, "between")]
)
def test_a_fresh_label_sorting_first_last_or_between(label, where):
    graph = random_graph(random.Random(5), 30)
    spliced, _, node_id_map = check_splice(graph, [], [(label, 12), (label, 39)])
    assert node_id_map is not None
    position = spliced.node_id(label)
    expected = {"first": position == 0, "last": position == 30}
    assert expected.get(where, 0 < position < 30)


def test_deleting_every_edge_of_a_node_leaves_an_empty_row():
    graph = random_graph(random.Random(8), 25)
    hub = max(graph.nodes(), key=graph.degree)
    victims = [canonical_edge(hub, x) for x in sorted(graph.neighbors(hub))]
    spliced, edge_id_map, _ = check_splice(graph, victims, [])
    assert spliced.degree_of(spliced.node_id(hub)) == 0
    assert int((edge_id_map < 0).sum()) == len(victims)


def test_inserts_at_the_start_and_the_end_of_a_row():
    # row of "30" holds neighbors between "31" and "39"; "11" sorts before
    # them and "45" after (str order)
    graph = Graph(nodes=range(10, 50))
    for v in range(31, 40):
        graph.add_edge(30, v)
    graph.add_edge(11, 12)
    graph.add_edge(44, 45)
    spliced, _, _ = check_splice(graph, [], [(30, 11), (30, 45)])
    row = [spliced.node_at(x) for x in spliced.neighbor_ids(spliced.node_id(30))]
    assert row[0] == 11 and row[-1] == 45


def test_pure_insert_and_pure_delete_deltas_round_trip():
    graph = random_graph(random.Random(13), 20)
    missing = [
        canonical_edge(u, v)
        for u in range(10, 30)
        for v in range(u + 1, 30)
        if not graph.has_edge(u, v)
    ][:6]
    check_splice(graph, [], missing)
    grown = graph.copy()
    grown.add_edges_from(missing)
    check_splice(grown, missing, [])


def test_five_threads_splicing_at_once_match_a_serial_run():
    graph = random_graph(random.Random(21), 40)
    rng = random.Random(4)
    indexed = IndexedGraph(graph)
    edges = list(indexed.edges)
    jobs = []
    for worker in range(5):
        deleted = sorted(indexed.edge_id(*edge) for edge in rng.sample(edges, 4))
        inserted = [canonical_edge(-1 - worker, 10 + worker), canonical_edge(-1 - worker, 99)]
        jobs.append((deleted, inserted))

    def chain(deleted, inserted):
        prints = []
        for _ in range(20):
            prints.append(splice_bytes(indexed._apply_edge_delta(deleted, inserted)))
        return prints

    serial = [chain(*job) for job in jobs]
    results = [None] * len(jobs)

    def run(position):
        results[position] = chain(*jobs[position])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(["triangle", "rectangle", "rectri"]))
@settings(max_examples=25, deadline=None)
def test_carried_over_index_state_equals_the_numpy_derivation(seed, motif):
    rng = random.Random(seed)
    graph = random_graph(rng, rng.randint(8, 24))
    edges = sorted(graph.edges())
    if len(edges) < 6:
        return
    targets = [canonical_edge(*edge) for edge in rng.sample(edges, 3)]
    phase1 = graph.without_edges(targets)
    native = TargetSubgraphIndex(phase1, targets, motif)
    with numpy_index_side():
        reference = TargetSubgraphIndex(phase1, targets, motif)
    ends = [x for target in targets for x in target]
    for step in range(3):
        live = sorted(native.indexed_graph.edges)
        near = [(ends[step], FRESH[step]), (ends[step + 1], ends[step + 3])]
        delta = EdgeDelta.from_edges(
            insert=[
                canonical_edge(u, v)
                for u, v in near
                if u != v
                and canonical_edge(u, v) not in targets
                and native.indexed_graph.find_edge_id(u, v) is None
            ],
            delete=rng.sample(live, min(2, len(live))),
        )
        native = native.apply_delta(delta).index
        with numpy_index_side():
            reference = reference.apply_delta(delta).index
        for name in INDEX_ARRAY_FIELDS:
            assert getattr(native, name).tobytes() == getattr(reference, name).tobytes()
        assert native._pair_layout.tobytes() == reference._pair_layout.tobytes()
        assert native._candidate_ids == reference._candidate_ids
        assert native._et_row_mirrors() == reference._et_row_mirrors()


def refusal_graph():
    return IndexedGraph(random_graph(random.Random(2), 12))


def pairs(*rows):
    return np.array(rows, dtype=NP_LONG).reshape(-1, 2)


def ids(*values):
    return np.array(values, dtype=NP_LONG)


def missing_edge(indexed):
    n = indexed.number_of_nodes()
    return next(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if indexed.edge_id_between(u, v) is None
    )


@pytest.mark.parametrize(
    "case",
    [
        "dropped id past the end",
        "negative dropped id",
        "dropped ids out of order",
        "dropped id twice",
        "added endpoint past the nodes",
        "negative added endpoint",
        "added pairs out of order",
        "added self-loop",
        "added edge already there",
        "node map out of order",
        "node map past the new nodes",
        "new nodes without a node map",
        "more drops than edges",
    ],
)
def test_out_of_range_or_unsorted_inputs_are_refused(case):
    indexed = refusal_graph()
    n, m = indexed.number_of_nodes(), indexed.number_of_edges()
    u, v = missing_edge(indexed)
    present = tuple(indexed._endpoint_id_pairs()[0])
    n_new, node_id_map, dropped, added = n, None, ids(), pairs()
    if case == "dropped id past the end":
        dropped = ids(m)
    elif case == "negative dropped id":
        dropped = ids(-1)
    elif case == "dropped ids out of order":
        dropped = ids(3, 1)
    elif case == "dropped id twice":
        dropped = ids(2, 2)
    elif case == "added endpoint past the nodes":
        added = pairs((u, n))
    elif case == "negative added endpoint":
        added = pairs((-1, u))
    elif case == "added pairs out of order":
        added = pairs((n - 2, n - 1), (0, 1))
    elif case == "added self-loop":
        added = pairs((u, u))
    elif case == "added edge already there":
        added = pairs(present)
    elif case == "node map out of order":
        n_new, node_id_map = n + 1, np.arange(n, dtype=NP_LONG)[::-1].copy()
    elif case == "node map past the new nodes":
        n_new, node_id_map = n + 1, np.arange(n, dtype=NP_LONG) + 2
    elif case == "new nodes without a node map":
        n_new = n + 1
    elif case == "more drops than edges":
        dropped = np.arange(m + 1, dtype=NP_LONG)
    with pytest.raises(GraphError):
        indexed._splice_native(load_kernel(), n_new, node_id_map, dropped, added)


def test_a_csr_that_does_not_hold_the_dropped_edge_is_refused():
    indexed = refusal_graph()
    incident = np.frombuffer(indexed._incident_edges, dtype=NP_LONG).copy()
    incident[:] = (incident + 1) % indexed.number_of_edges()
    corrupt = IndexedGraph._restore(
        indexed.nodes,
        indexed._endpoint_id_pairs().reshape(-1),
        indexed._indptr,
        indexed._neighbors,
        indexed_module._as_long_array(incident),
    )
    with pytest.raises(GraphError):
        corrupt._splice_native(load_kernel(), corrupt.number_of_nodes(), None, ids(0), pairs())
