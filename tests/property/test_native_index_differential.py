"""Differential suite: the native index side vs the Python walks and numpy.

With the native kernel loaded, a build, :meth:`TargetSubgraphIndex.restricted_to`
and every delta run their index side in ``coverage_kernel.c``: the
triangle, rectangle and rectri walks (``repro_walk_motif``) and assembly
passes 2-3 (``repro_assemble_index``).  The Python walks and the numpy
assembly stay as the ``REPRO_NATIVE=0`` fallback; these tests pin the two
sides to each other:

* the native walk's rows equal ``enumerate_instance_edge_ids`` row for row,
  including targets with an endpoint missing from the graph, targets that
  share an endpoint, and hubs;
* builds, restrictions and delta chains give the same
  :data:`~repro.motifs.enumeration.INDEX_ARRAY_FIELDS` bytes either way;
* walks larger than the first output buffer (a dense bipartite hub graph
  with thousands of instances per target, and a one-row buffer) re-walk
  into an exact one;
* builds, restrictions and a delta chain running at once on several
  threads give the bytes of a serial run (the kernel keeps no shared
  scratch);
* a CSR or membership buffer out of range, or per-target counts that do
  not add up to the instances, are refused with
  :class:`~repro.exceptions.MotifError` instead of being read.

Everything is skipped when the native kernel cannot be loaded (no
compiler, or ``REPRO_NATIVE=0``).
"""

from __future__ import annotations

import random
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._native import load_kernel, native_available
from repro.exceptions import MotifError
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.indexed import NP_LONG, IndexedGraph, _as_long_array
from repro.motifs import enumeration
from repro.motifs.base import coerce_motif
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex
from repro.motifs.updates import EdgeDelta

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="native kernel not loadable (no compiler or REPRO_NATIVE=0)",
)

MOTIFS = ("triangle", "rectangle", "rectri")


def fingerprint(index):
    arrays = tuple(getattr(index, name).tobytes() for name in INDEX_ARRAY_FIELDS)
    return arrays + (index._target_ranges, index._candidate_ids)


def numpy_side():
    """Run the index side as without a native kernel: Python walks, numpy
    assembly (the kernel's other users are unaffected)."""
    return mock.patch.object(enumeration, "load_kernel", lambda: None)


def hub_instance(seed, max_nodes=24):
    """A random graph with two hubs adjacent to most nodes, and targets
    (removed from it) that include pairs sharing a hub endpoint."""
    rng = random.Random(seed)
    n = rng.randint(6, max_nodes)
    graph = Graph(nodes=range(n))
    density = rng.uniform(0.1, 0.5)
    for u in range(n):
        for v in range(u + 1, n):
            hub = u < 2
            if rng.random() < (0.85 if hub else density):
                graph.add_edge(u, v)
    edges = sorted(graph.edges())
    if len(edges) < 4:
        return None, None
    targets = rng.sample(edges, rng.randint(1, min(5, len(edges) - 2)))
    hub_edges = [edge for edge in edges if edge[0] == 0 and edge not in targets]
    targets += hub_edges[: rng.randint(0, 2)]
    return graph, [canonical_edge(*target) for target in targets]


def python_rows(motif, indexed, graph, targets):
    return [
        [tuple(row) for row in motif.enumerate_instance_edge_ids(indexed, graph, target)]
        for target in targets
    ]


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=len(MOTIFS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_native_walk_rows_equal_the_python_walk(seed, motif_index):
    graph, targets = hub_instance(seed)
    if graph is None:
        return
    phase1 = graph.without_edges(targets)
    indexed = IndexedGraph(phase1)
    motif = coerce_motif(MOTIFS[motif_index])
    # an endpoint the graph does not have yields no instances
    walked = targets + [("ghost", 0), (1, "ghost")]
    code, arity = enumeration._NATIVE_WALKS[type(motif)]
    edge_ids, arities, counts = enumeration._walk_native(
        load_kernel(), (code, arity), indexed, walked
    )
    expected = python_rows(motif, indexed, phase1, walked)
    assert counts == [len(rows) for rows in expected]
    assert edge_ids.tolist() == [x for rows in expected for row in rows for x in row]
    assert arities.tolist() == [arity] * sum(counts)
    assert counts[-2:] == [0, 0]


def random_delta(phase1, targets, rng, fresh_start):
    target_set = set(targets)
    live = sorted(canonical_edge(*edge) for edge in phase1.edges())
    nodes = sorted(phase1.nodes())
    deletions = rng.sample(live, min(len(live), rng.randint(0, 3)))
    insertions = []
    for attempt in range(rng.randint(1, 5)):
        u = rng.choice([x for target in targets for x in target])
        v = rng.choice(nodes + [fresh_start + attempt])
        edge = canonical_edge(u, v)
        if u == v or edge in target_set or phase1.has_edge(*edge) or edge in insertions:
            continue
        insertions.append(edge)
    return EdgeDelta.from_edges(insert=insertions, delete=deletions)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=len(MOTIFS) - 1),
)
@settings(max_examples=40, deadline=None)
def test_native_and_numpy_index_sides_give_the_same_bytes(seed, motif_index):
    graph, targets = hub_instance(seed)
    if graph is None:
        return
    motif = MOTIFS[motif_index]
    phase1 = graph.without_edges(targets)
    native = TargetSubgraphIndex(phase1, targets, motif)
    with numpy_side():
        reference = TargetSubgraphIndex(phase1, targets, motif)
    assert fingerprint(native) == fingerprint(reference)

    rng = random.Random(seed)
    subset = rng.sample(targets, rng.randint(1, len(targets)))
    restricted = native.restricted_to(subset)
    with numpy_side():
        assert fingerprint(restricted) == fingerprint(reference.restricted_to(subset))

    fresh_start = 1000
    for _ in range(3):
        delta = random_delta(phase1, targets, rng, fresh_start)
        fresh_start += 10
        native_outcome = native.apply_delta(delta)
        with numpy_side():
            reference_outcome = reference.apply_delta(delta)
        assert fingerprint(native_outcome.index) == fingerprint(reference_outcome.index)
        assert native_outcome.changed_targets == reference_outcome.changed_targets
        assert native_outcome.instances_added == reference_outcome.instances_added
        native, reference = native_outcome.index, reference_outcome.index
        phase1 = native.indexed_graph.to_graph()


def test_one_row_walk_buffer_rewalks_into_an_exact_one():
    for seed in range(12):
        graph, targets = hub_instance(seed)
        if graph is None:
            continue
        phase1 = graph.without_edges(targets)
        for motif in MOTIFS:
            with mock.patch.object(enumeration, "_WALK_ROWS", 1):
                native = TargetSubgraphIndex(phase1, targets, motif)
            with numpy_side():
                reference = TargetSubgraphIndex(phase1, targets, motif)
            assert fingerprint(native) == fingerprint(reference)


def dense_hub_graph():
    """K_{60,60} plus thirty hubs adjacent to every bipartite node, and three
    apex nodes sharing 2,500 leaves: thousands of rectangle and rectri
    instances per bipartite target, 2,500 triangles per apex target.
    Returns the phase-1 graph (targets removed) and the targets."""
    graph = Graph()
    left, right = range(60), range(100, 160)
    for a in left:
        for b in right:
            graph.add_edge(a, b)
    for hub in range(200, 230):
        for x in list(left) + list(right):
            graph.add_edge(hub, x)
    for leaf in range(1000, 3500):
        graph.add_edge(-1, leaf)
        graph.add_edge(-2, leaf)
        graph.add_edge(-3, leaf)
    targets = [canonical_edge(*t) for t in ((0, 100), (1, 101), (2, 130), (-2, -1), (-3, -1))]
    return graph.without_edges(targets), targets


@pytest.mark.parametrize("motif", MOTIFS)
def test_dense_hub_walks_outgrow_the_first_buffer(motif):
    graph, targets = dense_hub_graph()
    native = TargetSubgraphIndex(graph, targets, motif)
    assert native.number_of_instances() > enumeration._WALK_ROWS
    assert max(native.initial_similarity(target) for target in targets) > 2000
    with numpy_side():
        reference = TargetSubgraphIndex(graph, targets, motif)
    assert fingerprint(native) == fingerprint(reference)


def test_concurrent_builds_restrictions_and_deltas_match_a_serial_run():
    graph, targets = dense_hub_graph()
    rng = random.Random(3)
    targets = targets + [canonical_edge(a, b) for a, b in ((3, 103), (4, 140), (5, 150))]
    graph = graph.without_edges(targets)
    index = TargetSubgraphIndex(graph, targets, "rectangle")
    # each builder walks the targets in its own order (and builds once), so
    # overlapping walks on shared scratch would read each other's marks
    orders = [rng.sample(targets, len(targets)) for _ in range(4)]
    subsets = [rng.sample(targets, 3) for _ in range(8)]
    deltas = [
        EdgeDelta.from_edges(
            insert=[canonical_edge(3 + step, 170 + step)],
            delete=[canonical_edge(10 + step, 110 + step)],
        )
        for step in range(8)
    ]

    indexed = index.indexed_graph

    def build(order):
        walks = [
            enumeration._enumerate_buffers(indexed, graph, coerce_motif(motif), order)
            for motif in MOTIFS * 8
        ]
        return [(edges.tobytes(), counts) for edges, _, counts in walks] + [
            fingerprint(TargetSubgraphIndex(graph, order, "rectri"))
        ]

    def restrict():
        return [fingerprint(index.restricted_to(subset)) for subset in subsets]

    def delta_chain():
        current, prints = index, []
        for delta in deltas:
            current = current.apply_delta(delta).index
            prints.append(fingerprint(current))
        return prints

    jobs = {f"build{i}": (build, (order,)) for i, order in enumerate(orders)}
    jobs.update({f"restrict{i}": (restrict, ()) for i in range(2)})
    jobs["chain"] = (delta_chain, ())
    serial = {name: job(*args) for name, (job, args) in jobs.items()}

    results = {}

    def run(name):
        job, args = jobs[name]
        results[name] = job(*args)

    # more threads than cores, switching often: ctypes drops the GIL in
    # every walk and assembly call, so these calls overlap in C
    threads = [threading.Thread(target=run, args=(name,)) for name in jobs]
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


def test_out_of_range_csr_is_refused_not_read():
    graph, targets = hub_instance(4)
    indexed = IndexedGraph(graph.without_edges(targets))
    neighbors = np.frombuffer(indexed._neighbors, dtype=NP_LONG).copy()
    neighbors[0] = 10**9
    corrupt = IndexedGraph._restore(
        indexed.nodes,
        indexed._endpoint_id_pairs().reshape(-1),
        indexed._indptr,
        _as_long_array(neighbors),
        indexed._incident_edges,
    )
    for motif in MOTIFS:
        walk = enumeration._NATIVE_WALKS[type(coerce_motif(motif))]
        with pytest.raises(MotifError):
            enumeration._walk_native(
                load_kernel(), walk, corrupt, [(0, x) for x in range(1, 6)]
            )


def test_out_of_range_membership_is_refused():
    graph, targets = hub_instance(4)
    index = TargetSubgraphIndex(graph.without_edges(targets), targets, "triangle")
    m = index.indexed_graph.number_of_edges()
    buffer = np.array([0, m], dtype=NP_LONG)
    counts = [1] + [0] * (len(targets) - 1)
    with pytest.raises(MotifError):
        TargetSubgraphIndex._from_buffers(
            index.indexed_graph,
            index.targets,
            index.motif,
            buffer,
            np.array([2], dtype=NP_LONG),
            counts,
        )


@pytest.mark.parametrize("extra", [-1, 1])
def test_per_target_counts_that_miss_an_instance_are_refused(extra):
    # the counts give each instance its target; one too few or too many
    # would make the run-length pass read past the target-index array
    graph, targets = hub_instance(4)
    index = TargetSubgraphIndex(graph.without_edges(targets), targets, "triangle")
    buffer = np.array([0, 1, 0, 1], dtype=NP_LONG)
    counts = [2 + extra] + [0] * (len(targets) - 1)
    with pytest.raises(MotifError):
        TargetSubgraphIndex._from_buffers(
            index.indexed_graph,
            index.targets,
            index.motif,
            buffer,
            np.array([2, 2], dtype=NP_LONG),
            counts,
        )
