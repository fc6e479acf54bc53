"""Property tests: every index-construction strategy builds the same index.

The library's build (native or numpy passes 2-3) and the seed's
element-wise loops (:func:`seed_index`, kept here as the reference) must
produce **bit-identical** flat arrays — and therefore identical initial
similarities and candidate orders — on every instance.  The edge-id order
is load-bearing for the greedy tie-breaking, so these tests compare the
arrays by bytes, not just by value.
"""

import random
from array import array
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engines import make_engine
from repro.core.model import TPPProblem
from repro.graphs.graph import Graph, canonical_edge
from repro.graphs.indexed import NP_LONG, IndexedGraph
from repro.motifs.base import MotifPattern, coerce_motif
from repro.motifs.enumeration import (
    INDEX_ARRAY_FIELDS,
    TargetSubgraphIndex,
    _enumerate_buffers_python,
)

MOTIFS = ("triangle", "rectangle", "rectri")


def fingerprint(index):
    arrays = tuple(getattr(index, name).tobytes() for name in INDEX_ARRAY_FIELDS)
    return arrays + (index._target_ranges, index._candidate_ids)


def random_instance(seed, max_nodes=16):
    """Return ``(graph, targets)`` with the targets still present as edges."""
    rng = random.Random(seed)
    n = rng.randint(6, max_nodes)
    graph = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < rng.uniform(0.25, 0.5):
                graph.add_edge(u, v)
    edges = sorted(graph.edges())
    if len(edges) < 4:
        return None, None
    targets = rng.sample(edges, rng.randint(1, min(4, len(edges) - 2)))
    return graph, [canonical_edge(*target) for target in targets]


def phase1(graph, targets):
    return graph.without_edges(targets)


def seed_assembly(
    m: int, edge_buffer: array, arity_buffer: array, counts: List[int]
) -> Dict[str, np.ndarray]:
    """The seed's element-wise passes 2-3 over pass-1 buffers, returning
    every :data:`INDEX_ARRAY_FIELDS` array."""
    arrays: Dict[str, np.ndarray] = {}
    inst_indptr: List[int] = [0]
    for arity in arity_buffer:
        inst_indptr.append(inst_indptr[-1] + arity)
    inst_target_idx: List[int] = []
    for position, count in enumerate(counts):
        inst_target_idx.extend([position] * count)
    arrays["_inst_indptr"] = np.asarray(inst_indptr, dtype=NP_LONG)
    arrays["_inst_edge_ids"] = np.array(edge_buffer, dtype=NP_LONG)
    arrays["_inst_target_idx"] = np.asarray(inst_target_idx, dtype=NP_LONG)

    # pass 2: invert into the edge id -> instances CSR
    csr_counts = array("l", [0] * (m + 1))
    for edge_id in edge_buffer:
        csr_counts[edge_id + 1] += 1
    for edge_id in range(m):
        csr_counts[edge_id + 1] += csr_counts[edge_id]
    edge_indptr = csr_counts  # now the CSR offsets
    edge_inst_ids = array("l", [0] * len(edge_buffer))
    cursor = array("l", edge_indptr[:m])
    number_of_instances = len(inst_target_idx)
    for instance_id in range(number_of_instances):
        for position in range(inst_indptr[instance_id], inst_indptr[instance_id + 1]):
            edge_id = edge_buffer[position]
            edge_inst_ids[cursor[edge_id]] = instance_id
            cursor[edge_id] += 1
    arrays["_edge_indptr"] = np.array(edge_indptr, dtype=NP_LONG)
    arrays["_edge_inst_ids"] = np.array(edge_inst_ids, dtype=NP_LONG)
    arrays["_initial_gain"] = np.diff(arrays["_edge_indptr"])

    # pass 3: per-(edge, target) counter matrix, CSR over edge ids.
    # The row of an edge lists the targets whose instances contain it
    # (tidx ascending: each edge's instance list is ascending and
    # instance ids are contiguous per target) with the initial counts.
    et_indptr = array("l", [0] * (m + 1))
    et_tidx: List[int] = []
    et_count: List[int] = []
    slot_of: Dict[Tuple[int, int], int] = {}
    for edge_id in range(m):
        previous_tidx = -1
        for position in range(edge_indptr[edge_id], edge_indptr[edge_id + 1]):
            tidx = inst_target_idx[edge_inst_ids[position]]
            if tidx != previous_tidx:
                slot_of[(edge_id, tidx)] = len(et_tidx)
                et_tidx.append(tidx)
                et_count.append(0)
                previous_tidx = tidx
            et_count[-1] += 1
        et_indptr[edge_id + 1] = len(et_tidx)
    arrays["_et_indptr"] = np.array(et_indptr, dtype=NP_LONG)
    arrays["_et_tidx"] = np.asarray(et_tidx, dtype=NP_LONG)
    arrays["_et_initial_count"] = np.asarray(et_count, dtype=NP_LONG)
    # membership position -> matrix slot of (sibling edge, instance's
    # target), so the kill walk decrements the matrix entry with one
    # array read instead of a hash lookup
    inst_slot = array("l", [0] * len(edge_buffer))
    for instance_id in range(number_of_instances):
        tidx = inst_target_idx[instance_id]
        for position in range(inst_indptr[instance_id], inst_indptr[instance_id + 1]):
            inst_slot[position] = slot_of[(edge_buffer[position], tidx)]
    arrays["_inst_slot"] = np.array(inst_slot, dtype=NP_LONG)
    return arrays


def seed_index(graph, targets, motif) -> TargetSubgraphIndex:
    """The seed's build: the Python walks, then :func:`seed_assembly`."""
    motif = coerce_motif(motif)
    indexed = IndexedGraph(graph)
    buffers = _enumerate_buffers_python(indexed, graph, motif, targets)
    arrays = seed_assembly(indexed.number_of_edges(), *buffers)
    return TargetSubgraphIndex._restore(indexed, targets, motif, arrays)


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=len(MOTIFS) - 1),
)
@settings(max_examples=40, deadline=None)
def test_numpy_assembly_matches_seed_assembly(seed, motif_index):
    graph, targets = random_instance(seed)
    if graph is None:
        return
    motif = MOTIFS[motif_index]
    removed = phase1(graph, targets)
    vectorized = TargetSubgraphIndex(removed, targets, motif)
    reference = seed_index(removed, targets, motif)
    assert fingerprint(vectorized) == fingerprint(reference)
    for target in targets:
        assert vectorized.initial_similarity(target) == reference.initial_similarity(
            target
        )
    assert vectorized.candidate_edge_list() == reference.candidate_edge_list()


class TupleOnlyRectangle(MotifPattern):
    """A custom motif with no id-space override: the parallel dispatcher must
    route it through the same tuple-enumeration fallback as the serial build."""

    name = "tuple-only-rectangle"

    def enumerate_instances(self, graph, target):
        u, v = target
        if not (graph.has_node(u) and graph.has_node(v)):
            return
        neighbors_v = graph.neighbors(v)
        for a in graph.neighbors(u):
            if a == v or a == u:
                continue
            for b in graph.neighbors(a):
                if b == u or b == v or b == a:
                    continue
                if b in neighbors_v:
                    yield frozenset(
                        (
                            self._canonical(u, a),
                            self._canonical(a, b),
                            self._canonical(b, v),
                        )
                    )


class EmptyInstanceTriangle(MotifPattern):
    """Yields triangle instances plus one pathological zero-arity instance."""

    name = "empty-instance-triangle"

    def enumerate_instances(self, graph, target):
        u, v = target
        if not (graph.has_node(u) and graph.has_node(v)):
            return
        yield frozenset()  # an instance with no protector edges
        for w in graph.common_neighbors(u, v):
            yield frozenset((self._canonical(u, w), self._canonical(w, v)))


def test_zero_arity_instances_survive_the_vectorized_kernel():
    """A zero-arity instance has no memberships: it counts toward similarity,
    can never be broken, and must not corrupt the vectorized gain passes
    (the seed's element-wise loops skipped it implicitly)."""
    graph, targets = random_instance(7)
    removed = phase1(graph, targets)
    index = TargetSubgraphIndex(removed, targets, EmptyInstanceTriangle())
    reference = seed_index(removed, targets, EmptyInstanceTriangle())
    assert fingerprint(index) == fingerprint(reference)
    state = index.new_state()
    recount = make_engine(
        TPPProblem(graph, targets, motif=EmptyInstanceTriangle()), "recount"
    )
    for target in targets:
        assert state.gains_for_target(target) == recount.target_gain_map(target)
    for edge in state.candidate_edge_list():
        assert state.delete_edge(edge) == recount.commit(edge)
        assert state.total_similarity() == recount.total_similarity()
    # the empty instances are exactly the unbreakable remainder
    assert state.total_similarity() == sum(
        1 for _ in targets
    )


def test_custom_tuple_motif_fallback_matches_builtin_rectangle():
    for seed in (1, 5, 9):
        graph, targets = random_instance(seed)
        if graph is None:
            continue
        removed = phase1(graph, targets)
        fallback = TargetSubgraphIndex(removed, targets, TupleOnlyRectangle())
        builtin = TargetSubgraphIndex(removed, targets, "rectangle")
        assert fallback.number_of_instances() == builtin.number_of_instances()
        assert fallback.candidate_edge_list() == builtin.candidate_edge_list()
