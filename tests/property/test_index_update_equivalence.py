"""Property tests: delta application is bit-identical to a fresh rebuild.

``apply_delta`` splices edge insertions/deletions into a built
:class:`~repro.motifs.enumeration.TargetSubgraphIndex` by touching only the
motif instances incident to the changed edges.  These tests drive randomized
insert/delete sequences — edges inside and outside motif instances, edges
incident to target endpoints, brand-new nodes, insert-then-delete round
trips — through every built-in motif plus a custom tuple-only motif and a
zero-arity motif, and assert the spliced index equals a
``TargetSubgraphIndex`` built from scratch on the updated graph **by
bytes**: all flat arrays, the per-target ranges, the candidate order, and
the underlying graph's CSR.  The greedy engines (kernel and recount) then
must produce identical traces on the spliced and the rebuilt session.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import TPPProblem
from repro.exceptions import DeltaError
from repro.graphs.graph import Graph, canonical_edge
from repro.motifs.base import MotifPattern
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex
from repro.motifs.updates import EdgeDelta
from repro.service import ProtectionRequest, ProtectionService

MOTIFS = ("triangle", "rectangle", "rectri", "path4", "clique4")

GREEDY_METHODS = ("SGB-Greedy", "CT-Greedy:TBD", "WT-Greedy:TBD")


def fingerprint(index):
    arrays = tuple(getattr(index, name).tobytes() for name in INDEX_ARRAY_FIELDS)
    return arrays + (index._target_ranges, index._candidate_ids)


def graph_fingerprint(indexed):
    return (
        indexed.nodes,
        bytes(indexed._indptr),
        bytes(indexed._neighbors),
        bytes(indexed._incident_edges),
        indexed._endpoint_id_pairs().tobytes(),
    )


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


def random_operations(phase1, targets, rng, max_ops=8, new_nodes=True):
    """An ordered, valid insert/delete sequence against ``phase1``.

    Tracks the live edge set while generating so later operations may touch
    earlier ones (insert an edge, then delete it again).  Deliberately mixes
    edges far from any target with edges incident to target endpoints — the
    radius-ball pruning must never skip a target that gains instances.
    """
    target_set = {canonical_edge(*target) for target in targets}
    live = {canonical_edge(*edge) for edge in phase1.edges()}
    nodes = sorted(phase1.nodes())
    fresh = [max(nodes) + 1 + i for i in range(2)] if new_nodes else []
    target_nodes = sorted({x for target in targets for x in target})
    ops = []
    for _ in range(rng.randint(1, max_ops)):
        if live and rng.random() < 0.45:
            edge = rng.choice(sorted(live))
            ops.append(("delete", edge))
            live.discard(edge)
            continue
        pool = nodes + fresh if rng.random() < 0.3 else nodes
        # half the inserts aim at a target endpoint to stress re-enumeration
        if target_nodes and rng.random() < 0.5:
            u = rng.choice(target_nodes)
        else:
            u = rng.choice(pool)
        v = rng.choice(pool)
        edge = canonical_edge(u, v)
        if u == v or edge in target_set or edge in live:
            continue
        ops.append(("insert", edge))
        live.add(edge)
    return ops


def updated_phase1(phase1, ops):
    """Replay the *net* effect of ``ops`` on a copy of ``phase1``.

    A naive op-by-op replay diverges from delta semantics in one corner: an
    edge to a brand-new node that is inserted and deleted again inside one
    batch leaves an isolated node behind in a ``Graph`` replay, while the
    delta (documented as a net no-op) never materialises the node at all.
    """
    live = {canonical_edge(*edge) for edge in phase1.edges()}
    overlay = {}
    for op, edge in ops:
        overlay[edge] = op == "insert"
    updated = phase1.copy()
    for edge, present in overlay.items():
        if present and edge not in live:
            updated.add_edge(*edge)
        elif not present and edge in live:
            updated.remove_edge(*edge)
    return updated


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=len(MOTIFS) - 1),
)
@settings(max_examples=60, deadline=None)
def test_random_delta_converges_to_fresh_build(seed, motif_index):
    graph, targets = random_instance(seed)
    if graph is None:
        return
    motif = MOTIFS[motif_index]
    phase1 = graph.without_edges(targets)
    index = TargetSubgraphIndex(phase1, targets, motif)
    rng = random.Random(seed * 31 + motif_index)
    ops = random_operations(phase1, targets, rng)
    if not ops:
        return
    outcome = index.apply_delta(EdgeDelta(tuple(ops)))
    rebuilt = TargetSubgraphIndex(updated_phase1(phase1, ops), targets, motif)
    assert fingerprint(outcome.index) == fingerprint(rebuilt), (seed, motif, ops)
    assert graph_fingerprint(outcome.index.indexed_graph) == graph_fingerprint(
        rebuilt.indexed_graph
    ), (seed, motif, ops)
    # the old index is untouched (copy-on-write)
    assert fingerprint(index) == fingerprint(
        TargetSubgraphIndex(phase1, targets, motif)
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_insert_then_delete_round_trips_to_the_original(seed):
    graph, targets = random_instance(seed)
    if graph is None:
        return
    motif = MOTIFS[seed % len(MOTIFS)]
    phase1 = graph.without_edges(targets)
    index = TargetSubgraphIndex(phase1, targets, motif)
    rng = random.Random(seed)
    target_set = {canonical_edge(*target) for target in targets}
    live = {canonical_edge(*edge) for edge in phase1.edges()}
    nodes = sorted(phase1.nodes())
    inserts = []
    for _ in range(6):
        u, v = rng.sample(nodes, 2)
        edge = canonical_edge(u, v)
        if edge not in target_set and edge not in live:
            live.add(edge)
            inserts.append(edge)
    if not inserts:
        return
    forward = index.apply_delta(EdgeDelta.inserting(*inserts)).index
    back = forward.apply_delta(EdgeDelta.deleting(*inserts)).index
    assert fingerprint(back) == fingerprint(index)
    assert graph_fingerprint(back.indexed_graph) == graph_fingerprint(
        index.indexed_graph
    )
    # one batch that inserts and deletes the same edges is a net no-op and
    # hands back the very same index object
    ops = tuple(("insert", edge) for edge in inserts) + tuple(
        ("delete", edge) for edge in inserts
    )
    outcome = index.apply_delta(EdgeDelta(ops))
    assert outcome.index is index
    assert outcome.edges_inserted == 0 and outcome.edges_deleted == 0


def test_pure_deletions_never_reenumerate():
    graph, targets = random_instance(11)
    phase1 = graph.without_edges(targets)
    index = TargetSubgraphIndex(phase1, targets, "rectangle")
    target_set = {canonical_edge(*target) for target in targets}
    victims = [
        canonical_edge(*edge)
        for edge in sorted(phase1.edges())
        if canonical_edge(*edge) not in target_set
    ][:3]
    outcome = index.apply_delta(EdgeDelta.deleting(*victims))
    assert outcome.targets_reenumerated == 0
    rebuilt = TargetSubgraphIndex(
        updated_phase1(phase1, [("delete", v) for v in victims]), targets, "rectangle"
    )
    assert fingerprint(outcome.index) == fingerprint(rebuilt)


def test_inserting_a_target_link_is_refused():
    graph, targets = random_instance(3)
    phase1 = graph.without_edges(targets)
    index = TargetSubgraphIndex(phase1, targets, "triangle")
    try:
        index.apply_delta(EdgeDelta.inserting(targets[0]))
    except DeltaError:
        pass
    else:
        raise AssertionError("inserting a protected target link must raise")


class TupleOnlyRectangle(MotifPattern):
    """No id-space override: the delta path must route re-enumeration through
    the same tuple fallback (and canonical ordering) as a fresh build."""

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


def test_custom_tuple_motif_delta_matches_rebuild():
    checked = 0
    for seed in range(24):
        graph, targets = random_instance(seed)
        if graph is None:
            continue
        phase1 = graph.without_edges(targets)
        index = TargetSubgraphIndex(phase1, targets, TupleOnlyRectangle())
        rng = random.Random(seed + 99)
        ops = random_operations(phase1, targets, rng, max_ops=5)
        if not ops:
            continue
        outcome = index.apply_delta(EdgeDelta(tuple(ops)))
        rebuilt = TargetSubgraphIndex(
            updated_phase1(phase1, ops), targets, TupleOnlyRectangle()
        )
        assert fingerprint(outcome.index) == fingerprint(rebuilt), (seed, ops)
        checked += 1
        if checked >= 6:
            break
    assert checked >= 3, "not enough non-trivial random instances"


def test_zero_arity_motif_delta_matches_rebuild():
    """Zero-arity instances survive both the destroy splice (they can never
    be destroyed: no memberships) and the re-enumeration merge."""
    for seed in (7, 13):
        graph, targets = random_instance(seed)
        phase1 = graph.without_edges(targets)
        index = TargetSubgraphIndex(phase1, targets, EmptyInstanceTriangle())
        rng = random.Random(seed)
        ops = random_operations(phase1, targets, rng, max_ops=6)
        if not ops:
            continue
        outcome = index.apply_delta(EdgeDelta(tuple(ops)))
        rebuilt = TargetSubgraphIndex(
            updated_phase1(phase1, ops), targets, EmptyInstanceTriangle()
        )
        assert fingerprint(outcome.index) == fingerprint(rebuilt), (seed, ops)


def test_greedy_traces_agree_after_delta_for_both_engines():
    """Kernel *and* recount engines answer identically on a delta-updated
    problem and a problem built from scratch on the updated graph."""
    checked = 0
    for seed in range(20):
        graph, targets = random_instance(seed)
        if graph is None:
            continue
        motif = MOTIFS[seed % len(MOTIFS)]
        problem = TPPProblem(graph, targets, motif=motif)
        index = problem.build_index()
        rng = random.Random(seed * 7 + 1)
        ops = random_operations(problem.phase1_graph, targets, rng, new_nodes=False)
        if not ops:
            continue
        applied_problem, outcome = problem.apply_delta(EdgeDelta(tuple(ops)))
        if outcome.index.number_of_instances() == 0:
            continue
        updated_graph = updated_phase1(problem.phase1_graph, ops)
        updated_graph.add_edges_from(targets)
        rebuilt_problem = TPPProblem(
            updated_graph, targets, motif=motif, constant=applied_problem.constant
        )
        applied_service = ProtectionService(applied_problem)
        rebuilt_service = ProtectionService(rebuilt_problem)
        budget = max(1, outcome.index.number_of_instances() // 2)
        for method in GREEDY_METHODS:
            for engine in ("coverage", "recount"):
                lhs = applied_service.solve(
                    ProtectionRequest(method, budget, engine=engine)
                )
                rhs = rebuilt_service.solve(
                    ProtectionRequest(method, budget, engine=engine)
                )
                assert (lhs.protectors, lhs.similarity_trace) == (
                    rhs.protectors,
                    rhs.similarity_trace,
                ), (seed, motif, method, engine)
        checked += 1
        if checked >= 4:
            break
    assert checked >= 2, "not enough non-trivial random instances"


def test_counter_matrix_rebuilt_from_spliced_arrays():
    """The pristine per-(edge, target) counters of a spliced index equal the
    rebuilt index's — CoverageState starts from identical state."""
    graph, targets = random_instance(5)
    phase1 = graph.without_edges(targets)
    index = TargetSubgraphIndex(phase1, targets, "triangle")
    rng = random.Random(5)
    ops = random_operations(phase1, targets, rng)
    outcome = index.apply_delta(EdgeDelta(tuple(ops)))
    rebuilt = TargetSubgraphIndex(updated_phase1(phase1, ops), targets, "triangle")
    assert np.array_equal(outcome.index._et_initial_count, rebuilt._et_initial_count)
    lhs, rhs = outcome.index.new_state(), rebuilt.new_state()
    assert lhs.total_similarity() == rhs.total_similarity()
    assert lhs.candidate_edge_list() == rhs.candidate_edge_list()


# ----------------------------------------------------------------------
# splice edge cases: the ends of the edge table and of the CSR
# ----------------------------------------------------------------------
def assert_delta_matches_rebuild(phase1, targets, motif, ops):
    index = TargetSubgraphIndex(phase1, targets, motif)
    outcome = index.apply_delta(EdgeDelta(tuple(ops)))
    rebuilt = TargetSubgraphIndex(updated_phase1(phase1, ops), targets, motif)
    assert fingerprint(outcome.index) == fingerprint(rebuilt), (motif, ops)
    assert graph_fingerprint(outcome.index.indexed_graph) == graph_fingerprint(
        rebuilt.indexed_graph
    ), (motif, ops)


def splice_instances():
    """Random instances of every built-in motif, a few seeds each."""
    for seed in (2, 5, 8, 17):
        graph, targets = random_instance(seed)
        if graph is None:
            continue
        for motif in MOTIFS:
            yield graph.without_edges(targets), targets, motif


def absent_edges(phase1, targets, u):
    """Canonical non-edges at ``u`` that are not targets, in node order."""
    blocked = {canonical_edge(*target) for target in targets}
    return [
        canonical_edge(u, v)
        for v in sorted(phase1.nodes())
        if v != u
        and not phase1.has_edge(u, v)
        and canonical_edge(u, v) not in blocked
    ]


def test_deleting_the_first_and_last_edge_ids_matches_rebuild():
    for phase1, targets, motif in splice_instances():
        edges = TargetSubgraphIndex(phase1, targets, motif).indexed_graph.edges
        ops = [("delete", edges[0]), ("delete", edges[-1])]
        assert_delta_matches_rebuild(phase1, targets, motif, ops)


def test_emptying_a_csr_row_matches_rebuild():
    for phase1, targets, motif in splice_instances():
        endpoints = {x for target in targets for x in target}
        # the busiest target endpoint loses every edge: its row empties
        node = max(
            sorted(phase1.nodes()), key=lambda x: (x in endpoints, phase1.degree(x))
        )
        ops = [
            ("delete", canonical_edge(node, v)) for v in sorted(phase1.neighbors(node))
        ]
        assert_delta_matches_rebuild(phase1, targets, motif, ops)


def test_insertions_into_the_first_and_last_rows_match_rebuild():
    for phase1, targets, motif in splice_instances():
        order = TargetSubgraphIndex(phase1, targets, motif).indexed_graph.nodes
        first, last = order[0], order[-1]
        ops = []
        for node in (first, last):
            # the lowest and the highest missing neighbor of the row
            candidates = absent_edges(phase1, targets, node)
            for edge in candidates[:1] + candidates[-1:]:
                if ("insert", edge) not in ops:
                    ops.append(("insert", edge))
        assert ops
        assert_delta_matches_rebuild(phase1, targets, motif, ops)


def test_new_labels_sorting_before_and_after_every_label_match_rebuild():
    for phase1, targets, motif in splice_instances():
        nodes = sorted(phase1.nodes())
        # int labels 0..15: "-1" sorts first and "99" last in str order
        assert str(-1) < min(map(str, nodes)) and str(99) > max(map(str, nodes))
        victim = canonical_edge(*sorted(phase1.edges())[0])
        ops = [
            ("insert", canonical_edge(-1, nodes[0])),
            ("insert", canonical_edge(99, nodes[-1])),
            ("insert", canonical_edge(-1, 99)),
            ("delete", victim),
        ]
        assert_delta_matches_rebuild(phase1, targets, motif, ops)
