"""Property tests: every index-construction strategy builds the same index.

The vectorised assembly (``assembly="numpy"``) and the seed's element-wise
loops (``assembly="python"``) must produce **bit-identical** flat arrays —
and therefore identical initial similarities and candidate orders — on
every instance.  The edge-id order is load-bearing for the
greedy tie-breaking, so these tests compare the arrays by bytes, not just by
value.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engines import make_engine
from repro.core.model import TPPProblem
from repro.graphs.graph import Graph, canonical_edge
from repro.motifs.base import MotifPattern
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex

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
    reference = TargetSubgraphIndex(removed, targets, motif, assembly="python")
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
    reference = TargetSubgraphIndex(
        removed, targets, EmptyInstanceTriangle(), assembly="python"
    )
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
