"""Property suite: a restricted subset index equals an enumerated one, by bytes.

A subset query's sub-session takes its index from
:meth:`TargetSubgraphIndex.restricted_to` — the kept targets' instance
blocks sliced out of the session's built index — instead of enumerating the
subset on the phase-1 graph.  Each target is enumerated independently on
the shared phase-1 graph, so the two must agree.  These tests draw random
instances and random target subsets on freshly built, snapshot-restored and
delta-chain-updated parents, across the built-in triangle / rectangle /
rectri motifs and a custom tuple-only motif (the canonicalised fallback),
and pin:

* every :data:`~repro.motifs.enumeration.INDEX_ARRAY_FIELDS` array of the
  restricted sub-session equals, by bytes, the array of the same subset
  enumerated through :meth:`ProtectionService.for_filtered_targets`;
* SGB / CT:TBD / WT:TBD / RDT answers (protectors and traces) are identical
  on the two.
"""

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import TPPProblem
from repro.exceptions import MotifError
from repro.graphs.graph import Graph, canonical_edge, edge_sort_key
from repro.motifs.base import MotifPattern
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex
from repro.motifs.updates import EdgeDelta
from repro.service import ProtectionRequest, ProtectionService

PARENTS = ("built", "snapshot", "delta")

METHODS = ("SGB-Greedy", "CT-Greedy:TBD", "WT-Greedy:TBD", "RDT")


class TupleOnlyRectangle(MotifPattern):
    """No id-space override: enumeration takes the canonicalised fallback."""

    name = "tuple-only-rectangle-subset"

    def enumerate_instances(self, graph, target):
        u, v = target
        if not (graph.has_node(u) and graph.has_node(v)):
            return
        neighbors_v = graph.neighbors(v)
        for a in graph.neighbors(u):
            if a in (u, v):
                continue
            for b in graph.neighbors(a):
                if b in (u, v, a):
                    continue
                if b in neighbors_v:
                    yield frozenset(
                        (
                            self._canonical(u, a),
                            self._canonical(a, b),
                            self._canonical(b, v),
                        )
                    )


MOTIFS = ("triangle", "rectangle", "rectri", TupleOnlyRectangle())


def fingerprint(index):
    arrays = tuple(getattr(index, name).tobytes() for name in INDEX_ARRAY_FIELDS)
    return arrays + (index._target_ranges, index._candidate_ids)


def trace(result):
    return (result.protectors, result.similarity_trace)


def random_instance(rng, max_nodes=16):
    """Return ``(graph, targets)``, targets present as edges, in random order."""
    n = rng.randint(6, max_nodes)
    graph = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < rng.uniform(0.3, 0.55):
                graph.add_edge(u, v)
    edges = sorted(graph.edges())
    if len(edges) < 6:
        return None, None
    targets = rng.sample(edges, rng.randint(2, min(6, len(edges) - 3)))
    return graph, [canonical_edge(*target) for target in targets]


def random_delta(service, rng):
    """A few deletions of live phase-1 edges plus a few fresh insertions."""
    phase1 = service.problem.phase1_graph
    target_set = set(service.problem.targets)
    live = sorted(canonical_edge(*edge) for edge in phase1.edges())
    deletions = rng.sample(live, min(len(live), rng.randint(0, 3)))
    nodes = sorted(phase1.nodes())
    insertions = []
    for _ in range(rng.randint(1, 4)):
        edge = canonical_edge(*rng.sample(nodes, 2))
        if edge in target_set or phase1.has_edge(*edge) or edge in insertions:
            continue
        insertions.append(edge)
    return EdgeDelta.from_edges(insert=insertions, delete=deletions)


def parent_session(graph, targets, motif, kind, rng, scratch):
    """A session over ``(graph, targets, motif)`` whose index is ``kind``."""
    service = ProtectionService(graph, targets, motif=motif)
    if kind == "snapshot":
        path = service.problem.save_index(Path(scratch) / "parent.tppsnap")
        service = ProtectionService.from_snapshot(path)
    elif kind == "delta":
        for _ in range(rng.randint(1, 3)):
            service.apply_delta(random_delta(service, rng))
    return service


@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(MOTIFS),
    st.sampled_from(PARENTS),
)
@settings(max_examples=60, deadline=None)
def test_restricted_subset_equals_enumerated_subset(seed, motif, kind):
    rng = random.Random(seed)
    graph, targets = random_instance(rng)
    if graph is None:
        return
    with tempfile.TemporaryDirectory() as scratch:
        service = parent_session(graph, targets, motif, kind, rng, scratch)
    subset = tuple(rng.sample(targets, rng.randint(1, len(targets) - 1)))
    requests = [
        ProtectionRequest(method, rng.randint(1, 6), seed=seed, targets=subset)
        for method in METHODS
    ]
    served = [service.solve(request) for request in requests]
    (restricted,) = service.cached_subset_sessions().values()
    assert restricted.index.indexed_graph is service.index.indexed_graph

    problem = service.problem
    enumerated = ProtectionService.for_filtered_targets(
        problem.graph,
        problem.targets,
        subset,
        motif=problem.motif,
        constant=problem.constant,
    )
    assert restricted.targets == enumerated.targets
    assert restricted.problem.constant == enumerated.problem.constant
    assert fingerprint(restricted.index) == fingerprint(enumerated.index), (
        seed,
        kind,
        subset,
    )
    for request, answer in zip(requests, served):
        expected = enumerated.solve(request.with_overrides(targets=None))
        assert trace(answer) == trace(expected), (seed, kind, request)


def test_restriction_keeps_the_given_target_order():
    rng = random.Random(5)
    graph, targets = None, None
    while graph is None:
        graph, targets = random_instance(rng)
    phase1 = graph.without_edges(targets)
    index = TargetSubgraphIndex(phase1, targets, "triangle")
    kept = tuple(sorted(targets, key=edge_sort_key, reverse=True))
    restricted = index.restricted_to(kept)
    assert restricted.targets == kept
    assert fingerprint(restricted) == fingerprint(
        TargetSubgraphIndex(phase1, kept, "triangle")
    )
    # restricting to every target in the original order reproduces the index
    assert fingerprint(index.restricted_to(targets)) == fingerprint(index)
    # the problem-level wrapper keeps the phase-1 graph lazy and C inherited
    problem = TPPProblem(graph, targets, motif="triangle")
    sub = problem.restricted_to(kept[:1])
    assert sub.constant == problem.constant
    assert sub._graph is None and sub._phase1_graph is None
    assert sub.build_index().indexed_graph is problem.build_index().indexed_graph


def test_restriction_rejects_unknown_and_repeated_targets():
    rng = random.Random(8)
    graph, targets = None, None
    while graph is None:
        graph, targets = random_instance(rng)
    index = TargetSubgraphIndex(graph.without_edges(targets), targets, "triangle")
    u, v = targets[0]
    with pytest.raises(MotifError, match="duplicates"):
        index.restricted_to(((u, v), (v, u)))
    with pytest.raises(MotifError, match="not targets"):
        index.restricted_to(((-1, -2),))
