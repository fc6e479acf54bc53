"""Differential tests: coverage kernel vs naive recount.

The coverage kernel (``CoverageState`` over the target-subgraph index) and
a from-scratch recount of the graph (the ``recount`` engine, which shares
nothing with the index) are two implementations of the same semantics.
These tests assert they are indistinguishable — identical marginal gains,
identical similarity traces and identical protector sequences (the
tie-breaking is shared: smallest ``edge_sort_key`` among maxima) — across
the three paper motifs, ``path4`` and a tuple-only custom motif on random
graphs.  The native kernel is pinned to the numpy one separately
(``test_native_driver_differential.py``, ``tests/motifs/test_native_kernel.py``).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ct import ct_greedy
from repro.core.engines import make_engine
from repro.core.model import TPPProblem
from repro.core.sgb import sgb_greedy
from repro.core.wt import wt_greedy
from repro.graphs.graph import Graph, canonical_edge
from repro.motifs.base import MotifPattern

ENGINES = ("coverage", "recount")


class TupleOnlyTriangle(MotifPattern):
    """A custom motif with no id-space override (exercises the fallback)."""

    name = "tuple-only-triangle"

    def enumerate_instances(self, graph, target):
        u, v = target
        if not (graph.has_node(u) and graph.has_node(v)):
            return
        for w in graph.common_neighbors(u, v):
            yield frozenset((self._canonical(u, w), self._canonical(w, v)))


MOTIFS = ("triangle", "rectangle", "rectri", "path4", TupleOnlyTriangle())
MOTIF_INDEX = st.integers(min_value=0, max_value=len(MOTIFS) - 1)


def positive_gain_edges(engine):
    """The recount engine's candidates that still break a target subgraph."""
    return {edge for edge in engine.candidate_edges() if engine.total_gain(edge) > 0}


def build_problem(seed: int, motif_index: int):
    rng = random.Random(seed)
    n = rng.randint(6, 13)
    p = rng.uniform(0.2, 0.5)
    graph = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    edges = sorted(graph.edges())
    if len(edges) < 3:
        return None
    rng.shuffle(edges)
    targets = edges[: rng.randint(1, 3)]
    return TPPProblem(graph, targets, motif=MOTIFS[motif_index])


@given(st.integers(min_value=0, max_value=10_000), MOTIF_INDEX)
@settings(max_examples=30, deadline=None)
def test_states_agree_on_gains_and_deletions(seed, motif_index):
    """The kernel state and the recount engine answer every query
    identically along a random deletion sequence."""
    problem = build_problem(seed, motif_index)
    if problem is None:
        return
    kernel = problem.build_index().new_state()
    reference = make_engine(problem, "recount")
    rng = random.Random(seed + 17)
    edges = sorted(problem.phase1_graph.edges())
    rng.shuffle(edges)
    deleted = edges[: min(6, len(edges))]
    for edge in deleted:
        assert kernel.gain(edge) == reference.total_gain(edge)
        assert kernel.gain_by_target(edge) == reference.gain_by_target(edge)
        assert kernel.delete_edge(edge) == reference.commit(edge)
        assert kernel.total_similarity() == reference.total_similarity()
        assert kernel.similarity_by_target() == {
            target: reference.similarity_of(target) for target in problem.targets
        }
        assert kernel.candidate_edges() == positive_gain_edges(reference)
    assert kernel.deleted_edges == tuple(canonical_edge(*edge) for edge in deleted)


@given(st.integers(min_value=0, max_value=10_000), MOTIF_INDEX)
@settings(max_examples=30, deadline=None)
def test_kernel_top_gain_matches_full_scan(seed, motif_index):
    """The heap-backed top_gain_edge equals the argmax of a full gain sweep,
    tie-breaking included, after every deletion."""
    from repro.core.selection import argmax_edge

    problem = build_problem(seed, motif_index)
    if problem is None:
        return
    state = problem.build_index().new_state()
    # every step deletes a positive-gain edge, and only the initial
    # candidates ever have one: a stale gain must fail here, not spin
    bound = len(state.candidate_edges()) + 1
    for _ in range(bound):
        top = state.top_gain_edge()
        best = argmax_edge(state.candidate_edges(), state.gain)
        if top is None:
            assert best is None or best[1] <= 0
            break
        assert best is not None
        assert top == best
        state.delete_edge(top[0])
    else:
        raise AssertionError(
            f"top_gain_edge still reports a positive gain after {bound} "
            "deletions: a kernel gain counter went stale"
        )


@given(st.integers(min_value=0, max_value=10_000), MOTIF_INDEX)
@settings(max_examples=25, deadline=None)
def test_sgb_identical_across_all_engines(seed, motif_index):
    """SGB selects the identical protector sequence and similarity trace on
    the kernel and the naive recount."""
    problem = build_problem(seed, motif_index)
    if problem is None:
        return
    budget = min(5, max(1, problem.initial_similarity()))
    results = [sgb_greedy(problem, budget, engine=engine) for engine in ENGINES]
    baseline = results[0]
    for result in results[1:]:
        assert result.protectors == baseline.protectors
        assert result.similarity_trace == baseline.similarity_trace


@given(st.integers(min_value=0, max_value=10_000), MOTIF_INDEX)
@settings(max_examples=15, deadline=None)
def test_ct_identical_across_all_engines(seed, motif_index):
    problem = build_problem(seed, motif_index)
    if problem is None:
        return
    budget = min(5, max(1, problem.initial_similarity()))
    results = [
        ct_greedy(problem, budget, budget_division="tbd", engine=engine)
        for engine in ENGINES
    ]
    baseline = results[0]
    for result in results[1:]:
        assert result.protectors == baseline.protectors
        assert result.similarity_trace == baseline.similarity_trace
        assert result.allocation == baseline.allocation


@given(st.integers(min_value=0, max_value=10_000), MOTIF_INDEX)
@settings(max_examples=15, deadline=None)
def test_wt_identical_across_all_engines(seed, motif_index):
    problem = build_problem(seed, motif_index)
    if problem is None:
        return
    budget = min(5, max(1, problem.initial_similarity()))
    results = [
        wt_greedy(problem, budget, budget_division="tbd", engine=engine)
        for engine in ENGINES
    ]
    baseline = results[0]
    for result in results[1:]:
        assert result.protectors == baseline.protectors
        assert result.similarity_trace == baseline.similarity_trace
        assert result.allocation == baseline.allocation


@given(st.integers(min_value=0, max_value=10_000), MOTIF_INDEX)
@settings(max_examples=20, deadline=None)
def test_best_scored_pair_heap_matches_full_sweep(seed, motif_index):
    """The kernel's per-target-heap argmax over (target, edge) pairs equals
    the generic edge-major sweep on the recount engine — key, charged target
    and selected edge — along a full greedy deletion sequence, for both the
    all-targets (CT) and single-target (WT) query shapes."""
    problem = build_problem(seed, motif_index)
    if problem is None:
        return
    constant = max(problem.constant, 1)
    kernel = make_engine(problem, "coverage")
    reference = make_engine(problem, "recount")
    targets = problem.targets
    # every commit deletes a positive-gain edge, and only the initial
    # candidates ever have one: a stale gain must fail here, not spin
    bound = len(problem.build_index().new_state().candidate_edges()) + 1
    # alternate between the CT shape (all targets) and the WT shape (each
    # target alone) so the heaps are exercised under both access patterns
    for _ in range(bound):
        best = kernel.best_scored_pair(targets, constant)
        assert best == reference.best_scored_pair(targets, constant)
        for target in targets:
            single = kernel.best_scored_pair((target,), constant)
            assert single == reference.best_scored_pair((target,), constant)
        if best is None:
            break
        _, _, edge = best
        assert kernel.commit(edge) == reference.commit(edge)
    else:
        raise AssertionError(
            f"best_scored_pair still reports a pair after {bound} commits: "
            "a kernel gain counter went stale"
        )


@given(st.integers(min_value=0, max_value=10_000), MOTIF_INDEX)
@settings(max_examples=20, deadline=None)
def test_kernel_copy_is_independent_and_equivalent(seed, motif_index):
    """A copied kernel state diverges independently and still answers like a
    fresh recount engine replaying the same deletions."""
    problem = build_problem(seed, motif_index)
    if problem is None:
        return
    index = problem.build_index()
    state = index.new_state()
    edges = sorted(problem.phase1_graph.edges())
    rng = random.Random(seed)
    rng.shuffle(edges)
    prefix, suffix = edges[:2], edges[2:4]
    state.delete_edges(prefix)
    clone = state.copy()
    clone.delete_edges(suffix)
    # original untouched by the clone's deletions
    reference = make_engine(problem, "recount")
    reference.commit_many(prefix)
    assert state.total_similarity() == reference.total_similarity()
    assert state.candidate_edges() == positive_gain_edges(reference)
    # clone matches a recount replay of the full sequence
    reference.commit_many(suffix)
    assert clone.total_similarity() == reference.total_similarity()
    candidates = positive_gain_edges(reference)
    assert clone.candidate_edges() == candidates
    top = clone.top_gain_edge()
    if top is None:
        assert not candidates
    else:
        edge, gain = top
        assert gain == reference.total_gain(edge)
        assert gain == max(reference.total_gain(e) for e in candidates)
