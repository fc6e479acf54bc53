"""Tests for live delta application on a serving ProtectionService session.

Covers the PR's acceptance guarantees:

* a session keeps serving correct results before and after ``apply_delta``
  without a session rebuild — post-delta answers equal a fresh session
  built on the updated graph,
* copy-on-write — a solve captured before the swap is unaffected,
* subset sub-sessions are invalidated only for subsets that intersect the
  delta's changed targets, and a sub-session derived from the pre-delta
  index while a delta lands is never cached,
* ``deltas_applied`` / ``index_source`` surface in the result metadata, and
* constant handling — auto-bump to the post-delta initial similarity, typed
  refusal of an explicit constant below it.
"""

import sys
import threading
import time

import pytest

from repro.core.model import TPPProblem
from repro.datasets.targets import sample_random_targets
from repro.exceptions import DeltaError, ExperimentError
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import canonical_edge, edge_sort_key
from repro.motifs.enumeration import TargetSubgraphIndex
from repro.motifs.updates import EdgeDelta
from repro.persistence import (
    index_content_hash,
    load_delta_snapshot,
    save_delta_snapshot,
    snapshot_content_hash,
)
from repro.service import ProtectionRequest, ProtectionService


@pytest.fixture
def graph():
    return powerlaw_cluster_graph(220, 3, 0.5, seed=3)


@pytest.fixture
def targets(graph):
    return sample_random_targets(graph, 6, seed=1)


@pytest.fixture
def service(graph, targets):
    return ProtectionService(graph, targets, motif="triangle")


def trace(result):
    return (result.protectors, result.similarity_trace)


def make_delta(service, count=2):
    """Delete ``count`` non-target phase-1 edges and insert two new ones."""
    phase1 = service.problem.phase1_graph
    target_set = {canonical_edge(*target) for target in service.problem.targets}
    deletions = [
        canonical_edge(*edge)
        for edge in sorted(phase1.edges())
        if canonical_edge(*edge) not in target_set
    ][:count]
    nodes = sorted(phase1.nodes())
    insertions = []
    for u in nodes:
        for v in nodes[::-1]:
            edge = canonical_edge(u, v)
            if (
                u != v
                and edge not in target_set
                and not phase1.has_edge(u, v)
                and edge not in insertions
            ):
                insertions.append(edge)
                break
        if len(insertions) == 2:
            break
    return EdgeDelta.from_edges(insert=insertions, delete=deletions)


def updated_graph_problem(service, delta):
    """A fresh problem on the delta's updated graph, same constant."""
    updated = service.problem.phase1_graph.copy()
    for u, v in delta.deleted:
        updated.remove_edge(u, v)
    for u, v in delta.inserted:
        updated.add_edge(u, v)
    updated.add_edges_from(service.problem.targets)
    return TPPProblem(
        updated,
        service.problem.targets,
        motif=service.problem.motif,
        constant=service.problem.constant,
    )


class TestApplyDelta:
    def test_serves_rebuild_identical_results_after_delta(self, service):
        request = ProtectionRequest("SGB-Greedy", 8)
        before = trace(service.solve(request))
        delta = make_delta(service)
        fresh_problem = updated_graph_problem(service, delta)
        outcome = service.apply_delta(delta)
        after = trace(service.solve(request))
        fresh = ProtectionService(fresh_problem)
        assert after == trace(fresh.solve(request))
        # the pre-delta answer is reproducible on a pre-delta session
        assert outcome.edges_deleted == 2 and outcome.edges_inserted == 2
        assert before != after or not outcome.changed_targets

    def test_deltas_applied_surfaces_in_metadata(self, service):
        request = ProtectionRequest("SGB-Greedy", 4)
        assert service.solve(request).extra["service"]["deltas_applied"] == 0
        assert service.deltas_applied == 0
        service.apply_delta(make_delta(service))
        result = service.solve(request)
        assert result.extra["service"]["deltas_applied"] == 1
        assert result.extra["service"]["index_source"] == "delta"
        assert service.deltas_applied == 1
        assert service.index_source == "delta"

    def test_net_noop_delta_keeps_session_state(self, service):
        request = ProtectionRequest("SGB-Greedy", 4)
        before = trace(service.solve(request))
        edge = make_delta(service).inserted[0]
        outcome = service.apply_delta(
            EdgeDelta((("insert", edge), ("delete", edge)))
        )
        assert outcome.changed_targets == ()
        assert trace(service.solve(request)) == before

    def test_constant_autobumps_but_never_shrinks(self, graph, targets):
        problem = TPPProblem(graph, targets, motif="triangle")
        service = ProtectionService(problem)
        original = service.problem.constant
        service.apply_delta(make_delta(service))
        assert service.problem.constant >= original
        initial = service.problem.build_index().initial_total_similarity()
        assert service.problem.constant >= initial

    def test_explicit_constant_below_similarity_refused(self, service):
        delta = make_delta(service)
        with pytest.raises(DeltaError):
            service.apply_delta(delta, constant=0)
        # the failed apply must not have half-swapped the session
        assert service.deltas_applied == 0
        assert service.index_source in ("built", "adopted")

    def test_non_delta_payload_refused(self, service):
        with pytest.raises(ExperimentError):
            service.apply_delta({"insert": [(1, 2)]})

    def test_subset_sessions_invalidate_only_changed_targets(self, service):
        index = service.index
        live = [
            target for target in service.targets if index.initial_similarity(target) > 0
        ]
        assert len(live) >= 4, "fixture needs four targets with motif instances"
        subset_a, subset_b = tuple(live[:2]), tuple(live[-2:])

        def instance_edges(targets):
            return {
                edge
                for target in targets
                for instance in index.instances_of(target)
                for edge in index.edges_of_instance(instance)
            }

        # an edge on one of subset_a's instances and on none of subset_b's:
        # deleting it changes subset_a's instance set and leaves subset_b's
        victim = min(
            instance_edges(subset_a[:1]) - instance_edges(subset_b), key=edge_sort_key
        )
        # name each subset in reverse order: the cache keys are sorted anyway
        for subset in (subset_a, subset_b):
            service.solve(
                ProtectionRequest("SGB-Greedy", 3, targets=tuple(reversed(subset)))
            )
        key_a = tuple(sorted(subset_a, key=edge_sort_key))
        key_b = tuple(sorted(subset_b, key=edge_sort_key))
        assert list(service._subsessions) == [key_a, key_b]
        survivor = service._subsessions[key_b]

        outcome = service.apply_delta(EdgeDelta.deleting(victim))
        assert subset_a[0] in outcome.changed_targets
        assert not set(outcome.changed_targets) & set(subset_b)
        assert list(service._subsessions) == [key_b]
        assert service._subsessions[key_b] is survivor

    def test_second_delta_composes(self, service):
        request = ProtectionRequest("SGB-Greedy", 6)
        first = make_delta(service)
        service.apply_delta(first)
        second = EdgeDelta.deleting(first.inserted[0])
        service.apply_delta(second)
        assert service.deltas_applied == 2
        # an empty delta on the current session state reproduces its graph
        fresh = ProtectionService(updated_graph_problem(service, EdgeDelta(())))
        assert trace(service.solve(request)) == trace(fresh.solve(request))


class TestContentHash:
    """The session keeps its content hash; a delta snapshot costs one hash."""

    def test_from_snapshot_seeds_the_hash_from_the_header(
        self, service, tmp_path, monkeypatch
    ):
        path = service.problem.save_index(tmp_path / "s.tppsnap")
        restored = ProtectionService.from_snapshot(path)
        hashed = []
        monkeypatch.setattr(
            "repro.service.service.index_content_hash",
            lambda index: hashed.append(index) or index_content_hash(index),
        )
        assert restored.content_hash() == index_content_hash(restored.index)
        assert hashed == []

    def test_built_session_hashes_once_then_keeps_it(self, service, monkeypatch):
        hashed = []
        monkeypatch.setattr(
            "repro.service.service.index_content_hash",
            lambda index: hashed.append(index) or index_content_hash(index),
        )
        assert service.content_hash() == service.content_hash()
        assert hashed == [service.index]
        # a plain EdgeDelta swaps the index: the hash follows it
        service.apply_delta(make_delta(service))
        assert service.content_hash() == index_content_hash(service.index)
        assert len(hashed) == 2

    def test_delta_snapshot_applies_with_exactly_one_hash(
        self, service, tmp_path, monkeypatch
    ):
        delta = make_delta(service)
        parent = service.content_hash()
        _, outcome = service.problem.apply_delta(delta)
        path = save_delta_snapshot(
            tmp_path / "d.tppdelta", delta, parent, outcome.index
        )
        snapshot = load_delta_snapshot(path)
        hashed = []

        def counting(index):
            hashed.append(index)
            return index_content_hash(index)

        monkeypatch.setattr("repro.persistence.delta.index_content_hash", counting)
        monkeypatch.setattr("repro.service.service.index_content_hash", counting)
        applied = service.apply_delta(snapshot)
        assert hashed == [applied.index]
        assert service.content_hash() == snapshot.result_content_hash
        assert len(hashed) == 1

    def test_new_labels_hash_like_a_fresh_snapshot_of_the_updated_graph(
        self, service, tmp_path
    ):
        """The node-encoding memo is keyed on the node tuple's identity; a
        delta that adds labels must not reuse the parent's encoding."""
        phase1 = service.problem.phase1_graph
        anchor = sorted(phase1.nodes())[0]
        # labels that sort before and after every existing label in str order
        delta = EdgeDelta.inserting((anchor, -1), (anchor, 999_999))
        parent = service.content_hash()  # primes the memo on the old nodes
        _, outcome = service.problem.apply_delta(delta)
        path = save_delta_snapshot(
            tmp_path / "d.tppdelta", delta, parent, outcome.index
        )
        service.apply_delta(load_delta_snapshot(path))
        updated = phase1.copy()
        updated.add_edges_from(delta.inserted)
        updated.add_edges_from(service.targets)
        expected = snapshot_content_hash(updated, service.targets, "triangle")
        nodes = service.index.indexed_graph.nodes
        assert (nodes[0], nodes[-1]) == (-1, 999_999)
        assert service.content_hash() == expected
        assert index_content_hash(service.index) == expected


class TestSubsetDerivationRace:
    def test_delta_during_derivation_never_caches_a_stale_subsession(
        self, service, monkeypatch
    ):
        """A delta installed while a subset sub-session is being derived
        from the pre-delta index must not leave that sub-session cached."""
        index = service.index
        subset = tuple(
            target for target in service.problem.targets
            if index.initial_similarity(target) > 0
        )[:2]
        assert subset, "fixture needs a target with motif instances"
        first_instance = index.instances_of(subset[0])[0]
        victim = sorted(index.edges_of_instance(first_instance))[0]
        delta = EdgeDelta.deleting(victim)
        request = ProtectionRequest("SGB-Greedy", 4, targets=subset)
        pre_delta = trace(ProtectionService(service.problem).solve(request))
        post_delta = trace(
            ProtectionService(updated_graph_problem(service, delta)).solve(request)
        )
        assert pre_delta != post_delta

        original = TargetSubgraphIndex.restricted_to
        raced = []

        def restrict_then_race(self_index, targets):
            # the delta lands mid-derivation, after the caller captured the
            # pre-delta index; apply_delta takes _delta_lock, not _lock, so
            # this cannot deadlock
            if not raced:
                raced.append(targets)
                service.apply_delta(delta)
            return original(self_index, targets)

        monkeypatch.setattr(
            TargetSubgraphIndex, "restricted_to", restrict_then_race
        )
        during = service.solve(request)
        assert raced and service.deltas_applied == 1
        # the racing query answered for the state it captured
        assert trace(during) == pre_delta
        after = service.solve(request)
        assert trace(after) == post_delta
        assert after.extra["service"]["reused_index"] is False
        # the post-delta sub-session is the one that got cached
        assert trace(service.solve(request)) == post_delta
        assert len(service._subsessions) == 1

    def test_concurrent_subset_queries_and_deltas_leave_no_stale_cache(
        self, service, monkeypatch
    ):
        """Subset queries on more threads than cores race a stream of
        target-touching deltas; afterwards every cached sub-session must
        answer exactly like one derived from the final session state."""
        index = service.index
        live = [
            target for target in service.problem.targets
            if index.initial_similarity(target) > 0
        ]
        subsets = [tuple(live[i : i + 2]) for i in range(len(live) - 1)]
        assert subsets, "fixture needs two targets with motif instances"
        # round-robin over the targets, so consecutive deltas change
        # overlapping subsets and the last round leaves each one changed
        per_target = [
            [sorted(index.edges_of_instance(i))[0] for i in index.instances_of(t)]
            for t in live
        ]
        victims = []
        for round_edges in zip(*(edges[:3] for edges in per_target)):
            victims.extend(edge for edge in round_edges if edge not in victims)
        requests = [
            ProtectionRequest("SGB-Greedy", 3, targets=subset) for subset in subsets
        ]
        original = TargetSubgraphIndex.restricted_to

        def slow_restriction(self_index, targets):
            # widen the window in which a delta can land mid-derivation
            time.sleep(0.002)
            return original(self_index, targets)

        monkeypatch.setattr(TargetSubgraphIndex, "restricted_to", slow_restriction)
        stop = threading.Event()
        errors = []

        def reader(offset):
            position = offset
            while not stop.is_set():
                try:
                    service.solve(requests[position % len(requests)])
                except Exception as error:  # surfaced by the assertion below
                    errors.append(error)
                    return
                position += 1

        def writer():
            try:
                for edge in victims:
                    service.apply_delta(EdgeDelta.deleting(edge))
            finally:
                stop.set()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(offset,)) for offset in range(5)
            ]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
            stop.set()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert service.deltas_applied == len(victims)
        request = ProtectionRequest("SGB-Greedy", 3)
        for subset, cached in service.cached_subset_sessions().items():
            fresh = ProtectionService(service.problem.restricted_to(subset))
            assert trace(cached.solve(request)) == trace(fresh.solve(request)), subset
