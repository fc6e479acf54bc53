"""Tests for the ProtectionService session API.

Covers the PR's acceptance guarantees:

* determinism — repeated identical requests return identical protector
  sequences, and a solved query never mutates the session's pristine state,
* differential — service-path results equal legacy direct-call results on
  randomized instances for every method, and
* thread safety — concurrent ``solve`` calls and a serial batch produce
  byte-identical protector traces.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.baselines import random_deletion, random_target_subgraph_deletion
from repro.core.ct import ct_greedy
from repro.core.model import TPPProblem
from repro.core.sgb import sgb_greedy
from repro.core.wt import wt_greedy
from repro.datasets.targets import sample_random_targets
from repro.exceptions import ExperimentError
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import Graph, edge_sort_key
from repro.motifs.updates import EdgeDelta
from repro.service import ProtectionRequest, ProtectionService, method_names


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


class TestConstruction:
    def test_from_graph_and_from_problem_agree(self, graph, targets):
        from_graph = ProtectionService(graph, targets, motif="triangle")
        from_problem = ProtectionService(TPPProblem(graph, targets, motif="triangle"))
        request = ProtectionRequest("SGB-Greedy", 5)
        assert trace(from_graph.solve(request)) == trace(from_problem.solve(request))

    def test_graph_without_targets_rejected(self, graph):
        with pytest.raises(ExperimentError):
            ProtectionService(graph)

    def test_session_reuses_problem_index(self, graph, targets):
        problem = TPPProblem(graph, targets, motif="triangle")
        index = problem.build_index()
        session = ProtectionService(problem)
        assert session.index is index


class TestDeterminismAndIsolation:
    def test_repeated_solve_identical(self, service):
        """Same-session repeated solve of an identical request is identical."""
        for method in method_names():
            request = ProtectionRequest(method, 6, seed=2)
            first = service.solve(request)
            second = service.solve(request)
            assert trace(first) == trace(second), method

    def test_solved_queries_never_mutate_pristine_state(self, service):
        initial = service.pristine_similarity()
        for method in method_names():
            result = service.solve(ProtectionRequest(method, 8, seed=1))
            assert result.budget_used >= 0
        assert service.pristine_deletions() == ()
        assert service.pristine_similarity() == initial
        # fresh queries still see the untouched instance
        again = service.solve(ProtectionRequest("SGB-Greedy", 1))
        assert again.initial_similarity == initial

    def test_queries_served_counts(self, service):
        before = service.queries_served
        service.solve_many([ProtectionRequest("SGB-Greedy", k) for k in (1, 2, 3)])
        assert service.queries_served == before + 3


class TestServiceMetadata:
    def test_result_carries_request_echo_and_timings(self, service):
        request = ProtectionRequest("CT-Greedy:TBD", 4, label="sweep-0")
        result = service.solve(request)
        meta = result.extra["service"]
        assert meta["request"] == request.to_dict()
        assert meta["reused_index"] is True
        assert meta["label"] == "sweep-0"
        assert meta["build_seconds"] >= 0.0
        assert meta["solve_seconds"] >= 0.0

    def test_recount_engine_reports_no_index_reuse(self, service):
        result = service.solve(ProtectionRequest("SGB-Greedy", 3, engine="recount"))
        assert result.extra["service"]["reused_index"] is False
        assert result.algorithm.startswith("SGB-Greedy")

    def test_baselines_served_from_kernel_even_for_recount_requests(self, service):
        """A recount-engine baseline request must not build a recount engine."""
        recount = service.solve(ProtectionRequest("RD", 5, seed=3, engine="recount"))
        coverage = service.solve(ProtectionRequest("RD", 5, seed=3))
        assert trace(recount) == trace(coverage)
        # the baseline traced deletions on the shared kernel state
        assert recount.extra["service"]["reused_index"] is True

    def test_unknown_method_and_engine_fail_with_names(self, service):
        with pytest.raises(ExperimentError, match="SGB-Greedy"):
            service.solve(ProtectionRequest("Oracle", 3))
        with pytest.raises(ExperimentError, match="coverage"):
            service.solve(ProtectionRequest("SGB-Greedy", 3, engine="quantum"))


class TestDifferentialAgainstLegacy:
    """Service-path results equal legacy direct calls on randomized instances."""

    @pytest.mark.parametrize("instance_seed", [0, 1, 2])
    def test_all_methods_match_direct_calls(self, instance_seed):
        graph = powerlaw_cluster_graph(150 + 30 * instance_seed, 3, 0.4, seed=instance_seed)
        targets = sample_random_targets(graph, 5, seed=instance_seed)
        service = ProtectionService(graph, targets, motif="triangle")
        problem = TPPProblem(graph, targets, motif="triangle")
        budget = 7
        legacy = {
            "SGB-Greedy": sgb_greedy(problem, budget),
            "CT-Greedy:DBD": ct_greedy(problem, budget, budget_division="dbd"),
            "WT-Greedy:DBD": wt_greedy(problem, budget, budget_division="dbd"),
            "CT-Greedy:TBD": ct_greedy(problem, budget, budget_division="tbd"),
            "WT-Greedy:TBD": wt_greedy(problem, budget, budget_division="tbd"),
            "RD": random_deletion(problem, budget, seed=instance_seed),
            "RDT": random_target_subgraph_deletion(problem, budget, seed=instance_seed),
        }
        for method, expected in legacy.items():
            served = service.solve(
                ProtectionRequest(method, budget, seed=instance_seed)
            )
            assert trace(served) == trace(expected), method
            assert served.algorithm == expected.algorithm

    def test_engine_variants_match(self, service, graph, targets):
        problem = TPPProblem(graph, targets, motif="triangle")
        for engine in ("coverage", "recount"):
            served = service.solve(ProtectionRequest("SGB-Greedy", 5, engine=engine))
            expected = sgb_greedy(problem, 5, engine=engine)
            assert trace(served) == trace(expected), engine

    def test_explicit_budget_division_override(self, service, graph, targets):
        problem = TPPProblem(graph, targets, motif="triangle")
        division = {target: 2 for target in problem.targets}
        budget = sum(division.values())
        served = service.solve(
            ProtectionRequest("CT-Greedy:TBD", budget, budget_division=division)
        )
        expected = ct_greedy(problem, budget, budget_division=division)
        assert trace(served) == trace(expected)


class TestSolveMany:
    def _batch(self):
        # SGB / CT / WT / RD across several budgets, as the issue requires
        return [
            ProtectionRequest(method, budget, seed=seed)
            for seed, method in enumerate(
                ("SGB-Greedy", "CT-Greedy:TBD", "WT-Greedy:DBD", "RD", "RDT")
            )
            for budget in (3, 6)
        ]

    def test_results_independent_of_workers(self, service):
        """Concurrent ``solve`` calls (the server's solver threads) return
        what one serial batch returns."""
        batch = self._batch()
        serial = service.solve_many(batch)
        with ThreadPoolExecutor(max_workers=3) as pool:
            threaded = list(pool.map(service.solve, batch))
        # byte-identical traces, same algorithms, same order
        assert [trace(r) for r in serial] == [trace(r) for r in threaded]
        assert [r.algorithm for r in serial] == [r.algorithm for r in threaded]

    def test_empty_batch(self, service):
        assert service.solve_many([]) == []


def subset_problem(service, subset, constant=None):
    """The sub-problem a subset query answers: every session target stays
    hidden (the non-subset ones are removed from the graph, per the paper's
    phase 1), targets in the library-wide sort order, parent's constant."""
    subset = tuple(sorted(subset, key=edge_sort_key))
    rest = [t for t in service.targets if t not in set(subset)]
    return TPPProblem(
        service.problem.graph.without_edges(rest),
        subset,
        motif="triangle",
        constant=service.problem.constant if constant is None else constant,
    )


class TestTargetSubsets:
    def test_subset_query_equals_subset_problem(self, service, targets):
        subset = tuple(targets[:3])
        served = service.solve(ProtectionRequest("SGB-Greedy", 5, targets=subset))
        expected = sgb_greedy(subset_problem(service, subset), 5)
        assert trace(served) == trace(expected)

    def test_subset_released_graph_keeps_other_targets_hidden(self, service, targets):
        """The non-subset sensitive links must never reach the released graph."""
        subset = tuple(targets[:3])
        service.solve(ProtectionRequest("SGB-Greedy", 4, targets=subset))
        sub = next(iter(service._subsessions.values()))
        for target in service.targets:
            assert not sub.problem.phase1_graph.has_edge(*target)

    def test_adjacent_targets_subset_query(self):
        """Regression: subset queries on adjacent targets raised
        InvalidTargetError — the sub-problem resurrected the other target
        edges, pushing its initial similarity above the inherited C."""
        graph = Graph(
            [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d"), ("b", "d")]
        )
        session = ProtectionService(
            graph, [("a", "b"), ("a", "c"), ("b", "c")], motif="triangle"
        )
        result = session.solve(
            ProtectionRequest("SGB-Greedy", 2, targets=(("a", "b"),))
        )
        # the only surviving instance of ("a", "b") is the path a-d-b
        assert result.initial_similarity == 1
        assert result.fully_protected

    def test_subset_order_insensitive(self, service, targets):
        subset = tuple(targets[:3])
        forward = service.solve(ProtectionRequest("WT-Greedy:TBD", 5, targets=subset))
        backward = service.solve(
            ProtectionRequest("WT-Greedy:TBD", 5, targets=subset[::-1])
        )
        assert trace(forward) == trace(backward)
        # permutations share one cached sub-session
        assert len(service._subsessions) == 1
        assert backward.extra["service"]["reused_index"] is True

    def test_queries_served_counts_subset_queries(self, service, targets):
        before = service.queries_served
        subset = tuple(targets[:2])
        service.solve(ProtectionRequest("SGB-Greedy", 2, targets=subset))
        service.solve(ProtectionRequest("SGB-Greedy", 3, targets=subset))
        assert service.queries_served == before + 2

    def test_subset_cache_is_lru_bounded(self, graph, targets):
        session = ProtectionService(
            graph, targets, motif="triangle", max_cached_subsets=2
        )
        subsets = [tuple(session.targets[i : i + 2]) for i in range(3)]
        for subset in subsets:
            session.solve(ProtectionRequest("SGB-Greedy", 2, targets=subset))
        assert len(session._subsessions) == 2
        # the two most recent subsets survived; the first was evicted
        kept = session.solve(ProtectionRequest("SGB-Greedy", 2, targets=subsets[2]))
        assert kept.extra["service"]["reused_index"] is True
        evicted = session.solve(ProtectionRequest("SGB-Greedy", 2, targets=subsets[0]))
        assert evicted.extra["service"]["reused_index"] is False

    def test_invalid_subset_cache_bound_rejected(self, graph, targets):
        with pytest.raises(ExperimentError):
            ProtectionService(graph, targets, max_cached_subsets=0)

    def test_concurrent_first_subset_queries_share_one_session(self, service, targets):
        """Concurrent first queries on a fresh subset cache one sub-session."""
        subset = tuple(targets[:3])
        batch = [
            ProtectionRequest(method, 3, targets=subset)
            for method in ("SGB-Greedy", "CT-Greedy:TBD", "WT-Greedy:TBD", "RD")
        ]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(service.solve, batch))
        assert len(service._subsessions) == 1
        serial = [service.solve(request) for request in batch]
        assert [trace(r) for r in results] == [trace(r) for r in serial]

    def test_subset_sessions_are_cached(self, service, targets):
        subset = tuple(targets[:2])
        service.solve(ProtectionRequest("SGB-Greedy", 2, targets=subset))
        assert len(service._subsessions) == 1
        cached = next(iter(service._subsessions.values()))
        service.solve(ProtectionRequest("SGB-Greedy", 3, targets=subset))
        assert len(service._subsessions) == 1
        assert next(iter(service._subsessions.values())) is cached

    def test_subset_inherits_session_constant(self, graph, targets):
        """Sub-sessions must score Δ_t^p with the parent session's C."""
        full_problem = TPPProblem(graph, targets, motif="triangle")
        constant = full_problem.initial_similarity() + 50
        session = ProtectionService(graph, targets, motif="triangle", constant=constant)
        subset = tuple(targets[:3])
        served = session.solve(ProtectionRequest("CT-Greedy:TBD", 5, targets=subset))
        expected = ct_greedy(
            subset_problem(session, subset, constant=constant),
            5,
            budget_division="tbd",
        )
        assert trace(served) == trace(expected)

    def test_subset_metadata_truthful(self, service, targets):
        subset = tuple(targets[:3])
        first = service.solve(ProtectionRequest("SGB-Greedy", 4, targets=subset))
        second = service.solve(ProtectionRequest("SGB-Greedy", 4, targets=subset))
        # the first subset query derived a fresh sub-session
        assert first.extra["service"]["reused_index"] is False
        assert second.extra["service"]["reused_index"] is True
        # the request echo records the subset the result answered
        echoed = first.extra["service"]["request"]
        assert [tuple(edge) for edge in echoed["targets"]] == list(subset)

    @pytest.mark.parametrize("parent_kind", ["snapshot", "delta"])
    def test_subset_echoes_parent_provenance(
        self, service, targets, tmp_path, parent_kind
    ):
        """A sub-session's index is a slice of its parent's, so a subset
        answer echoes the parent's ``index_source`` and ``deltas_applied``."""
        if parent_kind == "snapshot":
            parent = ProtectionService.from_snapshot(
                service.problem.save_index(tmp_path / "parent.tppsnap")
            )
            expected = ("snapshot", 0)
        else:
            parent = service
            kept = set(service.targets)
            for edge in sorted(service.problem.phase1_graph.edges())[:2]:
                assert edge not in kept
                parent.apply_delta(EdgeDelta.deleting(edge))
            expected = ("delta", 2)
        request = ProtectionRequest("SGB-Greedy", 4, targets=tuple(targets[:3]))
        # the query that derives the sub-session, then one served from cache
        for reused in (False, True):
            meta = parent.solve(request).extra["service"]
            assert meta["reused_index"] is reused
            assert (meta["index_source"], meta["deltas_applied"]) == expected

    def test_unknown_subset_target_rejected(self, service):
        with pytest.raises(ExperimentError):
            service.solve(
                ProtectionRequest("SGB-Greedy", 2, targets=(("no", "edge"),))
            )

    def test_duplicate_subset_targets_rejected_cleanly(self, service, targets):
        """A duplicated link (e.g. both orientations) must fail with a clear
        error, not a deep InvalidTargetError, and must cache nothing."""
        u, v = targets[0]
        with pytest.raises(ExperimentError, match="duplicate"):
            service.solve(
                ProtectionRequest("SGB-Greedy", 2, targets=((u, v), (v, u)))
            )
        assert len(service._subsessions) == 0

    def test_full_set_permutation_served_by_main_session(self, service):
        """Naming every session target (any order/orientation) is not a
        subset query — no duplicate sub-session may be enumerated."""
        full = tuple((v, u) for (u, v) in reversed(service.targets))
        canonical = service.solve(ProtectionRequest("SGB-Greedy", 3))
        permuted = service.solve(ProtectionRequest("SGB-Greedy", 3, targets=full))
        assert trace(permuted) == trace(canonical)
        assert len(service._subsessions) == 0
