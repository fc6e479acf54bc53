"""Regression tests for ``queries_served`` accounting.

The counter used to be bumped at two separate sites depending on the code
path; the serving front's ``/stats`` endpoint made the drift visible.  The
contract now: exactly one increment per successfully answered query, at
exactly one site, and failed queries are never counted.
"""

import inspect
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.service.service as service_module
from repro.core.model import TPPProblem
from repro.datasets.targets import sample_random_targets
from repro.exceptions import ExperimentError
from repro.graphs.generators import powerlaw_cluster_graph
from repro.service import (
    ProtectionRequest,
    ProtectionService,
    register_method,
    unregister_method,
)


@pytest.fixture(scope="module")
def problem():
    graph = powerlaw_cluster_graph(180, 3, 0.5, seed=3)
    targets = sample_random_targets(graph, 5, seed=1)
    built = TPPProblem(graph, targets, motif="triangle")
    built.build_index()
    return built


@pytest.fixture
def service(problem):
    return ProtectionService(problem)


class TestAccounting:
    def test_one_increment_per_query(self, service):
        assert service.queries_served == 0
        service.solve(ProtectionRequest("SGB-Greedy", 3))
        assert service.queries_served == 1
        service.solve(ProtectionRequest("RD", 3, seed=2))
        assert service.queries_served == 2

    def test_subset_query_counts_once_on_the_parent(self, service, problem):
        subset = tuple(problem.targets[:3])
        service.solve(ProtectionRequest("SGB-Greedy", 3, targets=subset))
        assert service.queries_served == 1
        # the sub-session keeps its own (also single-increment) tally
        (subsession,) = service.cached_subset_sessions().values()
        assert subsession.queries_served == 1
        # a cache hit bumps both again, exactly once each
        service.solve(ProtectionRequest("SGB-Greedy", 4, targets=subset))
        assert service.queries_served == 2
        assert subsession.queries_served == 2

    def test_failed_query_not_counted(self, service):
        @register_method("Always-Fails", kind="greedy", order=997)
        def _run(problem, budget, engine, seed, **options):
            raise ExperimentError("deliberate failure")

        try:
            with pytest.raises(ExperimentError, match="deliberate failure"):
                service.solve(ProtectionRequest("Always-Fails", 3))
        finally:
            unregister_method("Always-Fails")
        assert service.queries_served == 0

    def test_invalid_request_not_counted(self, service):
        with pytest.raises(ExperimentError):
            service.solve(ProtectionRequest("SGB-Greedy", -1))  # negative budget
        with pytest.raises(ExperimentError):
            service.solve(ProtectionRequest("No-Such-Method", 3))
        assert service.queries_served == 0

    def test_solve_many_counts_every_request(self, service):
        requests = [ProtectionRequest("SGB-Greedy", budget) for budget in (2, 3, 4)]
        service.solve_many(requests)
        assert service.queries_served == 3
        with ThreadPoolExecutor(max_workers=3) as pool:
            list(pool.map(service.solve, requests))
        assert service.queries_served == 6

    def test_recount_engine_counted_like_any_other(self, service):
        service.solve(ProtectionRequest("SGB-Greedy", 2, engine="recount"))
        assert service.queries_served == 1


class TestSingleSite:
    def test_exactly_one_increment_site_in_source(self):
        source = inspect.getsource(service_module)
        assert source.count("_queries_served +=") == 1, (
            "queries_served must be bumped at exactly one site (in solve()); "
            "a second increment site reintroduces the double-counting bug"
        )
