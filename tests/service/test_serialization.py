"""Round-trip serialization tests for ProtectionResult and ProtectionRequest."""

import json

import pytest

from repro.core.ct import ct_greedy
from repro.core.model import ProtectionResult, TPPProblem
from repro.core.sgb import sgb_greedy
from repro.datasets.synthetic import small_social_graph
from repro.datasets.targets import sample_random_targets
from repro.service import ProtectionRequest, ProtectionService


@pytest.fixture
def problem():
    graph = small_social_graph(seed=1)
    targets = sample_random_targets(graph, 5, seed=0)
    return TPPProblem(graph, targets, motif="triangle")


def json_round_trip(payload):
    return json.loads(json.dumps(payload))


class TestProtectionResultRoundTrip:
    def test_sgb_result(self, problem):
        result = sgb_greedy(problem, 5)
        rebuilt = ProtectionResult.from_dict(json_round_trip(result.to_dict()))
        assert rebuilt == result
        assert rebuilt.protectors == result.protectors
        assert rebuilt.similarity_trace == result.similarity_trace

    def test_ct_result_with_division_and_allocation(self, problem):
        result = ct_greedy(problem, 6, budget_division="tbd")
        rebuilt = ProtectionResult.from_dict(json_round_trip(result.to_dict()))
        assert rebuilt == result
        assert rebuilt.budget_division == result.budget_division
        assert rebuilt.allocation == result.allocation
        # edge tuples (not lists) after the round trip
        for target, edges in rebuilt.allocation.items():
            assert isinstance(target, tuple)
            assert all(isinstance(edge, tuple) for edge in edges)

    def test_service_result_with_metadata(self, problem):
        service = ProtectionService(problem)
        result = service.solve(ProtectionRequest("WT-Greedy:TBD", 4, label="x"))
        rebuilt = ProtectionResult.from_dict(json_round_trip(result.to_dict()))
        assert rebuilt == result
        assert rebuilt.extra["service"]["label"] == "x"

    def test_derived_properties_survive(self, problem):
        result = sgb_greedy(problem, problem.initial_similarity() + 1)
        rebuilt = ProtectionResult.from_dict(result.to_dict())
        assert rebuilt.final_similarity == result.final_similarity
        assert rebuilt.fully_protected == result.fully_protected
        assert rebuilt.budget_used == result.budget_used


class TestReportingIntegration:
    def test_results_to_json_handles_protection_results(self, problem):
        from repro.experiments.reporting import results_to_json

        service = ProtectionService(problem)
        result = service.solve(ProtectionRequest("SGB-Greedy", 4))
        payload = json_round_trip(results_to_json(result))
        assert payload["kind"] == "protection_result"
        assert ProtectionResult.from_dict(payload) == result


class TestProtectionRequestRoundTrip:
    def test_minimal(self):
        request = ProtectionRequest("SGB-Greedy", 10)
        assert ProtectionRequest.from_dict(json_round_trip(request.to_dict())) == request

    def test_full(self, problem):
        request = ProtectionRequest(
            "CT-Greedy:TBD",
            12,
            engine="recount",
            seed=9,
            budget_division={target: 3 for target in problem.targets},
            lazy=False,
            targets=problem.targets[:2],
            label="batch-7",
        )
        rebuilt = ProtectionRequest.from_dict(json_round_trip(request.to_dict()))
        assert rebuilt == request
        assert rebuilt.division_mapping() == request.division_mapping()

    def test_division_name_round_trip(self):
        request = ProtectionRequest("WT-Greedy:DBD", 4, budget_division="uniform")
        rebuilt = ProtectionRequest.from_dict(json_round_trip(request.to_dict()))
        assert rebuilt.budget_division == "uniform"
