"""Tests for the method registry and experiment configuration."""

import pytest

from repro.core.model import TPPProblem
from repro.datasets.synthetic import small_social_graph
from repro.datasets.targets import sample_random_targets
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig, paper_profile, quick_profile
from repro.service import (
    ProtectionRequest,
    ProtectionService,
    baseline_method_names,
    greedy_method_names,
    is_greedy_method,
    method_names,
)


@pytest.fixture
def problem():
    graph = small_social_graph(seed=1)
    targets = sample_random_targets(graph, 5, seed=0)
    return TPPProblem(graph, targets, motif="triangle")


@pytest.fixture
def service(problem):
    return ProtectionService(problem)


class TestMethodRegistry:
    def test_all_methods_listed(self):
        assert set(method_names()) == set(greedy_method_names()) | set(
            baseline_method_names()
        )

    def test_is_greedy_method(self):
        assert is_greedy_method("SGB-Greedy")
        assert not is_greedy_method("RD")

    @pytest.mark.parametrize("method", method_names())
    def test_every_method_runs(self, service, method):
        result = service.solve(
            ProtectionRequest(method, budget=3, engine="coverage", seed=0)
        )
        assert result.budget_used <= 3
        assert result.final_similarity <= result.initial_similarity

    def test_unknown_method(self, service):
        with pytest.raises(ExperimentError):
            service.solve(ProtectionRequest("Oracle", budget=1))

    def test_greedy_methods_beat_rd_on_average(self, service):
        budget = 5
        rd_mean = sum(
            service.solve(ProtectionRequest("RD", budget, seed=s)).final_similarity
            for s in range(5)
        ) / 5
        sgb = service.solve(ProtectionRequest("SGB-Greedy", budget)).final_similarity
        assert sgb <= rd_mean


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.dataset == "arenas-email"
        assert config.motifs == ("triangle", "rectangle", "rectri")

    def test_invalid_values_rejected(self):
        with pytest.raises(ExperimentError):
            ExperimentConfig(num_targets=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ExperimentError):
            ExperimentConfig(engine="quantum")
        with pytest.raises(ExperimentError):
            ExperimentConfig(methods=("SGB-Greedy", "Oracle"))

    def test_dataset_options(self):
        config = ExperimentConfig(dataset_kwargs=(("nodes", 100),))
        assert config.dataset_options() == {"nodes": 100}

    def test_with_overrides(self):
        config = ExperimentConfig().with_overrides(num_targets=7)
        assert config.num_targets == 7

    def test_profiles(self):
        quick = quick_profile()
        paper = paper_profile()
        assert quick.repetitions < paper.repetitions
        assert dict(quick.dataset_kwargs)["nodes"] < 1133
        assert paper.num_targets == 20

    def test_profile_overrides(self):
        config = quick_profile(num_targets=3)
        assert config.num_targets == 3
