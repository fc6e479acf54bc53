"""Tests for the decorator-based method registry."""

import pytest

from repro.core.model import TPPProblem
from repro.core.sgb import sgb_greedy
from repro.datasets.synthetic import small_social_graph
from repro.datasets.targets import sample_random_targets
from repro.exceptions import ExperimentError
from repro.service import (
    ProtectionRequest,
    ProtectionService,
    baseline_method_names,
    get_method,
    greedy_method_names,
    is_greedy_method,
    method_names,
    register_method,
    unregister_method,
)

#: The paper's legend order (plus the +BB extension, slotted after its base
#: method), which the registration metadata must reproduce.
LEGEND_ORDER = (
    "SGB-Greedy",
    "SGB-Greedy+BB",
    "CT-Greedy:DBD",
    "WT-Greedy:DBD",
    "CT-Greedy:TBD",
    "WT-Greedy:TBD",
    "RD",
    "RDT",
)


@pytest.fixture
def problem():
    graph = small_social_graph(seed=1)
    targets = sample_random_targets(graph, 5, seed=0)
    return TPPProblem(graph, targets, motif="triangle")


class TestBuiltinRegistrations:
    def test_legend_order_derived_from_metadata(self):
        assert method_names() == LEGEND_ORDER

    def test_greedy_baseline_split(self):
        assert greedy_method_names() == LEGEND_ORDER[:6]
        assert baseline_method_names() == ("RD", "RDT")
        assert is_greedy_method("SGB-Greedy")
        assert not is_greedy_method("RD")
        assert not is_greedy_method("Oracle")

    def test_get_method_unknown_lists_valid_names(self):
        with pytest.raises(ExperimentError) as excinfo:
            get_method("Oracle")
        message = str(excinfo.value)
        for name in LEGEND_ORDER:
            assert name in message


class TestCustomRegistration:
    def test_register_solve_unregister(self, problem):
        @register_method("SGB-Lazy-Off", kind="greedy", order=999)
        def _run(problem, budget, engine, seed, **options):
            return sgb_greedy(problem, budget, engine=engine, lazy=False)

        try:
            assert "SGB-Lazy-Off" in method_names()
            assert is_greedy_method("SGB-Lazy-Off")

            service = ProtectionService(problem)
            custom = service.solve(ProtectionRequest("SGB-Lazy-Off", 3))
            builtin = service.solve(ProtectionRequest("SGB-Greedy", 3))
            assert custom.protectors == builtin.protectors
        finally:
            unregister_method("SGB-Lazy-Off")
        assert "SGB-Lazy-Off" not in method_names()

    def test_package_views_live_but_default_sweep_pinned(self):
        """The package's registry views (`repro.service.method_names` and
        friends) must see plugins, while the default reproduction sweep
        stays the paper's seven curves."""

        @register_method("Plugin-Live", kind="baseline", order=998)
        def _run(problem, budget, engine, seed, **options):
            raise AssertionError("never called")

        try:
            import repro.service as service
            from repro.experiments.config import PAPER_METHODS, ExperimentConfig

            assert "Plugin-Live" in service.method_names()
            assert "Plugin-Live" in service.baseline_method_names()
            assert ExperimentConfig().methods == PAPER_METHODS
            assert "Plugin-Live" not in ExperimentConfig().methods
        finally:
            unregister_method("Plugin-Live")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ExperimentError):

            @register_method("SGB-Greedy")
            def _clash(problem, budget, engine, seed, **options):
                raise AssertionError("never called")

    def test_replace_allows_override(self, problem):
        original = get_method("RD")

        @register_method("RD", kind="baseline", order=original.order, replace=True)
        def _stub(problem, budget, engine, seed, **options):
            return original.runner(problem, 0, engine, seed)

        try:
            service = ProtectionService(problem)
            result = service.solve(ProtectionRequest("RD", 5, seed=1))
            assert result.budget_used == 0
        finally:
            register_method(
                "RD", kind="baseline", order=original.order, replace=True
            )(original.runner)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ExperimentError):
            register_method("Oracle", kind="magic")
