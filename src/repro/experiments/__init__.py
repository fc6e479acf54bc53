"""Experiment harness regenerating every figure and table of the paper."""

from repro.experiments.attack_defense import (
    DEFAULT_PREDICTORS,
    AttackDefenseResult,
    run_attack_defense,
)
from repro.experiments.config import ExperimentConfig, paper_profile, quick_profile
from repro.experiments.reporting import (
    format_runtime_comparison,
    format_similarity_evolution,
    format_table,
    format_utility_loss_table,
    results_to_json,
    save_json,
)
from repro.experiments.runner import (
    EXPERIMENT_RUNNERS,
    run_figure3,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.runtime import RuntimeComparison, run_runtime_comparison
from repro.experiments.similarity_evolution import (
    SimilarityEvolution,
    evolution_for_problem,
    run_similarity_evolution,
)
from repro.experiments.utility_loss import UtilityLossTable, run_utility_loss
from repro.service.registry import is_greedy_method


__all__ = [
    "AttackDefenseResult",
    "run_attack_defense",
    "DEFAULT_PREDICTORS",
    "ExperimentConfig",
    "quick_profile",
    "paper_profile",
    "is_greedy_method",
    "SimilarityEvolution",
    "run_similarity_evolution",
    "evolution_for_problem",
    "RuntimeComparison",
    "run_runtime_comparison",
    "UtilityLossTable",
    "run_utility_loss",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_table3",
    "run_table4",
    "run_table5",
    "EXPERIMENT_RUNNERS",
    "format_table",
    "format_similarity_evolution",
    "format_runtime_comparison",
    "format_utility_loss_table",
    "results_to_json",
    "save_json",
]
