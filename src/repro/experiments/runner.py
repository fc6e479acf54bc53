"""Per-figure / per-table experiment runners.

Each function regenerates one artefact of the paper's evaluation section and
returns the corresponding result object (render it with
:mod:`repro.experiments.reporting`).  Every runner takes a ``scale``
parameter:

* ``"quick"`` — shrunken graphs / fewer repetitions; finishes in seconds to a
  few minutes and is what the pytest benchmarks use, and
* ``"paper"`` — the paper's parameters (Arenas-email sized graph, |T| = 20/50,
  >= 10 repetitions); expect minutes to hours depending on the experiment.

Absolute numbers differ from the paper (synthetic stand-in datasets, Python
runtime), but the qualitative ordering of the methods is preserved; see
EXPERIMENTS.md for the side-by-side comparison.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.datasets.registry import load_dataset
from repro.exceptions import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runtime import RuntimeComparison, run_runtime_comparison
from repro.experiments.similarity_evolution import (
    SimilarityEvolution,
    run_similarity_evolution,
)
from repro.experiments.utility_loss import UtilityLossTable, run_utility_loss

__all__ = [
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_table3",
    "run_table4",
    "run_table5",
    "EXPERIMENT_RUNNERS",
]

_SCALES = ("quick", "paper")


def _check_scale(scale: str) -> None:
    if scale not in _SCALES:
        raise ExperimentError(f"scale must be one of {_SCALES}, got {scale!r}")


def _arenas_config(scale: str, num_targets: int, repetitions_paper: int = 10) -> ExperimentConfig:
    if scale == "paper":
        return ExperimentConfig(
            dataset="arenas-email",
            num_targets=num_targets,
            repetitions=repetitions_paper,
            engine="coverage",
        )
    return ExperimentConfig(
        dataset="arenas-email",
        num_targets=max(4, num_targets // 4),
        repetitions=2,
        engine="coverage",
        dataset_kwargs=(("nodes", 350), ("seed", 1)),
    )


def _dblp_config(scale: str, num_targets: int) -> ExperimentConfig:
    if scale == "paper":
        return ExperimentConfig(
            dataset="dblp",
            num_targets=num_targets,
            repetitions=10,
            engine="coverage",
        )
    return ExperimentConfig(
        dataset="dblp",
        num_targets=max(6, num_targets // 5),
        repetitions=1,
        engine="coverage",
        dataset_kwargs=(("nodes", 2000), ("seed", 7)),
    )


def run_figure3(
    scale: str = "quick",
    motifs: Optional[Sequence[str]] = None,
) -> List[SimilarityEvolution]:
    """Fig. 3: target-subgraph count vs budget on the Arenas-email graph.

    |T| = 20, all seven methods, budgets swept up to full protection, one
    result per motif (Triangle, Rectangle, RecTri).  Each repetition's
    method x budget sweep runs on one shared-index session.
    """
    _check_scale(scale)
    config = _arenas_config(scale, num_targets=20)
    if motifs is not None:
        config = config.with_overrides(motifs=tuple(motifs))
    graph = load_dataset(config.dataset, **config.dataset_options())
    return [
        run_similarity_evolution(config, motif, graph=graph)
        for motif in config.motifs
    ]


def run_figure4(
    scale: str = "quick",
    motifs: Optional[Sequence[str]] = None,
) -> List[SimilarityEvolution]:
    """Fig. 4: target-subgraph count vs budget on the DBLP-scale graph.

    |T| = 50 and budgets 1..100 in the paper; the scalable (coverage-engine)
    implementations are used because the naive ones do not terminate at this
    scale.
    """
    _check_scale(scale)
    config = _dblp_config(scale, num_targets=50)
    if motifs is not None:
        config = config.with_overrides(motifs=tuple(motifs))
    budgets = list(range(1, 101, 5)) if scale == "paper" else list(range(1, 26, 5))
    graph = load_dataset(config.dataset, **config.dataset_options())
    return [
        run_similarity_evolution(config, motif, graph=graph, budgets=budgets)
        for motif in config.motifs
    ]


def run_figure5(
    scale: str = "quick", motifs: Optional[Sequence[str]] = None
) -> List[RuntimeComparison]:
    """Fig. 5: running time vs budget on Arenas-email, naive vs scalable.

    Every greedy algorithm is timed with both the recount (naive) and the
    coverage (``-R``) engine; the baselines RD/RDT are included for
    reference.
    """
    _check_scale(scale)
    config = _arenas_config(scale, num_targets=20, repetitions_paper=3)
    if motifs is not None:
        config = config.with_overrides(motifs=tuple(motifs))
    budgets = list(range(1, 26, 4)) if scale == "paper" else [1, 3, 5]
    graph = load_dataset(config.dataset, **config.dataset_options())
    return [
        run_runtime_comparison(
            config, motif, budgets, engines=("coverage", "recount"), graph=graph
        )
        for motif in config.motifs
    ]


def run_figure6(
    scale: str = "quick", motifs: Optional[Sequence[str]] = None
) -> List[RuntimeComparison]:
    """Fig. 6: running time vs budget on the DBLP-scale graph.

    Only the scalable implementations and the random baselines are timed
    (the naive variants are intractable at this scale, as in the paper).
    """
    _check_scale(scale)
    config = _dblp_config(scale, num_targets=50 if scale == "paper" else 10)
    if motifs is not None:
        config = config.with_overrides(motifs=tuple(motifs))
    budgets = list(range(1, 26, 4)) if scale == "paper" else [1, 3, 5]
    graph = load_dataset(config.dataset, **config.dataset_options())
    return [
        run_runtime_comparison(config, motif, budgets, engines=("coverage",), graph=graph)
        for motif in config.motifs
    ]


def run_table3(scale: str = "quick") -> UtilityLossTable:
    """Table III: utility loss ratio on Arenas-email with |T| = 20, full protection."""
    _check_scale(scale)
    config = _arenas_config(scale, num_targets=20)
    sample = None if scale == "paper" else 100
    return run_utility_loss(config, budget=None, path_length_sample=sample)


def run_table4(scale: str = "quick") -> UtilityLossTable:
    """Table IV: utility loss ratio on Arenas-email with |T| = 50, full protection."""
    _check_scale(scale)
    config = _arenas_config(scale, num_targets=50)
    if scale == "quick":
        config = config.with_overrides(num_targets=12)
    sample = None if scale == "paper" else 100
    return run_utility_loss(config, budget=None, path_length_sample=sample)


def run_table5(scale: str = "quick") -> UtilityLossTable:
    """Table V: utility loss on the DBLP-scale graph, |T| = 52, k = 25.

    Only the scalable utility metrics (clustering coefficient and core
    number) are evaluated, exactly like the paper.
    """
    _check_scale(scale)
    config = _dblp_config(scale, num_targets=52)
    budget = 25 if scale == "paper" else 10
    return run_utility_loss(config, budget=budget, metrics=("clust", "cn"))


#: Name -> runner mapping used by the CLI and the benchmarks.
EXPERIMENT_RUNNERS: Dict[str, object] = {
    "fig3": run_figure3,
    "fig4": run_figure4,
    "fig5": run_figure5,
    "fig6": run_figure6,
    "table3": run_table3,
    "table4": run_table4,
    "table5": run_table5,
}
