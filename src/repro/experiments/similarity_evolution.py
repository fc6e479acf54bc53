"""Similarity-evolution experiments (Figures 3 and 4).

For every motif and every protection method, the experiment tracks how the
number of still-existing target subgraphs ``s(P, T)`` decreases as the
deletion budget ``k`` grows.  Lower curves mean better protection; a curve
hitting zero has reached full protection and the corresponding budget is the
method's critical budget ``k*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.model import TPPProblem
from repro.datasets.registry import load_dataset
from repro.datasets.targets import sample_random_targets
from repro.experiments.config import ExperimentConfig
from repro.graphs.graph import Graph
from repro.service import ProtectionRequest, ProtectionService

__all__ = ["SimilarityEvolution", "run_similarity_evolution", "evolution_for_problem"]

#: Methods whose step-``i`` protector does not depend on the final budget, so
#: one run at ``max(budgets)`` yields the whole curve from its trace.
_PREFIX_METHODS = ("SGB-Greedy", "RD", "RDT")


@dataclass(frozen=True)
class SimilarityEvolution:
    """Averaged similarity curves for one dataset + motif.

    Attributes
    ----------
    dataset / motif:
        What was measured.
    budgets:
        The budget axis (shared by every curve).
    curves:
        Method name -> mean ``s(P, T)`` at each budget.
    initial_similarity:
        Mean ``s(∅, T)`` over the repetitions.
    critical_budget:
        Method name -> mean number of deletions needed for full protection
        (only for methods that reached it in every repetition).
    """

    dataset: str
    motif: str
    budgets: Tuple[int, ...]
    curves: Mapping[str, Tuple[float, ...]]
    initial_similarity: float
    critical_budget: Mapping[str, float]

    def as_rows(self) -> List[Tuple]:
        """Return one row per budget: ``(k, curve values in method order)``."""
        methods = list(self.curves)
        rows = []
        for index, budget in enumerate(self.budgets):
            rows.append((budget, *(self.curves[m][index] for m in methods)))
        return rows

    def method_names(self) -> Tuple[str, ...]:
        """Return the method names in curve order."""
        return tuple(self.curves)


def evolution_for_problem(
    problem: TPPProblem,
    budgets: Sequence[int],
    methods: Sequence[str],
    engine: str = "coverage",
    seed: int = 0,
    service: Optional[ProtectionService] = None,
) -> Dict[str, List[int]]:
    """Return ``method -> s(P, T) at each budget`` for a single problem instance.

    All queries are served by one :class:`~repro.service.ProtectionService`
    session (built here unless passed in), so the target-subgraph index is
    enumerated once and every run executes on a copy of the pristine
    coverage state.

    Greedy prefix property: for the single-global-budget greedy and the
    random baselines, the protector chosen at step ``i`` does not depend on
    the final budget, so a single run at ``max(budgets)`` yields the whole
    curve from its similarity trace.  The multi-local-budget methods are
    re-run per budget because their budget division changes with ``k``.
    """
    if service is None:
        service = ProtectionService(problem)
    max_budget = max(budgets)
    requests: List[ProtectionRequest] = []
    spans: Dict[str, slice] = {}
    for method in methods:
        start = len(requests)
        if method in _PREFIX_METHODS:
            requests.append(
                ProtectionRequest(method, max_budget, engine=engine, seed=seed)
            )
        else:
            requests.extend(
                ProtectionRequest(method, budget, engine=engine, seed=seed)
                for budget in budgets
            )
        spans[method] = slice(start, len(requests))
    results = service.solve_many(requests)
    curves: Dict[str, List[int]] = {}
    for method in methods:
        answers = results[spans[method]]
        if method in _PREFIX_METHODS:
            curves[method] = [answers[0].similarity_at(k) for k in budgets]
        else:
            curves[method] = [result.final_similarity for result in answers]
    return curves


def run_similarity_evolution(
    config: ExperimentConfig,
    motif: str,
    graph: Optional[Graph] = None,
    budgets: Optional[Sequence[int]] = None,
) -> SimilarityEvolution:
    """Run the Fig. 3 / Fig. 4 experiment for one motif.

    Parameters
    ----------
    config:
        Shared experiment parameters (dataset, targets, repetitions, ...).
    motif:
        The motif to protect against in this run.
    graph:
        Optional pre-loaded graph (avoids re-generating it per motif).
    budgets:
        Explicit budget axis; defaults to ``config.budgets`` or, when that is
        also ``None``, to ``1 .. k*`` of the SGB greedy on the first
        repetition (the paper's choice of sweeping up to full protection).
    """
    if graph is None:
        graph = load_dataset(config.dataset, **config.dataset_options())

    per_repetition: List[Dict[str, List[int]]] = []
    initial_similarities: List[int] = []
    budget_axis: Optional[List[int]] = list(budgets) if budgets is not None else (
        list(config.budgets) if config.budgets is not None else None
    )

    # one session per sampled instance: the enumerated index is shared by the
    # k* probe and every method x budget query of that repetition
    sessions: List[ProtectionService] = []
    for repetition in range(config.repetitions):
        seed = config.seed + repetition
        targets = sample_random_targets(graph, config.num_targets, seed=seed)
        session = ProtectionService(TPPProblem(graph, targets, motif=motif))
        sessions.append(session)
        initial_similarities.append(session.pristine_similarity())

    if budget_axis is None:
        # sweep up to the budget at which the strongest method (SGB) reaches
        # full protection on the hardest sampled instance (the paper's k*)
        k_star = 1
        for session in sessions:
            probe = session.solve(
                ProtectionRequest(
                    "SGB-Greedy",
                    session.pristine_similarity() + 1,
                    engine=config.engine,
                )
            )
            k_star = max(k_star, probe.budget_used)
        budget_axis = list(range(1, k_star + 1))

    for repetition, session in enumerate(sessions):
        seed = config.seed + repetition
        curves = evolution_for_problem(
            session.problem,
            budget_axis,
            config.methods,
            engine=config.engine,
            seed=seed,
            service=session,
        )
        per_repetition.append(curves)

    averaged: Dict[str, Tuple[float, ...]] = {}
    critical: Dict[str, float] = {}
    for method in config.methods:
        stacked = [curves[method] for curves in per_repetition]
        averaged[method] = tuple(
            sum(values) / len(values) for values in zip(*stacked)
        )
        # critical budget: first budget index where the averaged curve hits zero
        k_stars = []
        for values in stacked:
            zero_indices = [budget_axis[i] for i, v in enumerate(values) if v == 0]
            if zero_indices:
                k_stars.append(min(zero_indices))
        if len(k_stars) == len(stacked):
            critical[method] = sum(k_stars) / len(k_stars)

    return SimilarityEvolution(
        dataset=config.dataset,
        motif=motif,
        budgets=tuple(budget_axis),
        curves=averaged,
        initial_similarity=sum(initial_similarities) / len(initial_similarities),
        critical_budget=critical,
    )
