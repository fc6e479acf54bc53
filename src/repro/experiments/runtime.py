"""Running-time experiments (Figures 5 and 6).

Fig. 5 compares the naive greedy algorithms against their scalable ``-R``
implementations on the Arenas-email-scale graph; Fig. 6 reports the scalable
algorithms and the random baselines on the DBLP-scale graph (the naive
variants "didn't finish within a week" there, which this harness reproduces
in spirit by not even attempting them at that scale).
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
from repro.service.registry import is_greedy_method

__all__ = ["RuntimeComparison", "run_runtime_comparison"]


@dataclass(frozen=True)
class RuntimeComparison:
    """Averaged running times for one dataset + motif.

    ``curves`` maps a display label (method name plus engine suffix, e.g.
    ``"SGB-Greedy-R"`` or ``"SGB-Greedy"``) to the mean wall-clock seconds at
    every budget of ``budgets``.
    """

    dataset: str
    motif: str
    budgets: Tuple[int, ...]
    curves: Mapping[str, Tuple[float, ...]]

    def speedup(self, naive_label: str, scalable_label: str) -> Tuple[float, ...]:
        """Return the per-budget speedup of the scalable over the naive variant."""
        naive = self.curves[naive_label]
        scalable = self.curves[scalable_label]
        return tuple(
            (n / s) if s > 0 else float("inf") for n, s in zip(naive, scalable)
        )


#: Legend suffix per engine: the coverage kernel is the paper's scalable
#: "-R" implementation, the recount engine its plain one.
_ENGINE_SUFFIXES = {"coverage": "-R", "recount": ""}


def _label(method: str, engine: str) -> str:
    """Return the paper-style legend label for a method + engine combination."""
    if not is_greedy_method(method):
        return method
    suffix = _ENGINE_SUFFIXES.get(engine, f"-{engine}")
    if ":" in method:
        base, division = method.split(":", 1)
        return f"{base}{suffix}:{division}"
    return f"{method}{suffix}"


def run_runtime_comparison(
    config: ExperimentConfig,
    motif: str,
    budgets: Sequence[int],
    engines: Sequence[str] = ("coverage", "recount"),
    graph: Optional[Graph] = None,
) -> RuntimeComparison:
    """Measure protector-selection running time as a function of the budget.

    Parameters
    ----------
    config:
        Shared experiment parameters; ``config.methods`` selects which
        algorithms are timed.
    motif:
        The motif to protect against.
    budgets:
        Budget values to time (the paper uses 1..25).
    engines:
        Which engines to include: both for the Fig. 5 comparison, only
        ``("coverage",)`` for the DBLP-scale Fig. 6.
    graph:
        Optional pre-loaded graph.
    """
    if graph is None:
        graph = load_dataset(config.dataset, **config.dataset_options())

    sums: Dict[str, List[float]] = {}
    for repetition in range(config.repetitions):
        seed = config.seed + repetition
        targets = sample_random_targets(graph, config.num_targets, seed=seed)
        # one session per sampled instance: enumeration cost is shared (paid
        # at session build), so only protector selection is measured per run
        session = ProtectionService(TPPProblem(graph, targets, motif=motif))
        for method in config.methods:
            method_engines = engines if is_greedy_method(method) else ("coverage",)
            for engine in method_engines:
                label = _label(method, engine)
                times = sums.setdefault(label, [0.0] * len(budgets))
                for index, budget in enumerate(budgets):
                    result = session.solve(
                        ProtectionRequest(method, budget, engine=engine, seed=seed)
                    )
                    times[index] += result.runtime_seconds

    curves = {
        label: tuple(value / config.repetitions for value in values)
        for label, values in sums.items()
    }
    return RuntimeComparison(
        dataset=config.dataset,
        motif=motif,
        budgets=tuple(budgets),
        curves=curves,
    )
