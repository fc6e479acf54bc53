"""CT-Greedy: the Cross-Target greedy protector selection for MLBT.

Algorithm 2 of the paper.  Every target ``t`` owns a sub budget ``k_t``
(produced by a budget division, see :mod:`repro.core.budget`).  At each step
the algorithm scores every pair ``(t, p)`` of a non-exhausted target and a
candidate edge with

``Δ_t^p = [subgraphs of t broken by p] + [subgraphs of other targets broken by p] / C``

and charges the winning deletion to the winning target's sub budget.  The
cross-target setting is submodular maximisation over a partition matroid, so
the greedy achieves a 1/2 approximation (Theorem 4).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.core.budget import make_budget_division
from repro.core.engines import CoverageEngine, EngineLike, MarginalGainEngine, make_engine
from repro.core.model import ProtectionResult, TPPProblem
from repro.core.selection import Stopwatch, edge_sort_key, similarity_trace
from repro.exceptions import BudgetError
from repro.graphs.graph import Edge

__all__ = ["ct_greedy"]


def ct_greedy(
    problem: TPPProblem,
    budget: int,
    budget_division: Union[str, Mapping[Edge, int]] = "tbd",
    engine: EngineLike = "coverage",
) -> ProtectionResult:
    """Select protectors with the cross-target greedy under per-target budgets.

    Parameters
    ----------
    problem:
        The TPP instance.
    budget:
        Global budget ``k``; the division strategy splits it into ``k_t``.
    budget_division:
        ``"tbd"``, ``"dbd"``, ``"uniform"`` or an explicit target -> budget
        mapping.
    engine:
        ``"coverage"`` (CT-Greedy-R), ``"recount"`` (CT-Greedy), or an
        already-constructed engine instance.

    Returns
    -------
    ProtectionResult
        With ``budget_division`` and the per-target ``allocation`` filled in.
    """
    if budget < 0:
        raise BudgetError(f"budget must be >= 0, got {budget}")
    stopwatch = Stopwatch()
    division = make_budget_division(problem, budget, budget_division)
    gain_engine = make_engine(problem, engine)
    constant = max(problem.constant, 1)
    algorithm = (
        "CT-Greedy-R" if isinstance(gain_engine, CoverageEngine) else "CT-Greedy"
    )
    if isinstance(budget_division, str):
        algorithm = f"{algorithm}:{budget_division.upper()}"

    allocation: Dict[Edge, List[Edge]] = {target: [] for target in problem.targets}
    if isinstance(gain_engine, CoverageEngine) and gain_engine.has_drivers:
        # the loop of _select, in one native call
        initial = gain_engine.total_similarity()
        protectors, charged, killed = gain_engine.drive_scored_pairs(
            budget, constant, problem.targets, division, within=False
        )
        for target, edge in zip(charged, protectors):
            allocation[target].append(edge)
        trace = similarity_trace(initial, killed)
    else:
        protectors, trace = _select(
            gain_engine, problem.targets, division, budget, constant, allocation
        )

    return ProtectionResult(
        algorithm=algorithm,
        motif=problem.motif.name,
        budget=budget,
        protectors=tuple(protectors),
        similarity_trace=tuple(trace),
        initial_similarity=problem.initial_similarity(),
        budget_division=dict(division),
        allocation={t: tuple(edges) for t, edges in allocation.items()},
        runtime_seconds=stopwatch.elapsed(),
        extra={"engine": gain_engine.name},
    )


def _select(
    gain_engine: MarginalGainEngine,
    targets: Tuple[Edge, ...],
    division: Mapping[Edge, int],
    budget: int,
    constant: int,
    allocation: Dict[Edge, List[Edge]],
) -> Tuple[List[Edge], List[int]]:
    """The cross-target greedy loop; fills ``allocation`` and returns the
    protectors and the similarity trace."""
    exhausted: Set[Edge] = {
        target for target in targets if division.get(target, 0) == 0
    }
    protectors: List[Edge] = []
    trace: List[int] = [gain_engine.total_similarity()]

    while True:
        active_targets = [t for t in targets if t not in exhausted]
        if not active_targets or len(protectors) >= budget:
            break
        # the argmax over (active target, candidate edge) pairs scored
        # Δ_t^p = own + (total - own) / C; the kernel engine answers from
        # per-target lazy max-heaps (sublinear in the candidate count),
        # other engines run a deterministic full sweep — identical results
        best: Optional[Tuple[int, Edge, Edge]] = gain_engine.best_scored_pair(
            active_targets, constant
        )
        if best is None:
            # no remaining edge has an own-gain for any active target, so
            # every positive edge scores Δ_t^p = total / C for every active
            # target: take the max-total edge and charge it to the active
            # target with the most remaining sub-budget (deterministic
            # tie-break by edge_sort_key), keeping the tightest sub-budgets
            # free for deletions that still break their own subgraphs
            top = gain_engine.top_gain_edge()
            if top is None:
                break
            target = min(
                active_targets,
                key=lambda t: (
                    len(allocation[t]) - division.get(t, 0),
                    edge_sort_key(t),
                ),
            )
            edge = top[0]
        else:
            _, target, edge = best
        gain_engine.commit(edge)
        protectors.append(edge)
        allocation[target].append(edge)
        trace.append(gain_engine.total_similarity())
        if len(allocation[target]) >= division.get(target, 0):
            exhausted.add(target)
    return protectors, trace
