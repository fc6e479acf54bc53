"""WT-Greedy: the Within-Target greedy protector selection for MLBT.

Algorithm 3 of the paper.  Targets are processed one after another; while a
target's sub budget lasts, the edge maximising

``Δ_t^p = [subgraphs of t broken by p] + [subgraphs of other targets broken by p] / C``

is deleted and charged to that target.  The within-target setting is also
submodular maximisation under per-target budgets and achieves a
``1 - e^-(1-1/e) ≈ 0.46`` approximation (Theorem 5).

Because the selection never looks across targets, it can spend budget on a
target whose remaining subgraphs were already broken "for free" by earlier
targets' protectors; this is exactly why the paper finds WT-Greedy slightly
weaker than CT-Greedy (Fig. 2 example, Figs. 3–4).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.budget import make_budget_division
from repro.core.engines import CoverageEngine, EngineLike, MarginalGainEngine, make_engine
from repro.core.model import ProtectionResult, TPPProblem
from repro.core.selection import Stopwatch, similarity_trace
from repro.exceptions import BudgetError
from repro.graphs.graph import Edge

__all__ = ["wt_greedy"]


def wt_greedy(
    problem: TPPProblem,
    budget: int,
    budget_division: Union[str, Mapping[Edge, int]] = "tbd",
    engine: EngineLike = "coverage",
    target_order: Optional[Sequence[Edge]] = None,
) -> ProtectionResult:
    """Select protectors with the within-target greedy under per-target budgets.

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
        ``"coverage"`` (WT-Greedy-R), ``"recount"`` (WT-Greedy), or an
        already-constructed engine instance.
    target_order:
        Optional explicit processing order of the targets; defaults to the
        problem's target order.

    Returns
    -------
    ProtectionResult
        With ``budget_division`` and per-target ``allocation`` filled in.
    """
    if budget < 0:
        raise BudgetError(f"budget must be >= 0, got {budget}")
    stopwatch = Stopwatch()
    division = make_budget_division(problem, budget, budget_division)
    gain_engine = make_engine(problem, engine)
    constant = max(problem.constant, 1)
    algorithm = (
        "WT-Greedy-R" if isinstance(gain_engine, CoverageEngine) else "WT-Greedy"
    )
    if isinstance(budget_division, str):
        algorithm = f"{algorithm}:{budget_division.upper()}"

    order: Tuple[Edge, ...] = (
        tuple(target_order) if target_order is not None else problem.targets
    )
    if set(order) != set(problem.targets):
        raise BudgetError("target_order must be a permutation of the problem targets")

    allocation: Dict[Edge, List[Edge]] = {target: [] for target in problem.targets}
    if isinstance(gain_engine, CoverageEngine) and gain_engine.has_drivers:
        # the loop of _select, in one native call
        initial = gain_engine.total_similarity()
        protectors, charged, killed = gain_engine.drive_scored_pairs(
            budget, constant, order, division, within=True
        )
        for target, edge in zip(charged, protectors):
            allocation[target].append(edge)
        trace = similarity_trace(initial, killed)
    else:
        protectors, trace = _select(
            gain_engine, order, division, budget, constant, allocation
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
    order: Tuple[Edge, ...],
    division: Mapping[Edge, int],
    budget: int,
    constant: int,
    allocation: Dict[Edge, List[Edge]],
) -> Tuple[List[Edge], List[int]]:
    """The within-target greedy loop; fills ``allocation`` and returns the
    protectors and the similarity trace."""
    protectors: List[Edge] = []
    trace: List[int] = [gain_engine.total_similarity()]
    for target in order:
        sub_budget = division.get(target, 0)
        for _ in range(sub_budget):
            if len(protectors) >= budget:
                break
            # only edges touching an alive subgraph of *this* target can
            # have a positive own-gain; the kernel engine answers the
            # single-target argmax from the target's lazy max-heap over
            # the per-(edge, target) counter matrix, other engines run a
            # deterministic sweep in edge_sort_key order — identical results
            best = gain_engine.best_scored_pair((target,), constant)
            best_edge: Optional[Edge] = best[2] if best is not None else None
            if best_edge is None:
                # nothing left to break for this target (possibly already
                # protected by earlier deletions): move on to the next target
                break
            gain_engine.commit(best_edge)
            protectors.append(best_edge)
            allocation[target].append(best_edge)
            trace.append(gain_engine.total_similarity())
    return protectors, trace
