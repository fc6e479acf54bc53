"""Budget division strategies for the Multi-Local-Budget TPP problem (MLBT).

Given a global budget ``k`` and the target set ``T``, a budget division
produces the sub-budget vector ``K = {k_t}`` with ``sum_t k_t <= k``.  The
paper studies two strategies:

* **TBD** — target-subgraph-based division: ``k_t`` proportional to the
  number of target subgraphs ``|W_t|`` of the target, and
* **DBD** — degree-product-based division: ``k_t`` proportional to
  ``d_u * d_v`` for the target ``t = (u, v)``.

Both honour the constraint ``k_t <= |W_t|`` (spending more than ``|W_t|``
deletions on one target can never help it further), with the capped surplus
redistributed to targets that can still absorb budget.  A uniform division is
provided as an additional baseline.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Mapping, Sequence, Union

from repro.core.model import TPPProblem
from repro.exceptions import BudgetError
from repro.graphs.graph import Edge, canonical_edge

__all__ = [
    "BudgetDivision",
    "BudgetUnderAllocationWarning",
    "target_subgraph_budget_division",
    "degree_product_budget_division",
    "uniform_budget_division",
    "make_budget_division",
    "validate_budget_division",
]


class BudgetUnderAllocationWarning(UserWarning):
    """A budget division leaves budget unspent although targets have headroom.

    The built-in strategies (TBD/DBD/uniform) always allocate
    ``min(budget, sum_t |W_t|)`` units, so this warning only fires for
    explicit user-supplied divisions that strand budget which could still be
    absorbed by some target.
    """

#: A budget division: mapping target -> sub budget.
BudgetDivision = Dict[Edge, int]


def _proportional_allocation(
    weights: Mapping[Edge, float],
    caps: Mapping[Edge, int],
    budget: int,
) -> BudgetDivision:
    """Allocate ``budget`` integer units proportionally to ``weights``.

    Uses largest-remainder apportionment, then redistributes any units lost
    to the per-target ``caps`` round-robin (in largest-remainder order) over
    the targets that still have headroom.  The loop terminates only when the
    budget is spent or no target can absorb another unit, so the result
    always allocates exactly ``min(budget, sum(caps))`` units.
    """
    targets = list(weights)
    allocation = {target: 0 for target in targets}
    total_weight = sum(weights.values())
    if budget <= 0 or total_weight <= 0:
        return allocation

    # ideal (real-valued) shares
    shares = {target: budget * weights[target] / total_weight for target in targets}
    for target in targets:
        allocation[target] = min(int(shares[target]), caps[target])

    remaining = budget - sum(allocation.values())
    # hand out remaining units by largest fractional remainder, respecting
    # caps; saturated targets drop out of the rotation instead of burning
    # passes, so no budget is ever stranded while headroom exists
    open_targets = sorted(
        targets, key=lambda t: (shares[t] - int(shares[t]), weights[t]), reverse=True
    )
    while remaining > 0:
        open_targets = [t for t in open_targets if allocation[t] < caps[t]]
        if not open_targets:
            break
        if len(open_targets) == 1:
            target = open_targets[0]
            grant = min(remaining, caps[target] - allocation[target])
            allocation[target] += grant
            remaining -= grant
            continue
        for target in open_targets:
            if remaining == 0:
                break
            if allocation[target] < caps[target]:
                allocation[target] += 1
                remaining -= 1
    return allocation


def target_subgraph_budget_division(problem: TPPProblem, budget: int) -> BudgetDivision:
    """Return the TBD division: sub budgets proportional to ``|W_t|``.

    Targets with more target subgraphs are more exposed and receive more of
    the budget; a target never receives more than ``|W_t|``.
    """
    if budget < 0:
        raise BudgetError(f"budget must be >= 0, got {budget}")
    initial = problem.initial_similarity_by_target()
    weights = {target: float(count) for target, count in initial.items()}
    caps = dict(initial)
    return _proportional_allocation(weights, caps, budget)


def degree_product_budget_division(problem: TPPProblem, budget: int) -> BudgetDivision:
    """Return the DBD division: sub budgets proportional to ``d_u * d_v``.

    Degrees are taken in the original graph (before phase 1), matching the
    intuition that a link between two hubs is more important.  Sub budgets
    remain capped by ``|W_t|`` because extra deletions beyond the number of
    target subgraphs cannot improve that target's protection.
    """
    if budget < 0:
        raise BudgetError(f"budget must be >= 0, got {budget}")
    graph = problem.graph
    initial = problem.initial_similarity_by_target()
    weights = {
        target: float(graph.degree(target[0]) * graph.degree(target[1]))
        for target in problem.targets
    }
    caps = dict(initial)
    return _proportional_allocation(weights, caps, budget)


def uniform_budget_division(problem: TPPProblem, budget: int) -> BudgetDivision:
    """Return an even split of the budget across targets (capped by ``|W_t|``)."""
    if budget < 0:
        raise BudgetError(f"budget must be >= 0, got {budget}")
    initial = problem.initial_similarity_by_target()
    weights = {target: 1.0 for target in problem.targets}
    caps = dict(initial)
    return _proportional_allocation(weights, caps, budget)


_STRATEGIES: Dict[str, Callable[[TPPProblem, int], BudgetDivision]] = {
    "tbd": target_subgraph_budget_division,
    "dbd": degree_product_budget_division,
    "uniform": uniform_budget_division,
}


def make_budget_division(
    problem: TPPProblem,
    budget: int,
    strategy: Union[str, Mapping[Edge, int]] = "tbd",
) -> BudgetDivision:
    """Return a budget division from a strategy name or an explicit mapping.

    Accepts ``"tbd"``, ``"dbd"``, ``"uniform"`` or a pre-computed mapping
    (whose keys are canonicalised, then validated and copied — so callers may
    spell a target ``(v, u)`` even though the problem stores ``(u, v)``).
    """
    if isinstance(strategy, str):
        name = strategy.lower()
        if name not in _STRATEGIES:
            raise BudgetError(
                f"unknown budget division {strategy!r}; expected one of "
                f"{sorted(_STRATEGIES)} or an explicit mapping"
            )
        division = _STRATEGIES[name](problem, budget)
    else:
        division = {
            canonical_edge(*target): int(value) for target, value in strategy.items()
        }
        if len(division) != len(strategy):
            raise BudgetError(
                "budget division lists the same target more than once "
                "(keys collide after canonicalisation)"
            )
    validate_budget_division(problem, budget, division)
    return division


def validate_budget_division(
    problem: TPPProblem, budget: int, division: Mapping[Edge, int]
) -> None:
    """Validate a budget division against the problem and total budget.

    Raises
    ------
    BudgetError
        If a sub budget is negative, references an unknown target, or the
        sub budgets sum to more than ``budget``.

    Warns
    -----
    BudgetUnderAllocationWarning
        If the division leaves budget unspent even though some target could
        still absorb more (``k_t < |W_t|``).  Spending those units can only
        improve protection, so stranding them is almost always a mistake.
        The headroom check reads the problem's cached target-subgraph index
        and is skipped when none has been built yet, so validating a
        division never triggers the enumeration (the built-in strategies
        build the index to compute their caps, hence are always checked).
    """
    known = set(problem.targets)
    total = 0
    for target, sub_budget in division.items():
        if target not in known:
            raise BudgetError(f"budget division references unknown target {target!r}")
        if sub_budget < 0:
            raise BudgetError(f"sub budget for {target!r} is negative: {sub_budget}")
        total += sub_budget
    if total > budget:
        raise BudgetError(
            f"sub budgets sum to {total}, exceeding the global budget {budget}"
        )
    if total < budget and problem.has_cached_index:
        caps = problem.initial_similarity_by_target()
        headroom = sum(
            max(0, caps[target] - division.get(target, 0))
            for target in problem.targets
        )
        if headroom > 0:
            warnings.warn(
                f"budget division allocates {total} of {budget} units while "
                f"targets could still absorb {headroom} more",
                BudgetUnderAllocationWarning,
                stacklevel=2,
            )


def describe_division(division: Mapping[Edge, int]) -> str:
    """Return a compact human-readable description of a budget division."""
    parts = [f"{target}: {value}" for target, value in sorted(division.items(), key=str)]
    return "{" + ", ".join(parts) + "}"
