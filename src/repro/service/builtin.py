"""Built-in protection methods: the seven curves of Figs. 3-6 / Tables III-V.

* ``SGB-Greedy`` — single global budget greedy,
* ``SGB-Greedy+BB`` — the same greedy with a branch-and-bound refinement of
  the final ``depth`` picks (never worse, deterministic; see
  :mod:`repro.core.refine`),
* ``CT-Greedy:TBD`` / ``CT-Greedy:DBD`` — cross-target greedy under the two
  budget divisions,
* ``WT-Greedy:TBD`` / ``WT-Greedy:DBD`` — within-target greedy under the two
  budget divisions,
* ``RD`` and ``RDT`` — the random baselines.

The ``order`` values reproduce the paper's legend order (SGB, CT:DBD,
WT:DBD, CT:TBD, WT:TBD, RD, RDT) — ``method_names()`` derives the ordering
from these registrations instead of a hand-maintained tuple.

Each runner accepts the shared registry signature
``(problem, budget, engine, seed, **options)``; the CT/WT runners honour a
``budget_division`` option (an explicit per-target mapping overrides the
division baked into the method name), SGB honours ``lazy``, and the
baselines extract the prepared coverage state from an injected engine so
session-served runs trace deletions on the shared index.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core.baselines import random_deletion, random_target_subgraph_deletion
from repro.core.ct import ct_greedy
from repro.core.engines import CoverageEngine, EngineLike
from repro.core.model import ProtectionResult, TPPProblem
from repro.core.refine import sgb_greedy_bb
from repro.core.sgb import sgb_greedy
from repro.core.wt import wt_greedy
from repro.motifs.enumeration import CoverageState
from repro.service.registry import register_method

__all__ = []  # registration side effects only


def _prepared_state(engine: EngineLike) -> Optional[CoverageState]:
    """Return the coverage state of an injected engine (None for names)."""
    if isinstance(engine, CoverageEngine):
        return engine.coverage_state
    return None


@register_method(
    "SGB-Greedy",
    kind="greedy",
    order=10,
    description="single global budget greedy (Algorithm 1)",
)
def _run_sgb(
    problem: TPPProblem, budget: int, engine: EngineLike, seed: int, **options: Any
) -> ProtectionResult:
    return sgb_greedy(problem, budget, engine=engine, lazy=options.get("lazy"))


@register_method(
    "SGB-Greedy+BB",
    kind="greedy",
    order=15,
    description="SGB greedy with branch-and-bound refinement of the final picks",
)
def _run_sgb_bb(
    problem: TPPProblem, budget: int, engine: EngineLike, seed: int, **options: Any
) -> ProtectionResult:
    return sgb_greedy_bb(
        problem,
        budget,
        engine=engine,
        depth=options.get("depth", 3),
        shortlist=options.get("shortlist", 6),
    )


@register_method(
    "CT-Greedy:DBD",
    kind="greedy",
    order=20,
    description="cross-target greedy, degree-product budget division",
)
def _run_ct_dbd(
    problem: TPPProblem, budget: int, engine: EngineLike, seed: int, **options: Any
) -> ProtectionResult:
    division = options.get("budget_division") or "dbd"
    return ct_greedy(problem, budget, budget_division=division, engine=engine)


@register_method(
    "WT-Greedy:DBD",
    kind="greedy",
    order=30,
    description="within-target greedy, degree-product budget division",
)
def _run_wt_dbd(
    problem: TPPProblem, budget: int, engine: EngineLike, seed: int, **options: Any
) -> ProtectionResult:
    division = options.get("budget_division") or "dbd"
    return wt_greedy(problem, budget, budget_division=division, engine=engine)


@register_method(
    "CT-Greedy:TBD",
    kind="greedy",
    order=40,
    description="cross-target greedy, target-subgraph budget division",
)
def _run_ct_tbd(
    problem: TPPProblem, budget: int, engine: EngineLike, seed: int, **options: Any
) -> ProtectionResult:
    division = options.get("budget_division") or "tbd"
    return ct_greedy(problem, budget, budget_division=division, engine=engine)


@register_method(
    "WT-Greedy:TBD",
    kind="greedy",
    order=50,
    description="within-target greedy, target-subgraph budget division",
)
def _run_wt_tbd(
    problem: TPPProblem, budget: int, engine: EngineLike, seed: int, **options: Any
) -> ProtectionResult:
    division = options.get("budget_division") or "tbd"
    return wt_greedy(problem, budget, budget_division=division, engine=engine)


@register_method(
    "RD",
    kind="baseline",
    order=60,
    description="uniform random deletion from the phase-1 edge set",
)
def _run_rd(
    problem: TPPProblem, budget: int, engine: EngineLike, seed: int, **options: Any
) -> ProtectionResult:
    return random_deletion(problem, budget, seed=seed, state=_prepared_state(engine))


@register_method(
    "RDT",
    kind="baseline",
    order=70,
    description="uniform random deletion from target-subgraph edges",
)
def _run_rdt(
    problem: TPPProblem, budget: int, engine: EngineLike, seed: int, **options: Any
) -> ProtectionResult:
    return random_target_subgraph_deletion(
        problem, budget, seed=seed, state=_prepared_state(engine)
    )
