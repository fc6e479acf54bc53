"""SGB-Greedy: the Single-Global-Budget greedy protector selection.

Algorithm 1 of the paper.  All targets share one deletion budget ``k``; at
every step the edge breaking the largest number of still-alive target
subgraphs (over *all* targets) is deleted.  Because the dissimilarity is
monotone and submodular (Lemmas 1–2), the greedy selection is a ``1 - 1/e``
approximation of the optimal protector set (Theorem 3).

Two evaluation strategies are available (see :mod:`repro.core.engines`):

* ``engine="recount"`` reproduces the paper's non-scalable SGB-Greedy;
* ``engine="coverage"`` is the scalable SGB-Greedy-R of Lemma 5, and by
  default runs the *lazy* selection: the array kernel maintains exact
  per-edge live-gain counters, so the maximum-gain edge pops straight off a
  heap instead of being found by a full candidate sweep.  This is CELF taken
  to its limit — with exact incremental gains no re-evaluation is ever
  needed — and it selects the identical protector sequence as the plain
  sweep (tie-breaking included).  On the native kernel the whole
  selection runs in one C call (:meth:`CoverageEngine.drive_top_gain`);
  the Python pop-commit loop serves the numpy kernel.

Pass ``lazy=False`` to force the full evaluation sweep on either engine.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.engines import CoverageEngine, EngineLike, make_engine
from repro.core.model import ProtectionResult, TPPProblem
from repro.core.selection import Stopwatch, argmax_edge, similarity_trace
from repro.exceptions import BudgetError, EngineError
from repro.graphs.graph import Edge

__all__ = ["sgb_greedy"]


def sgb_greedy(
    problem: TPPProblem,
    budget: int,
    engine: EngineLike = "coverage",
    lazy: Optional[bool] = None,
) -> ProtectionResult:
    """Select up to ``budget`` protectors with the single-global-budget greedy.

    Parameters
    ----------
    problem:
        The TPP instance.
    budget:
        Maximum number of protector deletions ``k``.
    engine:
        ``"coverage"`` (scalable, SGB-Greedy-R), ``"recount"`` (naive,
        SGB-Greedy), or an already-constructed
        :class:`~repro.core.engines.MarginalGainEngine` (the session API
        passes engines built on a copy of its pristine coverage state).
    lazy:
        Pop the maximum-gain edge off the kernel's heap instead of running a
        full candidate sweep per step.  Defaults to ``True`` on the coverage
        engine and ``False`` on the recount engine (which does not support
        it).  Produces the same protector selection as the plain sweep,
        tie-breaking included; typically much faster on large graphs.

    Returns
    -------
    ProtectionResult
        Selected protectors, similarity trace and runtime.  The selection
        stops early if every remaining candidate has zero gain (either all
        targets are fully protected or no useful edge remains).
    """
    if budget < 0:
        raise BudgetError(f"budget must be >= 0, got {budget}")
    stopwatch = Stopwatch()
    gain_engine = make_engine(problem, engine)
    algorithm = (
        "SGB-Greedy-R" if isinstance(gain_engine, CoverageEngine) else "SGB-Greedy"
    )
    if lazy is None:
        lazy = isinstance(gain_engine, CoverageEngine)
    if lazy and not isinstance(gain_engine, CoverageEngine):
        raise EngineError("lazy evaluation requires the coverage engine")

    protectors: List[Edge] = []
    trace: List[int] = [gain_engine.total_similarity()]

    if lazy and isinstance(gain_engine, CoverageEngine) and gain_engine.has_drivers:
        # the whole pop-commit loop below, in one native call
        protectors, killed = gain_engine.drive_top_gain(budget)
        trace = similarity_trace(trace[0], killed)
    elif lazy:
        # the kernel's heap holds *exact* live gains: pop, commit, repeat
        while len(protectors) < budget:
            best = gain_engine.top_gain_edge()
            if best is None:
                break
            edge, _ = best
            gain_engine.commit(edge)
            protectors.append(edge)
            trace.append(gain_engine.total_similarity())
    else:
        while len(protectors) < budget:
            best = argmax_edge(gain_engine.candidate_edges(), gain_engine.total_gain)
            if best is None or best[1] <= 0:
                break
            edge, _ = best
            gain_engine.commit(edge)
            protectors.append(edge)
            trace.append(gain_engine.total_similarity())

    return ProtectionResult(
        algorithm=algorithm + ("+lazy" if lazy else ""),
        motif=problem.motif.name,
        budget=budget,
        protectors=tuple(protectors),
        similarity_trace=tuple(trace),
        initial_similarity=problem.initial_similarity(),
        runtime_seconds=stopwatch.elapsed(),
        extra={"engine": gain_engine.name, "lazy": lazy},
    )

