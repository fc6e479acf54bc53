"""SGB-Greedy: the Single-Global-Budget greedy protector selection.

Algorithm 1 of the paper.  All targets share one deletion budget ``k``; at
every step the edge breaking the largest number of still-alive target
subgraphs (over *all* targets) is deleted.  Because the dissimilarity is
monotone and submodular (Lemmas 1–2), the greedy selection is a ``1 - 1/e``
approximation of the optimal protector set (Theorem 3).

Three evaluation strategies are available (see :mod:`repro.core.engines`):

* ``engine="recount"`` reproduces the paper's non-scalable SGB-Greedy;
* ``engine="coverage"`` is the scalable SGB-Greedy-R of Lemma 5, and by
  default runs the *lazy* selection: the array kernel maintains exact
  per-edge live-gain counters, so the maximum-gain edge pops straight off a
  heap instead of being found by a full candidate sweep.  This is CELF taken
  to its limit — with exact incremental gains no re-evaluation is ever
  needed — and it selects the identical protector sequence as the plain
  sweep (tie-breaking included).  On the native kernel the whole
  selection runs in one C call (:meth:`CoverageEngine.drive_top_gain`);
  the Python pop-commit loop serves the numpy kernel;
* ``engine="coverage-set"`` is the original hash-set implementation, kept as
  the reference; its lazy mode uses the classic CELF stale-upper-bound heap.

Pass ``lazy=False`` to force the full evaluation sweep on any engine.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.core.engines import CoverageEngine, EngineLike, MarginalGainEngine, make_engine
from repro.core.model import ProtectionResult, TPPProblem
from repro.core.selection import Stopwatch, argmax_edge, edge_sort_key, similarity_trace
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
        ``"coverage"`` (scalable, SGB-Greedy-R), ``"coverage-set"`` (the
        hash-set reference implementation), ``"recount"`` (naive,
        SGB-Greedy), or an already-constructed
        :class:`~repro.core.engines.MarginalGainEngine` (the session API
        passes engines built on a copy of its pristine coverage state).
    lazy:
        Use lazy (CELF-style) evaluation instead of a full candidate sweep
        per step.  Defaults to ``True`` on the coverage engines and ``False``
        on the recount engine (which does not support it).  Produces the same
        protector selection as the plain sweep (identical tie-breaking on the
        array kernel, identical up to ties on the set state); typically much
        faster on large graphs.

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
    elif lazy and gain_engine.supports_fast_top:
        # the kernel's heap holds *exact* live gains: pop, commit, repeat
        while len(protectors) < budget:
            best = gain_engine.top_gain_edge()
            if best is None:
                break
            edge, _ = best
            gain_engine.commit(edge)
            protectors.append(edge)
            trace.append(gain_engine.total_similarity())
    elif lazy:
        protectors, trace = _celf_selection(gain_engine, budget, trace)
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


def _celf_selection(
    engine: MarginalGainEngine, budget: int, trace: List[int]
) -> Tuple[List[Edge], List[int]]:
    """Classic CELF lazy greedy over stale upper bounds.

    Used for engines without exact incremental counters (the hash-set
    reference state).  Maintains a max-heap of (stale) upper bounds on each
    candidate's gain; submodularity guarantees a candidate whose refreshed
    gain still tops the heap is the true argmax, so most candidates are never
    re-evaluated.
    """
    protectors: List[Edge] = []
    heap = []
    # reprolint: disable=R1-set-iteration(heap entries carry the total key (-gain, edge_sort_key, edge), so pop order is independent of push order)
    for edge in engine.candidate_edges():
        gain = engine.total_gain(edge)
        if gain > 0:
            # negative gain for max-heap behaviour; round counter marks freshness
            heapq.heappush(heap, (-gain, edge_sort_key(edge), edge, 0))

    current_round = 0
    while len(protectors) < budget and heap:
        neg_gain, _, edge, evaluated_round = heapq.heappop(heap)
        if evaluated_round == current_round:
            if -neg_gain <= 0:
                break
            engine.commit(edge)
            protectors.append(edge)
            trace.append(engine.total_similarity())
            current_round += 1
        else:
            refreshed = engine.total_gain(edge)
            if refreshed > 0:
                heapq.heappush(
                    heap, (-refreshed, edge_sort_key(edge), edge, current_round)
                )
    return protectors, trace
