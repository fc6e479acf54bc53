"""SGB-Greedy+BB: branch-and-bound refinement of the greedy tail.

The ``1 - 1/e`` guarantee of SGB-Greedy (Theorem 3) leaves room at the end
of the selection: the last few greedy picks are the ones most likely to be
beaten by a coordinated exchange, because early picks are near-forced while
late picks choose among many near-tied candidates.  This module keeps the
greedy prefix (cheap, near-optimal) and re-solves only the final ``depth``
picks exactly-ish with a depth-first branch and bound over the coverage
state:

* **branching** — at each node the children are the ``shortlist`` best
  live candidates by current gain (``top_gain_edges``), applied to a
  ``copy()`` of the node's state;
* **bounding** — by submodularity the marginal gain of any future pick is
  at most its *current* individual gain, so ``broken so far + sum of the
  top r current gains`` (``r`` = picks left) upper-bounds every completion
  of the node.  Nodes whose bound cannot beat the incumbent are pruned;
* **incumbent** — the greedy suffix itself, which is always the chain of
  first children, so the refinement can only match or improve it.  Only a
  *strictly* better suffix replaces the incumbent, which keeps the method
  deterministic and never worse than SGB-Greedy.

The search runs entirely on array-kernel coverage states (cheap ``copy()``,
heap-backed ``top_gain_edges``).  The greedy pass runs once: it pauses
``depth`` picks before the budget, where a ``copy()`` of its state becomes
the search root, and its final state is the incumbent.  The chosen
sequence is then committed into the caller's engine in one batch
(:meth:`~repro.core.engines.MarginalGainEngine.commit_many`) so the
similarity trace is produced by the same evaluation strategy the caller
asked for.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.engines import CoverageEngine, EngineLike, make_engine
from repro.core.model import ProtectionResult, TPPProblem
from repro.core.selection import Stopwatch, similarity_trace
from repro.exceptions import BudgetError
from repro.graphs.graph import Edge
from repro.motifs.enumeration import CoverageState

__all__ = ["sgb_greedy_bb"]

#: Default number of trailing greedy picks the branch and bound re-solves.
DEFAULT_DEPTH = 3

#: Default branching factor (candidates considered per search node).
DEFAULT_SHORTLIST = 6


def sgb_greedy_bb(
    problem: TPPProblem,
    budget: int,
    engine: EngineLike = "coverage",
    depth: int = DEFAULT_DEPTH,
    shortlist: int = DEFAULT_SHORTLIST,
) -> ProtectionResult:
    """Select protectors with SGB-Greedy, then refine the last picks by B&B.

    Parameters
    ----------
    problem:
        The TPP instance.
    budget:
        Maximum number of protector deletions ``k``.
    engine:
        Engine name or instance; the refined sequence is committed into this
        engine to produce the trace.  The branch-and-bound search itself
        always runs on array-kernel coverage states (every engine is
        answer-identical, so the search result is valid for all of them).
    depth:
        How many trailing greedy picks to re-solve (default 3).  ``0``
        degenerates to plain SGB-Greedy.
    shortlist:
        Branching factor: how many of the best live candidates each search
        node expands (default 6).  The greedy pick is always among them, so
        any value ``>= 1`` preserves the never-worse guarantee.

    Returns
    -------
    ProtectionResult
        ``extra`` records the search effort (``bb_nodes``), whether the
        bound search actually changed the greedy tail (``refined``), and the
        search parameters.  The result is deterministic and its final
        similarity is never higher than plain SGB-Greedy's on the same
        problem, budget and engine.
    """
    if budget < 0:
        raise BudgetError(f"budget must be >= 0, got {budget}")
    depth = max(0, depth)
    shortlist = max(1, shortlist)
    stopwatch = Stopwatch()

    gain_engine = make_engine(problem, engine)
    algorithm = (
        "SGB-Greedy-R+BB" if isinstance(gain_engine, CoverageEngine) else "SGB-Greedy+BB"
    )

    # phase 1: plain greedy on a private copy of the engine's state, paused
    # ``tail`` picks before the budget to copy the branch-and-bound root
    work = _search_state(problem, gain_engine)
    tail = min(depth, budget)
    greedy = _greedy_picks(work, budget - tail)
    root: Optional[CoverageState] = None
    if tail and len(greedy) == budget - tail:
        root = work.copy()
        greedy += _greedy_picks(work, tail)

    # phase 2: branch and bound over the last ``tail`` picks.  Skipped when
    # greedy stopped early — then the greedy state ran out of positive-gain
    # candidates, i.e. the targets are as protected as this budget allows.
    chosen = list(greedy)
    nodes = 0
    improved = False
    if root is not None and len(greedy) == budget:
        prefix = greedy[: budget - tail]
        suffix, nodes, improved = _refine_tail(
            root, greedy[budget - tail :], work.total_similarity(), shortlist
        )
        chosen = prefix + suffix

    # commit the refined sequence into the caller's engine for the trace
    initial = gain_engine.total_similarity()
    trace = similarity_trace(initial, gain_engine.commit_many(chosen))

    return ProtectionResult(
        algorithm=algorithm,
        motif=problem.motif.name,
        budget=budget,
        protectors=tuple(chosen),
        similarity_trace=tuple(trace),
        initial_similarity=problem.initial_similarity(),
        runtime_seconds=stopwatch.elapsed(),
        extra={
            "engine": gain_engine.name,
            "depth": depth,
            "shortlist": shortlist,
            "bb_nodes": nodes,
            "refined": improved,
        },
    )


def _search_state(problem: TPPProblem, gain_engine) -> CoverageState:
    """Return a coverage state mirroring the engine's current graph.

    An injected coverage engine contributes its already-committed deletions
    (the session API passes engines built on a copy of its pristine state)
    through a ``copy()`` of its state, so no re-enumeration happens on the
    hot path.
    """
    if isinstance(gain_engine, CoverageEngine):
        return gain_engine.coverage_state.copy()
    return problem.build_index().new_state()


def _greedy_picks(state: CoverageState, budget: int) -> List[Edge]:
    """Delete up to ``budget`` maximum-gain edges from ``state``; return them."""
    if state.has_drivers:
        return state.drive_top_gain(budget)[0]
    picks: List[Edge] = []
    while len(picks) < budget:
        best = state.top_gain_edge()
        if best is None:
            break
        state.delete_edge(best[0])
        picks.append(best[0])
    return picks


def _refine_tail(
    root: CoverageState,
    greedy_suffix: List[Edge],
    greedy_similarity: int,
    shortlist: int,
) -> Tuple[List[Edge], int, bool]:
    """Branch-and-bound search for the best ``len(greedy_suffix)`` picks
    from ``root``; ``greedy_similarity`` is what the greedy suffix leaves.
    Returns ``(best suffix, nodes explored, improved)``.
    """
    root_similarity = root.total_similarity()

    # incumbent: the greedy suffix (always reachable as the chain of first
    # children, so the search result can never be worse)
    best_broken = root_similarity - greedy_similarity
    best_suffix: Optional[List[Edge]] = None

    tail = len(greedy_suffix)
    nodes = 0
    # DFS stack of (state, chosen-so-far); depth is bounded by ``tail``
    stack: List[Tuple[CoverageState, List[Edge]]] = [(root, [])]
    while stack:
        state, picked = stack.pop()
        nodes += 1
        broken = root_similarity - state.total_similarity()
        remaining = tail - len(picked)
        if remaining == 0:
            if broken > best_broken:
                best_broken = broken
                best_suffix = picked
            continue
        candidates = state.top_gain_edges(max(shortlist, remaining))
        if not candidates:
            # no positive-gain edge left: this branch is complete early
            if broken > best_broken:
                best_broken = broken
                best_suffix = picked
            continue
        # submodular bound: no completion can break more than the sum of
        # the ``remaining`` best current individual gains
        bound = broken + sum(gain for _, gain in candidates[:remaining])
        if bound <= best_broken:
            continue
        # push in reverse so the best candidate (the greedy pick) is
        # explored first — it establishes tight incumbents early
        for edge, _ in reversed(candidates[:shortlist]):
            child = state.copy()
            child.delete_edge(edge)
            stack.append((child, picked + [edge]))

    if best_suffix is None:
        return list(greedy_suffix), nodes, False
    return best_suffix, nodes, True
