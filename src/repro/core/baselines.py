"""Baseline protector selections from the paper's evaluation.

The paper compares its greedy algorithms against two randomized baselines:

* **RD** — delete ``k`` links chosen uniformly at random from the whole edge
  set of the phase-1 graph, and
* **RDT** — delete ``k`` links chosen uniformly at random from the links
  participating in target subgraphs (the same candidate set the ``-R``
  algorithms restrict themselves to).

Both are implemented on top of the coverage index so their similarity traces
are produced exactly like the greedy algorithms'.  Candidate pools come from
the index in deterministic ``edge_sort_key`` order (no per-edge gain rescans
and no dependence on set iteration order), so a fixed seed reproduces the
same deletions across processes and hash seeds.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Union

from repro.core.model import ProtectionResult, TPPProblem
from repro.core.selection import Stopwatch, similarity_trace
from repro.exceptions import BudgetError
from repro.graphs.graph import Edge
from repro.motifs.enumeration import CoverageState, SetCoverageState

__all__ = ["random_deletion", "random_target_subgraph_deletion"]

RandomLike = Union[int, random.Random, None]

#: A prepared coverage state the baseline traces deletions on (the session
#: API passes a copy of its pristine prototype; ``None`` builds a fresh one).
StateLike = Union[CoverageState, SetCoverageState, None]


def _rng(seed: RandomLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _run_random_baseline(
    problem: TPPProblem,
    budget: int,
    pool: Iterable[int],
    algorithm: str,
    seed: RandomLike,
    state: StateLike,
) -> ProtectionResult:
    """Delete the first ``budget`` edges of the shuffled edge-id ``pool``
    on ``state`` and trace the similarity.

    The whole pool is shuffled (the seeded sample depends on it), as ids:
    ``Random.shuffle``'s permutation depends only on the pool length and
    the RNG, and ids ascend in ``edge_sort_key`` order, so the sample is
    the one a shuffle of the sorted edge list picks — without building
    an edge tuple per pool entry.
    """
    if budget < 0:
        raise BudgetError(f"budget must be >= 0, got {budget}")
    stopwatch = Stopwatch()
    index = problem.build_index()
    ids = list(pool)
    _rng(seed).shuffle(ids)
    edge_at = index.indexed_graph.edge_at
    chosen = [edge_at(edge_id) for edge_id in ids[:budget]]
    if state is None:
        state = index.new_state()
    initial = state.total_similarity()
    if isinstance(state, CoverageState):
        killed = state.kill_sequence(chosen)
    else:
        killed = [sum(state.delete_edge(edge).values()) for edge in chosen]
    return ProtectionResult(
        algorithm=algorithm,
        motif=problem.motif.name,
        budget=budget,
        protectors=tuple(chosen),
        similarity_trace=tuple(similarity_trace(initial, killed)),
        initial_similarity=problem.initial_similarity(),
        runtime_seconds=stopwatch.elapsed(),
        extra={"seed": seed if not isinstance(seed, random.Random) else None},
    )


def random_deletion(
    problem: TPPProblem, budget: int, seed: RandomLike = None, state: StateLike = None
) -> ProtectionResult:
    """RD baseline: delete ``budget`` edges sampled uniformly from the graph.

    Target links are already absent (phase 1), so the sample is drawn from
    the phase-1 edge set — as the edge-id range of the index's
    :class:`~repro.graphs.indexed.IndexedGraph`, whose ids number the
    phase-1 edges in ``edge_sort_key`` order, so no edge tuples are
    materialised or sorted (and a snapshot-restored session's lazy
    ``Graph`` views stay unbuilt).  ``state`` optionally supplies a
    prepared coverage state to trace the deletions on (avoids rebuilding
    one from the index).
    """
    edges = problem.build_index().indexed_graph.number_of_edges()
    return _run_random_baseline(problem, budget, range(edges), "RD", seed, state)


def random_target_subgraph_deletion(
    problem: TPPProblem, budget: int, seed: RandomLike = None, state: StateLike = None
) -> ProtectionResult:
    """RDT baseline: delete ``budget`` edges sampled from target subgraphs.

    The candidate pool is the union of all edges participating in at least
    one target subgraph — taken from the index as edge ids in their
    deterministic ``edge_sort_key`` order, so no re-sort (and no
    hash-order hazard) is needed.  If the pool is smaller than the budget
    every pool edge is deleted.
    """
    pool = problem.build_index().candidate_edge_ids()
    return _run_random_baseline(problem, budget, pool, "RDT", seed, state)
