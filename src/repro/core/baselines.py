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
from typing import Optional, Union

import numpy as np

from repro._native import load_kernel
from repro.core.model import ProtectionResult, TPPProblem
from repro.core.selection import Stopwatch, similarity_trace
from repro.exceptions import BudgetError
from repro.graphs.indexed import NP_LONG
from repro.motifs.enumeration import CoverageState

__all__ = ["random_deletion", "random_target_subgraph_deletion", "shuffle_ids"]

RandomLike = Union[int, random.Random, None]


def _rng(seed: RandomLike) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


#: Whether the native shuffle reproduced ``random.shuffle`` here (checked
#: once, on the first shuffle that could use it; ``None`` = not yet).
_native_shuffle_ok: Optional[bool] = None


def _native_shuffle(ids: np.ndarray, rng: random.Random) -> bool:
    """Shuffle ``ids`` in place with the C port of ``rng.shuffle``.

    The kernel advances a copy of the generator's MT19937 state, which is
    written back with ``setstate``, so ``rng`` ends where Python's own
    shuffle would leave it.  Returns ``False`` (nothing touched) without a
    native kernel, for a subclass (it may override the draws), or for a
    state layout the port does not know.
    """
    kernel = load_kernel()
    if (
        kernel is None
        or type(rng) is not random.Random
        or ids.dtype != NP_LONG
        or not ids.flags.c_contiguous
    ):
        return False
    version, internal, gauss = rng.getstate()
    if version != 3 or len(internal) != 625:
        return False
    state = np.array(internal, dtype=np.int64)
    if kernel.mt_shuffle(state.ctypes.data, ids.ctypes.data, len(ids)) != 0:
        return False
    rng.setstate((version, tuple(state.tolist()), gauss))
    return True


def _native_shuffle_matches() -> bool:
    """One-time check that the port gives this interpreter's permutation
    and end state (1,000 ids: 1,000+ draws cross a 624-word refill)."""
    expected, python_rng = list(range(1000)), random.Random(20200420)
    python_rng.shuffle(expected)
    ids, native_rng = np.arange(1000, dtype=NP_LONG), random.Random(20200420)
    return (
        _native_shuffle(ids, native_rng)
        and ids.tolist() == expected
        and native_rng.getstate() == python_rng.getstate()
    )


def shuffle_ids(ids: np.ndarray, rng: random.Random) -> None:
    """Shuffle the ``NP_LONG`` array ``ids`` in place as ``rng.shuffle``
    would shuffle ``ids.tolist()``, leaving ``rng`` in the same state.

    The native kernel runs the shuffle in C; ``random.shuffle`` is the
    fallback when there is no kernel, or when the one-time check that the
    port matches this interpreter failed.
    """
    global _native_shuffle_ok
    if _native_shuffle_ok is None and load_kernel() is not None:
        _native_shuffle_ok = _native_shuffle_matches()
    if _native_shuffle_ok and _native_shuffle(ids, rng):
        return
    order = ids.tolist()
    rng.shuffle(order)
    ids[:] = order


def _run_random_baseline(
    problem: TPPProblem,
    budget: int,
    pool: np.ndarray,
    algorithm: str,
    seed: RandomLike,
    state: Optional[CoverageState],
) -> ProtectionResult:
    """Delete the first ``budget`` edges of the shuffled edge-id ``pool``
    on ``state`` and trace the similarity.

    The whole pool is shuffled (the seeded sample depends on it), as ids:
    ``Random.shuffle``'s permutation depends only on the pool length and
    the RNG, and ids ascend in ``edge_sort_key`` order, so the sample is
    the one a shuffle of the sorted edge list picks — without building
    an edge tuple per pool entry.  The id prefix goes straight to the
    state's batched kill walk.
    """
    if budget < 0:
        raise BudgetError(f"budget must be >= 0, got {budget}")
    stopwatch = Stopwatch()
    shuffle_ids(pool, _rng(seed))
    if state is None:
        state = problem.build_index().new_state()
    initial = state.total_similarity()
    chosen, killed = state.kill_id_sequence(pool[:budget])
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
    problem: TPPProblem,
    budget: int,
    seed: RandomLike = None,
    state: Optional[CoverageState] = None,
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
    pool = np.arange(edges, dtype=NP_LONG)
    return _run_random_baseline(problem, budget, pool, "RD", seed, state)


def random_target_subgraph_deletion(
    problem: TPPProblem,
    budget: int,
    seed: RandomLike = None,
    state: Optional[CoverageState] = None,
) -> ProtectionResult:
    """RDT baseline: delete ``budget`` edges sampled from target subgraphs.

    The candidate pool is the union of all edges participating in at least
    one target subgraph — taken from the index as edge ids in their
    deterministic ``edge_sort_key`` order, so no re-sort (and no
    hash-order hazard) is needed.  If the pool is smaller than the budget
    every pool edge is deleted.
    """
    pool = problem.build_index().candidate_edge_id_array()
    return _run_random_baseline(problem, budget, pool, "RDT", seed, state)
