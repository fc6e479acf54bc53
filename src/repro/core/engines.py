"""Marginal-gain evaluation engines.

Every greedy algorithm in the paper repeatedly asks the same two questions:

* "if I delete edge ``p`` now, how many target subgraphs break (overall and
  per target)?" and
* "which edges are worth asking that question about?"

The answers can be produced two ways, and the difference between them *is*
the difference between the paper's plain algorithms and their scalable
``-R`` variants:

* :class:`RecountEngine` — the paper's non-scalable formulation: every edge
  of the current graph is a candidate and each query recounts motif
  instances from the graph.  Faithful, simple, and slow (this is what
  Figs. 5–6 measure as SGB/CT/WT-Greedy).
* :class:`CoverageEngine` — the scalable formulation of Lemma 5: target
  subgraphs are enumerated once into a :class:`~repro.motifs.CoverageState`
  over the index and candidates are restricted to edges of target
  subgraphs.  Gains are O(1) counter reads and the maximum-gain edge pops
  from a lazy max-heap.

The two engines give the same answers on every instance; ``recount``
shares nothing with the index, which makes it the differential oracle the
kernel is tested against (``tests/property/test_kernel_differential.py``).

Beyond the point queries, the engine protocol exposes batched entry points
(:meth:`MarginalGainEngine.top_gain_edge`,
:meth:`~MarginalGainEngine.top_k_edges`,
:meth:`~MarginalGainEngine.iter_gain_breakdowns`,
:meth:`~MarginalGainEngine.target_gain_map`,
:meth:`~MarginalGainEngine.best_scored_pair`) with generic full-scan default
implementations; :class:`CoverageEngine` overrides them with the kernel's
incremental counterparts so SGB/CT/WT share one fast path.  In particular
``best_scored_pair`` — the argmax of the MLBT score ``Δ_t^p`` over
``(target, edge)`` pairs — is answered by the kernel from per-target
lazy max-heaps over the per-(edge, target) counter matrix, which is what
makes the CT/WT greedy steps sublinear in the candidate count.  On the
native kernel :class:`CoverageEngine` goes one step further: its
``drive_top_gain`` / ``drive_scored_pairs`` run a whole SGB / CT / WT
selection in one C call (``has_drivers`` tells the runners when).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core.model import TPPProblem
from repro.core.selection import argmax_edge, edge_sort_key
from repro.exceptions import EngineError
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.motifs.base import MotifPattern
from repro.motifs.enumeration import CoverageState

__all__ = [
    "MarginalGainEngine",
    "RecountEngine",
    "CoverageEngine",
    "ENGINE_NAMES",
    "EngineLike",
    "make_engine",
]


class MarginalGainEngine(ABC):
    """Common interface of the marginal-gain evaluation strategies."""

    @property
    @abstractmethod
    def name(self) -> str:
        """The registry name of this engine (one of :data:`ENGINE_NAMES`)."""

    @abstractmethod
    def candidate_edges(self) -> Set[Edge]:
        """Return the edges the greedy algorithm should evaluate this step."""

    @abstractmethod
    def total_gain(self, edge: Edge) -> int:
        """Return how many target subgraphs deleting ``edge`` would break now."""

    @abstractmethod
    def gain_by_target(self, edge: Edge) -> Dict[Edge, int]:
        """Return the per-target breakdown of :meth:`total_gain`."""

    @abstractmethod
    def commit(self, edge: Edge) -> Dict[Edge, int]:
        """Delete ``edge`` for real and return the per-target broken counts."""

    @abstractmethod
    def total_similarity(self) -> int:
        """Return the current ``s(P, T)``."""

    @abstractmethod
    def similarity_of(self, target: Edge) -> int:
        """Return the current ``s(P, t)``."""

    def gain_for_target(self, edge: Edge, target: Edge) -> int:
        """Return how many subgraphs of ``target`` deleting ``edge`` breaks now."""
        return self.gain_by_target(edge).get(canonical_edge(*target), 0)

    def is_fully_protected(self) -> bool:
        """Return whether all target subgraphs are already broken."""
        return self.total_similarity() == 0

    def commit_many(self, edges: Sequence[Edge]) -> List[int]:
        """Commit ``edges`` in order; return how many target subgraphs each
        deletion broke (the similarity trace's per-step drops)."""
        killed: List[int] = []
        for edge in edges:
            before = self.total_similarity()
            self.commit(edge)
            killed.append(before - self.total_similarity())
        return killed

    # ------------------------------------------------------------------
    # batched queries (generic full-scan defaults; engines may override
    # with incremental implementations)
    # ------------------------------------------------------------------
    def top_gain_edge(self) -> Optional[Tuple[Edge, int]]:
        """Return the candidate with maximal positive gain, or ``None``.

        Ties break toward the smallest ``edge_sort_key``.  The default is a
        full evaluation sweep; kernel-backed engines answer from a heap.
        """
        best = argmax_edge(self.candidate_edges(), self.total_gain)
        if best is None or best[1] <= 0:
            return None
        return best

    def top_k_edges(self, k: int) -> List[Tuple[Edge, int]]:
        """Return up to ``k`` positive-gain candidates, best first.

        Gains are individual (overlapping) marginal gains — a shortlist for
        pruning, not a batch selection.  Ordered by descending gain with
        ``edge_sort_key`` tie-breaking.
        """
        if k <= 0:
            return []
        scored = [
            (edge, gain)
            # reprolint: disable=R1-set-iteration(scored is fully re-sorted below by the total key (-gain, edge_sort_key), which erases the set's hash order)
            for edge in self.candidate_edges()
            if (gain := self.total_gain(edge)) > 0
        ]
        scored.sort(key=lambda pair: (-pair[1], edge_sort_key(pair[0])))
        return scored[:k]

    def iter_gain_breakdowns(self) -> Iterator[Tuple[Edge, int, Dict[Edge, int]]]:
        """Yield ``(edge, total gain, per-target gains)`` for every candidate
        with positive total gain, in deterministic ``edge_sort_key`` order.

        This is the cross-target greedy's inner loop: one deterministic sweep
        that exposes both the total and the attribution of each gain.
        """
        for edge in sorted(self.candidate_edges(), key=edge_sort_key):
            gains = self.gain_by_target(edge)
            if not gains:
                continue
            yield edge, sum(gains.values()), gains

    def target_gain_map(self, target: Edge) -> Dict[Edge, int]:
        """Return ``{edge: own gain}`` for edges breaking subgraphs of ``target``.

        Keys are emitted in deterministic ``edge_sort_key`` order; only
        positive own-gains are included.  The within-target greedy scores
        exactly these edges instead of probing the whole candidate set.
        """
        gains: Dict[Edge, int] = {}
        for edge in sorted(self.candidate_edges(), key=edge_sort_key):
            own = self.gain_for_target(edge, target)
            if own > 0:
                gains[edge] = own
        return gains

    def best_scored_pair(
        self, targets: Sequence[Edge], constant: int
    ) -> Optional[Tuple[int, Edge, Edge]]:
        """Return the ``(key, target, edge)`` maximising the MLBT greedy score
        over the given targets, or ``None`` if no pair has a positive
        own-gain.

        The integer key is ``own * (constant - 1) + total``; dividing by
        ``constant`` gives the paper's ``Δ_t^p = own + (total - own) / C``,
        so maximising the key maximises the score with exact integer
        arithmetic (no float rounding near ties).  Ties break toward the
        smallest ``edge_sort_key`` and then toward the earliest target —
        the order a deterministic edge-major sweep produces.  Callers must
        pass ``targets`` as a subsequence of the problem's target order so
        the generic sweep and the kernel heaps resolve ties identically.

        CT-Greedy queries all its non-exhausted targets at once; WT-Greedy
        queries a single target.  The default sweeps every positive-gain
        candidate; the array kernel answers from per-target lazy max-heaps.
        """
        wanted = set(targets)
        best: Optional[Tuple[int, Edge, Edge]] = None
        # edge-major sweep with strict improvement: ties resolve to the first
        # pair encountered, i.e. smallest edge_sort_key then target order
        # (gain_by_target lists targets in problem order on every engine)
        for edge, total, gains in self.iter_gain_breakdowns():
            for target, own in gains.items():
                if target not in wanted or own <= 0:
                    continue
                key = own * (constant - 1) + total
                if best is None or key > best[0]:
                    best = (key, target, edge)
        return best


class CoverageEngine(MarginalGainEngine):
    """Scalable engine backed by the enumerated target-subgraph index.

    Only edges that participate in some target subgraph are offered as
    candidates (the ``-R`` behaviour of Lemma 5); gains are O(1) reads of
    the kernel's live counters and :meth:`top_gain_edge` pops from a heap.

    Parameters
    ----------
    problem:
        The TPP instance.
    state:
        A prepared :class:`~repro.motifs.CoverageState` (typically a cheap
        ``copy()`` of a session's pristine prototype, see
        :class:`repro.service.ProtectionService`).  It must be layered on
        this problem's index and is adopted as-is — no enumeration and no
        counter rebuild happens.  ``None`` (default) builds a fresh state
        from the problem's index.
    """

    def __init__(self, problem: TPPProblem, state: Optional[CoverageState] = None) -> None:
        self._problem = problem
        if state is None:
            state = problem.build_index().new_state()
        elif state.index is not problem.build_index():
            raise EngineError(
                "prepared coverage state is layered on a different "
                "TargetSubgraphIndex than the problem's"
            )
        self._state = state

    @property
    def name(self) -> str:
        return "coverage"

    @property
    def coverage_state(self) -> CoverageState:
        """The mutable coverage state this engine commits deletions into."""
        return self._state

    def candidate_edges(self) -> Set[Edge]:
        return self._state.candidate_edges()

    def total_gain(self, edge: Edge) -> int:
        return self._state.gain(edge)

    def gain_by_target(self, edge: Edge) -> Dict[Edge, int]:
        return self._state.gain_by_target(edge)

    def gain_for_target(self, edge: Edge, target: Edge) -> int:
        return self._state.gain_for_target(edge, target)

    def commit(self, edge: Edge) -> Dict[Edge, int]:
        return self._state.delete_edge(canonical_edge(*edge))

    def commit_many(self, edges: Sequence[Edge]) -> List[int]:
        return self._state.kill_sequence([canonical_edge(*edge) for edge in edges])

    def total_similarity(self) -> int:
        return self._state.total_similarity()

    def similarity_of(self, target: Edge) -> int:
        return self._state.similarity_of(target)

    # ------------------------------------------------------------------
    # whole-selection drivers (native kernel only)
    # ------------------------------------------------------------------
    @property
    def has_drivers(self) -> bool:
        """Whether whole SGB/CT/WT selections run in one native call
        (:meth:`drive_top_gain`, :meth:`drive_scored_pairs`).  True on the
        native kernel; the runners' Python loops serve the numpy kernel and
        the recount engine."""
        return self._state.has_drivers

    def drive_top_gain(self, budget: int) -> Tuple[List[Edge], List[int]]:
        """Commit SGB-Greedy's selection; see
        :meth:`CoverageState.drive_top_gain
        <repro.motifs.coverage.CoverageState.drive_top_gain>`."""
        return self._state.drive_top_gain(budget)

    def drive_scored_pairs(
        self,
        budget: int,
        constant: int,
        targets: Sequence[Edge],
        quotas: Mapping[Edge, int],
        within: bool,
    ) -> Tuple[List[Edge], List[Edge], List[int]]:
        """Commit a CT-/WT-Greedy selection; see
        :meth:`CoverageState.drive_scored_pairs
        <repro.motifs.coverage.CoverageState.drive_scored_pairs>`."""
        return self._state.drive_scored_pairs(budget, constant, targets, quotas, within)

    # ------------------------------------------------------------------
    # batched queries: kernel fast paths
    # ------------------------------------------------------------------
    def top_gain_edge(self) -> Optional[Tuple[Edge, int]]:
        return self._state.top_gain_edge()

    def top_k_edges(self, k: int) -> List[Tuple[Edge, int]]:
        return self._state.top_gain_edges(k)

    def iter_gain_breakdowns(self) -> Iterator[Tuple[Edge, int, Dict[Edge, int]]]:
        for edge, total in self._state.iter_positive_gains():
            yield edge, total, self._state.gain_by_target(edge)

    def target_gain_map(self, target: Edge) -> Dict[Edge, int]:
        return self._state.gains_for_target(target)

    def best_scored_pair(
        self, targets: Sequence[Edge], constant: int
    ) -> Optional[Tuple[int, Edge, Edge]]:
        return self._state.best_scored_pair(targets, constant)


class RecountEngine(MarginalGainEngine):
    """Naive engine recounting motif instances from the working graph.

    This reproduces the cost profile of the paper's non-scalable algorithms:
    the candidate set is the whole remaining edge set and each marginal gain
    recounts the similarity of every target with the candidate edge
    temporarily removed.  The batched protocol methods intentionally keep
    their generic full-sweep defaults — that cost profile *is* what the
    Fig. 5 naive curves measure.
    """

    def __init__(self, problem: TPPProblem) -> None:
        self._problem = problem
        self._motif: MotifPattern = problem.motif
        self._targets = problem.targets
        self._working: Graph = problem.phase1_graph.copy()
        self._similarity: Dict[Edge, int] = {
            target: self._motif.count(self._working, target) for target in self._targets
        }

    @property
    def name(self) -> str:
        return "recount"

    def candidate_edges(self) -> Set[Edge]:
        return self._working.edge_set()

    def _gains(self, edge: Edge) -> Dict[Edge, int]:
        u, v = edge
        if not self._working.has_edge(u, v):
            return {}
        self._working.remove_edge(u, v)
        try:
            gains: Dict[Edge, int] = {}
            for target in self._targets:
                before = self._similarity[target]
                if before == 0:
                    continue
                after = self._motif.count(self._working, target)
                if after != before:
                    gains[target] = before - after
            return gains
        finally:
            self._working.add_edge(u, v)

    def total_gain(self, edge: Edge) -> int:
        return sum(self._gains(edge).values())

    def gain_by_target(self, edge: Edge) -> Dict[Edge, int]:
        return self._gains(edge)

    def commit(self, edge: Edge) -> Dict[Edge, int]:
        edge = canonical_edge(*edge)
        gains = self._gains(edge)
        self._working.remove_edge(*edge)
        for target, gain in gains.items():
            self._similarity[target] -= gain
        return gains

    def total_similarity(self) -> int:
        return sum(self._similarity.values())

    def similarity_of(self, target: Edge) -> int:
        return self._similarity[canonical_edge(*target)]


#: Names accepted by :func:`make_engine`.
ENGINE_NAMES = ("coverage", "recount")

#: Either an engine name or an already-constructed engine instance.
EngineLike = Union[str, MarginalGainEngine]


def make_engine(problem: TPPProblem, engine: EngineLike = "coverage") -> MarginalGainEngine:
    """Return a marginal-gain engine by name (or pass an instance through).

    ``"coverage"`` builds the scalable :class:`CoverageEngine` (the ``-R``
    algorithms); ``"recount"`` builds the naive :class:`RecountEngine` (the
    paper's base algorithms).

    An already-constructed :class:`MarginalGainEngine` is returned unchanged —
    this is how :class:`repro.service.ProtectionService` injects engines built
    on a cheap ``copy()`` of its pristine coverage state instead of letting
    every greedy call rebuild one.
    """
    if isinstance(engine, MarginalGainEngine):
        return engine
    name = engine.lower()
    if name == "coverage":
        return CoverageEngine(problem)
    if name == "recount":
        return RecountEngine(problem)
    raise EngineError(f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}")
