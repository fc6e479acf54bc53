"""`ProtectionService`: build the index once, serve many protection queries.

The paper's evaluation (and any production deployment) runs many protector
selections over the *same* ``(graph, targets, motif)`` instance — seven
methods x many budgets x many seeds.  Target-subgraph enumeration is the
expensive part, and it is identical for every one of those queries, so the
session API splits the work:

* **build once** — the service owns the frozen
  :class:`~repro.graphs.indexed.IndexedGraph` +
  :class:`~repro.motifs.enumeration.TargetSubgraphIndex` plus a pristine
  :class:`~repro.motifs.enumeration.CoverageState` prototype, and
* **serve many** — every :meth:`solve` runs on a cheap ``copy()`` of the
  prototype (flat array memcpy), never mutating the session state, so
  repeated identical requests return identical protector sequences and
  queries may run concurrently.

:meth:`solve_many` answers a batch (budget sweeps, seed sweeps) serially,
after validating every request in it.

Typical usage::

    from repro.service import ProtectionService, ProtectionRequest

    service = ProtectionService(graph, targets, motif="triangle")
    result = service.solve(ProtectionRequest("SGB-Greedy", budget=40))
    sweep = service.solve_many(
        [ProtectionRequest("CT-Greedy:TBD", budget=k) for k in range(5, 55, 5)]
    )
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.core.engines import CoverageEngine
from repro.core.model import ProtectionResult, TPPProblem
from repro.core.selection import Stopwatch, similarity_trace
from repro.exceptions import ExperimentError
from repro.graphs.graph import Edge, Graph, canonical_edge, edge_sort_key
from repro.motifs.base import MotifPattern
from repro.motifs.enumeration import CoverageState, TargetSubgraphIndex
from repro.persistence.snapshot import index_content_hash, load_snapshot
from repro.service import builtin  # noqa: F401  (registers the built-in methods)
from repro.service.registry import get_method
from repro.service.requests import ProtectionRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.motifs.updates import DeltaOutcome, EdgeDelta
    from repro.persistence.delta import DeltaSnapshot

__all__ = ["ProtectionService"]


def _new_prototype(
    problem: TPPProblem, index: TargetSubgraphIndex, kernel: Optional[str]
) -> CoverageState:
    """Return the pristine state a session copies per query, with its heaps
    built for the problem's constant so every copy starts warm."""
    prototype = index.new_state(kernel=kernel)
    prototype.prepare_heaps(max(problem.constant, 1))
    return prototype


class ProtectionService:
    """A protection session: one shared index, many independent queries.

    Parameters
    ----------
    graph_or_problem:
        Either a prepared :class:`~repro.core.model.TPPProblem` or the
        original social graph (targets still present), in which case
        ``targets`` is required.
    targets:
        The sensitive links to hide (ignored when a problem is given).
    motif:
        The adversary's subgraph pattern (ignored when a problem is given).
    constant:
        The dissimilarity constant ``C`` (ignored when a problem is given).
    max_cached_subsets:
        How many target-subset sub-sessions to keep (least-recently-used
        eviction; each caches an index restricted from the session's, see
        :meth:`TargetSubgraphIndex.restricted_to
        <repro.motifs.enumeration.TargetSubgraphIndex.restricted_to>`).
        ``None`` means unbounded.
    kernel:
        Coverage-state hot-loop implementation: ``"auto"`` (default, =
        ``None``) runs the compiled C kernel when loadable and falls back
        to numpy, ``"native"``/``"numpy"`` force one side (see
        :class:`~repro.motifs.coverage.CoverageState`).  Observably
        bit-identical either way; the resolved kernel is echoed as
        ``kernel`` in every result's ``extra["service"]`` metadata.
        Inherited by subset sub-sessions and delta swaps.

    Notes
    -----
    Construction performs the expensive one-time work — phase-1 graph,
    target-subgraph enumeration into the flat-array index, and the pristine
    coverage-state prototype.  Everything afterwards is cheap and
    side-effect free on the session: a query must never mutate the pristine
    state (pinned by the determinism regression tests).
    """

    def __init__(
        self,
        graph_or_problem: Union[Graph, TPPProblem],
        targets: Optional[Sequence[Edge]] = None,
        motif: Union[str, MotifPattern] = "triangle",
        constant: Optional[int] = None,
        max_cached_subsets: Optional[int] = 32,
        kernel: Optional[str] = None,
    ) -> None:
        if max_cached_subsets is not None and max_cached_subsets < 1:
            raise ExperimentError(
                f"max_cached_subsets must be >= 1 or None, got {max_cached_subsets}"
            )
        stopwatch = Stopwatch()
        if isinstance(graph_or_problem, TPPProblem):
            problem = graph_or_problem
        else:
            if targets is None:
                raise ExperimentError(
                    "ProtectionService needs the target links when built from a graph"
                )
            problem = TPPProblem(graph_or_problem, targets, motif=motif, constant=constant)
        self._problem = problem  # reprolint: guarded-by(_lock)
        #: the *requested* kernel selector (may be "auto"); the resolved
        #: choice lives on the prototype state and is surfaced by `kernel`
        self._kernel_request = kernel
        # reprolint: guarded-by(_lock)
        self._index: TargetSubgraphIndex = problem.build_index()
        # reprolint: guarded-by(_lock)
        self._prototype = _new_prototype(problem, self._index, kernel)
        self._build_seconds = stopwatch.elapsed()  # reprolint: guarded-by(_lock)
        # reprolint: guarded-by(_lock)
        self._subsessions: "OrderedDict[Tuple[Edge, ...], ProtectionService]" = (
            OrderedDict()
        )
        self._max_cached_subsets = max_cached_subsets
        self._lock = threading.Lock()
        self._queries_served = 0  # reprolint: guarded-by(_lock)
        #: Serialises writers: one delta application at a time.  Readers
        #: never take it — they capture a consistent state under ``_lock``
        #: and keep serving the pre-delta arrays (copy-on-write swap).
        self._delta_lock = threading.Lock()
        self._deltas_applied = 0  # reprolint: guarded-by(_lock)
        #: Where the session's index came from: "built" (enumerated in this
        #: process) or "snapshot" (restored by :meth:`from_snapshot`).
        self._index_source = "built"  # reprolint: guarded-by(_lock)
        #: The content hash of ``_index`` (see :meth:`content_hash`), or
        #: None until first asked for; swapped together with the index.
        self._content_hash: Optional[str] = None  # reprolint: guarded-by(_lock)

    @classmethod
    def from_snapshot(
        cls,
        path: Union[str, Path],
        allow_pickle: bool = True,
        max_cached_subsets: Optional[int] = 32,
        kernel: Optional[str] = None,
    ) -> "ProtectionService":
        """Cold-start a session from a snapshot file — no enumeration.

        Restores the problem and its built index via
        :meth:`TPPProblem.from_snapshot
        <repro.core.model.TPPProblem.from_snapshot>` and opens the session
        on it; the one-time cost drops from motif enumeration to file I/O
        plus array memcpys (the ``bench_snapshot`` benchmark gates this at
        >= 5x faster).  Results served by such a session record
        ``index_source: "snapshot"`` in their ``extra["service"]``
        metadata; traces are byte-identical to a freshly built session's.

        Parameters
        ----------
        path:
            A file written by :meth:`TPPProblem.save_index
            <repro.core.model.TPPProblem.save_index>` or the
            ``repro-tpp build-index`` command.
        allow_pickle:
            Refuse snapshots with pickled sections (custom motifs, exotic
            node labels) when ``False``.
        max_cached_subsets:
            As in the constructor.  Subset sub-sessions do not enumerate
            either: their indexes are restricted from the restored one, and
            the restored problem's ``Graph`` views stay unmaterialised.
        kernel:
            As in the constructor (the snapshot stores arrays, not a
            kernel choice; the restored session resolves its own).

        Raises
        ------
        repro.exceptions.SnapshotFormatError
            If the file is unreadable, truncated, corrupted or from an
            incompatible format version / platform.
        """
        snapshot = load_snapshot(path, allow_pickle=allow_pickle)
        service = cls(
            TPPProblem.from_snapshot(snapshot),
            max_cached_subsets=max_cached_subsets,
            kernel=kernel,
        )
        service._index_source = "snapshot"
        # load_snapshot checked the header hash against the stored node,
        # edge and target sections.  A JSON node table re-encodes to the
        # stored bytes, so that hash is the restored index's; a pickled one
        # need not re-pickle identically, so it is hashed when first needed
        if snapshot.header.get("node_codec", "json") == "json":
            service._content_hash = snapshot.content_hash
        return service

    @classmethod
    def for_filtered_targets(
        cls,
        graph: Graph,
        all_targets: Sequence[Edge],
        kept: Sequence[Edge],
        motif: Union[str, MotifPattern] = "triangle",
        constant: Optional[int] = None,
        index: Optional[TargetSubgraphIndex] = None,
        max_cached_subsets: Optional[int] = 32,
        kernel: Optional[str] = None,
    ) -> "ProtectionService":
        """Open a session on ``kept`` ⊆ ``all_targets`` with phase-1 semantics.

        Target filtering happens *before* enumeration: the non-kept
        targets are removed from the graph first, so the session's phase-1
        graph equals the phase-1 graph of the full target set (all of ``T``
        stays hidden — the paper removes every sensitive link in phase 1)
        and the session never enumerates a non-kept target.  This is the
        enumerating reference for subset sub-sessions (:meth:`solve` with
        ``request.targets``), which restrict the session's built index
        instead (:meth:`_subset_session`) and so yield the same arrays
        without enumerating — the subset differential suite pins the two
        bit-identical.

        ``kept`` is put in the library-wide
        :func:`~repro.graphs.graph.edge_sort_key` order (duplicates raise
        :class:`~repro.exceptions.ExperimentError`).  ``constant`` and a
        pre-built ``index`` (already enumerated for exactly the sorted
        kept targets) are forwarded to the
        :class:`~repro.core.model.TPPProblem`; an adopted index means the
        construction does no enumeration at all.
        """
        kept_targets = tuple(
            sorted((canonical_edge(*target) for target in kept), key=edge_sort_key)
        )
        kept_set = set(kept_targets)
        if len(kept_set) != len(kept_targets):
            raise ExperimentError(
                f"kept targets contain duplicate links: {kept_targets!r}"
            )
        rest = [
            edge
            for edge in (canonical_edge(*target) for target in all_targets)
            if edge not in kept_set
        ]
        problem = TPPProblem(
            graph.without_edges(rest),
            kept_targets,
            motif=motif,
            constant=constant,
            index=index,
        )
        return cls(problem, max_cached_subsets=max_cached_subsets, kernel=kernel)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def problem(self) -> TPPProblem:
        """The TPP instance this session serves."""
        return self._problem

    @property
    def index(self) -> TargetSubgraphIndex:
        """The shared immutable target-subgraph index."""
        return self._index

    @property
    def targets(self) -> Tuple[Edge, ...]:
        """The session's target links, in problem order."""
        return self._problem.targets

    @property
    def build_seconds(self) -> float:
        """Wall-clock cost of the one-time build (index + prototype)."""
        return self._build_seconds

    @property
    def kernel(self) -> str:
        """The resolved coverage-state kernel: ``"native"`` or ``"numpy"``.

        Resolution happens when the pristine prototype is built (an
        ``"auto"`` request becomes whichever side loaded); the value is
        echoed as ``kernel`` in every result's ``extra["service"]``.
        """
        with self._lock:
            return self._prototype.kernel

    @property
    def queries_served(self) -> int:
        """How many :meth:`solve` calls this session has answered."""
        return self._queries_served

    @property
    def index_source(self) -> str:
        """``"built"`` (enumerated here), ``"snapshot"`` (cold-started) or
        ``"delta"`` (incrementally updated by :meth:`apply_delta`).

        Echoed as ``index_source`` in every result's ``extra["service"]``
        metadata, so downstream consumers can tell a cold-started answer
        from a freshly enumerated one.
        """
        return self._index_source

    def content_hash(self) -> str:
        """The content hash of the index this session serves.

        Equals :func:`~repro.persistence.index_content_hash` of
        :attr:`index` and is kept with the session state: seeded from the
        header of the snapshot a session was restored from, replaced by the
        verified result hash after a delta snapshot applies, and otherwise
        computed on first use and cached until the index changes.  Delta
        snapshots check their parent against this value.
        """
        with self._lock:
            index = self._index
            content_hash = self._content_hash
        if content_hash is None:
            # hash outside the lock (it reads the index arrays), then publish
            # unless a delta swapped the index meanwhile
            content_hash = index_content_hash(index)
            with self._lock:
                if self._index is index:
                    self._content_hash = content_hash
        return content_hash

    def pristine_similarity(self) -> int:
        """Return ``s(∅, T)`` as seen by the untouched prototype state."""
        return self._prototype.total_similarity()

    def pristine_deletions(self) -> Tuple[Edge, ...]:
        """Return the prototype's deletion log (must always be empty)."""
        return self._prototype.deleted_edges

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(self, request: ProtectionRequest) -> ProtectionResult:
        """Answer one protection query from the shared index.

        The method runner executes on a fresh engine: for the coverage
        engines that engine wraps a ``copy()`` of the session's pristine
        state (no enumeration, no counter rebuild); ``"recount"`` rebuilds
        from the working graph by design — it *is* the paper's naive
        baseline (the random baselines ignore the engine choice and are
        always served from the kernel).  The returned result carries service
        metadata under ``extra["service"]``: the request echo, whether the
        shared index was reused (false for recount queries and for the first
        query on a fresh target subset, which derives its sub-session),
        where the session's index came from (``index_source``: ``"built"``,
        ``"snapshot"`` or ``"delta"``; a subset query echoes the provenance
        its sub-session inherited from this session), and the build/solve
        timing split.
        """
        request.validate()
        result = self._answer(request)
        # the single accounting site: every answered query — full-target,
        # subset (which also bumps its sub-session's own counter), any
        # engine — lands here exactly once, and a failed query (exception
        # above) is never counted.  The HTTP stats endpoint reads this.
        with self._lock:
            self._queries_served += 1
        return result

    def _answer(self, request: ProtectionRequest) -> ProtectionResult:
        """Compute one (validated) query's result without touching counters."""
        # one consistent view of the session: a concurrent apply_delta swaps
        # problem/index/prototype together under the same lock, so a query
        # runs either entirely before or entirely after a delta — never on a
        # mixed state
        with self._lock:
            problem = self._problem
            prototype = self._prototype
            index = self._index
            index_source = self._index_source
            build_seconds = self._build_seconds
            deltas_applied = self._deltas_applied
        if request.targets is not None and set(request.targets) != set(
            problem.targets
        ):
            session, was_cached = self._subset_session(
                request.targets, problem, index, index_source, deltas_applied
            )
            result = session.solve(request.with_overrides(targets=None))
            # the sub-session answered a full-target query; restore the
            # caller's view: echo the original (subset) request and only
            # report index reuse when the sub-session pre-existed
            metadata = dict(result.extra["service"])
            metadata["request"] = request.to_dict()
            metadata["reused_index"] = metadata["reused_index"] and was_cached
            return replace(result, extra={**result.extra, "service": metadata})

        spec = get_method(request.method)
        # the baselines only need a coverage state to trace deletions on;
        # building the (deliberately expensive) recount engine for them
        # would be pure wasted work, so they are served from the kernel
        engine_name = (
            request.engine
            if spec.is_greedy or request.engine != "recount"
            else "coverage"
        )
        stopwatch = Stopwatch()
        # recount queries receive the engine *name* so the runner constructs
        # the RecountEngine inside its own timed region: the initial full
        # motif recount is part of the naive algorithm's cost profile, and
        # result.runtime_seconds must keep charging it (it is what the
        # paper's Fig. 5/6 runtime comparison measures)
        engine = (
            engine_name
            if engine_name == "recount"
            else CoverageEngine(problem, state=prototype.copy())
        )
        result = spec.runner(
            problem, request.budget, engine, request.seed, **request.options()
        )
        solve_seconds = stopwatch.elapsed()
        metadata = {
            "request": request.to_dict(),
            "reused_index": engine_name != "recount",
            "index_source": index_source,
            "build_seconds": round(build_seconds, 6),
            "solve_seconds": round(solve_seconds, 6),
            "deltas_applied": deltas_applied,
            # the session's resolved hot-loop kernel; only "coverage"
            # queries actually run on it (set/recount engines have their
            # own loops), but the echo is per-session on purpose — it
            # answers "what would this session serve the kernel path with"
            "kernel": prototype.kernel,
        }
        if request.label is not None:
            metadata["label"] = request.label
        return replace(result, extra={**result.extra, "service": metadata})

    def solve_many(
        self, requests: Sequence[ProtectionRequest]
    ) -> List[ProtectionResult]:
        """Answer a batch of queries serially; results come back in order.

        The whole batch is validated before any request is solved, so a
        malformed request fails the batch without spending solver time.
        """
        requests = list(requests)
        for request in requests:
            request.validate()
        return [self.solve(request) for request in requests]

    def evaluate_trace(
        self,
        protectors: Sequence[Edge],
        targets: Optional[Sequence[Edge]] = None,
    ) -> Tuple[int, ...]:
        """Replay a protector sequence; return its exact similarity trace.

        Element ``i`` is ``s(P_i, T)`` — the similarity after deleting the
        first ``i`` protectors — so the tuple is one longer than
        ``protectors`` and element 0 is the initial similarity.  The replay
        runs on a copy of the pristine coverage state: protectors that
        break no instance of these targets (e.g. a baseline's useless
        deletions) are legal and leave the running similarity unchanged.

        ``targets`` restricts the trace to a target subset exactly as
        :meth:`solve` does — the replay then runs on that subset's
        sub-session (derived by :meth:`_subset_session`, cached in the
        LRU).
        """
        with self._lock:
            problem = self._problem
            index = self._index
            prototype = self._prototype
            index_source = self._index_source
            deltas_applied = self._deltas_applied
        if targets is not None:
            canonical = tuple(canonical_edge(*target) for target in targets)
            if set(canonical) != set(problem.targets):
                session, _ = self._subset_session(
                    canonical, problem, index, index_source, deltas_applied
                )
                return session.evaluate_trace(protectors)
        state = prototype.copy()
        initial = state.total_similarity()
        return tuple(similarity_trace(initial, state.kill_sequence(protectors)))

    # ------------------------------------------------------------------
    # live updates
    # ------------------------------------------------------------------
    def apply_delta(
        self,
        delta: Union["EdgeDelta", "DeltaSnapshot"],
        constant: Optional[int] = None,
    ) -> "DeltaOutcome":
        """Apply a graph update to the live session without a rebuild.

        ``delta`` is an :class:`~repro.motifs.updates.EdgeDelta` (or a
        :class:`~repro.persistence.DeltaSnapshot`, whose parent content hash
        is checked against the session's kept :meth:`content_hash` first,
        and whose recorded result content hash against the hash of the
        updated index before the swap — a mismatch raises
        :class:`~repro.exceptions.SnapshotMismatchError` and leaves the
        session untouched).  That result hash is the one content hash a
        delta snapshot costs; it becomes the session's kept hash.  The index is maintained
        incrementally — bit-identical to a from-scratch rebuild on the
        updated graph (see :mod:`repro.motifs.updates`) — and swapped in
        copy-on-write:
        queries already in flight finish on the pre-delta state, queries
        started after this returns see the updated graph, and nothing is
        ever served from a mixed state.  Subset sub-sessions are kept
        unless their targets' instance sets changed (the delta outcome
        names them), so unaffected subset caches survive the update.

        Returns the :class:`~repro.motifs.updates.DeltaOutcome`;
        ``constant`` follows :meth:`TPPProblem.apply_delta
        <repro.core.model.TPPProblem.apply_delta>` (kept, auto-bumped when
        insertions raise the initial similarity above it).

        Thread-safe: concurrent writers serialise on an internal lock;
        concurrent readers never block on a delta application.
        """
        from repro.motifs.updates import EdgeDelta

        with self._delta_lock:
            snapshot: Optional["DeltaSnapshot"] = None
            if not isinstance(delta, EdgeDelta):
                if getattr(delta, "delta_for", None) is None:
                    raise ExperimentError(
                        "apply_delta expects an EdgeDelta or a DeltaSnapshot, "
                        f"got {type(delta).__name__}"
                    )
                snapshot = delta
                delta = snapshot.delta_for(self.content_hash())
            stopwatch = Stopwatch()
            new_problem, outcome = self._problem.apply_delta(
                delta, constant=constant
            )
            content_hash = (
                None if snapshot is None else snapshot.verify_result(outcome.index)
            )
            build_seconds = stopwatch.elapsed()
            new_prototype = _new_prototype(
                new_problem, outcome.index, self._kernel_request
            )
            changed = set(outcome.changed_targets)
            with self._lock:
                self._problem = new_problem
                self._index = outcome.index
                self._prototype = new_prototype
                self._build_seconds = build_seconds
                self._index_source = "delta"
                self._content_hash = content_hash
                self._deltas_applied += 1
                if changed:
                    stale = [
                        subset
                        for subset in self._subsessions
                        if changed.intersection(subset)
                    ]
                    for subset in stale:
                        del self._subsessions[subset]
        return outcome

    @property
    def deltas_applied(self) -> int:
        """How many edge deltas this session has applied (0 = pristine)."""
        with self._lock:
            return self._deltas_applied

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _subset_session(
        self,
        targets: Tuple[Edge, ...],
        problem: TPPProblem,
        index: TargetSubgraphIndex,
        index_source: str,
        deltas_applied: int,
    ) -> Tuple["ProtectionService", bool]:
        """Return ``(sub-session, was already cached)`` for a subset query.

        ``problem``, ``index``, ``index_source`` and ``deltas_applied`` are
        the session state the caller captured under ``_lock``; a derived
        sub-session inherits the provenance tags, because its index is a
        slice of that (built, snapshot-restored or delta-updated) index.
        A subset changes which instances count, so it needs its own index
        — derived on first use by restricting ``problem``'s built index to
        the subset
        (:meth:`TPPProblem.restricted_to
        <repro.core.model.TPPProblem.restricted_to>`: array slices, no
        enumeration, no ``Graph`` views), then shared by every later query
        on the same subset.  Two invariants keep subset semantics aligned
        with the session's:

        * The sub-problem shares the session's phase-1 graph — all of ``T``
          stays hidden (the paper removes every sensitive link in phase 1),
          and a subset query's released graph never leaks the targets
          outside the subset.
        * Because the sub-problem counts a subset of the parent's instances
          on the same phase-1 graph, its initial similarity is <= the
          parent's <= the parent's constant ``C``, so the sub-session can
          always inherit ``C`` and score ``Δ_t^p`` exactly as the session
          was configured to.

        Subset order is not significant: the sub-problem's targets are put
        in the library-wide :func:`edge_sort_key` order, so two requests
        naming the same subset in different orders share one cached
        sub-session and return identical protector traces.

        The cache is bounded (``max_cached_subsets``, LRU eviction) and
        only ever holds sub-sessions of the index the session currently
        serves: a lookup or insert for a captured ``index`` that a delta
        has since replaced is skipped (the sub-session still answers the
        caller, consistently with its pre-delta view).  Concurrent first
        queries on one subset may each derive it (a millisecond of array
        slicing); the first insert wins and the others adopt it.
        """
        subset = tuple(
            sorted((canonical_edge(*target) for target in targets), key=edge_sort_key)
        )
        if len(set(subset)) != len(subset):
            raise ExperimentError(
                f"request targets contain duplicate links: {subset!r}"
            )
        known = set(problem.targets)
        unknown = [target for target in subset if target not in known]
        if unknown:
            raise ExperimentError(
                f"request targets {unknown!r} are not targets of this session"
            )
        with self._lock:
            if self._index is index:
                session = self._subsessions.get(subset)
                if session is not None:
                    self._subsessions.move_to_end(subset)
                    return session, True
        session = ProtectionService(
            problem.restricted_to(subset),
            max_cached_subsets=self._max_cached_subsets,
            kernel=self._kernel_request,
        )
        # not shared with any other thread yet, so no lock is needed
        session._index_source = index_source
        session._deltas_applied = deltas_applied
        with self._lock:
            # cache only while the session still serves the index this
            # sub-session was derived from: a delta swap in the meantime
            # evicted the changed subsets, and a pre-delta sub-session must
            # not refill the slot
            if self._index is index:
                session = self._subsessions.setdefault(subset, session)
                self._subsessions.move_to_end(subset)
                while (
                    self._max_cached_subsets is not None
                    and len(self._subsessions) > self._max_cached_subsets
                ):
                    self._subsessions.popitem(last=False)
        return session, False

    def cached_subset_sessions(
        self,
    ) -> "OrderedDict[Tuple[Edge, ...], ProtectionService]":
        """A least-recently-used-first copy of the subset sub-session cache.

        The returned mapping is a point-in-time copy — iterating it does
        not refresh LRU slots or block concurrent queries.
        """
        with self._lock:
            return OrderedDict(self._subsessions)
