"""Problem and result models for Target Privacy Preserving.

:class:`TPPProblem` captures the inputs of Definition 1 / 2 of the paper —
the original social graph, the set of sensitive target links and the motif
the adversary exploits — and provides the phase-1 graph (targets removed)
every algorithm works on.

:class:`ProtectionResult` records the output of a protector-selection
algorithm: which protectors were deleted in which order, how the total
similarity evolved, how the budget was split across targets (for the
multi-local-budget variants) and how long the selection took.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import BudgetError, InvalidTargetError
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.motifs.base import MotifPattern, coerce_motif
from repro.motifs.enumeration import TargetSubgraphIndex
from repro.motifs.similarity import total_similarity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    import repro.motifs.updates
    import repro.persistence

__all__ = ["TPPProblem", "ProtectionResult"]


class TPPProblem:
    """A Target Privacy Preserving instance.

    Parameters
    ----------
    graph:
        The original social graph ``G = (V, E)`` (targets still present).
    targets:
        The sensitive links ``T ⊆ E`` that must stay hidden.
    motif:
        The subgraph pattern the adversary's link prediction exploits
        (``"triangle"``, ``"rectangle"``, ``"rectri"`` or a custom
        :class:`~repro.motifs.MotifPattern`).
    constant:
        The constant ``C`` of the dissimilarity ``f(P, T) = C - s(P, T)``.
        Defaults to the initial similarity ``s(∅, T)`` so ``f(∅, T) = 0``.
    index:
        Optional prebuilt :class:`TargetSubgraphIndex` for this exact
        instance (e.g. restored from a snapshot).  Adopted via
        :meth:`adopt_index` before the initial similarity is computed, so
        construction runs **no enumeration** — this is the cold-start path
        :meth:`from_snapshot` uses.

    Raises
    ------
    InvalidTargetError
        If any target is not an edge of ``graph``, targets are duplicated,
        or a supplied ``index`` was built for a different instance.
    """

    def __init__(
        self,
        graph: Graph,
        targets: Sequence[Edge],
        motif: Union[str, MotifPattern] = "triangle",
        constant: Optional[int] = None,
        index: Optional[TargetSubgraphIndex] = None,
    ) -> None:
        self._graph = graph
        self._motif = coerce_motif(motif)

        canonical_targets = []
        seen = set()
        for target in targets:
            edge = canonical_edge(*target)
            if not graph.has_edge(*edge):
                raise InvalidTargetError(
                    f"target {edge!r} is not an edge of the original graph"
                )
            if edge in seen:
                raise InvalidTargetError(f"duplicate target {edge!r}")
            seen.add(edge)
            canonical_targets.append(edge)
        if not canonical_targets:
            raise InvalidTargetError("the target set T must not be empty")
        self._targets: Tuple[Edge, ...] = tuple(canonical_targets)

        self._phase1_graph = graph.without_edges(self._targets)
        self._index: Optional[TargetSubgraphIndex] = None
        if index is not None:
            self.adopt_index(index)

        initial = self.initial_similarity()
        if constant is None:
            constant = initial
        elif constant < initial:
            raise InvalidTargetError(
                f"constant C={constant} must be >= the initial similarity {initial}"
            )
        self._constant = constant

    @classmethod
    def _from_parts(cls, index: TargetSubgraphIndex, constant: int) -> "TPPProblem":
        """Assemble a problem around a built index, skipping ``__init__``.

        The shared constructor of every derived problem (snapshot restore,
        delta update, target restriction).  Targets and motif come from
        ``index``; the caller vouches that ``constant`` is at least the
        index's initial similarity.  The ``graph`` and ``phase1_graph``
        properties materialise their views from the index's
        :class:`~repro.graphs.indexed.IndexedGraph` on first access, so
        serving from the kernel never pays for them.
        """
        problem = cls.__new__(cls)
        problem._graph = None
        problem._motif = index.motif
        problem._targets = index.targets
        problem._phase1_graph = None
        problem._index = index
        problem._constant = constant
        return problem

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The original graph (targets included).

        Snapshot-restored problems materialise it lazily (phase-1 graph
        plus the target links) on first access — serving queries from the
        kernel never needs it, so a cold start does not pay for it.
        """
        if self._graph is None:
            graph = self.phase1_graph.copy()
            graph.add_edges_from(self._targets)
            self._graph = graph
        return self._graph

    @property
    def targets(self) -> Tuple[Edge, ...]:
        """The canonical target links, in input order."""
        return self._targets

    @property
    def motif(self) -> MotifPattern:
        """The motif pattern of the threat model."""
        return self._motif

    @property
    def constant(self) -> int:
        """The dissimilarity constant ``C``."""
        return self._constant

    @property
    def phase1_graph(self) -> Graph:
        """The graph after phase 1 (all targets deleted).  Do not mutate.

        Snapshot-restored problems materialise it lazily from the restored
        :class:`~repro.graphs.indexed.IndexedGraph` on first access.
        """
        if self._phase1_graph is None:
            self._phase1_graph = self._index.indexed_graph.to_graph()
        return self._phase1_graph

    def target_set(self) -> frozenset:
        """Return the targets as a frozen set of canonical edges."""
        return frozenset(self._targets)

    def build_index(self) -> TargetSubgraphIndex:
        """Return (and cache) the target-subgraph index on the phase-1 graph."""
        if self._index is None:
            self._index = TargetSubgraphIndex(
                self._phase1_graph, self._targets, self._motif
            )
        return self._index

    def adopt_index(self, index: TargetSubgraphIndex) -> TargetSubgraphIndex:
        """Adopt a prebuilt target-subgraph index as this problem's cache.

        Lets callers that built an index out-of-band (a deserialised
        snapshot, the build benchmark) serve this problem from
        it without re-enumerating.  The index must have been built for this
        problem's targets and motif on its phase-1 graph; targets, motif and
        graph size are validated, the graph contents are the caller's
        responsibility.
        """
        if index.targets != self._targets:
            raise InvalidTargetError(
                "adopted index was built for different targets"
            )
        if index.motif.name != self._motif.name:
            raise InvalidTargetError(
                f"adopted index was built for motif {index.motif.name!r}, "
                f"problem uses {self._motif.name!r}"
            )
        if index.indexed_graph.number_of_edges() != self.phase1_graph.number_of_edges():
            raise InvalidTargetError(
                "adopted index was built on a different phase-1 graph"
            )
        self._index = index
        return index

    def save_index(self, path: Union[str, "Path"]) -> "Path":
        """Persist this problem's built index as a snapshot file.

        Builds the index first if it is not cached yet, then writes
        a versioned snapshot — flat arrays, motif identity, targets,
        constant ``C`` and content hash — that
        :meth:`from_snapshot` / :meth:`ProtectionService.from_snapshot
        <repro.service.ProtectionService.from_snapshot>` can cold-start
        from without enumerating.

        Parameters
        ----------
        path:
            Destination snapshot file (conventionally ``*.tppsnap``).

        Returns
        -------
        pathlib.Path
            The written path.
        """
        from repro.persistence.snapshot import save_snapshot

        return save_snapshot(path, self.build_index(), self._constant)

    @classmethod
    def from_snapshot(
        cls,
        path: Union[str, "Path", "repro.persistence.IndexSnapshot"],
        allow_pickle: bool = True,
    ) -> "TPPProblem":
        """Reconstruct a problem — index included — from a snapshot file.

        The phase-1 graph is materialised from the snapshot's
        :class:`~repro.graphs.indexed.IndexedGraph`, the original graph is
        that plus the target links, and the restored index is adopted
        before any similarity is computed — so **no motif enumeration runs**
        and every greedy trace matches the session that saved the snapshot
        byte for byte.

        Parameters
        ----------
        path:
            A file written by :meth:`save_index` (or
            :func:`repro.persistence.save_snapshot`), or the
            :class:`~repro.persistence.IndexSnapshot` that
            :func:`~repro.persistence.load_snapshot` already returned for
            one.
        allow_pickle:
            Forwarded to :func:`repro.persistence.load_snapshot`; refuse
            snapshots with pickled sections (custom motifs, exotic node
            labels) when ``False``.

        Returns
        -------
        TPPProblem
            With the snapshot's targets, motif, constant and built index.

        Raises
        ------
        repro.exceptions.SnapshotFormatError
            If the file is unreadable, truncated, corrupted or from an
            incompatible format version / platform.
        """
        from repro.persistence.snapshot import IndexSnapshot, load_snapshot

        snapshot = (
            path
            if isinstance(path, IndexSnapshot)
            else load_snapshot(path, allow_pickle=allow_pickle)
        )
        # the skipped __init__ validation (targets are edges, C >= s(∅, T))
        # held when the snapshot was saved and is preserved verbatim by the
        # hash-checked file
        return cls._from_parts(snapshot.index, snapshot.constant)

    def apply_delta(
        self, delta: "repro.motifs.updates.EdgeDelta", constant: Optional[int] = None
    ) -> Tuple["TPPProblem", "repro.motifs.updates.DeltaOutcome"]:
        """Apply an :class:`~repro.motifs.updates.EdgeDelta` to the graph.

        Returns ``(updated_problem, outcome)``: a **new** problem over the
        updated graph whose index was maintained incrementally (bit-identical
        to rebuilding on the updated phase-1 graph — see
        :mod:`repro.motifs.updates`), and the
        :class:`~repro.motifs.updates.DeltaOutcome` describing what changed.
        This problem is untouched and keeps answering for the pre-delta
        graph.

        Parameters
        ----------
        delta:
            The ordered edge insertions/deletions.  Target links cannot be
            touched (they are not edges of the phase-1 graph the delta
            applies to; inserting one raises
            :class:`~repro.exceptions.DeltaError`).
        constant:
            The dissimilarity constant ``C`` of the updated problem.  By
            default the current constant is kept, auto-bumped to the new
            initial similarity if insertions pushed ``s(∅, T)`` above it
            (``f(∅, T) = 0`` again, matching the default of a fresh
            problem).  An explicit value below the new initial similarity
            raises :class:`~repro.exceptions.DeltaError`.
        """
        from repro.exceptions import DeltaError

        outcome = self.build_index().apply_delta(delta)
        initial = outcome.index.initial_total_similarity()
        if constant is None:
            constant = max(self._constant, initial)
        elif constant < initial:
            raise DeltaError(
                f"constant C={constant} is below the post-delta initial "
                f"similarity {initial}"
            )
        return self._from_parts(outcome.index, constant), outcome

    def restricted_to(self, targets: Sequence[Edge]) -> "TPPProblem":
        """Return the problem on the target subset ``targets`` — no enumeration.

        The subset problem keeps this problem's phase-1 graph (every target
        of ``T`` stays hidden, as the paper's phase 1 requires) and its
        constant ``C`` — valid because the subset counts a subset of this
        problem's instances, so its initial similarity cannot exceed ``C``.
        Its index is :meth:`TargetSubgraphIndex.restricted_to
        <repro.motifs.enumeration.TargetSubgraphIndex.restricted_to>` of
        this problem's (built) index, sharing the same
        :class:`~repro.graphs.indexed.IndexedGraph`, and both ``Graph``
        views stay lazy.  Targets keep the given order.

        Raises
        ------
        MotifError
            If a target is not a target of this problem, or is repeated.
        """
        index = self.build_index().restricted_to(targets)
        return self._from_parts(index, self._constant)

    @property
    def has_cached_index(self) -> bool:
        """Whether the target-subgraph index has already been built.

        Lets callers offer index-dependent extras (diagnostics, warnings)
        without triggering the enumeration on workloads — e.g. the naive
        recount baseline — that never needed it.
        """
        return self._index is not None

    def initial_similarity(self) -> int:
        """Return ``s(∅, T)`` on the phase-1 graph."""
        if self._index is not None:
            return self._index.initial_total_similarity()
        return total_similarity(self.phase1_graph, self._targets, self._motif)

    def initial_similarity_by_target(self) -> Dict[Edge, int]:
        """Return ``s(∅, t)`` for every target."""
        index = self.build_index()
        return {target: index.initial_similarity(target) for target in self._targets}

    def dissimilarity_of(self, protectors: Sequence[Edge]) -> int:
        """Return ``f(P, T)`` for an explicit protector set (recounted)."""
        released = self.phase1_graph.without_edges(protectors)
        return self._constant - total_similarity(released, self._targets, self._motif)

    def released_graph(self, protectors: Sequence[Edge]) -> Graph:
        """Return the released graph: phase-1 graph minus the protector set."""
        return self.phase1_graph.without_edges(protectors)

    def __repr__(self) -> str:
        if self._graph is None:  # snapshot-restored, graph not materialised
            indexed = self._index.indexed_graph
            n = indexed.number_of_nodes()
            m = indexed.number_of_edges() + len(self._targets)
        else:
            n = self._graph.number_of_nodes()
            m = self._graph.number_of_edges()
        return (
            f"TPPProblem(n={n}, m={m}, targets={len(self._targets)}, "
            f"motif={self._motif.name!r})"
        )


@dataclass(frozen=True)
class ProtectionResult:
    """The outcome of one protector-selection run.

    Attributes
    ----------
    algorithm:
        Human-readable algorithm label, e.g. ``"SGB-Greedy-R"``.
    motif:
        Motif name the run protected against.
    budget:
        The deletion budget ``k`` the run was given.
    protectors:
        Protector edges in deletion order (``|P| <= k``).
    similarity_trace:
        ``s(P, T)`` after 0, 1, 2, ... deletions; index ``i`` is the total
        similarity once the first ``i`` protectors are deleted.
    initial_similarity:
        ``s(∅, T)``.
    budget_division:
        Per-target sub budgets ``k_t`` (multi-local-budget runs only).
    allocation:
        Per-target protector sets ``P_t`` (multi-local-budget runs only).
    runtime_seconds:
        Wall-clock selection time.
    """

    algorithm: str
    motif: str
    budget: int
    protectors: Tuple[Edge, ...]
    similarity_trace: Tuple[int, ...]
    initial_similarity: int
    budget_division: Optional[Mapping[Edge, int]] = None
    allocation: Optional[Mapping[Edge, Tuple[Edge, ...]]] = None
    runtime_seconds: float = 0.0
    extra: Mapping[str, object] = field(default_factory=dict)

    @property
    def final_similarity(self) -> int:
        """Return ``s(P, T)`` after all selected deletions."""
        return self.similarity_trace[-1] if self.similarity_trace else self.initial_similarity

    @property
    def dissimilarity_gain(self) -> int:
        """Return the total dissimilarity increase ``s(∅, T) - s(P, T)``."""
        return self.initial_similarity - self.final_similarity

    @property
    def fully_protected(self) -> bool:
        """Return whether every target subgraph was broken (``s(P, T) = 0``)."""
        return self.final_similarity == 0

    @property
    def budget_used(self) -> int:
        """Return how many protectors were actually deleted."""
        return len(self.protectors)

    def released_graph(self, problem: TPPProblem) -> Graph:
        """Return the released graph produced by applying this result."""
        return problem.released_graph(self.protectors)

    def similarity_at(self, deletions: int) -> int:
        """Return ``s(P, T)`` after the first ``deletions`` protector removals.

        Values beyond the recorded trace clamp to the final similarity, which
        makes plotting different methods over a common budget axis easy.
        """
        if deletions < 0:
            raise BudgetError("deletions must be >= 0")
        if deletions < len(self.similarity_trace):
            return self.similarity_trace[deletions]
        return self.final_similarity

    def summary(self) -> str:
        """Return a short one-line human-readable summary."""
        return (
            f"{self.algorithm}[{self.motif}] k={self.budget} "
            f"used={self.budget_used} s: {self.initial_similarity} -> "
            f"{self.final_similarity} ({self.runtime_seconds:.3f}s)"
        )

    def reproducible_fields(self) -> Dict[str, object]:
        """Return every field but the ones that vary between equal solves.

        Drops ``runtime_seconds`` and, from a service result's
        ``extra["service"]`` metadata, the timing and kernel echoes
        (``solve_seconds``, ``build_seconds``, ``kernel``).  Two solves of
        the same request on the numpy and the native kernel return equal
        dictionaries.
        """
        extra = dict(self.extra)
        service = extra.pop("service", None)
        values: Dict[str, object] = {
            item.name: getattr(self, item.name)
            for item in fields(self)
            if item.name not in ("runtime_seconds", "extra")
        }
        values["extra"] = extra
        if isinstance(service, Mapping):
            values["service"] = {
                key: value
                for key, value in service.items()
                if key not in ("solve_seconds", "build_seconds", "kernel")
            }
        return values

    # ------------------------------------------------------------------
    # serialization (JSON-friendly: edge tuples become 2-element lists)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable dictionary of this result.

        Edge tuples become two-element lists; the edge-keyed mappings
        (``budget_division``, ``allocation``) become lists of
        ``[edge, value]`` pairs because JSON objects only take string keys.
        :meth:`from_dict` reverses the conversion exactly, so
        ``ProtectionResult.from_dict(result.to_dict()) == result`` (also
        after a ``json.dumps``/``json.loads`` round trip, provided the node
        labels are JSON scalars, which every built-in dataset's are).
        """
        payload: Dict[str, object] = {
            "algorithm": self.algorithm,
            "motif": self.motif,
            "budget": self.budget,
            "protectors": [list(edge) for edge in self.protectors],
            "similarity_trace": list(self.similarity_trace),
            "initial_similarity": self.initial_similarity,
            "runtime_seconds": self.runtime_seconds,
            "extra": dict(self.extra),
        }
        if self.budget_division is not None:
            payload["budget_division"] = [
                [list(target), value] for target, value in self.budget_division.items()
            ]
        if self.allocation is not None:
            payload["allocation"] = [
                [list(target), [list(edge) for edge in edges]]
                for target, edges in self.allocation.items()
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ProtectionResult":
        """Rebuild a result from a :meth:`to_dict` payload (or parsed JSON)."""
        division = payload.get("budget_division")
        allocation = payload.get("allocation")
        return cls(
            algorithm=payload["algorithm"],
            motif=payload["motif"],
            budget=int(payload["budget"]),
            protectors=tuple(tuple(edge) for edge in payload["protectors"]),
            similarity_trace=tuple(int(v) for v in payload["similarity_trace"]),
            initial_similarity=int(payload["initial_similarity"]),
            budget_division=None
            if division is None
            else {tuple(target): int(value) for target, value in division},
            allocation=None
            if allocation is None
            else {
                tuple(target): tuple(tuple(edge) for edge in edges)
                for target, edges in allocation
            },
            runtime_seconds=float(payload.get("runtime_seconds", 0.0)),
            extra=dict(payload.get("extra", {})),
        )
