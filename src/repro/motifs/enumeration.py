"""Target-subgraph enumeration and the incremental coverage kernel.

The scalable implementations of the paper (SGB/CT/WT-Greedy-R, Lemma 5) rest
on two observations about the phase-1 graph (targets already deleted):

1. deleting protectors can only *destroy* motif instances, never create new
   ones, so the set ``W`` of target subgraphs can be enumerated once, and
2. only edges that participate in some target subgraph can ever have a
   positive marginal gain.

:class:`TargetSubgraphIndex` materialises ``W`` once over an
:class:`~repro.graphs.indexed.IndexedGraph` snapshot of the phase-1 graph, so
every instance and every edge is addressed by a dense integer id:

* ``instance -> edge ids`` as a flat CSR array (``_inst_indptr`` /
  ``_inst_edge_ids``),
* ``edge id -> instances`` as the inverse CSR (``_edge_indptr`` /
  ``_edge_inst_ids``), and
* ``instance -> target index`` as a flat array.

:class:`CoverageState` layers the mutable greedy bookkeeping on top: an alive
bitmask over instances and — the heart of the kernel — **live-gain counters
maintained incrementally**, both per edge and per (edge, target).  The
per-(edge, target) counter matrix is a CSR over the same edge ids (row of an
edge lists the targets it touches, ``_et_indptr`` / ``_et_tidx``); deleting an
edge walks the instances it kills exactly once and decrements the total *and*
the matrix entry of every sibling edge, so

* :meth:`CoverageState.gain` is O(1) (a counter read),
* :meth:`CoverageState.gain_by_target` is O(#targets touching the edge)
  (one matrix row, no instance rescan),
* :meth:`CoverageState.candidate_edges` is O(|candidate edges|) with no
  per-edge rescan,
* :meth:`CoverageState.top_gain_edge` is amortised O(log) via a lazy max-heap
  (valid because gains only ever decrease), and
* :meth:`CoverageState.best_scored_pair` — the cross-target greedy's argmax
  over ``(target, edge)`` pairs scored ``own + (total - own) / C`` — is
  amortised sublinear in the candidate count via per-target lazy max-heaps
  (valid because own-gains and totals only ever decrease).

Enumeration itself (pass 1) runs over the :class:`IndexedGraph` CSR rows via
:meth:`~repro.motifs.base.MotifPattern.enumerate_instance_edge_ids`, so the
built-in motifs intersect integer adjacency rows instead of hashing node
tuples; custom motifs fall back to the tuple-based
``enumerate_instances`` transparently.

Construction is built for speed: pass 1 only collects flat buffers
(membership edge ids, per-instance arities, per-target instance counts);
the inverse CSR, the per-(edge, target) counter matrix and the slot table
are then assembled in passes 2-3.  With the native kernel loaded
(:func:`repro._native.load_kernel`), both run in ``coverage_kernel.c``:
the paper's three motifs (triangle, rectangle, rectri — by exact type)
walk the CSR in C, in the Python walks' order, and passes 2-3 are one
counting sort plus one run-length pass.  Without it (or under
``REPRO_NATIVE=0``) the Python walks and the numpy counting sorts
(``np.argsort``/``np.bincount``/``np.cumsum``) do the same work; other
motifs always walk in Python.  Every path produces byte-identical arrays,
pinned by ``tests/property/test_native_index_differential.py`` and by
``tests/property/test_index_build_equivalence.py``, which keeps the seed's
element-wise passes 2-3 as the reference.

The differential tests in ``tests/property/test_kernel_differential.py``
assert that the kernel and a from-scratch recount of the graph agree on
every trace.

The mutable state itself lives in :mod:`repro.motifs.coverage` (split out
so the native-vs-numpy kernel dispatch is explicit); it is re-exported
here.
"""

from __future__ import annotations

from array import array
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro._native import load_kernel
from repro.exceptions import MotifError
from repro.graphs.graph import Edge, Graph, canonical_edge, edge_sort_key
from repro.graphs.indexed import NP_LONG, IndexedGraph
from repro.motifs.base import MotifInstance, MotifPattern, coerce_motif
from repro.motifs.rectangle import RectangleMotif
from repro.motifs.rectri import RecTriMotif
from repro.motifs.triangle import TriangleMotif
from repro.motifs.coverage import (  # noqa: F401  (re-exported API)
    _SCALAR_KILL_THRESHOLD,
    CoverageState,
    InstanceId,
    _flat_ranges,
)

__all__ = [
    "TargetSubgraphIndex",
    "CoverageState",
    "InstanceId",
    "INDEX_ARRAY_FIELDS",
]

#: The flat arrays whose bytes define an index "bit-identically": the build
#: benchmark and the equivalence tests both fingerprint exactly this list, so
#: a new array added to :class:`TargetSubgraphIndex` only needs to be
#: registered here to be covered by every bit-identity gate.
INDEX_ARRAY_FIELDS = (
    "_inst_indptr",
    "_inst_edge_ids",
    "_inst_target_idx",
    "_edge_indptr",
    "_edge_inst_ids",
    "_et_indptr",
    "_et_tidx",
    "_et_initial_count",
    "_inst_slot",
    "_initial_gain",
)


# ----------------------------------------------------------------------
# pass 1: per-target enumeration into flat buffers
# ----------------------------------------------------------------------

#: The motifs the native kernel walks, keyed by exact type (a subclass may
#: override the walk): ``(motif code of repro_walk_motif, instance arity)``.
_NATIVE_WALKS = {
    TriangleMotif: (0, 2),
    RectangleMotif: (1, 3),
    RecTriMotif: (2, 4),
}

#: Instance rows the native walk's first output buffer holds; a walk that
#: finds more is repeated once into a buffer of the exact size.
_WALK_ROWS = 4096


def _enumerate_buffers(
    indexed: IndexedGraph,
    graph: Optional[Graph],
    motif: MotifPattern,
    targets: Sequence[Edge],
):
    """Enumerate ``targets`` into ``(edge ids, arities, per-target counts)``.

    This is the single enumeration dispatcher of the build and of the
    incremental delta maintenance: with the native kernel loaded, the
    paper's motifs walk the CSR in C (:func:`_walk_native`); otherwise
    :func:`_enumerate_buffers_python` runs their Python walks.  Both
    produce the same buffers.
    """
    walk = _NATIVE_WALKS.get(type(motif))
    kernel = load_kernel() if walk is not None else None
    if kernel is not None:
        return _walk_native(kernel, walk, indexed, targets)
    return _enumerate_buffers_python(indexed, graph, motif, targets)


def _walk_native(
    kernel, walk: Tuple[int, int], indexed: IndexedGraph, targets: Sequence[Edge]
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """The native walk of :func:`_enumerate_buffers`: one
    ``repro_walk_motif`` call over every target, in fixed-arity rows.

    The output buffer starts at :data:`_WALK_ROWS` rows; the kernel counts
    the rows that did not fit, and a second walk fills a buffer of the
    exact size.  The mark scratch is allocated per call, so concurrent
    walks share nothing.
    """
    code, arity = walk
    n_targets = len(targets)
    node_id = indexed._node_id
    ends = np.fromiter(
        (node_id.get(x, -1) for target in targets for x in target),
        dtype=NP_LONG,
        count=2 * n_targets,
    )
    n_nodes = indexed.number_of_nodes()
    indptr, neighbors, incident = indexed.csr()
    mark = np.full(2 * n_nodes, -1, dtype=NP_LONG)
    counts = np.empty(n_targets, dtype=NP_LONG)
    rows = _WALK_ROWS
    while True:
        out = np.empty(rows * arity, dtype=NP_LONG)
        total = kernel.walk_motif(
            code,
            n_nodes,
            len(neighbors),
            indptr.buffer_info()[0],
            neighbors.buffer_info()[0],
            incident.buffer_info()[0],
            ends.ctypes.data,
            n_targets,
            mark.ctypes.data,
            out.ctypes.data,
            rows,
            counts.ctypes.data,
        )
        if total < 0:
            raise MotifError("the graph CSR has a row out of range; cannot walk it")
        if total <= rows:
            break
        rows = total
    edge_ids = out[: total * arity] if total == rows else out[: total * arity].copy()
    return edge_ids, np.full(total, arity, dtype=NP_LONG), counts.tolist()


def _enumerate_buffers_python(
    indexed: IndexedGraph,
    graph: Optional[Graph],
    motif: MotifPattern,
    targets: Sequence[Edge],
) -> Tuple[array, array, List[int]]:
    """The Python walks of :func:`_enumerate_buffers` (the native walk's
    fallback and differential oracle).

    Built-in motifs walk the CSR rows via ``enumerate_instance_edge_ids``
    (a deterministic id-order walk), custom motifs take the
    tuple-enumeration fallback inherited from
    :class:`~repro.motifs.base.MotifPattern`.

    The fallback's generation order follows ``Graph`` adjacency-*set*
    iteration, which is not stable across hash seeds or a pickle round trip
    — so for motifs that did not override the id-space enumeration, each
    target's instances are put in canonical order (ids sorted within an
    instance, instances sorted within the target).  That makes the built
    index a pure function of the graph for custom motifs too.
    """
    edge_buffer = array("l")
    arity_buffer = array("l")
    counts: List[int] = []
    extend = edge_buffer.extend
    append_arity = arity_buffer.append
    canonicalize = (
        type(motif).enumerate_instance_edge_ids
        is MotifPattern.enumerate_instance_edge_ids
    )
    for target in targets:
        before = len(arity_buffer)
        instances: Iterable[Sequence[int]] = motif.enumerate_instance_edge_ids(
            indexed, graph, target
        )
        if canonicalize:
            instances = sorted(sorted(edge_ids) for edge_ids in instances)
        for edge_ids in instances:
            extend(edge_ids)
            append_arity(len(edge_ids))
        counts.append(len(arity_buffer) - before)
    return edge_buffer, arity_buffer, counts


class TargetSubgraphIndex:
    """Immutable enumeration of all target subgraphs ``W`` for a target set.

    Parameters
    ----------
    graph:
        The phase-1 graph (all targets already removed).
    targets:
        The hidden target links.
    motif:
        The subgraph pattern (name or :class:`MotifPattern`).

    Notes
    -----
    Every instance is assigned an integer id; instances of one target occupy a
    contiguous id range (the paper's ``W_t ∩ W_t' = ∅`` property for the
    *target* attribution; a protector edge, on the other hand, may participate
    in instances of many targets).  Edges are addressed by the dense edge ids
    of the underlying :class:`~repro.graphs.indexed.IndexedGraph`, whose order
    matches the library-wide ``edge_sort_key`` tie-breaking.
    """

    def __init__(
        self,
        graph: Graph,
        targets: Sequence[Edge],
        motif: Union[str, MotifPattern],
    ) -> None:
        self._motif = coerce_motif(motif)
        self._targets: Tuple[Edge, ...] = tuple(
            canonical_edge(*target) for target in targets
        )
        for target in self._targets:
            if graph.has_edge(*target):
                raise MotifError(
                    f"target {target!r} is still an edge of the graph; "
                    "remove all targets (phase 1) before building the index"
                )

        indexed = IndexedGraph(graph)
        self._indexed = indexed
        self._target_index: Dict[Edge, int] = {
            target: position for position, target in enumerate(self._targets)
        }

        # ------------------------------------------------------------------
        # pass 1: enumerate instances directly in edge-id space — the
        # built-in motifs walk the IndexedGraph CSR rows (integer merges and
        # lookups), custom motifs fall back to tuple enumeration translated
        # once at this boundary (the kernel never hashes tuples afterwards).
        # Only flat buffers are collected (membership edge ids, per-instance
        # arities, per-target counts).
        # ------------------------------------------------------------------
        edge_buffer, arity_buffer, counts = _enumerate_buffers(
            indexed, graph, self._motif, self._targets
        )

        # per-target contiguous instance-id ranges (python ints, API-facing)
        ranges: List[Tuple[int, int]] = []
        cursor = 0
        for count in counts:
            ranges.append((cursor, cursor + count))
            cursor += count
        self._target_ranges: Tuple[Tuple[int, int], ...] = tuple(ranges)

        self._finalize_derived(*self._assemble(edge_buffer, arity_buffer, counts))

    def _finalize_derived(
        self,
        candidate_ids: Optional[np.ndarray] = None,
        layout: Optional[np.ndarray] = None,
        parent: Optional["TargetSubgraphIndex"] = None,
    ) -> None:
        """Derive the query-side helpers from the assembled flat arrays.

        Shared tail of a fresh build, a splice and a snapshot restore:
        everything set here is a pure function of the
        :data:`INDEX_ARRAY_FIELDS` arrays and the targets, so the paths
        cannot drift apart.  The native assembly hands over the candidate
        ids and the pair layout's entry offsets it emitted in its own pass;
        a delta's ``parent`` (same targets, same order) hands over the
        targets' ``edge_sort_key`` ranks.  Whatever is not handed over is
        derived here with numpy, which is also the native kernel's fallback
        and oracle.
        """
        #: Candidate edge ids (edges in >= 1 instance), ascending == sorted
        #: by ``edge_sort_key`` thanks to the IndexedGraph id order.  Vector
        #: gathers and the native heaps index with the array; the python-int
        #: tuple (:attr:`_candidate_ids`) is built on first use.
        if candidate_ids is None:
            candidate_ids = np.flatnonzero(self._initial_gain)
        self._candidate_id_array = candidate_ids

        # the native kernel's per-target layout (coverage_kernel.c):
        # [counter-matrix entry offsets (n_targets + 1) | rank in
        # edge_sort_key order (n_targets)]
        n_targets = len(self._targets)
        if layout is None:
            layout = np.zeros(2 * n_targets + 1, dtype=NP_LONG)
            np.cumsum(
                np.bincount(self._et_tidx, minlength=n_targets),
                out=layout[1 : n_targets + 1],
            )
        if parent is None:
            targets = self._targets
            ranked = sorted(range(n_targets), key=lambda i: edge_sort_key(targets[i]))
            layout[n_targets + 1 :][ranked] = np.arange(n_targets)
        else:
            layout[n_targets + 1 :] = parent._pair_layout[n_targets + 1 :]
        self._pair_layout = layout

        # built on first use: only the tuple accessors and the numpy
        # kernel's scalar loops read these
        self._candidate_id_tuple: Optional[Tuple[int, ...]] = None
        self._et_mirrors: Optional[Tuple[array, array]] = None
        # edge -> frozenset(instance ids): only the tuple-level accessors
        # need it (the kernel reads the CSR directly)
        self._edge_to_instances: Optional[Dict[Edge, FrozenSet[InstanceId]]] = None

    @property
    def _candidate_ids(self) -> Tuple[int, ...]:
        """The candidate edge ids as python ints, ascending."""
        ids = self._candidate_id_tuple
        if ids is None:
            ids = self._candidate_id_tuple = tuple(self._candidate_id_array.tolist())
        return ids

    def _et_row_mirrors(self) -> Tuple[array, array]:
        """``array("l")`` mirrors of ``(_et_indptr, _et_tidx)``: the numpy
        kernel's scalar loops read them element-wise, and scalar reads from
        an array yield plain ints without numpy boxing."""
        mirrors = self._et_mirrors
        if mirrors is None:
            indptr, tidx = array("l"), array("l")
            indptr.frombytes(self._et_indptr.tobytes())
            tidx.frombytes(self._et_tidx.tobytes())
            mirrors = self._et_mirrors = (indptr, tidx)
        return mirrors

    @classmethod
    def _from_buffers(
        cls,
        indexed: IndexedGraph,
        targets: Sequence[Edge],
        motif: MotifPattern,
        edge_buffer,
        arity_buffer,
        counts: List[int],
        parent: Optional["TargetSubgraphIndex"] = None,
    ) -> "TargetSubgraphIndex":
        """Assemble an index from pre-collected pass-1 buffers.

        This is the splice hook of :mod:`repro.motifs.updates`: the caller
        supplies buffers exactly equal to what ``_enumerate_buffers`` would
        produce for ``(indexed, targets, motif)`` — e.g. surviving instance
        rows spliced together with freshly re-enumerated ones — and the
        assembled arrays are then bit-identical to a from-scratch build by
        construction (same vectorised passes 2-3, same inputs).  Targets
        must already be canonical.  A ``parent`` over the very same targets,
        in the same order (the index a delta was applied to), lends its
        target-invariant state, the target positions and ranks, instead of
        re-deriving it.
        """
        self = cls.__new__(cls)
        self._motif = motif
        self._targets = tuple(targets)
        if parent is not None:
            self._target_index = parent._target_index
        else:
            self._target_index = {
                target: position for position, target in enumerate(self._targets)
            }
        self._indexed = indexed
        ranges: List[Tuple[int, int]] = []
        cursor = 0
        for count in counts:
            ranges.append((cursor, cursor + count))
            cursor += count
        self._target_ranges = tuple(ranges)
        self._finalize_derived(
            *self._assemble(edge_buffer, arity_buffer, counts), parent=parent
        )
        return self

    def restricted_to(self, targets: Sequence[Edge]) -> "TargetSubgraphIndex":
        """Return the index of a target subset, sliced from this one.

        Each target's instances are enumerated independently on the shared
        phase-1 graph (every target of the full set hidden), so the subset's
        pass-1 buffers are exactly the kept targets' contiguous instance
        blocks of this index.  Those blocks, taken in the order of
        ``targets``, go through the same :meth:`_from_buffers` assembly as
        a fresh build — the result is bit-identical to enumerating the
        subset on this index's graph, at the cost of array slices.  The
        restricted index shares this index's
        :class:`~repro.graphs.indexed.IndexedGraph`.

        Raises
        ------
        MotifError
            If a target is not a target of this index, or is repeated.
        """
        kept = tuple(canonical_edge(*target) for target in targets)
        if len(set(kept)) != len(kept):
            raise MotifError(f"restriction targets contain duplicates: {kept!r}")
        unknown = [target for target in kept if target not in self._target_index]
        if unknown:
            raise MotifError(f"{unknown!r} are not targets of this index")
        inst_indptr = self._inst_indptr
        edge_parts = [np.empty(0, dtype=NP_LONG)]
        arity_parts = [np.empty(0, dtype=NP_LONG)]
        counts: List[int] = []
        for target in kept:
            start, end = self._target_ranges[self._target_index[target]]
            edge_parts.append(
                self._inst_edge_ids[inst_indptr[start] : inst_indptr[end]]
            )
            arity_parts.append(np.diff(inst_indptr[start : end + 1]))
            counts.append(end - start)
        return TargetSubgraphIndex._from_buffers(
            self._indexed,
            kept,
            self._motif,
            np.concatenate(edge_parts),
            np.concatenate(arity_parts),
            counts,
        )

    def apply_delta(self, delta) -> "repro.motifs.updates.DeltaOutcome":
        """Apply an :class:`~repro.motifs.updates.EdgeDelta` incrementally.

        Returns a :class:`~repro.motifs.updates.DeltaOutcome` whose
        ``index`` is a **new** :class:`TargetSubgraphIndex` over the updated
        phase-1 graph, bit-identical to a from-scratch rebuild — this index
        is immutable and keeps serving untouched.  Cost is proportional to
        the motif instances touching the changed edges (plus array
        splices), not to a full re-enumeration; see
        :mod:`repro.motifs.updates` for the algorithm and its invariants.
        """
        from repro.motifs.updates import apply_delta

        return apply_delta(self, delta)

    @classmethod
    def _restore(
        cls,
        indexed: IndexedGraph,
        targets: Sequence[Edge],
        motif: Union[str, MotifPattern],
        arrays: Dict[str, np.ndarray],
    ) -> "TargetSubgraphIndex":
        """Rebuild an index from previously frozen flat arrays.

        This is the deserialisation hook of :mod:`repro.persistence`:
        ``arrays`` maps every name in :data:`INDEX_ARRAY_FIELDS` to the
        stored buffer, and the restored index is bit-identical to the one
        that was saved — enumeration (pass 1) never runs.  The per-target
        instance ranges are re-derived from ``_inst_target_idx`` (instance
        ids are contiguous per target) and everything else derived comes out
        of :meth:`_finalize_derived`, so a restored index answers every
        query exactly like the freshly built original.  Inputs are trusted
        to be mutually consistent; the persistence layer validates shapes
        before calling.
        """
        self = cls.__new__(cls)
        self._motif = coerce_motif(motif)
        self._targets = tuple(canonical_edge(*target) for target in targets)
        self._target_index = {
            target: position for position, target in enumerate(self._targets)
        }
        self._indexed = indexed
        for name in INDEX_ARRAY_FIELDS:
            setattr(self, name, arrays[name])
        counts = np.bincount(
            self._inst_target_idx, minlength=len(self._targets)
        ).tolist()
        ranges: List[Tuple[int, int]] = []
        cursor = 0
        for count in counts:
            ranges.append((cursor, cursor + count))
            cursor += count
        self._target_ranges = tuple(ranges)
        self._finalize_derived()
        return self

    def _assemble(
        self, edge_buffer, arity_buffer, counts: List[int]
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Passes 2-3: in the native kernel when it is loaded, else numpy.

        Both set the same :data:`INDEX_ARRAY_FIELDS`, byte for byte.
        Returns ``(candidate ids, pair layout)`` for
        :meth:`_finalize_derived`: the native pass emits both (the layout's
        rank half still unset), the numpy pass neither.
        """
        kernel = load_kernel()
        if kernel is not None:
            return self._assemble_native(kernel, edge_buffer, arity_buffer, counts)
        self._assemble_numpy(edge_buffer, arity_buffer, counts)
        return None, None

    def _instance_arrays(self, edge_buffer, arity_buffer, counts: List[int]):
        """Set the instance-major arrays shared by both assemblies; return
        ``(memberships, arities)``."""
        memberships = np.array(edge_buffer, dtype=NP_LONG)
        arities = np.asarray(arity_buffer, dtype=NP_LONG)
        inst_indptr = np.zeros(len(arities) + 1, dtype=NP_LONG)
        np.cumsum(arities, out=inst_indptr[1:])
        self._inst_indptr = inst_indptr
        self._inst_edge_ids = memberships
        self._inst_target_idx = np.repeat(
            np.arange(len(self._targets), dtype=NP_LONG),
            np.asarray(counts, dtype=NP_LONG),
        )
        return memberships, arities

    def _assemble_native(
        self, kernel, edge_buffer, arity_buffer, counts: List[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Passes 2-3 in one ``repro_assemble_index`` call: a counting sort
        into the inverse CSR (stable, like the numpy path's argsort) and a
        run-length pass over it for the counter matrix and slot table,
        emitting the candidate ids and the pair layout's entry offsets on
        the way.  The output buffers are allocated here, per call."""
        memberships, arities = self._instance_arrays(
            edge_buffer, arity_buffer, counts
        )
        m = self._indexed.number_of_edges()
        n_targets = len(self._targets)
        n_memberships = len(memberships)
        edge_indptr = np.empty(m + 1, dtype=NP_LONG)
        gain = np.empty(m, dtype=NP_LONG)
        et_indptr = np.empty(m + 1, dtype=NP_LONG)
        candidates = np.empty(m + 1, dtype=NP_LONG)  # [m] gets the count
        layout = np.empty(2 * n_targets + 1, dtype=NP_LONG)
        edge_inst_ids, et_tidx, et_count, inst_slot, scratch = (
            np.empty(n_memberships, dtype=NP_LONG) for _ in range(5)
        )
        slots = kernel.assemble_index(
            m,
            len(arities),
            n_memberships,
            len(self._inst_target_idx),
            n_targets,
            self._inst_indptr.ctypes.data,
            memberships.ctypes.data,
            self._inst_target_idx.ctypes.data,
            edge_indptr.ctypes.data,
            gain.ctypes.data,
            edge_inst_ids.ctypes.data,
            et_indptr.ctypes.data,
            et_tidx.ctypes.data,
            et_count.ctypes.data,
            inst_slot.ctypes.data,
            scratch.ctypes.data,
            candidates.ctypes.data,
            candidates[m:].ctypes.data,
            layout.ctypes.data,
        )
        if slots < 0:
            raise MotifError(
                "instance memberships, offsets or per-target counts do not "
                "match the edge ids and instances"
            )
        self._edge_indptr = edge_indptr
        self._edge_inst_ids = edge_inst_ids
        self._initial_gain = gain
        self._et_indptr = et_indptr
        self._et_tidx = et_tidx[:slots].copy()
        self._et_initial_count = et_count[:slots].copy()
        self._inst_slot = inst_slot
        return candidates[: candidates[m]].copy(), layout

    def _assemble_numpy(
        self, edge_buffer: array, arity_buffer: array, counts: List[int]
    ) -> None:
        """Vectorised passes 2-3: counting sorts over the flat buffers.

        The inverse CSR is one stable argsort of the membership edge ids
        (stable = within an edge, instances stay ascending, exactly like the
        seed's cursor walk).  The per-(edge, target) matrix falls out of
        run-length encoding the (edge, target) key sequence along that same
        sorted order — sound because instance ids are contiguous per target,
        so the key sequence is non-decreasing — and the slot table is the
        inverse scatter of the run ids back to instance-major positions.
        """
        m = self._indexed.number_of_edges()
        memberships, arities = self._instance_arrays(
            edge_buffer, arity_buffer, counts
        )
        n_instances = len(arities)

        # pass 2: invert into the edge id -> instances CSR
        per_edge = np.bincount(memberships, minlength=m).astype(NP_LONG, copy=False)
        edge_indptr = np.zeros(m + 1, dtype=NP_LONG)
        np.cumsum(per_edge, out=edge_indptr[1:])
        order = np.argsort(memberships, kind="stable")
        inst_of_membership = np.repeat(
            np.arange(n_instances, dtype=NP_LONG), arities
        )
        self._edge_indptr = edge_indptr
        self._edge_inst_ids = inst_of_membership[order]
        self._initial_gain = per_edge

        # pass 3: per-(edge, target) counter matrix + slot table
        edge_sorted = memberships[order]
        tidx_sorted = self._inst_target_idx[self._edge_inst_ids]
        n_memberships = len(memberships)
        new_run = np.empty(n_memberships, dtype=bool)
        if n_memberships:
            new_run[0] = True
            np.logical_or(
                edge_sorted[1:] != edge_sorted[:-1],
                tidx_sorted[1:] != tidx_sorted[:-1],
                out=new_run[1:],
            )
        slots = np.cumsum(new_run, dtype=NP_LONG) - 1
        self._et_tidx = tidx_sorted[new_run]
        self._et_initial_count = np.bincount(slots, minlength=0).astype(
            NP_LONG, copy=False
        )
        et_indptr = np.zeros(m + 1, dtype=NP_LONG)
        np.cumsum(
            np.bincount(edge_sorted[new_run], minlength=m), out=et_indptr[1:]
        )
        self._et_indptr = et_indptr
        inst_slot = np.empty(n_memberships, dtype=NP_LONG)
        inst_slot[order] = slots
        self._inst_slot = inst_slot

    def __getstate__(self) -> Dict[str, object]:
        # the lazy edge -> instances dict can dwarf the flat arrays; rebuild
        # it on demand on the other side instead of pickling it
        state = self.__dict__.copy()
        state["_edge_to_instances"] = None
        state["_candidate_id_tuple"] = None
        state["_et_mirrors"] = None
        return state

    # ------------------------------------------------------------------
    # read-only accessors
    # ------------------------------------------------------------------
    @property
    def motif(self) -> MotifPattern:
        """The motif pattern the index was built for."""
        return self._motif

    @property
    def targets(self) -> Tuple[Edge, ...]:
        """The canonical target links, in input order."""
        return self._targets

    @property
    def indexed_graph(self) -> IndexedGraph:
        """The dense-id snapshot of the phase-1 graph the kernel runs on."""
        return self._indexed

    def number_of_instances(self) -> int:
        """Return ``|W|``, the total number of target subgraphs."""
        return len(self._inst_target_idx)

    def number_of_candidate_edges(self) -> int:
        """Return how many distinct edges participate in target subgraphs."""
        return len(self._candidate_id_array)

    def instances_of(self, target: Edge) -> Tuple[InstanceId, ...]:
        """Return the instance ids belonging to ``target`` (``W_t``)."""
        start, end = self._target_ranges[self._target_position(target)]
        return tuple(range(start, end))

    def initial_similarity(self, target: Edge) -> int:
        """Return ``s(∅, t) = |W_t|`` for ``target``."""
        start, end = self._target_ranges[self._target_position(target)]
        return end - start

    def initial_total_similarity(self) -> int:
        """Return ``s(∅, T) = |W|``."""
        return len(self._inst_target_idx)

    def edges_of_instance(self, instance_id: InstanceId) -> MotifInstance:
        """Return the protector edges of one instance."""
        edge_at = self._indexed.edge_at
        return frozenset(
            edge_at(self._inst_edge_ids[position])
            for position in range(
                self._inst_indptr[instance_id], self._inst_indptr[instance_id + 1]
            )
        )

    def target_of_instance(self, instance_id: InstanceId) -> Edge:
        """Return the target an instance belongs to."""
        return self._targets[self._inst_target_idx[instance_id]]

    def instances_containing(self, edge: Edge) -> FrozenSet[InstanceId]:
        """Return all instance ids that contain ``edge`` (empty if none)."""
        if self._edge_to_instances is None:
            edge_at = self._indexed.edge_at
            indptr = self._edge_indptr
            inst_ids = self._edge_inst_ids
            self._edge_to_instances = {
                edge_at(edge_id): frozenset(
                    inst_ids[indptr[edge_id] : indptr[edge_id + 1]].tolist()
                )
                for edge_id in self._candidate_ids
            }
        return self._edge_to_instances.get(canonical_edge(*edge), frozenset())

    def candidate_edges(self) -> Set[Edge]:
        """Return every edge participating in at least one target subgraph.

        By Lemma 5 of the paper these are the only edges worth considering as
        protectors; the scalable ``-R`` algorithms restrict their search to
        this set.
        """
        edge_at = self._indexed.edge_at
        return {edge_at(edge_id) for edge_id in self._candidate_ids}

    def candidate_edge_list(self) -> List[Edge]:
        """Return the candidate edges in deterministic ``edge_sort_key`` order.

        Unlike :meth:`candidate_edges` (a set, for membership tests) the list
        form has a stable iteration order across processes and hash seeds,
        which the baselines and greedy loops rely on for reproducibility.
        """
        edge_at = self._indexed.edge_at
        return [edge_at(edge_id) for edge_id in self._candidate_ids]

    def candidate_edge_ids(self) -> Tuple[int, ...]:
        """Return the candidate edges' dense ids (of :attr:`indexed_graph`),
        ascending — the id form of :meth:`candidate_edge_list`."""
        return self._candidate_ids

    def candidate_edge_id_array(self) -> np.ndarray:
        """Return :meth:`candidate_edge_ids` as a fresh ``NP_LONG`` array
        (one buffer copy; the caller may shuffle it in place)."""
        return np.array(self._candidate_id_array, dtype=NP_LONG)

    def candidate_edges_of(self, target: Edge) -> Set[Edge]:
        """Return the edges participating in some instance of ``target``."""
        start, end = self._target_ranges[self._target_position(target)]
        edge_at = self._indexed.edge_at
        return {
            edge_at(self._inst_edge_ids[position])
            for instance_id in range(start, end)
            for position in range(
                self._inst_indptr[instance_id], self._inst_indptr[instance_id + 1]
            )
        }

    def new_state(self, kernel: Optional[str] = None) -> "CoverageState":
        """Return a fresh mutable array-backed :class:`CoverageState`.

        ``kernel`` selects the hot-loop implementation (``"auto"`` /
        ``"native"`` / ``"numpy"``; see
        :class:`~repro.motifs.coverage.CoverageState`).  Both kernels
        are observably bit-identical.
        """
        return CoverageState(self, kernel=kernel)

    # ------------------------------------------------------------------
    # internal helpers shared with the states
    # ------------------------------------------------------------------
    def _target_position(self, target: Edge) -> int:
        # fast path: callers overwhelmingly pass already-canonical targets
        position = self._target_index.get(target)
        if position is not None:
            return position
        return self._target_index[canonical_edge(*target)]

