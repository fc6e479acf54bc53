"""The mutable coverage states layered on a :class:`TargetSubgraphIndex`.

Split out of :mod:`repro.motifs.enumeration` so the kernel dispatch is
explicit: :class:`CoverageState` owns the flat live counters (alive
bitmask, per-edge gains, per-(edge, target) counter matrix) and runs its
three hot loops — the kill walk of :meth:`CoverageState.delete_edge`,
the heap validation of :meth:`CoverageState.top_gain_edge`, and the
per-target pair validation behind
:meth:`CoverageState.best_scored_pair` — through one of two kernels:

``numpy``
    The pure numpy/memoryview implementation (the executable reference,
    and the automatic fallback on installs without a C toolchain).
``native``
    The compiled C implementation from :mod:`repro._native`, operating
    in place on the *same* flat buffers.  Observably **bit-identical**
    to the numpy kernel: same protectors, same traces, same
    ``edge_sort_key`` tie-breaks.  Heaps are (key, id) pairs under the
    same total order heapq applies to its tuples, and every pair is
    distinct, so the validated pop sequence depends only on heap
    contents — never on the internal array layout.  The native kernel
    also runs whole selections in one call
    (:meth:`CoverageState.drive_top_gain` for SGB-Greedy,
    :meth:`CoverageState.drive_scored_pairs` for CT-/WT-Greedy) and
    batched deletions (:meth:`CoverageState.kill_sequence`); its heaps
    live in one buffer that :meth:`CoverageState.prepare_heaps` fills
    ahead of time and :meth:`CoverageState.copy` memcpys.

The selector is resolved at construction (``kernel="auto"`` prefers
native when loadable; ``REPRO_NATIVE=0`` forces the fallback; an
explicit ``kernel="native"`` raises
:class:`~repro.exceptions.NativeKernelError` when unsatisfiable).  The
differential property tests pin the native kernel against the numpy one
(``tests/property/test_native_driver_differential.py``) and the numpy
kernel against the ``recount`` engine, which recounts motifs from the
graph and shares nothing with the index
(``tests/property/test_kernel_differential.py``).

Native states ``copy()`` (heaps included, so a copy of a prepared
prototype starts warm) and pickle like numpy ones: the ctypes handle,
cached buffer pointers and native heaps are process-local runtime, so
``__getstate__`` drops them and ``__setstate__`` re-resolves — a worker
process without the toolchain transparently degrades to the numpy
kernel (heaps are pure derived caches; rebuilding them lazily yields
the same validated tops).
"""

from __future__ import annotations

import heapq
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro._native import load_kernel, resolve_kernel
from repro.exceptions import NativeKernelError
from repro.graphs.graph import Edge, canonical_edge, edge_sort_key
from repro.graphs.indexed import NP_LONG

if TYPE_CHECKING:
    from repro.motifs.enumeration import TargetSubgraphIndex

__all__ = [
    "CoverageState",
    "InstanceId",
]

#: Opaque identifier of one enumerated target subgraph.
InstanceId = int

#: Instance-row size below which the numpy kill walk stays element-wise —
#: a few memberships cost less to walk than the fixed setup of the numpy
#: gathers.  (The native kill walk is element-wise at every size.)
_SCALAR_KILL_THRESHOLD = 32

#: Process-local attributes of :class:`CoverageState` that never pickle:
#: memoryviews, the ctypes kernel handle, the packed state context and its
#: scratch, and the native heaps.  ``__setstate__`` rebuilds them all via
#: ``_init_runtime`` (the heaps lazily, on first use).
_RUNTIME_ATTRS = (
    "_gain_mv",
    "_et_count_mv",
    "_alive_mv",
    "_alive_by_tidx_mv",
    "_native",
    "_ctx",
    "_ctx_mv",
    "_ctx_ptr",
    "_scratch",
    "_broken_mv",
    "_touched_mv",
    "_out_mv",
    "_out_ptr",
    "_query_mv",
    "_query_ptr",
    "_heaps",
    "_arena_weight",
    "_edge_id_memo",
)

# Slots of the native state context (the full layout is documented at the
# top of coverage_kernel.c).
_CTX_HEAP_KEYS = 14
_CTX_HEAP_SIZE = 16
_CTX_ARENA_KEYS = 17
_CTX_ARENA_OFFSETS = 19


def _flat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Return ``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``
    without a Python loop.

    Every ``lengths[i]`` must be >= 1 (the cumsum trick writes one boundary
    marker per range; zero-length ranges would collide on one position —
    callers filter them out first).  Empty inputs return an empty array.
    """
    if not len(starts):
        return np.empty(0, dtype=NP_LONG)
    total = int(lengths.sum())
    out = np.ones(total, dtype=NP_LONG)
    out[0] = starts[0]
    if len(starts) > 1:
        ends = np.cumsum(lengths[:-1])
        out[ends] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(out, out=out)


class CoverageState:
    """Array-backed mutable view tracking which target subgraphs are alive.

    Deleting an edge kills every alive instance containing it and eagerly
    decrements the live-gain counter of each sibling edge, so marginal-gain
    queries are O(1) counter reads and :meth:`top_gain_edge` pops an exact
    maximum from a lazily-repaired heap (gains are monotone non-increasing,
    which makes stale heap entries safe to re-validate on pop).

    Parameters
    ----------
    index:
        The immutable :class:`TargetSubgraphIndex` to layer on.
    kernel:
        ``"auto"`` (default, = ``None``) runs the compiled C kernel when
        it is loadable and the numpy kernel otherwise; ``"native"`` and
        ``"numpy"`` force one side (``"native"`` raises
        :class:`~repro.exceptions.NativeKernelError` when no compiler or
        prebuilt artifact is available — unless ``REPRO_NATIVE=0``
        globally forces the fallback).  Both kernels are observably
        bit-identical.
    """

    def __init__(self, index: "TargetSubgraphIndex", kernel: Optional[str] = None) -> None:
        self._index = index
        n_instances = index.number_of_instances()
        self._alive = np.ones(n_instances, dtype=np.uint8)
        self._alive_total = n_instances
        self._alive_by_tidx = np.fromiter(
            (end - start for start, end in index._target_ranges),
            dtype=NP_LONG,
            count=len(index._target_ranges),
        )
        # live-gain counters: gain[edge_id] == alive instances containing it
        # (a pure memcpy of the index's precomputed pristine counters)
        self._gain = index._initial_gain.copy()
        # per-(edge, target) live counters: entry s of the index's counter
        # matrix currently counts the alive instances of target _et_tidx[s]
        # containing the row's edge
        self._et_count = index._et_initial_count.copy()
        self._deleted_edges: List[Edge] = []
        # lazy max-heap of (-gain, edge_id); built on first top-gain query
        self._heap: Optional[List[Tuple[int, int]]] = None
        # per-target lazy max-heaps of (-score key, edge_id) for
        # best_scored_pair, built on first use and keyed to one constant C
        self._pair_heaps: Dict[int, List[Tuple[int, int]]] = {}
        self._pair_constant: Optional[int] = None
        self._kernel = resolve_kernel(kernel)
        self._init_runtime()

    def _init_runtime(self) -> None:
        """(Re)build the process-local runtime over the owned buffers.

        Called from ``__init__``, ``copy`` and ``__setstate__``:
        memoryviews over the live counters (scalar reads in the numpy
        heap-validation loops yield plain ints, no numpy boxing), and —
        when the resolved kernel is native — the ctypes handle, the
        scratch arrays and the packed state context of raw
        ``ndarray.ctypes.data`` pointers (the buffers never reallocate,
        so the addresses are stable for the lifetime of this state).
        The native heaps start unbuilt; ``copy`` adopts the source's.
        """
        self._gain_mv = memoryview(self._gain)
        self._et_count_mv = memoryview(self._et_count)
        self._alive_mv = memoryview(self._alive)
        self._alive_by_tidx_mv = memoryview(self._alive_by_tidx)
        # (edge, dense id) of the last validated query result: the greedy
        # loops always delete the edge they just queried, so delete_edge
        # skips the canonicalise + dict lookup on a memo hit (ids are an
        # immutable property of the index — the memo can never go stale)
        self._edge_id_memo: Optional[Tuple[Edge, int]] = None
        # native heaps: one buffer holding the global heap's (keys, ids),
        # the pair arena's (keys, ids) and the arena's per-target sizes;
        # allocated on first use, memcpy'd by copy()
        self._heaps: Optional[np.ndarray] = None
        self._arena_weight: Optional[int] = None
        if self._kernel != "native":
            self._native = None
            return
        self._native = load_kernel()
        if self._native is None:
            # only reachable on unpickle in a toolchain-less process (the
            # constructor resolves availability up front): degrade quietly,
            # the numpy kernel is observably identical
            self._kernel = "numpy"
            return
        index = self._index
        n_targets = len(index._targets)
        # kill-walk scratch: `broken` is kept all-zero between calls (the
        # delete path re-zeroes exactly the touched entries); `touched`
        # carries the touched target indices back (slot 0 is the count);
        # `out` receives single query results; `query` carries the target
        # indices of a best_scored_pair call
        self._scratch = np.zeros(3 * n_targets + 4, dtype=NP_LONG)
        broken = self._scratch[:n_targets]
        touched = self._scratch[n_targets : 2 * n_targets + 1]
        out = self._scratch[2 * n_targets + 1 : 2 * n_targets + 4]
        query = self._scratch[2 * n_targets + 4 :]
        self._broken_mv = memoryview(broken)
        self._touched_mv = memoryview(touched)
        self._out_mv = memoryview(out)
        self._out_ptr = out.ctypes.data
        self._query_mv = memoryview(query)
        self._query_ptr = query.ctypes.data
        self._ctx = np.array(
            [
                index._edge_indptr.ctypes.data,
                index._edge_inst_ids.ctypes.data,
                index._inst_indptr.ctypes.data,
                index._inst_edge_ids.ctypes.data,
                index._inst_slot.ctypes.data,
                index._inst_target_idx.ctypes.data,
                self._alive.ctypes.data,
                self._gain.ctypes.data,
                self._et_count.ctypes.data,
                self._alive_by_tidx.ctypes.data,
                broken.ctypes.data,
                touched.ctypes.data,
                index._et_indptr.ctypes.data,
                index._et_tidx.ctypes.data,
                0,
                0,
                -1,  # global heap not built
                0,
                0,
                0,
                0,
                n_targets,
            ],
            dtype=NP_LONG,
        )
        self._ctx_mv = memoryview(self._ctx)
        self._ctx_ptr = self._ctx.ctypes.data

    def prepare_heaps(self, constant: int) -> None:
        """Build the heaps the greedy selections read, ahead of the first query.

        On the native kernel this builds the global max-gain heap and the
        pair heap of every target for the MLBT constant ``constant`` (one C
        call each).  A state prepared this way is what a session keeps as
        its pristine prototype, so every :meth:`copy` starts with warm
        heaps: a memcpy instead of a rebuild per query.  Heap keys are
        stale upper bounds, so warm heaps validate to exactly the tops
        freshly built ones would.  The numpy kernel keeps building its
        heaps lazily; there this is a no-op.
        """
        if self._native is not None:
            self._ensure_heap_native()
            self._ensure_arena_native(constant - 1)

    def _ensure_heaps_buffer_native(self) -> None:
        """Allocate the heap buffer and point the context into it.

        Buffer layout: global heap keys and ids (one slot per candidate
        edge), pair arena keys and ids (one slot per counter-matrix
        entry), then the arena's per-target sizes.
        """
        if self._heaps is not None:
            return
        index = self._index
        self._heaps = np.empty(
            2 * len(index._candidate_id_array)
            + 2 * len(index._et_tidx)
            + len(index._targets),
            dtype=NP_LONG,
        )
        self._bind_heaps_native()

    def _bind_heaps_native(self) -> None:
        """Write the heap buffer's and the index layout's addresses into the
        context."""
        index = self._index
        candidates = len(index._candidate_id_array)
        entries = len(index._et_tidx)
        item = NP_LONG.itemsize
        base = self._heaps.ctypes.data
        layout = index._pair_layout.ctypes.data
        ctx = self._ctx_mv
        ctx[_CTX_HEAP_KEYS] = base
        ctx[_CTX_HEAP_KEYS + 1] = base + item * candidates
        ctx[_CTX_ARENA_KEYS] = base + item * 2 * candidates
        ctx[_CTX_ARENA_KEYS + 1] = base + item * (2 * candidates + entries)
        ctx[_CTX_ARENA_OFFSETS] = layout
        ctx[_CTX_ARENA_OFFSETS + 1] = base + item * (2 * candidates + 2 * entries)

    def _ensure_heap_native(self) -> None:
        """Build the global max-gain heap unless it already exists."""
        if self._ctx_mv[_CTX_HEAP_SIZE] >= 0:
            return
        self._ensure_heaps_buffer_native()
        candidates = self._index._candidate_id_array
        self._native.heap_build(
            self._ctx_ptr, candidates.ctypes.data, len(candidates)
        )

    def _ensure_arena_native(self, weight: int) -> None:
        """Key the pair arena to ``weight`` = C - 1: unless it already is,
        build every target's pair heap in one pass over the counter
        matrix."""
        if self._arena_weight == weight:
            return
        self._ensure_heaps_buffer_native()
        candidates = self._index._candidate_id_array
        self._native.pair_arena_build(
            self._ctx_ptr, weight, candidates.ctypes.data, len(candidates)
        )
        self._arena_weight = weight

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def index(self) -> "TargetSubgraphIndex":
        """The immutable index this state is layered on."""
        return self._index

    @property
    def kernel(self) -> str:
        """The resolved hot-loop kernel: ``"native"`` or ``"numpy"``."""
        return self._kernel

    @property
    def deleted_edges(self) -> Tuple[Edge, ...]:
        """Edges deleted so far, in deletion order."""
        return tuple(self._deleted_edges)

    def total_similarity(self) -> int:
        """Return the current ``s(P, T)`` (alive instances)."""
        return self._alive_total

    def similarity_of(self, target: Edge) -> int:
        """Return the current ``s(P, t)`` for ``target``."""
        return int(self._alive_by_tidx[self._index._target_position(target)])

    def similarity_by_target(self) -> Dict[Edge, int]:
        """Return the current per-target similarities."""
        by_tidx = self._alive_by_tidx.tolist()
        return {
            target: by_tidx[position]
            for position, target in enumerate(self._index.targets)
        }

    def is_fully_protected(self) -> bool:
        """Return whether every target subgraph has been broken."""
        return self._alive_total == 0

    def gain(self, edge: Edge) -> int:
        """Return how many alive instances deleting ``edge`` would break.

        O(1): reads the incrementally maintained live-gain counter.
        """
        edge_id = self._index._indexed.find_edge_id(*edge)
        if edge_id is None:
            return 0
        return self._gain_mv[edge_id]

    def gain_by_target(self, edge: Edge) -> Dict[Edge, int]:
        """Return per-target counts of alive instances ``edge`` would break.

        O(#targets touching the edge): one row of the per-(edge, target)
        counter matrix, no instance rescan.  Targets are listed in target
        index (problem) order, matching the other engines.
        """
        edge_id = self._index._indexed.find_edge_id(*edge)
        if edge_id is None or self._gain[edge_id] == 0:
            return {}
        index = self._index
        targets = index.targets
        start, stop = index._et_indptr[edge_id], index._et_indptr[edge_id + 1]
        row_tidx = index._et_tidx[start:stop].tolist()
        row_count = self._et_count[start:stop].tolist()
        return {
            targets[tidx]: count
            for tidx, count in zip(row_tidx, row_count)
            if count > 0
        }

    def gain_for_target(self, edge: Edge, target: Edge) -> int:
        """Return alive instances of ``target`` that deleting ``edge`` breaks.

        O(#targets touching the edge): a counter-matrix row scan.
        """
        edge_id = self._index._indexed.find_edge_id(*edge)
        if edge_id is None or self._gain[edge_id] == 0:
            return 0
        return self._own_gain(edge_id, self._index._target_position(target))

    def _own_gain(self, edge_id: int, tidx: int) -> int:
        """Return the live (edge, target) counter; rows are tidx-ascending."""
        index = self._index
        et_tidx = index._et_tidx_l
        indptr = index._et_indptr_l
        for slot in range(indptr[edge_id], indptr[edge_id + 1]):
            entry = et_tidx[slot]
            if entry == tidx:
                return self._et_count_mv[slot]
            if entry > tidx:
                break
        return 0

    def candidate_edges(self) -> Set[Edge]:
        """Return undeleted edges that still break at least one alive instance.

        O(|candidate edges|): a deleted or dead edge has a zero counter, so no
        per-edge instance rescan is needed.
        """
        edge_at = self._index._indexed.edge_at
        return {edge_at(edge_id) for edge_id in self._live_candidate_ids()}

    def candidate_edge_list(self) -> List[Edge]:
        """Return the live candidates in deterministic ``edge_sort_key`` order."""
        edge_at = self._index._indexed.edge_at
        return [edge_at(edge_id) for edge_id in self._live_candidate_ids()]

    def _live_candidate_ids(self) -> List[int]:
        """Candidate edge ids with a positive live gain, ascending (one gather)."""
        index = self._index
        candidates = index._candidate_id_array
        return candidates[self._gain[candidates] > 0].tolist()

    def iter_positive_gains(self) -> Iterator[Tuple[Edge, int]]:
        """Yield ``(edge, live gain)`` for every live candidate, in
        deterministic ``edge_sort_key`` order.

        Mirrors the generic engine sweep exactly: the candidate list is
        snapshotted before the first yield, but each gain is read live and
        candidates that died mid-iteration are skipped — so callers that
        delete edges while iterating observe the same sequence on every
        engine.
        """
        edge_at = self._index._indexed.edge_at
        gain = self._gain_mv
        snapshot = self._live_candidate_ids()
        for edge_id in snapshot:
            value = gain[edge_id]
            if value > 0:
                yield edge_at(edge_id), value

    def gains_for_target(self, target: Edge) -> Dict[Edge, int]:
        """Return ``{edge: alive instances of target it breaks}`` for every
        edge with a positive own-gain for ``target``.

        One pass over the target's alive instances — the within-target greedy
        uses this instead of probing every graph edge.  Keys are emitted in
        deterministic ``edge_sort_key`` order.
        """
        index = self._index
        counts = self._own_gains_by_edge_id(index._target_position(target))
        edge_at = index._indexed.edge_at
        return {edge_at(edge_id): count for edge_id, count in sorted(counts.items())}

    def _own_gains_by_edge_id(self, tidx: int) -> Dict[int, int]:
        """One pass over a target's alive instances: ``{edge id: own gain}``
        with keys ascending (the counting sort yields them sorted)."""
        index = self._index
        start, end = index._target_ranges[tidx]
        live = np.flatnonzero(self._alive[start:end])
        if not len(live):
            return {}
        live += start
        starts = index._inst_indptr[live]
        arities = index._inst_indptr[live + 1] - starts
        positive = arities > 0  # zero-arity instances have no memberships
        positions = _flat_ranges(starts[positive], arities[positive])
        if not len(positions):
            return {}
        edge_ids, counts = np.unique(
            index._inst_edge_ids[positions], return_counts=True
        )
        return dict(zip(edge_ids.tolist(), counts.tolist()))

    def best_scored_pair(
        self, targets: Sequence[Edge], constant: int
    ) -> Optional[Tuple[int, Edge, Edge]]:
        """Return ``(key, target, edge)`` maximising the MLBT score over the
        given targets and the live candidate edges, or ``None`` if no pair
        has a positive own-gain.

        The integer key is ``own * (constant - 1) + total``; dividing by
        ``constant`` gives the paper's ``Δ_t^p = own + (total - own) / C``,
        so maximising the key maximises the score with exact integer
        arithmetic.  Ties break toward the smallest edge id (== smallest
        ``edge_sort_key``) and then toward the earliest target in
        ``targets`` — identical to a deterministic edge-major sweep over
        ``gain_by_target`` rows.

        Amortised sublinear in the candidate count: each queried target
        keeps a lazy max-heap of stale keys over its own-gain edges (sound
        because own-gains and totals only ever decrease, so a stale key is
        an upper bound), and a query validates heap tops only.  Both
        kernels validate through the same algorithm; the native one runs
        it in C over flat (key, id) arrays.
        """
        if self._native is not None:
            return self._best_scored_pair_native(targets, constant - 1)
        if constant != self._pair_constant:
            self._pair_heaps = {}
            self._pair_constant = constant
        index = self._index
        best: Optional[Tuple[int, int, Edge]] = None  # (key, edge_id, target)
        for target in targets:
            tidx = index._target_position(target)
            top = self._pair_heap_top(tidx, constant)
            if top is None:
                continue
            key, edge_id = top
            if best is None or key > best[0] or (key == best[0] and edge_id < best[1]):
                best = (key, edge_id, target)
        if best is None:
            return None
        edge = index._indexed.edge_at(best[1])
        self._edge_id_memo = (edge, best[1])
        return best[0], best[2], edge

    def _pair_heap_top(self, tidx: int, constant: int) -> Optional[Tuple[int, int]]:
        """Return the validated ``(key, edge id)`` top of one target's heap."""
        heap = self._pair_heaps.get(tidx)
        weight = constant - 1
        gain = self._gain
        if heap is None:
            own_gains = self._own_gains_by_edge_id(tidx)  # keys ascending
            if own_gains:
                edge_ids = np.fromiter(
                    own_gains.keys(), dtype=NP_LONG, count=len(own_gains)
                )
                totals = gain[edge_ids].tolist()
            else:
                totals = []
            heap = [
                (-(own * weight + total), edge_id)
                for (edge_id, own), total in zip(own_gains.items(), totals)
            ]
            heapq.heapify(heap)
            self._pair_heaps[tidx] = heap
        gain_mv = self._gain_mv
        while heap:
            negative, edge_id = heap[0]
            own = self._own_gain(edge_id, tidx)
            if own <= 0:
                heapq.heappop(heap)
                continue
            key = own * weight + gain_mv[edge_id]
            if -negative == key:
                return key, edge_id
            heapq.heapreplace(heap, (-key, edge_id))
        return None

    def _best_scored_pair_native(
        self, targets: Sequence[Edge], weight: int
    ) -> Optional[Tuple[int, Edge, Edge]]:
        """Native twin of the pair sweep: every queried heap is validated and
        the cross-target arg-max selected in a single C call."""
        self._ensure_arena_native(weight)
        index = self._index
        position = index._target_position
        if len(targets) <= len(self._query_mv):
            query = self._query_mv
            for slot, target in enumerate(targets):
                query[slot] = position(target)
            query_ptr = self._query_ptr
        else:  # duplicated query targets
            tidxs = np.fromiter(
                (position(target) for target in targets), dtype=NP_LONG
            )
            query_ptr = tidxs.ctypes.data
        found = self._native.pair_validate_many(
            self._ctx_ptr, query_ptr, len(targets), weight, self._out_ptr
        )
        if found < 0:
            return None
        out = self._out_mv
        edge_id = out[1]
        edge = index._indexed.edge_at(edge_id)
        self._edge_id_memo = (edge, edge_id)
        return out[0], targets[found], edge

    def top_gain_edge(self) -> Optional[Tuple[Edge, int]]:
        """Return the ``(edge, gain)`` with maximal live gain, or ``None``.

        Ties break toward the smallest ``edge_sort_key`` (identical to the
        full-scan ``argmax_edge`` the plain greedy uses).  Amortised O(log m):
        the max-heap is repaired lazily, which is sound because live gains
        only ever decrease.
        """
        if self._native is not None:
            return self._top_gain_edge_native()
        heap = self._heap
        if heap is None:
            candidates = self._index._candidate_id_array
            gains = self._gain[candidates]
            mask = gains > 0
            heap = [
                (-value, edge_id)
                for value, edge_id in zip(
                    gains[mask].tolist(), candidates[mask].tolist()
                )
            ]
            heapq.heapify(heap)
            self._heap = heap
        gain = self._gain_mv
        while heap:
            negative, edge_id = heap[0]
            current = gain[edge_id]
            if current <= 0:
                heapq.heappop(heap)
            elif -negative != current:
                heapq.heapreplace(heap, (-current, edge_id))
            else:
                edge = self._index._indexed.edge_at(edge_id)
                self._edge_id_memo = (edge, edge_id)
                return edge, current
        return None

    def _top_gain_edge_native(self) -> Optional[Tuple[Edge, int]]:
        """Native twin of the numpy :meth:`top_gain_edge` validation loop."""
        self._ensure_heap_native()
        edge_id = self._native.top_validate(self._ctx_ptr, self._out_ptr)
        if edge_id < 0:
            return None
        edge = self._index._indexed.edge_at(edge_id)
        self._edge_id_memo = (edge, edge_id)
        return edge, self._out_mv[1]

    def top_gain_edges(self, k: int) -> List[Tuple[Edge, int]]:
        """Return up to ``k`` distinct edges with the highest live gains.

        Ordered by descending gain, ties toward the smallest
        ``edge_sort_key``.  Note the gains are *individual* live gains; they
        overlap, so this is a candidate shortlist, not a batch selection.
        """
        if k <= 0:
            return []
        if self._native is not None:
            return self._top_gain_edges_native(k)
        popped: List[Tuple[int, int]] = []
        result: List[Tuple[Edge, int]] = []
        # force heap construction via top_gain_edge, which also repairs the top
        while len(result) < k and self.top_gain_edge() is not None:
            entry = heapq.heappop(self._heap)  # validated by top_gain_edge
            popped.append(entry)
            result.append((self._index._indexed.edge_at(entry[1]), -entry[0]))
        for entry in popped:
            heapq.heappush(self._heap, entry)
        return result

    def _top_gain_edges_native(self, k: int) -> List[Tuple[Edge, int]]:
        """Native twin of :meth:`top_gain_edges`: one C call pops the ``k``
        validated tops and pushes them back, so the heap keeps its
        contents as a multiset and the next validated pop sequence is
        unchanged."""
        self._ensure_heap_native()
        out = np.empty(2 * k, dtype=NP_LONG)
        found = self._native.top_many(
            self._ctx_ptr, k, out.ctypes.data, out[k:].ctypes.data
        )
        edge_at = self._index._indexed.edge_at
        return [
            (edge_at(edge_id), value)
            for edge_id, value in zip(out[:found].tolist(), out[k : k + found].tolist())
        ]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def delete_edge(self, edge: Edge) -> Dict[Edge, int]:
        """Delete ``edge`` and return the per-target counts of broken instances.

        Deleting an edge that touches no alive instance is allowed and
        returns an empty mapping (the greedy algorithms stop before doing
        this, but baselines such as RD routinely delete useless edges).

        Cost is proportional to the killed instances times their arity — the
        sibling-edge counters are decremented here (one compiled walk on the
        native kernel; one vectorised gather + scatter-add, or an
        element-wise walk for small rows, on the numpy kernel) so all later
        gain queries stay O(1).
        """
        index = self._index
        memo = self._edge_id_memo
        if memo is not None and memo[0] == edge:
            edge_id: Optional[int] = memo[1]  # memo edges are canonical
        else:
            edge = canonical_edge(*edge)
            edge_id = index._indexed.find_edge_id(*edge)
        self._deleted_edges.append(edge)
        if edge_id is None or self._gain_mv[edge_id] == 0:
            return {}
        if self._native is not None:
            return self._delete_edge_native(edge_id)
        start = index._edge_indptr[edge_id]
        stop = index._edge_indptr[edge_id + 1]
        if stop - start <= _SCALAR_KILL_THRESHOLD:
            return self._delete_scalar(edge_id, start, stop)
        alive = self._alive
        row = index._edge_inst_ids[start:stop]
        killed = row[alive[row] != 0]
        if not len(killed):
            return {}
        alive[killed] = 0
        self._alive_total -= len(killed)
        broken = np.bincount(
            index._inst_target_idx[killed], minlength=len(index._targets)
        )
        self._alive_by_tidx -= broken
        # decrement every sibling edge of every killed instance (including
        # the deleted edge itself, whose counters reach exactly zero): both
        # the per-edge total and the (edge, target) matrix entry
        starts = index._inst_indptr[killed]
        arities = index._inst_indptr[killed + 1] - starts
        positions = _flat_ranges(starts, arities)
        np.subtract.at(self._gain, index._inst_edge_ids[positions], 1)
        np.subtract.at(self._et_count, index._inst_slot[positions], 1)
        targets = index.targets
        return {
            targets[tidx]: int(broken[tidx])
            for tidx in np.flatnonzero(broken).tolist()
        }

    def _delete_edge_native(self, edge_id: int) -> Dict[Edge, int]:
        """Compiled kill walk: one C call over the cached buffer pointers.

        The per-target broken counts come back through the scratch array
        and the list of touched target indices (ascending, so the mapping
        matches both numpy paths); the touched entries are re-zeroed on
        the way out, which is the all-zero invariant the C walk relies on
        instead of clearing ``n_targets`` slots per call.
        """
        killed = self._native.kill_instances(self._ctx_ptr, edge_id)
        if not killed:
            return {}
        self._alive_total -= killed
        broken = self._broken_mv
        touched = self._touched_mv
        targets = self._index.targets
        result: Dict[Edge, int] = {}
        for i in range(1, touched[0] + 1):
            tidx = touched[i]
            result[targets[tidx]] = broken[tidx]
            broken[tidx] = 0
        return result

    def _delete_scalar(self, edge_id: int, start: int, stop: int) -> Dict[Edge, int]:
        """Element-wise kill walk for edges in few instances.

        Identical bookkeeping to the vectorised path; for a handful of
        memberships the fixed cost of the numpy gathers outweighs the loop,
        and the greedy endgame (and CT's per-target deletions) is dominated
        by exactly such small kills.
        """
        index = self._index
        alive = self._alive_mv
        gain = self._gain_mv
        et_count = self._et_count_mv
        alive_by_tidx = self._alive_by_tidx_mv
        inst_ids = index._edge_inst_ids[start:stop].tolist()
        inst_indptr = index._inst_indptr
        broken_by_tidx: Dict[int, int] = {}
        for instance_id in inst_ids:
            if not alive[instance_id]:
                continue
            alive[instance_id] = 0
            tidx = int(index._inst_target_idx[instance_id])
            broken_by_tidx[tidx] = broken_by_tidx.get(tidx, 0) + 1
            alive_by_tidx[tidx] -= 1
            self._alive_total -= 1
            lo = inst_indptr[instance_id]
            hi = inst_indptr[instance_id + 1]
            for sibling in index._inst_edge_ids[lo:hi].tolist():
                gain[sibling] -= 1
            for slot in index._inst_slot[lo:hi].tolist():
                et_count[slot] -= 1
        targets = index.targets
        return {
            targets[tidx]: count for tidx, count in sorted(broken_by_tidx.items())
        }

    def delete_edges(self, edges: Iterable[Edge]) -> Dict[Edge, int]:
        """Delete several edges; return aggregated per-target broken counts."""
        total: Dict[Edge, int] = {}
        for edge in edges:
            for target, count in self.delete_edge(edge).items():
                total[target] = total.get(target, 0) + count
        return total

    def kill_sequence(self, edges: Iterable[Edge]) -> List[int]:
        """Delete ``edges`` in order; return how many instances each killed.

        The batched form of :meth:`delete_edge` for callers that only need
        the similarity trace (``s`` drops by exactly these counts): a
        replayed protector sequence, SGB+BB's commit (the random baselines
        use :meth:`kill_id_sequence`).  Edges outside the graph are
        recorded and kill nothing.  The native kernel runs the whole
        sequence in one C call.
        """
        edges = [canonical_edge(*edge) for edge in edges]
        if self._native is not None:
            return self._kill_sequence_native(edges)
        killed: List[int] = []
        for edge in edges:
            before = self._alive_total
            self.delete_edge(edge)
            killed.append(before - self._alive_total)
        return killed

    def _kill_sequence_native(self, edges: List[Edge]) -> List[int]:
        find_edge_id = self._index._indexed.find_edge_id
        ids = np.empty(len(edges), dtype=NP_LONG)
        for position, edge in enumerate(edges):
            edge_id = find_edge_id(*edge)
            ids[position] = -1 if edge_id is None else edge_id
        return self._kill_ids_native(ids, edges)

    def _kill_ids_native(self, ids: np.ndarray, edges: List[Edge]) -> List[int]:
        """One ``repro_kill_many`` call over the contiguous ``NP_LONG``
        ``ids`` (the ids of ``edges``, -1 for an edge outside the graph)."""
        killed = np.empty(len(ids), dtype=NP_LONG)
        self._alive_total -= self._native.kill_many(
            self._ctx_ptr, ids.ctypes.data, len(ids), killed.ctypes.data
        )
        self._deleted_edges.extend(edges)
        return killed.tolist()

    def kill_id_sequence(self, edge_ids: np.ndarray) -> Tuple[List[Edge], List[int]]:
        """:meth:`kill_sequence` by dense edge id: delete the edges
        ``edge_ids`` (an ``NP_LONG`` array of ids of this state's graph)
        names, in order; return the edges and how many instances each
        killed.  The native kernel walks the ids as given, with no edge
        lookup per entry (the random baselines' shuffled id prefix)."""
        indexed = self._index._indexed
        if len(edge_ids) and not (
            0 <= edge_ids.min() and edge_ids.max() < indexed.number_of_edges()
        ):
            raise IndexError("edge id out of range for this state's graph")
        edge_at = indexed.edge_at
        edges = [edge_at(edge_id) for edge_id in edge_ids.tolist()]
        if self._native is not None:
            ids = np.ascontiguousarray(edge_ids, dtype=NP_LONG)
            return edges, self._kill_ids_native(ids, edges)
        return edges, self.kill_sequence(edges)

    # ------------------------------------------------------------------
    # whole-selection drivers (native kernel only)
    # ------------------------------------------------------------------
    @property
    def has_drivers(self) -> bool:
        """Whether :meth:`drive_top_gain` / :meth:`drive_scored_pairs` are
        available: they run a whole greedy selection in one native call,
        so only the native kernel has them.  The greedy runners fall back
        to their own Python loops (the numpy path) otherwise."""
        return self._native is not None

    def drive_top_gain(self, budget: int) -> Tuple[List[Edge], List[int]]:
        """Run SGB-Greedy's selection: up to ``budget`` times, delete the
        maximum-gain edge (ties toward the smallest ``edge_sort_key``).

        Returns the deleted edges and the instances each one killed; the
        selection stops early once no edge breaks an alive instance.
        Exactly the sequence a :meth:`top_gain_edge` / :meth:`delete_edge`
        loop produces, in one native call.

        Raises
        ------
        NativeKernelError
            If this state runs the numpy kernel (see :attr:`has_drivers`).
        """
        if self._native is not None:
            return self._drive_top_gain_native(budget)
        raise NativeKernelError("drive_top_gain needs the native kernel")

    def _drive_top_gain_native(self, budget: int) -> Tuple[List[Edge], List[int]]:
        self._ensure_heap_native()
        # every deletion kills >= 1 alive instance, which bounds the picks
        cap = max(0, min(budget, self._alive_total))
        out = np.empty(2 * cap, dtype=NP_LONG)
        picks = self._native.sgb_drive(
            self._ctx_ptr, cap, out.ctypes.data, out[cap:].ctypes.data
        )
        killed = out[cap : cap + picks].tolist()
        return self._record_picks(out[:picks].tolist(), killed), killed

    def drive_scored_pairs(
        self,
        budget: int,
        constant: int,
        targets: Sequence[Edge],
        quotas: Mapping[Edge, int],
        within: bool,
    ) -> Tuple[List[Edge], List[Edge], List[int]]:
        """Run a CT-Greedy (``within=False``) or WT-Greedy (``within=True``)
        selection under the per-target sub-budgets ``quotas``.

        Pairs are scored with the integer MLBT key of
        :meth:`best_scored_pair` for ``constant``.  Across targets,
        ``targets`` is the problem's target order; each step deletes the
        best pair's edge over every target with sub-budget left, charged to
        that target, and when no such target has an own-gain edge the
        maximum-gain edge is charged to the target with the most
        sub-budget left (ties toward the smallest ``edge_sort_key``).
        Within targets, ``targets`` is the processing order: each target
        deletes its own best pairs until its sub-budget is spent or it has
        none left.  At most ``budget`` deletions happen in total.

        Returns the deleted edges, the target each was charged to and the
        instances each killed — exactly what the runners' Python loops
        over :meth:`best_scored_pair` produce, in one native call.

        Raises
        ------
        NativeKernelError
            If this state runs the numpy kernel (see :attr:`has_drivers`).
        """
        if self._native is not None:
            return self._drive_scored_pairs_native(
                budget, constant - 1, targets, quotas, within
            )
        raise NativeKernelError("drive_scored_pairs needs the native kernel")

    def _drive_scored_pairs_native(
        self,
        budget: int,
        weight: int,
        targets: Sequence[Edge],
        quotas: Mapping[Edge, int],
        within: bool,
    ) -> Tuple[List[Edge], List[Edge], List[int]]:
        index = self._index
        position = index._target_position
        n_targets = len(index._targets)
        order = np.fromiter(
            (position(target) for target in targets), dtype=NP_LONG, count=len(targets)
        )
        # quota (per target index), used counters, then the three outputs
        cap = max(0, min(budget, self._alive_total))
        work = np.zeros(2 * n_targets + 3 * cap, dtype=NP_LONG)
        for tidx, target in zip(order.tolist(), targets):
            work[tidx] = quotas.get(target, 0)
        self._ensure_arena_native(weight)
        rank = None
        if not within:
            self._ensure_heap_native()
            rank = index._pair_layout[n_targets + 1 :].ctypes.data
        outputs = 2 * n_targets
        picks = self._native.pair_drive(
            self._ctx_ptr,
            weight,
            cap,
            int(within),
            order.ctypes.data,
            len(order),
            work.ctypes.data,
            rank,
            work[n_targets:].ctypes.data,
            work[outputs:].ctypes.data,
            work[outputs + cap :].ctypes.data,
            work[outputs + 2 * cap :].ctypes.data,
        )
        ids = work[outputs : outputs + picks].tolist()
        charged = work[outputs + cap : outputs + cap + picks].tolist()
        killed = work[outputs + 2 * cap : outputs + 2 * cap + picks].tolist()
        targets_by_tidx = index.targets
        return (
            self._record_picks(ids, killed),
            [targets_by_tidx[tidx] for tidx in charged],
            killed,
        )

    def _record_picks(self, edge_ids: List[int], killed: List[int]) -> List[Edge]:
        """Log a driver's deletions; return them as edges."""
        edge_at = self._index._indexed.edge_at
        edges = [edge_at(edge_id) for edge_id in edge_ids]
        self._deleted_edges.extend(edges)
        self._alive_total -= sum(killed)
        return edges

    def copy(self) -> "CoverageState":
        """Return an independent copy of this state (same underlying index).

        Heaps are copied too (stale entries are safe: gains only decrease
        and pops re-validate), so a copy of a :meth:`prepare_heaps`'d
        prototype starts warm.
        """
        clone = CoverageState.__new__(CoverageState)
        clone._index = self._index
        clone._alive = self._alive.copy()
        clone._alive_total = self._alive_total
        clone._alive_by_tidx = self._alive_by_tidx.copy()
        clone._gain = self._gain.copy()
        clone._et_count = self._et_count.copy()
        clone._deleted_edges = list(self._deleted_edges)
        clone._heap = list(self._heap) if self._heap is not None else None
        clone._pair_heaps = {
            tidx: list(heap) for tidx, heap in self._pair_heaps.items()
        }
        clone._pair_constant = self._pair_constant
        clone._kernel = self._kernel
        clone._init_runtime()
        if clone._native is not None and self._heaps is not None:
            clone._heaps = self._heaps.copy()
            clone._bind_heaps_native()
            clone._ctx[_CTX_HEAP_SIZE] = self._ctx[_CTX_HEAP_SIZE]
            clone._arena_weight = self._arena_weight
        return clone

    # the process-local runtime (memoryviews, ctypes handle, packed
    # context, native heaps) does not pickle; __setstate__ rebuilds it.
    # Native heaps are pure derived caches — the states on the other side
    # lazily rebuild them to the same validated tops.
    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        for attr in _RUNTIME_ATTRS:
            state.pop(attr, None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        # a native-backed state may land in a process without a compiler or
        # prebuilt artifact; _init_runtime degrades it to the numpy kernel
        self._init_runtime()
