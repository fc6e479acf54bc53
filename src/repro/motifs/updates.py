"""Incremental index maintenance: apply edge deltas in O(touched motifs).

The protection pipeline assumes a frozen phase-1 graph — but real graphs
move.  Rebuilding a :class:`~repro.motifs.enumeration.TargetSubgraphIndex`
from scratch for a handful of changed edges re-enumerates every target,
which is exactly the cost the index exists to amortise.  This module
applies an ordered batch of edge insertions/deletions (:class:`EdgeDelta`)
to a built index and produces a **new index that is bit-identical to a
from-scratch rebuild on the updated graph** — same
:data:`~repro.motifs.enumeration.INDEX_ARRAY_FIELDS` bytes, same CSR, same
greedy traces — while enumerating only the motif instances that can have
changed.

How a delta is applied
----------------------

1. **Validate + net effect.**  Operations are replayed in order against the
   current edge set (inserting an existing edge, deleting an absent one, a
   self-loop or inserting a hidden target link raise
   :class:`~repro.exceptions.DeltaError`).  Only the *net* effect matters
   for the result — an insert-then-delete round trip is a no-op.
2. **Graph splice.**  The :class:`~repro.graphs.indexed.IndexedGraph` CSR
   is spliced, not rebuilt: node ids stay monotone when new labels merge
   into the ``str``-sorted table and edge ids stay monotone across
   deletions/insertions, so one merge pass per table places every row
   without a global re-sort.  With the native kernel loaded the merge is
   one ``repro_splice_graph`` call that writes the edge-id map, the
   endpoint pairs and the CSR straight into the new graph's storage; the
   numpy splice (``searchsorted`` plus slice concatenation) is its
   fallback and differential oracle.  The splice returns the old-to-new
   edge-id map that drives the index splice.
3. **Destroyed instances** are read straight off the inverse
   ``edge -> instances`` CSR of the deleted edge ids — no enumeration.
4. **Created instances** can only contain an inserted edge.  Every node of
   an instance of target ``(u, v)`` lies within the motif's
   :attr:`~repro.motifs.base.MotifPattern.delta_radius` hops of ``u`` or
   ``v``, so only targets with an endpoint inside the radius ball around
   the inserted edges can gain instances — those targets are re-enumerated
   together, in one call of the same walk dispatcher the build uses (the
   native kernel's walk for the paper's motifs, else the per-motif CSR
   walk :meth:`~repro.motifs.base.MotifPattern.enumerate_instance_edge_ids`,
   with the same canonicalised tuple fallback for custom motifs).  A motif
   without a declared radius falls back to re-enumerating every target on
   inserts (deletions stay incremental regardless).
5. **Splice + reassemble.**  Surviving instance rows keep their relative
   order (the edge-id remap is monotone, and both the built-in CSR walks
   and the canonical custom order are order-preserving under monotone id
   maps), so each target's block is either a remapped slice of the old
   membership buffer or a freshly enumerated one.  Only the touched
   targets are visited; each run of untouched targets between them is one
   remapped slice.  The concatenated buffers feed the exact assembly
   passes of a fresh build, which is what makes bit-identity hold by
   construction rather than by luck.  A delta never changes the targets
   or their order, so the new index takes the target positions and their
   ``edge_sort_key`` ranks from the parent index instead of re-deriving
   them, and the native assembly emits the candidate edge ids in its own
   pass.

The differential tests (``tests/property/test_index_update_equivalence.py``)
pin every delta path byte-identical against a from-scratch rebuild, across
the built-in motifs and a custom tuple-only motif, with the naive
``RecountEngine`` kept in the loop as the executable reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import DeltaError
from repro.graphs.graph import Edge, canonical_edge
from repro.graphs.indexed import NP_LONG, IndexedGraph
from repro.motifs.enumeration import (
    TargetSubgraphIndex,
    _enumerate_buffers,
    _flat_ranges,
)

__all__ = ["EdgeDelta", "DeltaOutcome", "apply_delta"]

#: Recognised operation verbs, in the order they read in a delta file.
DELTA_OPS = ("insert", "delete")


@dataclass(frozen=True)
class EdgeDelta:
    """An ordered batch of edge insertions and deletions.

    Operations are ``("insert" | "delete", edge)`` pairs, applied in order:
    a later operation sees the effect of every earlier one, so inserting an
    edge and deleting it again inside one batch is legal (and a net no-op).
    Edges are canonicalised on construction; self-loops are rejected.
    """

    operations: Tuple[Tuple[str, Edge], ...]

    def __post_init__(self) -> None:
        canonical_ops: List[Tuple[str, Edge]] = []
        for item in self.operations:
            try:
                op, (u, v) = item
            except (TypeError, ValueError):
                raise DeltaError(
                    f"malformed delta operation {item!r}: expected "
                    "(op, (u, v)) pairs"
                ) from None
            if op not in DELTA_OPS:
                raise DeltaError(
                    f"unknown delta operation {op!r}; expected one of {DELTA_OPS}"
                )
            if u == v:
                raise DeltaError(f"delta contains the self-loop ({u!r}, {v!r})")
            canonical_ops.append((op, canonical_edge(u, v)))
        object.__setattr__(self, "operations", tuple(canonical_ops))

    @classmethod
    def inserting(cls, *edges: Edge) -> "EdgeDelta":
        """Return a delta inserting ``edges``, in the given order."""
        return cls(tuple(("insert", edge) for edge in edges))

    @classmethod
    def deleting(cls, *edges: Edge) -> "EdgeDelta":
        """Return a delta deleting ``edges``, in the given order."""
        return cls(tuple(("delete", edge) for edge in edges))

    @classmethod
    def from_edges(
        cls, insert: Iterable[Edge] = (), delete: Iterable[Edge] = ()
    ) -> "EdgeDelta":
        """Return a delta applying the deletions first, then the insertions.

        Deletions-first makes rewiring batches (replace edge A by edge B)
        express naturally; pass explicit ``operations`` for full control of
        the interleaving.
        """
        return cls(
            tuple(("delete", edge) for edge in delete)
            + tuple(("insert", edge) for edge in insert)
        )

    @property
    def inserted(self) -> Tuple[Edge, ...]:
        """The edges of the insert operations, in operation order."""
        return tuple(edge for op, edge in self.operations if op == "insert")

    @property
    def deleted(self) -> Tuple[Edge, ...]:
        """The edges of the delete operations, in operation order."""
        return tuple(edge for op, edge in self.operations if op == "delete")

    def __len__(self) -> int:
        return len(self.operations)

    def __add__(self, other: "EdgeDelta") -> "EdgeDelta":
        if not isinstance(other, EdgeDelta):
            return NotImplemented
        return EdgeDelta(self.operations + other.operations)


@dataclass(frozen=True)
class DeltaOutcome:
    """The result of applying one :class:`EdgeDelta` to a built index.

    Attributes
    ----------
    index:
        The **new** :class:`TargetSubgraphIndex` over the updated phase-1
        graph — bit-identical to a from-scratch rebuild.  The index the
        delta was applied to is untouched (copy-on-write: in-flight readers
        keep serving the pre-delta state).
    changed_targets:
        The targets whose instance set actually changed (gained or lost
        instances), in problem order.  This is what the service uses to
        invalidate only the affected subset sub-sessions.
    instances_removed / instances_added:
        How many motif instances the delta destroyed / created.
    edges_deleted / edges_inserted:
        The *net* edge-set change (an insert-then-delete round trip counts
        zero).
    targets_reenumerated:
        How many targets the insert walk re-enumerated (diagnostics: the
        incremental cost driver, 0 for pure deletions).
    """

    index: TargetSubgraphIndex
    changed_targets: Tuple[Edge, ...]
    instances_removed: int
    instances_added: int
    edges_deleted: int
    edges_inserted: int
    targets_reenumerated: int


def _net_effect(
    index: TargetSubgraphIndex, delta: EdgeDelta
) -> Tuple[List[int], List[Edge]]:
    """Replay the operations in order; return the net (deleted ids, inserts).

    Raises :class:`DeltaError` on any operation inconsistent with the state
    it applies to (insert of an existing edge or of a hidden target link,
    delete of an absent edge).
    """
    indexed = index.indexed_graph
    target_set = set(index.targets)
    overlay: Dict[Edge, bool] = {}
    for op, edge in delta.operations:
        present = overlay.get(edge)
        if present is None:
            present = indexed.find_edge_id(*edge) is not None
        if op == "insert":
            if edge in target_set:
                raise DeltaError(
                    f"cannot insert {edge!r}: it is a hidden target link — "
                    "targets stay removed (phase 1) while the index serves"
                )
            if present:
                raise DeltaError(
                    f"cannot insert {edge!r}: it is already an edge of the "
                    "phase-1 graph"
                )
            overlay[edge] = True
        else:
            if not present:
                raise DeltaError(
                    f"cannot delete {edge!r}: it is not an edge of the "
                    "phase-1 graph"
                )
            overlay[edge] = False
    deleted_ids: List[int] = []
    inserted: List[Edge] = []
    for edge, present in overlay.items():
        edge_id = indexed.find_edge_id(*edge)
        if present and edge_id is None:
            inserted.append(edge)
        elif not present and edge_id is not None:
            deleted_ids.append(edge_id)
    return deleted_ids, inserted


def _radius_ball(
    indexed: IndexedGraph, seeds: Iterable[int], radius: int
) -> Set[int]:
    """Node ids within ``radius`` hops of any seed (BFS over the CSR rows)."""
    indptr, neighbors, _ = indexed.csr()
    ball = set(seeds)
    frontier = set(ball)
    for _ in range(radius):
        reached: Set[int] = set()
        # reprolint: disable=R1-set-iteration(BFS frontier only unions neighbor ranges into a set; the union is order-insensitive)
        for node in frontier:
            reached.update(neighbors[indptr[node] : indptr[node + 1]])
        frontier = reached - ball
        if not frontier:
            break
        ball |= frontier
    return ball


def _targets_to_reenumerate(
    index: TargetSubgraphIndex,
    new_indexed: IndexedGraph,
    inserted: Sequence[Edge],
) -> Set[int]:
    """Target positions that may *gain* instances from the inserted edges.

    An inserted edge that lands in an instance of target ``(u, v)`` has
    *both* endpoints among the instance's nodes, and every node of an
    instance sits within the motif's ``delta_radius`` hops of ``u`` or ``v``
    along instance edges — all of which exist in the updated graph.  So the
    target can gain an instance only if **each** endpoint of some inserted
    edge has ``u`` or ``v`` inside its own radius ball (one BFS per
    inserted-edge endpoint, over the updated CSR).  Requiring both
    endpoints — not just one — is what keeps a random far-apart insertion
    from touching any target at all.  The test still overshoots (being near
    does not force a new instance), which costs a re-enumeration that
    reproduces the old block, never correctness.  Motifs without a declared
    radius re-enumerate every target.
    """
    if not inserted:
        return set()
    radius = getattr(index.motif, "delta_radius", None)
    if radius is None:
        return set(range(len(index.targets)))
    balls: Dict[int, Set[int]] = {}
    for edge in inserted:
        for x in edge:
            seed = new_indexed.node_id(x)
            if seed not in balls:
                balls[seed] = _radius_ball(new_indexed, (seed,), radius)
    node_id = new_indexed._node_id
    positions: Set[int] = set()
    for position, (u, v) in enumerate(index.targets):
        u_id = node_id.get(u)
        v_id = node_id.get(v)
        for a, b in inserted:
            ball_a = balls[node_id[a]]
            ball_b = balls[node_id[b]]
            if (u_id in ball_a or v_id in ball_a) and (
                u_id in ball_b or v_id in ball_b
            ):
                positions.add(position)
                break
    return positions


def apply_delta(index: TargetSubgraphIndex, delta: EdgeDelta) -> DeltaOutcome:
    """Apply ``delta`` to ``index``; return the outcome with the new index.

    The returned index is bit-identical — all
    :data:`~repro.motifs.enumeration.INDEX_ARRAY_FIELDS`, the counter
    matrix, the graph CSR — to ``TargetSubgraphIndex(updated_phase1_graph,
    targets, motif)``, at a cost of the array splices plus re-enumerating
    only the targets near the inserted edges.  See the module docstring for
    the algorithm.
    """
    if not isinstance(delta, EdgeDelta):
        delta = EdgeDelta(tuple(delta))
    deleted_ids, inserted = _net_effect(index, delta)
    if not deleted_ids and not inserted:
        return DeltaOutcome(
            index=index,
            changed_targets=(),
            instances_removed=0,
            instances_added=0,
            edges_deleted=0,
            edges_inserted=0,
            targets_reenumerated=0,
        )

    new_indexed, edge_id_map, _node_id_map = index.indexed_graph._apply_edge_delta(
        deleted_ids, inserted
    )

    # destroyed instances: one gather per deleted edge off the inverse CSR
    destroyed = np.zeros(index.number_of_instances(), dtype=bool)
    edge_indptr = index._edge_indptr
    edge_inst_ids = index._edge_inst_ids
    for edge_id in deleted_ids:
        destroyed[edge_inst_ids[edge_indptr[edge_id] : edge_indptr[edge_id + 1]]] = True
    n_targets = len(index.targets)
    destroyed_per_target = np.bincount(
        index._inst_target_idx[destroyed], minlength=n_targets
    )

    reenumerate = sorted(_targets_to_reenumerate(index, new_indexed, inserted))
    # the tuple fallback (and any custom id-space walk) receives a real
    # Graph view of the updated phase-1 graph, same as a fresh build would;
    # the built-in CSR walks declare needs_graph = False, sparing small
    # deltas the O(n + m) adjacency materialisation
    motif = index.motif
    targets = index.targets
    needs_graph = getattr(motif, "needs_graph", True)
    new_graph = new_indexed.to_graph() if (reenumerate and needs_graph) else None
    # every re-enumerated target in one walk; fresh_at[i] : fresh_at[i + 1]
    # spans the i-th one's memberships
    fresh_edges, fresh_arities, fresh_counts = (
        _enumerate_buffers(
            new_indexed, new_graph, motif, [targets[p] for p in reenumerate]
        )
        if reenumerate
        else ((), (), [])
    )
    fresh_edges = np.asarray(fresh_edges, dtype=NP_LONG)
    fresh_arities = np.asarray(fresh_arities, dtype=NP_LONG)
    fresh_rows = np.concatenate(([0], np.cumsum(fresh_counts, dtype=NP_LONG)))
    fresh_at = np.concatenate(([0], np.cumsum(fresh_arities, dtype=NP_LONG)))[
        fresh_rows
    ].tolist()
    fresh_rows = fresh_rows.tolist()

    old_members = index._inst_edge_ids
    remapped = edge_id_map[old_members] if len(old_members) else old_members
    old_indptr = index._inst_indptr
    old_arities = np.diff(old_indptr)
    old_counts = np.bincount(index._inst_target_idx, minlength=n_targets).tolist()

    # only the touched targets are visited; each run of untouched targets
    # between them survives as one remapped slice
    walked = dict(zip(reenumerate, range(len(reenumerate))))
    touched = sorted(set(np.flatnonzero(destroyed_per_target).tolist()) | set(walked))
    ranges = index._target_ranges
    edge_parts: List[np.ndarray] = []
    arity_parts: List[np.ndarray] = []
    counts: List[int] = []
    changed: List[Edge] = []
    instances_added = 0
    untouched_from = 0
    for position in touched + [n_targets]:
        if untouched_from < position:
            start = ranges[untouched_from][0]
            end = ranges[position - 1][1]
            edge_parts.append(remapped[old_indptr[start] : old_indptr[end]])
            arity_parts.append(old_arities[start:end])
            counts.extend(old_counts[untouched_from:position])
        untouched_from = position + 1
        if position == n_targets:
            break
        start, end = ranges[position]
        n_destroyed = int(destroyed_per_target[position])
        slot = walked.get(position)
        if slot is not None:
            lo, hi = fresh_rows[slot], fresh_rows[slot + 1]
            edge_parts.append(fresh_edges[fresh_at[slot] : fresh_at[slot + 1]])
            arity_parts.append(fresh_arities[lo:hi])
            counts.append(hi - lo)
            surviving = (end - start) - n_destroyed
            instances_added += (hi - lo) - surviving
            if n_destroyed or hi - lo != surviving:
                changed.append(targets[position])
            continue
        kept = np.flatnonzero(~destroyed[start:end]) + start
        kept_arities = old_arities[kept]
        positive = kept_arities > 0
        if positive.any():
            positions = _flat_ranges(
                old_indptr[kept[positive]], kept_arities[positive]
            )
            edge_parts.append(remapped[positions])
        arity_parts.append(kept_arities)
        counts.append(len(kept))
        changed.append(targets[position])

    edge_buffer = (
        np.concatenate(edge_parts) if edge_parts else np.empty(0, dtype=NP_LONG)
    )
    arity_buffer = (
        np.concatenate(arity_parts) if arity_parts else np.empty(0, dtype=NP_LONG)
    )
    new_index = TargetSubgraphIndex._from_buffers(
        new_indexed, targets, motif, edge_buffer, arity_buffer, counts, parent=index
    )
    return DeltaOutcome(
        index=new_index,
        changed_targets=tuple(changed),
        instances_removed=int(destroyed.sum()),
        instances_added=instances_added,
        edges_deleted=len(deleted_ids),
        edges_inserted=len(inserted),
        targets_reenumerated=len(reenumerate),
    )
