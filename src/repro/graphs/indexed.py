"""Dense integer-indexed view of a :class:`~repro.graphs.graph.Graph`.

The coverage kernel (see :mod:`repro.motifs.enumeration`) and other hot loops
should not hash arbitrary node/edge objects on every query.  An
:class:`IndexedGraph` freezes a graph into

* node ids ``0 .. n-1`` (assigned in deterministic ``str`` order),
* edge ids ``0 .. m-1`` (assigned in :func:`~repro.graphs.graph.edge_sort_key`
  order, i.e. sorted by the string forms of the canonical endpoints), and
* a CSR adjacency structure (``indptr`` / ``neighbors`` / ``incident_edges``)
  over those ids,

so downstream code can carry plain ``int`` handles through its inner loops and
only translate back to node/edge objects at API boundaries.  The edge-id order
is load-bearing: because it matches ``edge_sort_key``, comparing edge ids
reproduces the deterministic tie-breaking the greedy algorithms already use on
edge tuples.

The view is immutable; mutating the source graph afterwards does not affect an
already-built index.  Round-trips are provided here (:meth:`IndexedGraph.to_graph`)
and in :mod:`repro.graphs.convert` (:func:`~repro.graphs.convert.to_indexed` /
:func:`~repro.graphs.convert.from_indexed`).

Construction is vectorised: because node ids are assigned in ``str`` order
and ``edge_sort_key`` compares the ``str`` forms of the canonical endpoints,
sorting edges by their (head id, tail id) pairs with ``np.lexsort``
reproduces the ``edge_sort_key`` order exactly, and the whole CSR adjacency
falls out of one more lexsort over the doubled endpoint arrays — no
per-node neighbor sort, no per-position dict lookup.  The seed's pure-Python
loop lives on in ``tests/graphs/test_indexed.py`` as the reference the
vectorised assembly is pinned to, byte for byte.

A graph update does not rebuild: :meth:`IndexedGraph._apply_edge_delta`
splices a batch of edge deletions and insertions into the sorted storage,
byte-identical to a fresh build of the updated graph.  With the native
kernel loaded it is one ``repro_splice_graph`` call that writes the new
``array("l")`` storage in place, allocated at its final sizes; the numpy
splice is the ``REPRO_NATIVE=0`` fallback and the differential oracle
(``tests/property/test_native_splice_differential.py``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro._native import NativeKernel, load_kernel
from repro.exceptions import EdgeNotFoundError, GraphError, NodeNotFoundError
from repro.graphs.graph import Edge, Graph, Node, canonical_edge

__all__ = ["IndexedGraph"]

#: numpy dtype matching ``array("l")`` (the flat-array storage everywhere).
NP_LONG = np.dtype("l")


def _as_long_array(values: np.ndarray) -> array:
    """Copy a C-long ndarray into an ``array("l")`` (one buffer memcpy)."""
    out = array("l")
    out.frombytes(memoryview(np.ascontiguousarray(values, dtype=NP_LONG)).cast("B"))
    return out


def _splice(
    old: np.ndarray, drops: Sequence[int], at: Sequence[int], rows: np.ndarray
) -> np.ndarray:
    """Return ``old`` without its rows at ``drops``, with ``rows[i]``
    inserted before old row ``at[i]``.

    Both position lists index ``old`` and are sorted ascending (equal
    ``at`` entries keep the order of ``rows``); an insertion at a dropped
    position lands where that row was.  The untouched spans are copied as
    slices, so the cost is one concatenation.
    """
    pieces = []
    cursor = 0
    i = j = 0
    while i < len(at) or j < len(drops):
        if j == len(drops) or (i < len(at) and at[i] <= drops[j]):
            pieces.append(old[cursor : at[i]])
            pieces.append(rows[i : i + 1])
            cursor = at[i]
            i += 1
        else:
            pieces.append(old[cursor : drops[j]])
            cursor = drops[j] + 1
            j += 1
    pieces.append(old[cursor:])
    return np.concatenate(pieces)


class IndexedGraph:
    """Immutable dense-id snapshot of an undirected simple graph.

    Parameters
    ----------
    graph:
        The graph to snapshot.  Node and edge identities are frozen at
        construction time.
    """

    __slots__ = (
        "_nodes",
        "_node_id",
        "_edges",
        "_edge_id",
        "_indptr",
        "_neighbors",
        "_incident_edges",
        # snapshot restores defer the edge-tuple table: endpoint-id pairs
        # (an (2m,) ndarray) until the first edge-object lookup needs them
        "_lazy_edge_ids",
        # flat (2m,) endpoint-id pairs in edge-id order
        "_pair_ids",
    )

    def __init__(self, graph: Graph) -> None:
        # -- node ids: deterministic str order --------------------------------
        self._nodes: Tuple[Node, ...] = tuple(sorted(graph.nodes(), key=str))
        self._node_id: Dict[Node, int] = {
            node: index for index, node in enumerate(self._nodes)
        }
        self._lazy_edge_ids: Optional[np.ndarray] = None
        self._assemble(graph)

    @classmethod
    def _restore(
        cls,
        nodes: Sequence[Node],
        edge_endpoint_ids: np.ndarray,
        indptr: array,
        neighbors: array,
        incident_edges: array,
    ) -> "IndexedGraph":
        """Rebuild an :class:`IndexedGraph` from previously frozen storage.

        This is the deserialisation hook of :mod:`repro.persistence`: the
        caller supplies the node tuple (in id order), the canonical edges as
        a flat ``(2m,)`` endpoint-id array (pairs in edge-id order, each
        pair in canonical tuple order) and the three CSR arrays exactly as
        a built snapshot stored them, and gets back an index whose arrays
        are byte-identical to the one that was saved — no sorting, no CSR
        assembly.  The edge-*object* tables (tuple list + reverse dict) are
        materialised lazily on the first lookup that needs them, keeping
        the snapshot cold-start path free of per-edge Python work.  Inputs
        are trusted to be mutually consistent; the persistence layer
        validates shapes before calling.
        """
        self = cls.__new__(cls)
        self._nodes = tuple(nodes)
        self._node_id = {node: index for index, node in enumerate(self._nodes)}
        self._edges = None
        self._edge_id = None
        # array("l") so element reads in the lazy edge_at yield plain ints
        self._lazy_edge_ids = _as_long_array(
            np.ascontiguousarray(edge_endpoint_ids, dtype=NP_LONG)
        )
        self._pair_ids = self._lazy_edge_ids
        self._indptr = indptr
        self._neighbors = neighbors
        self._incident_edges = incident_edges
        return self

    def _endpoint_id_pairs(self) -> np.ndarray:
        """Return the ``(m, 2)`` endpoint-id pairs, one row per edge id.

        Rows are in edge-id order with each pair in canonical tuple order —
        exactly the layout a snapshot stores.  A build, a restore and a
        splice all keep the flat pair array (``_pair_ids``), so this is a
        zero-copy reshape.
        """
        return np.frombuffer(self._pair_ids, dtype=NP_LONG).reshape(-1, 2)

    def _apply_edge_delta(
        self,
        deleted_edge_ids: Sequence[int],
        inserted_edges: Sequence[Edge],
    ) -> Tuple["IndexedGraph", np.ndarray, Optional[np.ndarray]]:
        """Splice a batch of edge deletions/insertions into a new snapshot.

        The result is byte-identical to ``IndexedGraph(updated_graph)`` —
        same node order, same edge-id order, same CSR rows — but built by
        merging the (tiny) delta into the existing sorted storage instead
        of re-sorting the world.  Node ids stay monotone under insertion of
        new labels, so every surviving edge and CSR entry keeps its relative
        order: a binary search per changed edge into the sorted edge pairs
        and the sorted CSR rows finds where it goes, and each new array is
        the untouched runs between those positions with the new rows
        merged in.  With the native kernel loaded, one
        ``repro_splice_graph`` call does that merge straight into the
        buffers the new snapshot keeps (:meth:`_splice_native`); otherwise
        numpy slices and concatenations do (:meth:`_splice_numpy`, also the
        native path's differential oracle).  Either way the only
        full-length passes are copies: the surviving runs, and the
        old-to-new edge-id map the incident edge ids are remapped through.

        Parameters
        ----------
        deleted_edge_ids:
            Edge ids (of *this* snapshot) to remove.
        inserted_edges:
            New canonical edge tuples to add; endpoints may be brand-new
            nodes.  Callers guarantee the two sets are disjoint from each
            other and consistent with the current edge set.

        Returns
        -------
        (spliced, edge_id_map, node_id_map)
            The new snapshot; an ``(m,)`` array mapping old edge ids to new
            (``-1`` for deleted edges); and an ``(n,)`` old-to-new node-id
            map, or ``None`` when no new nodes appeared (ids unchanged).
        """
        n = len(self._nodes)
        # --- node table: merge brand-new endpoint labels in str order ----
        fresh_labels = sorted(
            {x for edge in inserted_edges for x in edge if x not in self._node_id},
            key=str,
        )
        if fresh_labels:
            new_nodes = tuple(sorted(self._nodes + tuple(fresh_labels), key=str))
            new_node_id = {node: i for i, node in enumerate(new_nodes)}
            node_id_map: Optional[np.ndarray] = np.fromiter(
                (new_node_id[node] for node in self._nodes),
                dtype=NP_LONG,
                count=n,
            )
        else:
            new_nodes = self._nodes
            new_node_id = self._node_id  # immutable after construction: share
            node_id_map = None

        dropped = np.sort(np.asarray(deleted_edge_ids, dtype=NP_LONG))
        added = np.array(
            sorted((new_node_id[u], new_node_id[v]) for u, v in inserted_edges),
            dtype=NP_LONG,
        ).reshape(-1, 2)
        kernel = load_kernel()
        if kernel is None:
            storage, edge_id_map = self._splice_numpy(
                len(new_nodes), node_id_map, dropped, added
            )
        else:
            storage, edge_id_map = self._splice_native(
                kernel, len(new_nodes), node_id_map, dropped, added
            )
        spliced = IndexedGraph.__new__(IndexedGraph)
        spliced._nodes = new_nodes
        spliced._node_id = new_node_id
        spliced._edges = None
        spliced._edge_id = None
        (
            spliced._pair_ids,
            spliced._indptr,
            spliced._neighbors,
            spliced._incident_edges,
        ) = storage
        spliced._lazy_edge_ids = spliced._pair_ids
        return spliced, edge_id_map, node_id_map

    def _splice_native(
        self,
        kernel: NativeKernel,
        n_new: int,
        node_id_map: Optional[np.ndarray],
        dropped: np.ndarray,
        added: np.ndarray,
    ) -> Tuple[Tuple[array, array, array, array], np.ndarray]:
        """The native splice of :meth:`_apply_edge_delta`: one
        ``repro_splice_graph`` call writes the edge-id map and the new
        ``(pairs, indptr, neighbors, incident_edges)`` storage, allocated
        here at its final sizes.

        ``dropped`` holds the deleted edge ids ascending, ``added`` the
        inserted edges as ``(k, 2)`` new-id pairs in ascending order, and
        ``node_id_map`` the strictly ascending old-to-new node ids (or
        ``None``: ids unchanged, ``n_new`` nodes as now).

        Raises
        ------
        GraphError
            If an input is out of range or out of order, an inserted edge
            is already an edge, or the CSR does not hold a deleted edge;
            the kernel checks before it reads.
        """
        n = len(self._nodes)
        m = self.number_of_edges()
        dropped = np.ascontiguousarray(dropped, dtype=NP_LONG)
        added = np.ascontiguousarray(added, dtype=NP_LONG)
        m_new = m - len(dropped) + len(added)
        edge_id_map = np.empty(m, dtype=NP_LONG)
        zero = array("l", [0])
        storage = (
            zero * (2 * m_new),
            zero * (n_new + 1),
            zero * (2 * m_new),
            zero * (2 * m_new),
        )
        pairs, indptr, neighbors, incident = storage
        scratch = np.empty(10 * len(added) + 2 * len(dropped), dtype=NP_LONG)
        status = kernel.splice_graph(
            n,
            n_new,
            m,
            self._pair_ids.buffer_info()[0],
            self._indptr.buffer_info()[0],
            self._neighbors.buffer_info()[0],
            self._incident_edges.buffer_info()[0],
            None if node_id_map is None else node_id_map.ctypes.data,
            dropped.ctypes.data,
            len(dropped),
            added.ctypes.data,
            len(added),
            edge_id_map.ctypes.data,
            pairs.buffer_info()[0],
            indptr.buffer_info()[0],
            neighbors.buffer_info()[0],
            incident.buffer_info()[0],
            scratch.ctypes.data,
        )
        if status < 0:
            raise GraphError(
                "the delta's edge ids, endpoint ids or node-id map are out of "
                "range or out of order, or do not match the graph's CSR"
            )
        return storage, edge_id_map

    def _splice_numpy(
        self,
        n_new: int,
        node_id_map: Optional[np.ndarray],
        dropped: np.ndarray,
        added: np.ndarray,
    ) -> Tuple[Tuple[array, array, array, array], np.ndarray]:
        """The numpy splice of :meth:`_apply_edge_delta` (the native
        splice's fallback and differential oracle); same inputs and
        outputs as :meth:`_splice_native`."""
        m = self.number_of_edges()
        pairs = self._endpoint_id_pairs()
        indptr = np.frombuffer(self._indptr, dtype=NP_LONG)
        neighbors = np.frombuffer(self._neighbors, dtype=NP_LONG)
        if node_id_map is not None:
            # relabel the old storage into the new id space (monotone, so
            # no row moves); a fresh node gets an empty row where it sorts
            pairs = node_id_map[pairs]
            neighbors = node_id_map[neighbors]
            indptr = indptr[np.searchsorted(node_id_map, np.arange(n_new + 1))]

        # --- edge table: drop deleted rows, insert the new pairs ---------
        heads = np.ascontiguousarray(pairs[:, 0])
        first = np.searchsorted(heads, added[:, 0], "left").tolist()
        last = np.searchsorted(heads, added[:, 0], "right").tolist()
        edge_at = [
            lo + int(np.searchsorted(pairs[lo:hi, 1], tail))
            for lo, hi, tail in zip(first, last, added[:, 1].tolist())
        ]
        # an edge's new id is its old id, minus the deletions before it,
        # plus the insertions placed before it: one cumsum of +-1 events
        events = np.zeros(m + 1, dtype=NP_LONG)
        np.add.at(events, dropped + 1, -1)
        np.add.at(events, edge_at, 1)
        edge_id_map = np.arange(m, dtype=NP_LONG) + np.cumsum(events[:m])
        edge_id_map[dropped] = -1
        added_ids = (
            np.asarray(edge_at, dtype=NP_LONG)
            - np.searchsorted(dropped, edge_at)
            + np.arange(len(added), dtype=NP_LONG)
        )
        new_pairs = _splice(pairs, dropped.tolist(), edge_at, added)

        # --- CSR rows: two directed entries per changed edge -------------
        def row_position(src: int, dst: int) -> int:
            lo, hi = int(indptr[src]), int(indptr[src + 1])
            return lo + int(np.searchsorted(neighbors[lo:hi], dst))

        entry_drops = sorted(
            row_position(src, dst)
            for head, tail in pairs[dropped].tolist()
            for src, dst in ((head, tail), (tail, head))
        )
        entries = sorted(
            (row_position(src, dst), src, dst, edge)
            for (head, tail), edge in zip(added.tolist(), added_ids.tolist())
            for src, dst in ((head, tail), (tail, head))
        )
        entry_at = [entry[0] for entry in entries]
        new_neighbors = _splice(
            neighbors,
            entry_drops,
            entry_at,
            np.array([entry[2] for entry in entries], dtype=NP_LONG),
        )
        new_incident = _splice(
            edge_id_map[np.frombuffer(self._incident_edges, dtype=NP_LONG)],
            entry_drops,
            entry_at,
            np.array([entry[3] for entry in entries], dtype=NP_LONG),
        )
        degree_change = np.zeros(n_new, dtype=NP_LONG)
        np.add.at(degree_change, pairs[dropped].reshape(-1), -1)
        np.add.at(degree_change, added.reshape(-1), 1)
        new_indptr = indptr.copy()
        new_indptr[1:] += np.cumsum(degree_change)
        storage = (
            _as_long_array(new_pairs.reshape(-1)),
            _as_long_array(new_indptr),
            _as_long_array(new_neighbors),
            _as_long_array(new_incident),
        )
        return storage, edge_id_map

    def _materialise_edges(self) -> None:
        """Build the deferred edge-object tables of a restored snapshot.

        Pairs were stored from already-canonical tuples in tuple order, so
        positional reconstruction reproduces the canonical edges verbatim.
        Only bulk access (the :attr:`edges` property) pays this; the scalar
        lookups answer straight from the pair array / CSR instead.
        """
        nodes = self._nodes
        flat = iter(self._lazy_edge_ids.tolist())
        self._edges = tuple((nodes[a], nodes[b]) for a, b in zip(flat, flat))
        self._edge_id = {edge: index for index, edge in enumerate(self._edges)}
        self._lazy_edge_ids = None

    def _assemble(self, graph: Graph) -> None:
        """Vectorised edge ordering + CSR assembly.

        Node ids are assigned in ``str`` order, so mapping nodes to ids is
        monotone in ``str`` — comparing ``(str(u), str(v))`` pairs
        (``edge_sort_key``) is equivalent to comparing ``(id(u), id(v))``
        pairs, and one ``np.lexsort`` over the endpoint-id columns yields the
        exact ``edge_sort_key`` edge order.  The CSR rows fall out of a
        second lexsort over the doubled (src, dst) arrays: rows grouped by
        src in id order, neighbors ascending by id (== ``str`` order).
        """
        node_id = self._node_id
        n = len(self._nodes)
        # visit each undirected edge once (from its smaller-id endpoint, so no
        # seen-set) and record the canonical tuple's endpoint ids alongside
        raw_edges = []
        pair_buffer = array("l")
        append_edge = raw_edges.append
        append_id = pair_buffer.append
        for u_id, u in enumerate(self._nodes):
            for v in graph.neighbors(u):
                v_id = node_id[v]
                if v_id > u_id:
                    edge = canonical_edge(u, v)
                    append_edge(edge)
                    if edge[0] is u:
                        append_id(u_id)
                        append_id(v_id)
                    else:
                        append_id(v_id)
                        append_id(u_id)
        m = len(raw_edges)
        endpoint_ids = np.frombuffer(pair_buffer, dtype=NP_LONG).reshape(m, 2)
        order = np.lexsort((endpoint_ids[:, 1], endpoint_ids[:, 0]))
        self._edges = tuple(raw_edges[position] for position in order.tolist())
        self._edge_id = {edge: index for index, edge in enumerate(self._edges)}
        heads = endpoint_ids[order, 0]
        tails = endpoint_ids[order, 1]
        self._pair_ids = _as_long_array(
            np.ascontiguousarray(endpoint_ids[order]).reshape(-1)
        )

        src = np.concatenate((heads, tails))
        dst = np.concatenate((tails, heads))
        eid = np.concatenate((np.arange(m, dtype=NP_LONG),) * 2)
        csr_order = np.lexsort((dst, src))
        indptr = np.zeros(n + 1, dtype=NP_LONG)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        # final storage stays array("l"): the motif enumerators walk these
        # rows with scalar reads, which are faster on array than on ndarray
        self._indptr = _as_long_array(indptr)
        self._neighbors = _as_long_array(dst[csr_order])
        self._incident_edges = _as_long_array(eid[csr_order])

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    def number_of_nodes(self) -> int:
        """Return ``|V|``."""
        return len(self._nodes)

    def number_of_edges(self) -> int:
        """Return ``|E|``."""
        if self._edges is None:
            return len(self._lazy_edge_ids) // 2
        return len(self._edges)

    # ------------------------------------------------------------------
    # node id mapping
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """All nodes, in id order."""
        return self._nodes

    def node_id(self, node: Node) -> int:
        """Return the dense id of ``node``.

        Raises
        ------
        NodeNotFoundError
            If the node was not part of the snapshotted graph.
        """
        try:
            return self._node_id[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def node_at(self, node_id: int) -> Node:
        """Return the node with dense id ``node_id``."""
        return self._nodes[node_id]

    def has_node(self, node: Node) -> bool:
        """Return whether the snapshot contains ``node``."""
        return node in self._node_id

    # ------------------------------------------------------------------
    # edge id mapping
    # ------------------------------------------------------------------
    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All canonical edges, in id (``edge_sort_key``) order."""
        if self._edges is None:
            self._materialise_edges()
        return self._edges

    def edge_id(self, u: Node, v: Node) -> int:
        """Return the dense id of the undirected edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge was not part of the snapshotted graph.
        """
        if self._edge_id is None:
            found = self.find_edge_id(u, v)
            if found is None:
                raise EdgeNotFoundError((u, v))
            return found
        try:
            return self._edge_id[canonical_edge(u, v)]
        except KeyError:
            raise EdgeNotFoundError((u, v)) from None

    def find_edge_id(self, u: Node, v: Node) -> Optional[int]:
        """Return the dense id of ``(u, v)``, or ``None`` if absent."""
        if self._edge_id is None:
            # deferred tables: answer from the CSR (O(log deg) bisect)
            # without paying the full per-edge dict build
            u_id = self._node_id.get(u)
            v_id = self._node_id.get(v)
            if u_id is None or v_id is None:
                return None
            return self.edge_id_between(u_id, v_id)
        return self._edge_id.get(canonical_edge(u, v))

    def edge_at(self, edge_id: int) -> Edge:
        """Return the canonical edge with dense id ``edge_id``."""
        if self._edges is None:
            # deferred tables: positional pair lookup reproduces the
            # canonical tuple verbatim (pairs stored in tuple order)
            base = 2 * edge_id
            ids = self._lazy_edge_ids
            return (self._nodes[ids[base]], self._nodes[ids[base + 1]])
        return self._edges[edge_id]

    def has_edge(self, u: Node, v: Node) -> bool:
        """Return whether the snapshot contains the undirected edge ``(u, v)``."""
        return self.find_edge_id(u, v) is not None

    # ------------------------------------------------------------------
    # CSR adjacency
    # ------------------------------------------------------------------
    def degree_of(self, node_id: int) -> int:
        """Return the degree of the node with dense id ``node_id``."""
        return self._indptr[node_id + 1] - self._indptr[node_id]

    def neighbor_ids(self, node_id: int) -> Sequence[int]:
        """Return the neighbor ids of ``node_id`` (a zero-copy CSR row)."""
        return self._neighbors[self._indptr[node_id] : self._indptr[node_id + 1]]

    def incident_edge_ids(self, node_id: int) -> Sequence[int]:
        """Return the incident edge ids of ``node_id``, aligned with
        :meth:`neighbor_ids` (position ``i`` is the edge to neighbor ``i``)."""
        return self._incident_edges[
            self._indptr[node_id] : self._indptr[node_id + 1]
        ]

    def csr(self) -> Tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """Return the raw CSR arrays ``(indptr, neighbors, incident_edges)``.

        Zero-copy access for hot loops (motif enumeration, the coverage
        kernel): row ``u`` spans ``indptr[u]:indptr[u+1]`` of the two flat
        arrays, neighbors sorted ascending by node id (node ids are assigned
        in ``str`` order, so ascending ids is the deterministic row order).
        The arrays are the index's own storage — callers must not mutate.
        """
        return self._indptr, self._neighbors, self._incident_edges

    def common_neighbor_edges(
        self, u_id: int, v_id: int
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(w_id, edge id of (u, w), edge id of (w, v))`` for every
        common neighbor ``w`` of two node ids, ascending by ``w_id``.

        Two-pointer merge of the sorted CSR rows: O(deg(u) + deg(v)).  This
        is the shared primitive of the triangle-closing motif enumerators.
        """
        indptr, neighbors, incident = self._indptr, self._neighbors, self._incident_edges
        i, i_end = indptr[u_id], indptr[u_id + 1]
        j, j_end = indptr[v_id], indptr[v_id + 1]
        while i < i_end and j < j_end:
            a, b = neighbors[i], neighbors[j]
            if a == b:
                yield a, incident[i], incident[j]
                i += 1
                j += 1
            elif a < b:
                i += 1
            else:
                j += 1

    def edge_id_between(self, u_id: int, v_id: int) -> Optional[int]:
        """Return the edge id joining two node ids, or ``None`` if absent.

        Binary search over the (sorted) shorter CSR row: O(log deg).
        """
        if self.degree_of(u_id) > self.degree_of(v_id):
            u_id, v_id = v_id, u_id
        lo = bisect_left(
            self._neighbors, v_id, self._indptr[u_id], self._indptr[u_id + 1]
        )
        if lo < self._indptr[u_id + 1] and self._neighbors[lo] == v_id:
            return self._incident_edges[lo]
        return None

    # ------------------------------------------------------------------
    # round-trip
    # ------------------------------------------------------------------
    def to_graph(self) -> Graph:
        """Materialise the snapshot back into a mutable :class:`Graph`.

        Builds the adjacency sets straight from the CSR rows (one set per
        node) instead of replaying per-edge insertions — the rows already
        encode a symmetric simple graph, and this path is on the snapshot
        cold-start critical path.
        """
        graph = Graph()
        adj = graph._adj  # same-package fast fill; invariants hold by CSR shape
        indptr, neighbors, nodes = self._indptr, self._neighbors, self._nodes
        start = indptr[0]
        for u_id, u in enumerate(nodes):
            end = indptr[u_id + 1]
            adj[u] = {nodes[v_id] for v_id in neighbors[start:end]}
            start = end
        return graph

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.number_of_nodes()}, "
            f"m={self.number_of_edges()})"
        )
