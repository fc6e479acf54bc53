"""Versioned on-disk snapshots of a built target-subgraph index.

Target-subgraph enumeration is the entire cost of opening a protection
session; the enumerated index itself is just flat integer arrays.  A
*snapshot* freezes a built :class:`~repro.motifs.enumeration.TargetSubgraphIndex`
(together with its :class:`~repro.graphs.indexed.IndexedGraph` and the
problem's dissimilarity constant ``C``) into a single file, and
:func:`load_snapshot` restores it **bit-identically** — the restored
session's greedy traces match a freshly enumerated build exactly, and no
enumeration runs at load time.

File format (``format version 1``)
----------------------------------
::

    bytes  0..11   magic  b"REPROTPPSNAP"
    bytes 12..15   format version        (u32, little endian)
    bytes 16..23   header length H       (u64, little endian)
    bytes 24..24+H JSON header           (utf-8)
    rest           payload: the sections, concatenated

The JSON header records the format version (again — the fixed-offset copy
is what the version check reads, so it survives header-schema changes), the
motif identity, the constant ``C``, element counts, the section table
(``[name, offset, length]`` with offsets relative to the payload start),
and three SHA-256 digests:

* ``payload_hash`` — over the raw payload bytes; detects truncation and
  bit-rot (:class:`~repro.exceptions.SnapshotFormatError` on mismatch).
* ``header_hash`` — over the header's own canonical JSON (itself
  excluded); the constant ``C``, the counts and the section table are data
  too, so header corruption is refused, not silently served.
* ``content_hash`` — over the *inputs* (graph + motif + targets, see
  :func:`snapshot_content_hash`); lets a holder of the live objects refuse
  a stale snapshot (:class:`~repro.exceptions.SnapshotMismatchError`), so
  an index built for yesterday's graph can never silently serve wrong
  gains.

Payload sections:

``nodes``
    The node labels in dense-id order.  JSON-encoded when every label is
    exactly ``int`` or ``str`` (every built-in dataset's are); pickled
    otherwise.
``edge_endpoints`` / ``target_endpoints``
    Node-id pairs (flat C-long arrays, length ``2m`` / ``2|T|``); the
    canonical edge tuples are rebuilt via
    :func:`~repro.graphs.graph.canonical_edge`.
``graph_indptr`` / ``graph_neighbors`` / ``graph_incident_edges``
    The :class:`IndexedGraph` CSR adjacency, verbatim.
``index:*``
    The ten :data:`~repro.motifs.enumeration.INDEX_ARRAY_FIELDS` flat
    arrays of the built index, verbatim — everything else the index needs
    is re-derived deterministically from these on load.
``motif_pickle``
    Only for custom (non-registry) motifs: the pickled
    :class:`~repro.motifs.base.MotifPattern` instance.  Built-in motifs are
    stored by registry name and reconstructed without pickle.

Trust model: a snapshot is a build artifact, not an interchange format —
loading a file that contains pickled sections (custom motifs, or non-int/str
node labels) executes pickle and must only be done with files you produced;
pass ``allow_pickle=False`` to refuse such files outright.  Snapshots are
also platform-bound to the C-long width they were written with (recorded in
the header and checked on load).

Typical usage::

    from repro import TPPProblem
    from repro.service import ProtectionService

    problem = TPPProblem(graph, targets, motif="triangle")
    problem.save_index("arenas.tppsnap")          # builds if needed, then writes

    service = ProtectionService.from_snapshot("arenas.tppsnap")   # no enumeration
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import struct
import tempfile
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import SnapshotFormatError, SnapshotMismatchError
from repro.graphs.graph import Edge, Graph, Node, canonical_edge
from repro.graphs.indexed import NP_LONG, IndexedGraph
from repro.motifs.base import MotifPattern, available_motifs, coerce_motif, get_motif
from repro.motifs.enumeration import INDEX_ARRAY_FIELDS, TargetSubgraphIndex

__all__ = [
    "SNAPSHOT_VERSION",
    "SNAPSHOT_MAGIC",
    "IndexSnapshot",
    "save_snapshot",
    "load_snapshot",
    "snapshot_content_hash",
    "index_content_hash",
]

#: Current snapshot format version; bumped on any incompatible layout change.
SNAPSHOT_VERSION = 1

#: Fixed file marker at offset 0 of every snapshot.
SNAPSHOT_MAGIC = b"REPROTPPSNAP"

#: Fixed-offset preamble: magic + u32 version + u64 header length.
_PREAMBLE = struct.Struct(f"<{len(SNAPSHOT_MAGIC)}sIQ")

#: Domain separator prefixed to every content-hash stream.
_HASH_DOMAIN = b"repro-tpp-index-snapshot\x00"

_LONG_ITEMSIZE = array("l").itemsize


# ----------------------------------------------------------------------
# section codecs
# ----------------------------------------------------------------------
def _encode_nodes(nodes: Sequence[Node]) -> Tuple[str, bytes]:
    """Encode the node-label tuple; JSON when losslessly possible.

    JSON keeps snapshots pickle-free for the common int/str-labelled graphs
    (and makes the content hash reproducible across interpreter versions);
    anything else falls back to pickle.
    """
    if all(type(node) in (int, str) for node in nodes):
        return "json", json.dumps(
            list(nodes), separators=(",", ":"), ensure_ascii=True
        ).encode("utf-8")
    return "pickle", pickle.dumps(tuple(nodes), protocol=4)


def _decode_nodes(codec: str, blob: bytes, allow_pickle: bool) -> Tuple[Node, ...]:
    if codec == "json":
        return tuple(json.loads(blob.decode("utf-8")))
    if codec == "pickle":
        if not allow_pickle:
            raise SnapshotFormatError(
                "snapshot stores pickled node labels and allow_pickle is False"
            )
        return tuple(pickle.loads(blob))
    raise SnapshotFormatError(f"unknown node codec {codec!r}")


def _long_bytes(values: Union[array, np.ndarray]) -> bytes:
    """Serialise a C-long buffer (``array('l')`` or NP_LONG ndarray) to bytes."""
    if isinstance(values, array):
        return values.tobytes()
    return np.ascontiguousarray(values, dtype=NP_LONG).tobytes()


def _as_long_nd(blob: bytes, name: str) -> np.ndarray:
    if len(blob) % _LONG_ITEMSIZE:
        raise SnapshotFormatError(
            f"section {name!r} length {len(blob)} is not a multiple of the "
            f"C-long width {_LONG_ITEMSIZE}"
        )
    # copy out of the read-only file buffer so downstream .copy()-free reads
    # behave exactly like a freshly built index's writable arrays
    return np.frombuffer(blob, dtype=NP_LONG).copy()


def _as_long_array(blob: bytes, name: str) -> array:
    if len(blob) % _LONG_ITEMSIZE:
        raise SnapshotFormatError(
            f"section {name!r} length {len(blob)} is not a multiple of the "
            f"C-long width {_LONG_ITEMSIZE}"
        )
    out = array("l")
    out.frombytes(blob)
    return out


def _endpoint_ids(pairs: Sequence[Edge], node_id: Dict[Node, int], what: str) -> array:
    """Flatten canonical edge tuples into a ``2k``-long id array."""
    out = array("l")
    for u, v in pairs:
        try:
            out.append(node_id[u])
            out.append(node_id[v])
        except KeyError as missing:
            raise SnapshotFormatError(
                f"{what} endpoint {missing.args[0]!r} is not a node of the "
                "indexed graph; cannot serialise it as a node-id pair"
            ) from None
    return out


def _edges_from_ids(ids: np.ndarray, nodes: Tuple[Node, ...]) -> List[Edge]:
    # pairs were written from already-canonical tuples in tuple order, so
    # rebuilding them positionally reproduces the canonical form verbatim
    # (no per-edge canonical_edge call on the cold-start critical path)
    flat = iter(ids.tolist())
    return [(nodes[a], nodes[b]) for a, b in zip(flat, flat)]


# ----------------------------------------------------------------------
# content hash
# ----------------------------------------------------------------------
def _content_digest(
    motif_name: str,
    node_codec: str,
    nodes_blob: bytes,
    edge_blob: Union[bytes, array, np.ndarray],
    target_blob: Union[bytes, array, np.ndarray],
) -> str:
    digest = hashlib.sha256()
    for part in (
        _HASH_DOMAIN,
        motif_name.encode("utf-8"),
        b"\x00",
        node_codec.encode("ascii"),
        b"\x00",
        nodes_blob,
        edge_blob,
        target_blob,
    ):
        digest.update(part)
    return digest.hexdigest()


def snapshot_content_hash(
    graph: Graph,
    targets: Sequence[Edge],
    motif: Union[str, MotifPattern],
) -> str:
    """Return the content hash a snapshot of ``(graph, targets, motif)`` carries.

    The hash covers the snapshot's *inputs* — the phase-1 graph structure
    (nodes in dense-id order plus the canonical edge list), the target
    links, and the motif name — not the enumerated arrays, so it is cheap
    to recompute from live objects (one :class:`IndexedGraph` construction,
    no enumeration).  :meth:`IndexSnapshot.verify` compares this against a
    loaded file to refuse stale snapshots.

    Parameters
    ----------
    graph:
        The *original* graph (targets still present), exactly as passed to
        :class:`~repro.core.model.TPPProblem`.
    targets:
        The sensitive target links.
    motif:
        Motif name or pattern instance.  Custom motifs hash by their
        ``name`` attribute — two different patterns sharing a name also
        share a hash, so give custom motifs distinctive names.

    Returns
    -------
    str
        A SHA-256 hex digest.
    """
    motif = coerce_motif(motif)
    canonical_targets = [canonical_edge(*target) for target in targets]
    phase1 = graph.without_edges(canonical_targets)
    indexed = IndexedGraph(phase1)
    node_id = {node: index for index, node in enumerate(indexed.nodes)}
    codec, nodes_blob = _encode_nodes(indexed.nodes)
    edge_blob = _endpoint_ids(indexed.edges, node_id, "edge").tobytes()
    target_blob = _endpoint_ids(canonical_targets, node_id, "target").tobytes()
    return _content_digest(motif.name, codec, nodes_blob, edge_blob, target_blob)


def index_content_hash(index: TargetSubgraphIndex) -> str:
    """Return the content hash of a *built* index's inputs.

    Equals the ``content_hash`` a snapshot of this index would carry (and
    :func:`snapshot_content_hash` recomputed from the problem's original
    graph) without constructing anything: the endpoint-id pairs come
    straight off the live :class:`IndexedGraph`.  This is how delta
    snapshots (:mod:`repro.persistence.delta`) name their parent and result
    states.
    """
    indexed = index.indexed_graph
    codec, nodes_blob = _encoded_nodes(indexed.nodes)
    # both id arrays are C-contiguous C longs: hashed in place, no copy
    edge_ids = indexed._endpoint_id_pairs()
    target_ids = _endpoint_ids(index.targets, indexed._node_id, "target")
    return _content_digest(index.motif.name, codec, nodes_blob, edge_ids, target_ids)


#: The node table :func:`index_content_hash` encoded last, as
#: ``(nodes, codec, blob)``.  A delta that adds no label and a subset
#: restriction share their parent's node tuple, so the hashes of one
#: session's successive states encode the (unchanged) labels once.  The
#: tuple is immutable and held here, so identity implies equal content.
_last_node_encoding: Optional[Tuple[Tuple[Node, ...], str, bytes]] = None


def _encoded_nodes(nodes: Tuple[Node, ...]) -> Tuple[str, bytes]:
    """:func:`_encode_nodes`, memoised on the identity of the node tuple."""
    global _last_node_encoding
    memo = _last_node_encoding
    if memo is not None and memo[0] is nodes:
        return memo[1], memo[2]
    codec, blob = _encode_nodes(nodes)
    _last_node_encoding = (nodes, codec, blob)
    return codec, blob


def _header_digest(header: Dict[str, object]) -> str:
    """SHA-256 of the header's canonical JSON form (``header_hash`` excluded)."""
    canonical = json.dumps(
        {key: value for key, value in header.items() if key != "header_hash"},
        separators=(",", ":"),
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def save_snapshot(
    path: Union[str, Path],
    index: TargetSubgraphIndex,
    constant: int,
) -> Path:
    """Write a built index (plus the constant ``C``) to a snapshot file.

    Parameters
    ----------
    path:
        Destination file (parent directories are created).  By convention
        snapshots use the ``.tppsnap`` suffix, but any path is accepted.
        The file is written beside it and renamed into place, so a write
        that fails part-way leaves any previous file at ``path`` intact.
    index:
        A built :class:`TargetSubgraphIndex`.  Its flat arrays are written
        verbatim, so :func:`load_snapshot` restores it bit-identically.
    constant:
        The dissimilarity constant ``C`` of the problem the index serves
        (stored so a cold-started session scores ``Δ_t^p`` identically).

    Returns
    -------
    pathlib.Path
        The written path.

    Raises
    ------
    SnapshotFormatError
        If the index cannot be serialised (e.g. a target endpoint missing
        from the indexed graph).
    """
    indexed = index.indexed_graph
    node_id = {node: position for position, node in enumerate(indexed.nodes)}
    node_codec, nodes_blob = _encode_nodes(indexed.nodes)
    edge_blob = _endpoint_ids(indexed.edges, node_id, "edge").tobytes()
    target_blob = _endpoint_ids(index.targets, node_id, "target").tobytes()

    sections: List[Tuple[str, bytes]] = [
        ("nodes", nodes_blob),
        ("edge_endpoints", edge_blob),
        ("graph_indptr", _long_bytes(indexed._indptr)),
        ("graph_neighbors", _long_bytes(indexed._neighbors)),
        ("graph_incident_edges", _long_bytes(indexed._incident_edges)),
        ("target_endpoints", target_blob),
    ]
    for name in INDEX_ARRAY_FIELDS:
        sections.append((f"index:{name}", _long_bytes(getattr(index, name))))

    motif = index.motif
    # stored by registry name only when the instance *is* the registered
    # class — an unregistered pattern that merely shares a registered name
    # must travel by pickle, or loading would silently substitute the
    # registry's (different) pattern for recounts and delta re-enumeration
    if motif.name.lower() in available_motifs() and type(motif) is type(
        get_motif(motif.name)
    ):
        motif_meta: Dict[str, str] = {"kind": "builtin", "name": motif.name}
    else:
        motif_meta = {"kind": "pickle", "name": motif.name}
        sections.append(("motif_pickle", pickle.dumps(motif, protocol=4)))

    payload = io.BytesIO()
    table: List[Tuple[str, int, int]] = []
    for name, blob in sections:
        table.append((name, payload.tell(), len(blob)))
        payload.write(blob)
    payload_bytes = payload.getvalue()

    header = {
        "format_version": SNAPSHOT_VERSION,
        "long_itemsize": _LONG_ITEMSIZE,
        "motif": motif_meta,
        "constant": int(constant),
        "node_codec": node_codec,
        "counts": {
            "nodes": indexed.number_of_nodes(),
            "edges": indexed.number_of_edges(),
            "targets": len(index.targets),
            "instances": index.number_of_instances(),
            "candidate_edges": index.number_of_candidate_edges(),
        },
        "content_hash": _content_digest(
            motif.name, node_codec, nodes_blob, edge_blob, target_blob
        ),
        "payload_hash": hashlib.sha256(payload_bytes).hexdigest(),
        "sections": table,
    }
    # the header itself (constant, counts, motif identity, section table)
    # is data too — digest it so header bit-rot cannot silently shift C
    header["header_hash"] = _header_digest(header)
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")

    path = Path(path)
    _write_atomically(
        path,
        (
            _PREAMBLE.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(header_bytes)),
            header_bytes,
            payload_bytes,
        ),
    )
    return path


def _write_atomically(path: Path, chunks: Sequence[bytes]) -> None:
    """Write ``chunks`` to ``path`` through a temp file beside it.

    The bytes go to a temp file in the same directory, which
    ``os.replace`` then renames over ``path`` (atomic on one
    filesystem).  A reader therefore sees the previous file or the
    complete new one, never a torn one, and a writer that fails before
    the rename leaves the previous file in place and removes its temp
    file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, temp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=str(path.parent)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(temp_name, path)
    except BaseException:
        Path(temp_name).unlink(missing_ok=True)
        raise


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IndexSnapshot:
    """A loaded index snapshot: the restored index, the constant, the header.

    Attributes
    ----------
    index:
        The restored :class:`TargetSubgraphIndex` — bit-identical flat
        arrays to the index that was saved, ready to serve queries with no
        enumeration.
    constant:
        The dissimilarity constant ``C`` the snapshot was saved with.
    header:
        The parsed snapshot header (format version, motif identity, counts,
        hashes, section table) for diagnostics.
    """

    index: TargetSubgraphIndex
    constant: int
    header: Dict[str, object] = field(repr=False)

    @property
    def content_hash(self) -> str:
        """The stored content hash over (graph + motif + targets)."""
        return str(self.header["content_hash"])

    def matches(
        self,
        graph: Graph,
        targets: Sequence[Edge],
        motif: Union[str, MotifPattern],
    ) -> bool:
        """Return whether this snapshot was built for the given live inputs.

        Recomputes :func:`snapshot_content_hash` from the live objects and
        compares it with the stored hash.
        """
        return self.content_hash == snapshot_content_hash(graph, targets, motif)

    def verify(
        self,
        graph: Graph,
        targets: Sequence[Edge],
        motif: Union[str, MotifPattern],
    ) -> None:
        """Raise unless this snapshot was built for the given live inputs.

        Raises
        ------
        SnapshotMismatchError
            If the content hashes disagree — the snapshot is stale (the
            graph, targets or motif changed since it was written) and must
            not serve this instance.
        """
        if not self.matches(graph, targets, motif):
            raise SnapshotMismatchError(
                "snapshot content hash does not match the live "
                "(graph, targets, motif): the snapshot is stale — rebuild it "
                "with TPPProblem.save_index() / repro-tpp build-index"
            )


def _read_sections(
    payload: bytes, table: List[object]
) -> Dict[str, bytes]:
    sections: Dict[str, bytes] = {}
    expected_end = 0
    for entry in table:
        try:
            name, offset, length = entry
            offset = int(offset)
            length = int(length)
        except (TypeError, ValueError):
            raise SnapshotFormatError(f"malformed section table entry {entry!r}") from None
        end = offset + length
        if offset < 0 or end > len(payload):
            raise SnapshotFormatError(
                f"section {name!r} spans bytes {offset}..{end} but the payload "
                f"holds only {len(payload)} bytes — the file is truncated"
            )
        sections[str(name)] = payload[offset:end]
        expected_end = max(expected_end, end)
    if expected_end != len(payload):
        raise SnapshotFormatError(
            f"payload holds {len(payload)} bytes but the sections only cover "
            f"{expected_end} — trailing garbage or a corrupted section table"
        )
    return sections


def load_snapshot(
    path: Union[str, Path], allow_pickle: bool = True
) -> IndexSnapshot:
    """Load a snapshot file back into a bit-identical built index.

    Every failure mode is checked before any object is constructed: magic
    marker, format version, C-long width, payload truncation, payload
    digest, content digest, and the mutual consistency of the flat arrays.
    Restoring runs no enumeration — cold-start cost is file I/O plus
    rebuilding the node/edge dictionaries.

    Parameters
    ----------
    path:
        A file written by :func:`save_snapshot`.
    allow_pickle:
        Snapshots of custom motifs (and of graphs with non-int/str node
        labels) contain pickled sections; loading those executes pickle, so
        only load such files from trusted sources.  ``False`` refuses them
        with a :class:`SnapshotFormatError` instead.

    Returns
    -------
    IndexSnapshot
        The restored index, the constant ``C`` and the parsed header.

    Raises
    ------
    SnapshotFormatError
        On any unreadable, truncated, corrupted, version- or
        platform-mismatched file.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as error:
        raise SnapshotFormatError(f"cannot read snapshot {path}: {error}") from error
    if len(blob) < _PREAMBLE.size:
        raise SnapshotFormatError(
            f"{path} holds {len(blob)} bytes, shorter than the "
            f"{_PREAMBLE.size}-byte snapshot preamble — not a snapshot or truncated"
        )
    magic, version, header_length = _PREAMBLE.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(
            f"{path} does not start with the snapshot magic {SNAPSHOT_MAGIC!r}"
        )
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"{path} uses snapshot format version {version}; this build "
            f"reads version {SNAPSHOT_VERSION} — regenerate the snapshot"
        )
    header_end = _PREAMBLE.size + header_length
    if len(blob) < header_end:
        raise SnapshotFormatError(f"{path} is truncated inside the header")
    try:
        header = json.loads(blob[_PREAMBLE.size : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotFormatError(
            f"{path} carries an unparseable header: {error}"
        ) from error
    if _header_digest(header) != header.get("header_hash"):
        raise SnapshotFormatError(
            f"{path}: header SHA-256 does not match — the header is corrupted"
        )
    if header.get("long_itemsize") != _LONG_ITEMSIZE:
        raise SnapshotFormatError(
            f"{path} was written with {header.get('long_itemsize')}-byte C longs; "
            f"this platform uses {_LONG_ITEMSIZE}-byte — regenerate the snapshot here"
        )

    payload = blob[header_end:]
    sections = _read_sections(payload, header.get("sections", []))
    if hashlib.sha256(payload).hexdigest() != header.get("payload_hash"):
        raise SnapshotFormatError(
            f"{path}: payload SHA-256 does not match the header — the file is corrupted"
        )

    nodes = _decode_nodes(
        str(header.get("node_codec", "json")), sections["nodes"], allow_pickle
    )
    edge_ids = _as_long_nd(sections["edge_endpoints"], "edge_endpoints")
    target_ids = _as_long_nd(sections["target_endpoints"], "target_endpoints")
    if len(edge_ids) % 2 or len(target_ids) % 2:
        raise SnapshotFormatError("endpoint sections must hold id pairs")
    if len(edge_ids) and (edge_ids.min() < 0 or edge_ids.max() >= len(nodes)):
        raise SnapshotFormatError("edge endpoint ids fall outside the node table")
    if len(target_ids) and (target_ids.min() < 0 or target_ids.max() >= len(nodes)):
        raise SnapshotFormatError("target endpoint ids fall outside the node table")

    if (
        _content_digest(
            str(header["motif"]["name"]),
            str(header.get("node_codec", "json")),
            sections["nodes"],
            sections["edge_endpoints"],
            sections["target_endpoints"],
        )
        != header.get("content_hash")
    ):
        raise SnapshotFormatError(
            f"{path}: content hash does not match the stored inputs — the "
            "header and payload disagree; the file is corrupted"
        )

    targets = _edges_from_ids(target_ids, nodes)

    indptr = _as_long_array(sections["graph_indptr"], "graph_indptr")
    neighbors = _as_long_array(sections["graph_neighbors"], "graph_neighbors")
    incident = _as_long_array(sections["graph_incident_edges"], "graph_incident_edges")
    n, m = len(nodes), len(edge_ids) // 2
    if len(indptr) != n + 1 or (n and indptr[n] != 2 * m):
        raise SnapshotFormatError("graph CSR indptr is inconsistent with the node/edge counts")
    if len(neighbors) != 2 * m or len(incident) != 2 * m:
        raise SnapshotFormatError("graph CSR rows are inconsistent with the edge count")

    motif_meta = header.get("motif", {})
    if motif_meta.get("kind") == "builtin":
        motif: Union[str, MotifPattern] = str(motif_meta["name"])
    elif motif_meta.get("kind") == "pickle":
        if not allow_pickle:
            raise SnapshotFormatError(
                "snapshot stores a pickled custom motif and allow_pickle is False"
            )
        motif = pickle.loads(sections["motif_pickle"])
    else:
        raise SnapshotFormatError(f"unknown motif kind {motif_meta.get('kind')!r}")

    arrays: Dict[str, np.ndarray] = {}
    for name in INDEX_ARRAY_FIELDS:
        key = f"index:{name}"
        if key not in sections:
            raise SnapshotFormatError(f"snapshot is missing the {key!r} section")
        arrays[name] = _as_long_nd(sections[key], key)
    _validate_index_arrays(arrays, m, len(targets))

    indexed = IndexedGraph._restore(nodes, edge_ids, indptr, neighbors, incident)
    index = TargetSubgraphIndex._restore(indexed, targets, motif, arrays)
    constant = int(header["constant"])
    if constant < index.initial_total_similarity():
        # TPPProblem.__init__ enforced this when the snapshot was built;
        # re-check so a restored problem can never report negative f(P, T)
        raise SnapshotFormatError(
            f"{path}: constant C={constant} is smaller than the snapshot's "
            f"initial similarity {index.initial_total_similarity()}"
        )
    return IndexSnapshot(index=index, constant=constant, header=header)


def _validate_index_arrays(
    arrays: Dict[str, np.ndarray], n_edges: int, n_targets: int
) -> None:
    """Check the mutual consistency of the ten restored index arrays."""
    inst_indptr = arrays["_inst_indptr"]
    n_instances = len(inst_indptr) - 1
    n_memberships = len(arrays["_inst_edge_ids"])
    if n_instances < 0 or (n_instances >= 0 and len(inst_indptr) and inst_indptr[0] != 0):
        raise SnapshotFormatError("index instance indptr must start at 0")
    if not len(inst_indptr) or inst_indptr[-1] != n_memberships:
        raise SnapshotFormatError(
            "index instance indptr is inconsistent with the membership count"
        )
    if len(arrays["_inst_target_idx"]) != n_instances:
        raise SnapshotFormatError(
            "index target attribution is inconsistent with the instance count"
        )
    if n_instances and (
        arrays["_inst_target_idx"].min() < 0
        or arrays["_inst_target_idx"].max() >= n_targets
    ):
        raise SnapshotFormatError("index target attribution falls outside the target list")
    if len(arrays["_edge_indptr"]) != n_edges + 1 or len(arrays["_et_indptr"]) != n_edges + 1:
        raise SnapshotFormatError("index edge CSRs are inconsistent with the edge count")
    if len(arrays["_edge_inst_ids"]) != n_memberships or len(arrays["_inst_slot"]) != n_memberships:
        raise SnapshotFormatError("index inverse CSR is inconsistent with the membership count")
    if len(arrays["_initial_gain"]) != n_edges:
        raise SnapshotFormatError("index gain counters are inconsistent with the edge count")
    if len(arrays["_et_tidx"]) != len(arrays["_et_initial_count"]):
        raise SnapshotFormatError("index counter matrix rows are inconsistent")
