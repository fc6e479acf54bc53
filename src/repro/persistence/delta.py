"""Delta snapshots: persist graph updates as diffs against a parent snapshot.

Full snapshots (:mod:`repro.persistence.snapshot`) freeze the entire built
index; when a live session has applied a handful of edge updates, rewriting
megabytes of arrays to persist a ten-edge change is the wrong trade.  A
*delta snapshot* is a small file carrying

* the **parent content hash** — the :func:`~repro.persistence.snapshot.\
index_content_hash` of the state the delta applies to, so it can never be
  replayed against the wrong base (a mismatch raises
  :class:`~repro.exceptions.SnapshotMismatchError` before anything is
  touched),
* the ordered operations of one :class:`~repro.motifs.updates.EdgeDelta`,
  and
* the **result content hash** — the state the application must land on,
  re-verified after replay so a corrupted-but-well-formed operation list
  still cannot produce a silently wrong index.

Layered on the PR-5 snapshot envelope: the same fixed preamble layout with
its own 12-byte magic, a hash-protected JSON header, and a digest-checked
payload (the encoded operation list).  Node labels travel as JSON when they
are plain ``int``/``str`` and by pickle otherwise — the same trust model as
full snapshots (``allow_pickle=False`` refuses pickled files).

Typical usage::

    from repro import EdgeDelta
    from repro.persistence import save_delta_snapshot, load_delta_snapshot

    delta = EdgeDelta.from_edges(insert=[(1, 9)], delete=[(2, 3)])
    outcome = service.apply_delta(delta)
    save_delta_snapshot("update-0001.tppdelta", delta,
                        parent_index=old_index, result_index=outcome.index)

    # elsewhere / later, on a session serving the parent state:
    snapshot = load_delta_snapshot("update-0001.tppdelta")
    service.apply_delta(snapshot)          # parent hash verified first
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import SnapshotFormatError, SnapshotMismatchError
from repro.motifs.enumeration import TargetSubgraphIndex
from repro.motifs.updates import EdgeDelta
from repro.persistence.snapshot import (
    SNAPSHOT_MAGIC,
    _header_digest,
    _read_sections,
    index_content_hash,
)

__all__ = [
    "DELTA_VERSION",
    "DELTA_MAGIC",
    "DeltaSnapshot",
    "save_delta_snapshot",
    "load_delta_snapshot",
    "verify_snapshot_file",
]

#: Current delta-snapshot format version.
DELTA_VERSION = 1

#: Fixed file marker at offset 0 of every delta snapshot (same width as the
#: full-snapshot magic, so one preamble read dispatches both kinds).
DELTA_MAGIC = b"REPROTPPDLTA"

#: Same fixed-offset preamble layout as full snapshots: magic + u32 version
#: + u64 header length.
_PREAMBLE = struct.Struct(f"<{len(DELTA_MAGIC)}sIQ")


def _encode_ops(delta: EdgeDelta) -> Tuple[str, bytes]:
    """Encode the operation list; JSON when every label allows it losslessly."""
    if all(
        type(u) in (int, str) and type(v) in (int, str)
        for _, (u, v) in delta.operations
    ):
        payload = [[op, u, v] for op, (u, v) in delta.operations]
        return "json", json.dumps(
            payload, separators=(",", ":"), ensure_ascii=True
        ).encode("utf-8")
    return "pickle", pickle.dumps(delta.operations, protocol=4)


def _decode_ops(codec: str, blob: bytes, allow_pickle: bool) -> EdgeDelta:
    if codec == "json":
        try:
            raw = json.loads(blob.decode("utf-8"))
            operations = tuple((op, (u, v)) for op, u, v in raw)
        except (UnicodeDecodeError, json.JSONDecodeError, TypeError, ValueError) as error:
            raise SnapshotFormatError(
                f"delta snapshot carries an unparseable operation list: {error}"
            ) from error
    elif codec == "pickle":
        if not allow_pickle:
            raise SnapshotFormatError(
                "delta snapshot stores pickled operations and allow_pickle is False"
            )
        operations = tuple(pickle.loads(blob))
    else:
        raise SnapshotFormatError(f"unknown delta operation codec {codec!r}")
    return EdgeDelta(operations)


@dataclass(frozen=True)
class DeltaSnapshot:
    """A loaded delta snapshot: the delta plus the states it bridges.

    Attributes
    ----------
    delta:
        The ordered :class:`~repro.motifs.updates.EdgeDelta`.
    parent_content_hash:
        Content hash of the index state the delta applies to.
    result_content_hash:
        Content hash of the state applying it must produce.
    header:
        The parsed file header, for diagnostics.
    """

    delta: EdgeDelta
    parent_content_hash: str
    result_content_hash: str
    header: Dict[str, object] = field(repr=False)

    def matches_parent(self, parent: Union[TargetSubgraphIndex, str]) -> bool:
        """Return whether ``parent`` — an index, or the content hash its
        holder already keeps — is the state this delta applies to."""
        return _state_hash(parent) == self.parent_content_hash

    def verify_parent(self, parent: Union[TargetSubgraphIndex, str]) -> None:
        """Raise unless ``parent`` is the state this delta applies to.

        ``parent`` is the live index or its content hash: a session that
        keeps its hash (:meth:`ProtectionService.content_hash
        <repro.service.ProtectionService.content_hash>`) passes that, so
        the check costs no hashing.

        Raises
        ------
        SnapshotMismatchError
            The delta was recorded against a different graph state; applying
            it here would corrupt the session, so it is refused up front.
        """
        if not self.matches_parent(parent):
            raise SnapshotMismatchError(
                "delta snapshot parent content hash does not match the live "
                "index: this delta was recorded against a different graph "
                "state and cannot be applied here"
            )

    def verify_result(self, index: TargetSubgraphIndex) -> str:
        """Return ``index``'s content hash, or raise unless it is the state
        applying this delta produces.

        The hash is always computed from ``index`` — never taken from the
        file — so a caller may keep the returned value as the new state's
        content hash.

        Raises
        ------
        SnapshotMismatchError
            The replay landed on a different state than the file recorded.
        """
        content_hash = index_content_hash(index)
        if content_hash != self.result_content_hash:
            raise SnapshotMismatchError(
                "applying the delta snapshot produced a different state than "
                "its recorded result content hash — refusing the update"
            )
        return content_hash

    def delta_for(self, parent: Union[TargetSubgraphIndex, str]) -> EdgeDelta:
        """Return the delta after verifying ``parent`` (an index or its
        content hash) is its parent state.

        This is the hook :meth:`ProtectionService.apply_delta
        <repro.service.ProtectionService.apply_delta>` calls, with the
        session's kept hash, when handed a delta snapshot instead of a bare
        delta.
        """
        self.verify_parent(parent)
        return self.delta


def _state_hash(state: Union[TargetSubgraphIndex, str]) -> str:
    """A content hash from either a built index or a pre-computed hash.

    Writers that already know a state's content hash (for example the one
    a server published) pass it straight through instead of the index.
    """
    if isinstance(state, str):
        return state
    return index_content_hash(state)


def save_delta_snapshot(
    path: Union[str, Path],
    delta: EdgeDelta,
    parent_index: Union[TargetSubgraphIndex, str],
    result_index: Union[TargetSubgraphIndex, str],
) -> Path:
    """Write ``delta`` as a delta snapshot bridging two index states.

    Parameters
    ----------
    path:
        Destination file (parent directories are created); conventionally
        ``*.tppdelta``.
    delta:
        The ordered edge updates.
    parent_index:
        The built index the delta applies to (its content hash names the
        required base state), or that state's content hash directly.
    result_index:
        The index after application — normally
        ``parent_index.apply_delta(delta).index`` — whose content hash lets
        loaders re-verify the replay landed where the writer did.  Accepts
        a pre-computed hash string like ``parent_index``.

    Returns
    -------
    pathlib.Path
        The written path.
    """
    op_codec, ops_blob = _encode_ops(delta)
    sections: List[Tuple[str, bytes]] = [("operations", ops_blob)]
    table: List[Tuple[str, int, int]] = []
    cursor = 0
    for name, blob in sections:
        table.append((name, cursor, len(blob)))
        cursor += len(blob)
    payload_bytes = b"".join(blob for _, blob in sections)

    header: Dict[str, object] = {
        "format_version": DELTA_VERSION,
        "op_codec": op_codec,
        "counts": {
            "operations": len(delta.operations),
            "inserts": len(delta.inserted),
            "deletes": len(delta.deleted),
        },
        "parent_content_hash": _state_hash(parent_index),
        "result_content_hash": _state_hash(result_index),
        "payload_hash": hashlib.sha256(payload_bytes).hexdigest(),
        "sections": table,
    }
    header["header_hash"] = _header_digest(header)
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        handle.write(_PREAMBLE.pack(DELTA_MAGIC, DELTA_VERSION, len(header_bytes)))
        handle.write(header_bytes)
        handle.write(payload_bytes)
    return path


def _read_delta_envelope(
    path: Path, blob: bytes
) -> Tuple[Dict[str, object], Dict[str, bytes]]:
    """Validate a delta file's preamble/header/payload; return header + sections."""
    magic, version, header_length = _PREAMBLE.unpack_from(blob)
    if magic != DELTA_MAGIC:
        raise SnapshotFormatError(
            f"{path} does not start with the delta snapshot magic {DELTA_MAGIC!r}"
        )
    if version != DELTA_VERSION:
        raise SnapshotFormatError(
            f"{path} uses delta format version {version}; this build reads "
            f"version {DELTA_VERSION} — regenerate the delta"
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
    payload = blob[header_end:]
    sections = _read_sections(payload, header.get("sections", []))
    if hashlib.sha256(payload).hexdigest() != header.get("payload_hash"):
        raise SnapshotFormatError(
            f"{path}: payload SHA-256 does not match the header — the file is corrupted"
        )
    for key in ("parent_content_hash", "result_content_hash"):
        if not isinstance(header.get(key), str):
            raise SnapshotFormatError(f"{path}: header is missing {key!r}")
    return header, sections


def load_delta_snapshot(
    path: Union[str, Path], allow_pickle: bool = True
) -> DeltaSnapshot:
    """Load a delta snapshot file.

    Envelope integrity (magic, version, header hash, payload hash) and the
    operation list's well-formedness are checked here; whether the delta
    *applies* to a given index is checked at application time against the
    stored parent content hash (:meth:`DeltaSnapshot.verify_parent`).

    Raises
    ------
    SnapshotFormatError
        On any unreadable, truncated, corrupted or version-mismatched file.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as error:
        raise SnapshotFormatError(f"cannot read delta snapshot {path}: {error}") from error
    if len(blob) < _PREAMBLE.size:
        raise SnapshotFormatError(
            f"{path} holds {len(blob)} bytes, shorter than the "
            f"{_PREAMBLE.size}-byte preamble — not a delta snapshot or truncated"
        )
    header, sections = _read_delta_envelope(path, blob)
    if "operations" not in sections:
        raise SnapshotFormatError(f"{path} is missing the 'operations' section")
    delta = _decode_ops(
        str(header.get("op_codec", "json")), sections["operations"], allow_pickle
    )
    return DeltaSnapshot(
        delta=delta,
        parent_content_hash=str(header["parent_content_hash"]),
        result_content_hash=str(header["result_content_hash"]),
        header=header,
    )


def verify_snapshot_file(path: Union[str, Path]) -> Dict[str, object]:
    """Validate a snapshot or delta-snapshot file without constructing anything.

    Dispatches on the magic marker: full snapshots get their preamble,
    header hash, payload hash and content digest checked (no
    :class:`IndexedGraph`/index restore runs); delta snapshots get the same
    envelope checks plus operation-list decoding.  This is what the
    ``repro-tpp verify-index`` command runs.

    Returns
    -------
    dict
        A summary: ``kind`` (``"snapshot"`` or ``"delta"``),
        ``format_version``, the stored hashes and the header counts.

    Raises
    ------
    SnapshotFormatError
        If the file is unreadable, truncated, corrupted, of an unknown kind
        or a mismatched format version.
    """
    from repro.persistence.snapshot import (
        _PREAMBLE as _SNAP_PREAMBLE,
        SNAPSHOT_VERSION,
        _content_digest,
    )

    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as error:
        raise SnapshotFormatError(f"cannot read {path}: {error}") from error
    if len(blob) < _PREAMBLE.size:
        raise SnapshotFormatError(
            f"{path} holds {len(blob)} bytes, shorter than the "
            f"{_PREAMBLE.size}-byte preamble — not a snapshot file"
        )
    magic = blob[: len(SNAPSHOT_MAGIC)]

    if magic == DELTA_MAGIC:
        header, sections = _read_delta_envelope(path, blob)
        # decode (validates shape/codec) but discard: verification must not
        # execute pickle, so pickled operation lists only get envelope checks
        if header.get("op_codec") == "json":
            _decode_ops("json", sections["operations"], allow_pickle=False)
        return {
            "kind": "delta",
            "path": str(path),
            "format_version": int(header["format_version"]),
            "parent_content_hash": header["parent_content_hash"],
            "result_content_hash": header["result_content_hash"],
            "payload_hash": header["payload_hash"],
            "counts": dict(header.get("counts", {})),
        }

    if magic == SNAPSHOT_MAGIC:
        _, version, header_length = _SNAP_PREAMBLE.unpack_from(blob)
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(
                f"{path} uses snapshot format version {version}; this build "
                f"reads version {SNAPSHOT_VERSION}"
            )
        header_end = _SNAP_PREAMBLE.size + header_length
        if len(blob) < header_end:
            raise SnapshotFormatError(f"{path} is truncated inside the header")
        try:
            header = json.loads(blob[_SNAP_PREAMBLE.size : header_end].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SnapshotFormatError(
                f"{path} carries an unparseable header: {error}"
            ) from error
        if _header_digest(header) != header.get("header_hash"):
            raise SnapshotFormatError(
                f"{path}: header SHA-256 does not match — the header is corrupted"
            )
        payload = blob[header_end:]
        sections = _read_sections(payload, header.get("sections", []))
        if hashlib.sha256(payload).hexdigest() != header.get("payload_hash"):
            raise SnapshotFormatError(
                f"{path}: payload SHA-256 does not match the header — the "
                "file is corrupted"
            )
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
        return {
            "kind": "snapshot",
            "path": str(path),
            "format_version": int(header["format_version"]),
            "content_hash": header["content_hash"],
            "payload_hash": header["payload_hash"],
            "motif": dict(header.get("motif", {})),
            "constant": header.get("constant"),
            "counts": dict(header.get("counts", {})),
        }

    raise SnapshotFormatError(
        f"{path} starts with neither the snapshot magic {SNAPSHOT_MAGIC!r} "
        f"nor the delta magic {DELTA_MAGIC!r}"
    )
