"""Session bundles: one file holding a session *and* its subset caches.

A plain index snapshot (:mod:`repro.persistence.snapshot`) restores the
parent session without enumeration, but its cached subset sub-sessions are
lost and are re-derived (restricted from the parent index) on the
replica's first query for each subset.  A session bundle keeps them:
:func:`save_session` writes the parent snapshot plus one
snapshot per LRU-cached subset sub-session into a single ``.tppsess`` zip
archive, and :func:`load_session` restores the parent and wires every
sub-session back into the cache, so a cold-started replica answers subset
queries with ``reused_index: true`` from its very first request.

The archive layout is deliberately boring — stdlib :mod:`zipfile`, a JSON
``manifest.json``, and ordinary ``.tppsnap`` members that
``repro-tpp verify-index`` could validate individually::

    session.tppsess
    ├── manifest.json        {"kind": "session", "parent": ..., "subsets": [...]}
    ├── parent.tppsnap       the session's own index snapshot
    ├── subset-0000.tppsnap  least-recently-used cached subset first
    └── subset-0001.tppsnap  ...

Member timestamps are pinned, so saving the same session twice produces
byte-identical bundles.  The convenient entry points sit one layer up:
:meth:`repro.service.ProtectionService.save_session` /
:meth:`~repro.service.ProtectionService.from_session`.
"""

from __future__ import annotations

import json
import tempfile
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Union

from repro.exceptions import SnapshotFormatError, SnapshotMismatchError
from repro.persistence.snapshot import index_content_hash, save_snapshot

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.service.service import ProtectionService

__all__ = [
    "SESSION_SUFFIX",
    "SESSION_VERSION",
    "save_session",
    "load_session",
]

#: Conventional file suffix for session bundles.
SESSION_SUFFIX = ".tppsess"

#: Bundle manifest format version (bump on incompatible layout changes).
SESSION_VERSION = 1

_MANIFEST_NAME = "manifest.json"
_PARENT_NAME = "parent.tppsnap"
#: Fixed member timestamp: bundles must be byte-stable across re-saves.
_EPOCH = (1980, 1, 1, 0, 0, 0)


def _write_member(archive: zipfile.ZipFile, name: str, data: bytes) -> None:
    info = zipfile.ZipInfo(name, date_time=_EPOCH)
    info.compress_type = zipfile.ZIP_DEFLATED
    archive.writestr(info, data)


def save_session(path: Union[str, Path], service: "ProtectionService") -> Path:
    """Write ``service`` — parent index plus cached subset sub-sessions —
    to a session bundle.

    Parameters
    ----------
    path:
        Destination file (parent directories are created).  By convention
        bundles use the ``.tppsess`` suffix, but any path is accepted.
    service:
        A live :class:`~repro.service.ProtectionService`.  Its subset cache
        is copied point-in-time; concurrent queries keep running.

    Returns
    -------
    pathlib.Path
        The written path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    subsets = service.cached_subset_sessions()
    with tempfile.TemporaryDirectory(prefix="tppsess-") as scratch:
        scratch_dir = Path(scratch)
        members: List[str] = []
        parent_file = scratch_dir / _PARENT_NAME
        save_snapshot(parent_file, service.index, service.problem.constant)
        for position, subsession in enumerate(subsets.values()):
            member = f"subset-{position:04d}.tppsnap"
            save_snapshot(
                scratch_dir / member,
                subsession.index,
                subsession.problem.constant,
            )
            members.append(member)
        manifest = {
            "format_version": SESSION_VERSION,
            "kind": "session",
            "parent": _PARENT_NAME,
            "content_hash": index_content_hash(service.index),
            "subsets": members,
        }
        with zipfile.ZipFile(path, "w") as archive:
            _write_member(
                archive,
                _MANIFEST_NAME,
                json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
            )
            _write_member(archive, _PARENT_NAME, parent_file.read_bytes())
            for member in members:
                _write_member(archive, member, (scratch_dir / member).read_bytes())
    return path


def _read_manifest(archive: zipfile.ZipFile, path: Path) -> dict:
    try:
        raw = archive.read(_MANIFEST_NAME)
    except KeyError:
        raise SnapshotFormatError(
            f"{path} is not a session bundle: no {_MANIFEST_NAME} member"
        ) from None
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotFormatError(
            f"{path}: corrupted bundle manifest ({error})"
        ) from None
    if not isinstance(manifest, dict) or manifest.get("kind") != "session":
        raise SnapshotFormatError(
            f"{path}: bundle manifest does not describe a session"
        )
    version = manifest.get("format_version")
    if version != SESSION_VERSION:
        raise SnapshotFormatError(
            f"{path}: unsupported session bundle version {version!r} "
            f"(this library reads version {SESSION_VERSION})"
        )
    return manifest


def _member_names(manifest: dict, path: Path) -> List[str]:
    parent = manifest.get("parent")
    subsets = manifest.get("subsets")
    names = [parent] + list(subsets if isinstance(subsets, list) else [None])
    for name in names:
        # member names come from the manifest; refuse anything that could
        # escape the extraction directory (zip-slip) or is plainly malformed
        if not isinstance(name, str) or "/" in name or "\\" in name or name.startswith("."):
            raise SnapshotFormatError(
                f"{path}: bundle manifest names invalid member {name!r}"
            )
    return [str(name) for name in names]


def _extract_member(
    archive: zipfile.ZipFile, name: str, target_dir: Path, path: Path
) -> Path:
    try:
        data = archive.read(name)
    except KeyError:
        raise SnapshotFormatError(
            f"{path}: bundle member {name!r} named by the manifest is missing"
        ) from None
    target = target_dir / name
    target.write_bytes(data)
    return target


def load_session(
    path: Union[str, Path],
    allow_pickle: bool = True,
    max_cached_subsets: Optional[int] = 32,
    kernel: Optional[str] = None,
) -> "ProtectionService":
    """Restore a session bundle written by :func:`save_session`.

    The parent session cold-starts exactly like
    :meth:`ProtectionService.from_snapshot
    <repro.service.ProtectionService.from_snapshot>` (``index_source``
    reports ``"snapshot"``), and every bundled subset sub-session is wired
    back into the LRU cache in its saved order — so the restored replica
    serves those subset queries without re-deriving their sub-sessions.

    Parameters
    ----------
    path:
        A ``.tppsess`` file written by :func:`save_session`.
    allow_pickle:
        As in :func:`repro.persistence.load_snapshot` — applies to every
        snapshot member of the bundle.
    max_cached_subsets:
        LRU bound of the restored session.  When the bundle holds more
        sub-sessions than the bound, only the most recently used ones
        survive (same eviction rule as a live session).
    kernel:
        As in the :class:`~repro.service.ProtectionService` constructor
        (bundles store arrays, not a kernel choice; the restored session
        and every restored sub-session resolve their own).

    Raises
    ------
    repro.exceptions.SnapshotFormatError
        If the file is not a session bundle, the manifest is corrupt, a
        member is missing/unreadable, or a bundled subset is not a subset
        of the parent's targets.
    repro.exceptions.SnapshotMismatchError
        If the parent snapshot's content hash disagrees with the hash the
        manifest was written with — the bundle was tampered with or
        assembled from mismatched files.
    """
    from repro.core.model import TPPProblem
    from repro.service.service import ProtectionService

    path = Path(path)
    if not zipfile.is_zipfile(path):
        raise SnapshotFormatError(
            f"{path} is not a session bundle (not a zip archive); "
            "plain *.tppsnap snapshots load via ProtectionService.from_snapshot"
        )
    with zipfile.ZipFile(path) as archive:
        manifest = _read_manifest(archive, path)
        names = _member_names(manifest, path)
        with tempfile.TemporaryDirectory(prefix="tppsess-") as scratch:
            scratch_dir = Path(scratch)
            extracted = [
                _extract_member(archive, name, scratch_dir, path) for name in names
            ]
            parent_problem = TPPProblem.from_snapshot(
                extracted[0], allow_pickle=allow_pickle
            )
            expected_hash = manifest.get("content_hash")
            actual_hash = index_content_hash(parent_problem.build_index())
            if expected_hash != actual_hash:
                raise SnapshotMismatchError(
                    f"{path}: the parent snapshot's content hash "
                    f"{actual_hash[:12]}… does not match the bundle manifest's "
                    f"{str(expected_hash)[:12]}… — the bundle was tampered "
                    "with or assembled from mismatched files"
                )
            service = ProtectionService(
                parent_problem, max_cached_subsets=max_cached_subsets, kernel=kernel
            )
            service._index_source = "snapshot"
            known = set(service.targets)
            for member in extracted[1:]:
                sub_problem = TPPProblem.from_snapshot(
                    member, allow_pickle=allow_pickle
                )
                if not set(sub_problem.targets).issubset(known):
                    raise SnapshotFormatError(
                        f"{path}: bundled sub-session {member.name!r} targets "
                        "are not a subset of the parent session's targets"
                    )
                subsession = ProtectionService(
                    sub_problem, max_cached_subsets=max_cached_subsets, kernel=kernel
                )
                subsession._index_source = "snapshot"
                service._adopt_subsession(subsession)
    return service
