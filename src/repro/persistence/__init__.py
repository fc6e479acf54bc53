"""Persistence layer: on-disk snapshots of built target-subgraph indexes.

Enumeration is the entire cost of opening a protection session; snapshots
make it a one-time cost.  :func:`save_snapshot` freezes a built
:class:`~repro.motifs.enumeration.TargetSubgraphIndex` (flat arrays, motif
identity, target list, constant ``C``, content hash) into a single
versioned file and :func:`load_snapshot` restores it bit-identically — a
cold-started session's greedy traces match a fresh build exactly.

The convenient entry points sit one layer up:
:meth:`repro.core.model.TPPProblem.save_index` /
:meth:`~repro.core.model.TPPProblem.from_snapshot`,
:meth:`repro.service.ProtectionService.from_snapshot`, and the
``repro-tpp build-index`` / ``repro-tpp protect --index-file`` CLI
commands.

Graph updates persist too: :func:`save_delta_snapshot` writes an ordered
edge delta as a small diff file tied to its parent state's content hash
(:mod:`repro.persistence.delta`), and :func:`verify_snapshot_file`
validates either kind of file — hashes and format version — without
constructing an index (``repro-tpp verify-index``).
"""

from repro.persistence.delta import (
    DELTA_MAGIC,
    DELTA_VERSION,
    DeltaSnapshot,
    load_delta_snapshot,
    save_delta_snapshot,
    verify_snapshot_file,
)
from repro.persistence.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    IndexSnapshot,
    index_content_hash,
    load_snapshot,
    save_snapshot,
    snapshot_content_hash,
)

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "IndexSnapshot",
    "load_snapshot",
    "save_snapshot",
    "snapshot_content_hash",
    "index_content_hash",
    "DELTA_MAGIC",
    "DELTA_VERSION",
    "DeltaSnapshot",
    "save_delta_snapshot",
    "load_delta_snapshot",
    "verify_snapshot_file",
]
