"""Exception hierarchy for the ``repro`` package.

Every error raised on purpose by the library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations

from typing import Iterable


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Base class for graph-substrate errors."""


class NodeNotFoundError(GraphError, KeyError):
    """A node referenced by the caller is not present in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by the caller is not present in the graph."""

    def __init__(self, edge: object) -> None:
        super().__init__(f"edge {edge!r} is not in the graph")
        self.edge = edge


class GraphFormatError(GraphError, ValueError):
    """An edge-list file or serialized graph could not be parsed."""


class SelfLoopError(GraphError, ValueError):
    """A self-loop ``(u, u)`` was passed where a proper edge is required."""


class GraphGenerationError(GraphError, ValueError):
    """A synthetic-graph generator was called with invalid parameters."""


class MotifError(ReproError):
    """Base class for motif / target-subgraph errors."""


class UnknownMotifError(MotifError, KeyError):
    """A motif name was requested that is not in the registry."""

    def __init__(self, name: object, known: Iterable[str]) -> None:
        super().__init__(
            f"unknown motif {name!r}; known motifs: {sorted(known)}"
        )
        self.name = name
        self.known = tuple(sorted(known))


class MotifDefinitionError(MotifError, ValueError):
    """A parametrised motif was constructed with invalid parameters."""


class TPPError(ReproError):
    """Base class for errors in the TPP core (problem setup / solving)."""


class EngineError(TPPError, ValueError):
    """A gain engine was selected or configured inconsistently."""


class NativeKernelError(TPPError, RuntimeError):
    """The native coverage kernel was requested but cannot be provided.

    Raised only when ``kernel="native"`` is selected *explicitly* and the
    shared library can neither be found prebuilt nor compiled (no C
    compiler, compilation failure).  The default ``kernel="auto"`` never
    raises — it falls back to the numpy kernel with a one-time log line.
    """


class ConstantError(TPPError, ValueError):
    """The dissimilarity constant ``C`` violates ``C >= s(∅, T)``."""


class InvalidTargetError(TPPError, ValueError):
    """A target link is invalid (e.g. not an edge of the original graph)."""


class BudgetError(TPPError, ValueError):
    """A budget or budget division is invalid (negative, inconsistent...)."""


class DeltaError(TPPError, ValueError):
    """An edge delta cannot be applied to the live index.

    Raised when a batch of graph updates is inconsistent with the state it
    is applied to: inserting an edge that already exists (or a self-loop,
    or a hidden target link), deleting an edge that is absent, or shrinking
    the dissimilarity constant ``C`` below the post-delta similarity.
    """


class PredictionError(ReproError):
    """Base class for link-prediction / attack-simulation errors."""


class PredictorConfigError(PredictionError, ValueError):
    """A link predictor was constructed with invalid parameters."""


class AnonymizationError(ReproError):
    """Base class for anonymization-baseline errors."""


class PerturbationError(AnonymizationError, ValueError):
    """An anonymization perturbation was configured with invalid parameters."""


class UtilityError(ReproError):
    """Base class for graph-utility computation errors."""


class DatasetError(ReproError):
    """Base class for dataset loading / generation errors."""


class PersistenceError(ReproError):
    """Base class for index-snapshot persistence errors."""


class SnapshotFormatError(PersistenceError, ValueError):
    """A snapshot file could not be read back.

    Raised on a bad magic marker, an unsupported format version, a
    truncated or corrupted payload, or inconsistent flat arrays — anything
    that means the bytes on disk cannot be trusted to reproduce the index
    that was saved.
    """


class SnapshotMismatchError(PersistenceError, ValueError):
    """A snapshot does not describe the given ``(graph, targets, motif)``.

    Raised when a loaded snapshot's content hash disagrees with the live
    objects it is checked against — a stale snapshot (the graph, targets,
    motif or constant changed since it was written) must never silently
    serve wrong gains.
    """


class ServerError(ReproError):
    """Base class for HTTP serving-layer errors (:mod:`repro.server`)."""


class ServerProtocolError(ServerError, ValueError):
    """An HTTP request or response violates the wire protocol.

    Raised while parsing a malformed request line, header block or body —
    anything the minimal HTTP/1.1 front cannot interpret.  The server
    answers such requests with ``400 Bad Request``.
    """


class PayloadTooLargeError(ServerProtocolError):
    """A request body exceeds the server's byte limit.

    A well-formed request that is simply too big is distinguishable from a
    malformed one, so the server answers ``413 Payload Too Large`` instead
    of ``400`` — a client seeing 413 should shrink the request, not fix
    its syntax.  Carries the declared ``content_length`` and the ``limit``
    it exceeded.
    """

    def __init__(self, content_length: int, limit: int) -> None:
        super().__init__(
            f"request body of {content_length} bytes exceeds the "
            f"{limit}-byte limit"
        )
        self.content_length = content_length
        self.limit = limit


class ServerOverloadedError(ServerError):
    """The serving front refused a request under backpressure.

    Raised client-side on a ``429 Too Many Requests`` (the bounded
    admission queue is full) or ``503 Service Unavailable`` (the server is
    draining before shutdown) response.  Carries the HTTP ``status`` and
    the server's suggested ``retry_after`` seconds, so callers can back
    off instead of hammering a saturated replica.
    """

    def __init__(self, status: int, reason: str, retry_after: float = 1.0) -> None:
        super().__init__(f"server refused the request ({status}): {reason}")
        self.status = status
        self.retry_after = retry_after


class ArtifactNotFoundError(ServerError, KeyError):
    """A content hash does not name any published artifact in the store."""

    def __init__(self, content_hash: object) -> None:
        super().__init__(
            f"no published artifact with content hash {content_hash!r}"
        )
        self.content_hash = content_hash


class ExperimentError(ReproError):
    """Base class for experiment-harness errors."""
