"""Motif patterns, target-subgraph enumeration and similarity scores."""

from repro.motifs.base import (
    MotifInstance,
    MotifPattern,
    available_motifs,
    coerce_motif,
    get_motif,
    register_motif,
)
from repro.motifs.enumeration import (
    CoverageState,
    InstanceId,
    TargetSubgraphIndex,
)
from repro.motifs.extra import Clique4Motif, CliqueMotif, Path4Motif, PathMotif
from repro.motifs.rectangle import RectangleMotif
from repro.motifs.rectri import RecTriMotif
from repro.motifs.similarity import (
    default_constant,
    dissimilarity,
    similarity,
    similarity_by_target,
    total_similarity,
)
from repro.motifs.triangle import TriangleMotif
from repro.motifs.updates import DeltaOutcome, EdgeDelta, apply_delta

__all__ = [
    "EdgeDelta",
    "DeltaOutcome",
    "apply_delta",
    "MotifPattern",
    "MotifInstance",
    "register_motif",
    "get_motif",
    "available_motifs",
    "coerce_motif",
    "TriangleMotif",
    "RectangleMotif",
    "RecTriMotif",
    "PathMotif",
    "CliqueMotif",
    "Path4Motif",
    "Clique4Motif",
    "TargetSubgraphIndex",
    "CoverageState",
    "InstanceId",
    "similarity",
    "similarity_by_target",
    "total_similarity",
    "dissimilarity",
    "default_constant",
]
