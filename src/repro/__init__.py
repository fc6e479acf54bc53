"""repro — Target Privacy Preserving (TPP) for social networks.

A from-scratch reproduction of *"Target Privacy Preserving for Social
Networks"* (Jiang et al., ICDE 2020): protect a small set of sensitive
*target* links against subgraph-pattern link prediction by deleting a
budget-limited set of *protector* links, while keeping the released graph's
utility high.

Typical usage — build a session once, serve many queries::

    from repro import ProtectionRequest, ProtectionService
    from repro.datasets import arenas_email_like, sample_random_targets

    graph = arenas_email_like()
    targets = sample_random_targets(graph, 20, seed=0)
    service = ProtectionService(graph, targets, motif="triangle")
    result = service.solve(ProtectionRequest("SGB-Greedy", budget=40))
    released = result.released_graph(service.problem)

The direct algorithm calls (:func:`sgb_greedy`, :func:`ct_greedy`,
:func:`wt_greedy`, the baselines) remain available for one-off runs; the
session API reuses the enumerated target-subgraph index across queries and
answers batches in one call (``service.solve_many(requests)``).

The top-level package re-exports the most frequently used names; the
subpackages (:mod:`repro.graphs`, :mod:`repro.motifs`, :mod:`repro.core`,
:mod:`repro.service`, :mod:`repro.persistence`, :mod:`repro.prediction`,
:mod:`repro.utility`, :mod:`repro.datasets`, :mod:`repro.experiments`)
contain the full API.

Built indexes persist: ``problem.save_index("g.tppsnap")`` writes a
versioned snapshot and ``ProtectionService.from_snapshot("g.tppsnap")``
cold-starts a session from it without enumerating (bit-identical traces).

Live graphs update in place: ``service.apply_delta(EdgeDelta.from_edges(
insert=[(1, 9)], delete=[(2, 3)]))`` splices the change into the running
index — bit-identical to a from-scratch rebuild, at the cost of only the
motif instances the edges touch — and keeps serving queries throughout.
"""

from repro.core import (
    ProtectionResult,
    TPPProblem,
    critical_budget,
    ct_greedy,
    is_fully_protected,
    random_deletion,
    random_target_subgraph_deletion,
    sgb_greedy,
    sgb_greedy_bb,
    verify_result,
    wt_greedy,
)
from repro.exceptions import ReproError
from repro.graphs import Graph, canonical_edge
from repro.motifs import DeltaOutcome, EdgeDelta, available_motifs, get_motif
from repro.persistence import (
    DeltaSnapshot,
    IndexSnapshot,
    index_content_hash,
    load_delta_snapshot,
    load_snapshot,
    save_delta_snapshot,
    save_snapshot,
    snapshot_content_hash,
    verify_snapshot_file,
)
from repro.prediction import AttackSimulator
from repro.service import (
    ProtectionRequest,
    ProtectionService,
    method_names,
    register_method,
)
from repro.utility import compare_graphs

__version__ = "1.3.0"

__all__ = [
    "__version__",
    "Graph",
    "canonical_edge",
    "TPPProblem",
    "ProtectionResult",
    "ProtectionService",
    "ProtectionRequest",
    "register_method",
    "method_names",
    "sgb_greedy",
    "sgb_greedy_bb",
    "ct_greedy",
    "wt_greedy",
    "random_deletion",
    "random_target_subgraph_deletion",
    "is_fully_protected",
    "verify_result",
    "critical_budget",
    "get_motif",
    "available_motifs",
    "IndexSnapshot",
    "save_snapshot",
    "load_snapshot",
    "snapshot_content_hash",
    "index_content_hash",
    "EdgeDelta",
    "DeltaOutcome",
    "DeltaSnapshot",
    "save_delta_snapshot",
    "load_delta_snapshot",
    "verify_snapshot_file",
    "AttackSimulator",
    "compare_graphs",
    "ReproError",
]
