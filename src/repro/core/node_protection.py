"""Target *node* privacy preserving (the paper's future-work extension).

The paper closes by listing "target node privacy preserving technologies" as
open work.  This module provides the natural lift of the link-level TPP
machinery to nodes: a target node's privacy concern is the set of its
incident relationships, so protecting the node means (1) hiding all of its
incident links (phase 1) and (2) deleting protectors so that subgraph-based
link prediction cannot re-infer *any* of them (phase 2).  All link-level
algorithms, budgets and guarantees carry over unchanged because the node
problem is exactly a link problem with a structured target set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.ct import ct_greedy
from repro.core.model import ProtectionResult, TPPProblem
from repro.core.sgb import sgb_greedy
from repro.core.wt import wt_greedy
from repro.exceptions import InvalidTargetError
from repro.graphs.graph import Edge, Graph, Node, canonical_edge
from repro.motifs.base import MotifPattern

__all__ = ["NodeProtectionResult", "node_targets", "protect_target_nodes"]


def node_targets(graph: Graph, nodes: Sequence[Node]) -> Tuple[Edge, ...]:
    """Return the incident links of ``nodes`` as a canonical target tuple.

    Raises
    ------
    InvalidTargetError
        If a node is missing from the graph or has no incident links (there
        is nothing to hide for an isolated node).
    """
    targets = []
    seen = set()
    for node in nodes:
        if not graph.has_node(node):
            raise InvalidTargetError(f"target node {node!r} is not in the graph")
        neighbors = graph.neighbors(node)
        if not neighbors:
            raise InvalidTargetError(f"target node {node!r} has no incident links")
        for neighbor in sorted(neighbors, key=str):
            edge = canonical_edge(node, neighbor)
            if edge not in seen:
                seen.add(edge)
                targets.append(edge)
    return tuple(targets)


@dataclass(frozen=True)
class NodeProtectionResult:
    """Outcome of a node-level protection run.

    Wraps the underlying link-level :class:`ProtectionResult` and adds the
    node-level bookkeeping (which nodes were protected and how exposed each
    of them remains).
    """

    nodes: Tuple[Node, ...]
    link_result: ProtectionResult
    problem: TPPProblem

    @property
    def fully_protected(self) -> bool:
        """Return whether no incident link of any target node is inferable."""
        return self.link_result.fully_protected

    @property
    def protectors(self) -> Tuple[Edge, ...]:
        """The deleted protector links."""
        return self.link_result.protectors

    def released_graph(self) -> Graph:
        """Return the released graph (incident links and protectors removed)."""
        return self.link_result.released_graph(self.problem)

    def exposure_by_node(self) -> Dict[Node, int]:
        """Return, per target node, how many of its links remain inferable.

        A link counts as inferable when at least one target subgraph around
        it survives in the released graph.
        """
        released = self.released_graph()
        motif = self.problem.motif
        exposure: Dict[Node, int] = {node: 0 for node in self.nodes}
        for target in self.problem.targets:
            if motif.count(released, target) == 0:
                continue
            for node in self.nodes:
                if node in target:
                    exposure[node] += 1
        return exposure

    def summary(self) -> str:
        """Return a one-line human-readable summary."""
        exposure = sum(self.exposure_by_node().values())
        return (
            f"node-TPP over {len(self.nodes)} nodes "
            f"({len(self.problem.targets)} incident links): "
            f"{self.link_result.summary()}; residual exposed links: {exposure}"
        )


def protect_target_nodes(
    graph: Graph,
    nodes: Sequence[Node],
    budget: int,
    motif: Union[str, MotifPattern] = "triangle",
    algorithm: str = "sgb",
    budget_division: Union[str, Mapping[Edge, int]] = "tbd",
    engine: str = "coverage",
    lazy: Optional[bool] = None,
) -> NodeProtectionResult:
    """Protect every incident link of the given target nodes.

    Parameters
    ----------
    graph:
        The original social graph.
    nodes:
        The nodes whose relationships must stay hidden.
    budget:
        Protector deletion budget ``k`` (on top of hiding the incident links).
    motif:
        Adversary's subgraph pattern.
    algorithm:
        ``"sgb"``, ``"ct"`` or ``"wt"`` — which link-level greedy to run.
    budget_division:
        Budget division for the multi-local-budget algorithms.
    engine:
        Marginal-gain engine (``"coverage"`` or ``"recount"``).
    lazy:
        Lazy evaluation for the SGB greedy (default: on for the coverage
        engine); ignored by the other algorithms.
    """
    targets = node_targets(graph, nodes)
    problem = TPPProblem(graph, targets, motif=motif)
    name = algorithm.lower()
    if name == "sgb":
        link_result = sgb_greedy(problem, budget, engine=engine, lazy=lazy)
    elif name == "ct":
        link_result = ct_greedy(
            problem, budget, budget_division=budget_division, engine=engine
        )
    elif name == "wt":
        link_result = wt_greedy(
            problem, budget, budget_division=budget_division, engine=engine
        )
    else:
        raise InvalidTargetError(
            f"unknown algorithm {algorithm!r}; expected 'sgb', 'ct' or 'wt'"
        )
    return NodeProtectionResult(
        nodes=tuple(nodes), link_result=link_result, problem=problem
    )
