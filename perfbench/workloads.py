"""The serving benchmark's workloads: fixed graphs, seeded request sequences.

Every workload is a fixed instance (graph, targets, motif, delta chain)
plus a request *catalogue*; a run's sequence is the catalogue repeated a
fixed number of times, each repetition shuffled by the run's ``--seed``.
So every seed sends the same requests, the same number of times, and only
the order changes.  Greedy requests carry their position as ``seed`` (the
greedy methods ignore it), which makes every request distinct, so no two
ever coalesce onto one solve and the work done is fixed.  Every workload
is one closed-loop connection: the next request goes out when the
previous answer is back.

:func:`plan` builds everything a run needs outside the timed window: the
snapshot the server cold-starts from, the ordered operations, the
``.tppdelta`` chain and the in-process reference answers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.model import TPPProblem
from repro.datasets.targets import sample_degree_weighted_targets
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.motifs.updates import EdgeDelta
from repro.persistence import index_content_hash, save_delta_snapshot
from repro.service import ProtectionRequest, ProtectionService, is_greedy_method

#: The paper's methods a paper-mix window sends; RD goes in its tail.
WINDOW_METHODS = (
    "SGB-Greedy",
    "SGB-Greedy+BB",
    "CT-Greedy:TBD",
    "WT-Greedy:TBD",
    "RDT",
)
GREEDY_METHODS = ("SGB-Greedy", "CT-Greedy:TBD", "WT-Greedy:TBD")


#: Budgets, as fractions of the instance's initial similarity.
BUDGETS = (0.05, 0.1, 0.15, 0.2, 0.3)
#: Fixed target subsets in the catalogue, and targets in each.
SUBSETS = 5
SUBSET_SIZE = 3
#: Edges in one delta, half deletions and half insertions.
DELTA_EDGES = 10
#: Solves are checked against an in-process reference on every
#: ``CHECK_EVERY``-th session state; the others for kernel and state only.
CHECK_EVERY = 5
#: Solves every run sends at least: p99 needs 10 samples beyond it.
MIN_SOLVES = 1000


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one fixed instance.

    The instance is a powerlaw-cluster graph of ``nodes`` nodes (attach 5,
    seed 0) with ``targets`` degree-weighted targets.  The catalogue holds
    every method x budget pair on all targets plus :data:`SUBSETS` subset
    requests.  One ``POST /reload`` of the next delta follows every
    ``reload_every`` solves; with ``deltas_near_targets`` about half of a
    delta's edges touch a target endpoint, otherwise none comes within one
    hop of one, so no target's instances change and every cached subset
    sub-session survives.  ``tail_solves`` solves of ``tail_method``
    (cycling through the budgets) follow the window.
    """

    name: str
    methods: Tuple[str, ...]
    nominal_rps: float
    reload_every: int
    deltas_near_targets: bool
    tail_method: str = ""
    tail_solves: int = 0
    nodes: int = 12000
    targets: int = 100
    motif: str = "rectangle"


# Both workloads serve one 12k-node rectangle index with budgets large
# enough that a solve's time is mostly the native coverage kernel: that
# holds steady from run to run, where interpreter-bound work (~2 ms solves
# on a small graph, RD's sort and shuffle of every edge) drifts with the
# host's speed.  Reloads are spread over the window, so that a short host
# slowdown cannot move all of them at once.  paper-mix: the paper's methods,
# fixed target subsets whose sub-sessions stay cached (its deltas stay
# away from the targets), RD after the window.  live-updates: reloads that
# touch targets, so subset sub-sessions are evicted and rebuilt.
WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-mix",
            methods=WINDOW_METHODS,
            nominal_rps=60.0,
            reload_every=20,
            deltas_near_targets=False,
            tail_method="RD",
            tail_solves=20,
        ),
        Workload(
            name="live-updates",
            methods=GREEDY_METHODS,
            nominal_rps=30.0,
            reload_every=10,
            deltas_near_targets=True,
        ),
    )
}

#: Instance sizes of the smoke scale the benchmark's own tests run.
SMOKE = {"nodes": 300, "targets": 6}


def at_scale(workload: Workload, scale: str) -> Workload:
    """``workload`` itself, or its tiny smoke-test instance."""
    if scale == "full":
        return workload
    if scale == "smoke":
        return replace(
            workload,
            nodes=SMOKE["nodes"],
            targets=SMOKE["targets"],
            motif="triangle",
        )
    raise ValueError(f"unknown scale {scale!r}")


@dataclass
class Solve:
    """One ``POST /solve`` and the answer it must get (``protectors`` is
    None where the reference was not computed)."""

    request: ProtectionRequest
    protectors: Optional[List[List[int]]]
    content_hash: str


@dataclass
class Reload:
    """One ``POST /reload`` of a delta and the hash it must land on."""

    delta: Path
    content_hash: str


#: One step of a sequence.
Operation = Union[Solve, Reload]


@dataclass
class Plan:
    """Everything one run sends, with the answers it expects."""

    workload: Workload
    snapshot: Path
    kernel: str
    warmup: List[Solve]
    window: List[Operation]
    tail: List[Operation]
    shape: Dict[str, object] = field(default_factory=dict)


def solves_per_run(workload: Workload, seconds: float) -> int:
    """Solves in the window: ``seconds`` at the nominal rate, >= MIN_SOLVES,
    rounded up to whole catalogue repetitions."""
    per_cycle = len(workload.methods) * len(BUDGETS) + SUBSETS
    wanted = max(MIN_SOLVES, seconds * workload.nominal_rps)
    return per_cycle * math.ceil(wanted / per_cycle)


def _budget(fraction: float, initial: int) -> int:
    return max(1, int(fraction * initial))


def _catalogue(
    workload: Workload, targets: Sequence[Edge], initial: int
) -> List[ProtectionRequest]:
    catalogue = [
        ProtectionRequest(method, _budget(value, initial), seed=index)
        for index, (method, value) in enumerate(
            (method, value) for method in workload.methods for value in BUDGETS
        )
    ]
    rng = random.Random(f"{workload.name}/subsets")
    ordered = sorted(targets)
    chosen: List[Tuple[Edge, ...]] = []
    while len(chosen) < SUBSETS:
        subset = tuple(sorted(rng.sample(ordered, SUBSET_SIZE)))
        if subset not in chosen:
            chosen.append(subset)
    for position, subset in enumerate(chosen):
        catalogue.append(
            ProtectionRequest(
                workload.methods[position % len(workload.methods)],
                _budget(BUDGETS[position % len(BUDGETS)], initial),
                seed=len(catalogue),
                targets=subset,
            )
        )
    return catalogue


def _sequence(
    catalogue: Sequence[ProtectionRequest], solves: int, seed: int
) -> List[ProtectionRequest]:
    rng = random.Random(seed)
    sequence: List[ProtectionRequest] = []
    while len(sequence) < solves:
        cycle = list(catalogue)
        rng.shuffle(cycle)
        sequence.extend(cycle)
    return [
        request.with_overrides(seed=position) if is_greedy_method(request.method) else request
        for position, request in enumerate(sequence)
    ]


class _Answers:
    """In-process reference answers on one session state, memoised by request."""

    def __init__(self, service: ProtectionService) -> None:
        self.service = service
        self.content_hash = index_content_hash(service.index)
        self._memo: Dict[ProtectionRequest, List[List[int]]] = {}

    def solve(self, request: ProtectionRequest, check: bool = True) -> Solve:
        if not check:
            return Solve(request, None, self.content_hash)
        key = request.with_overrides(seed=0) if is_greedy_method(request.method) else request
        if key not in self._memo:
            result = self.service.solve(key)
            self._memo[key] = [list(edge) for edge in result.protectors]
        return Solve(request, self._memo[key], self.content_hash)


class _DeltaChain:
    """The seeded ``.tppdelta`` chain, drawn on a phase-1 graph kept in step."""

    def __init__(self, workload: Workload, service: ProtectionService, work: Path) -> None:
        self.workload = workload
        self.work = work
        self.rng = random.Random(f"{workload.name}/deltas")
        self.phase1: Graph = service.problem.phase1_graph.copy()
        self.targets = set(service.targets)
        endpoints = {node for target in self.targets for node in target}
        if workload.deltas_near_targets:
            self.nodes = sorted(self.phase1.nodes())
            self.endpoints = sorted(endpoints)
        else:
            # an edge joining two nodes outside every target endpoint's
            # closed neighbourhood lies on no target's rectangle or triangle
            near = set(endpoints)
            for node in endpoints:
                near.update(self.phase1.neighbors(node))
            self.nodes = sorted(set(self.phase1.nodes()) - near)
            self.endpoints = self.nodes
        self.allowed = set(self.nodes)
        self.count = 0

    def _next_delta(self) -> EdgeDelta:
        """``delta_edges`` edges, half deletions and half insertions."""
        size, rng, phase1 = DELTA_EDGES, self.rng, self.phase1
        deletions: List[Edge] = []
        while len(deletions) < size // 2:
            u = rng.choice(self.endpoints if len(deletions) % 2 == 0 else self.nodes)
            neighbours = sorted(phase1.neighbors(u) & self.allowed)
            if not neighbours:
                continue
            edge = canonical_edge(u, rng.choice(neighbours))
            if edge not in self.targets and edge not in deletions:
                deletions.append(edge)
        insertions: List[Edge] = []
        while len(insertions) < size - size // 2:
            u = rng.choice(self.endpoints if len(insertions) % 2 == 0 else self.nodes)
            v = rng.choice(self.nodes)
            if u == v:
                continue
            edge = canonical_edge(u, v)
            if (
                edge in self.targets
                or edge in insertions
                or edge in deletions
                or phase1.has_edge(*edge)
            ):
                continue
            insertions.append(edge)
        phase1.remove_edges_from(deletions)
        phase1.add_edges_from(insertions)
        return EdgeDelta.from_edges(insert=insertions, delete=deletions)

    def apply_next(self, answers: _Answers) -> Tuple[_Answers, Reload]:
        """Apply the next delta to ``answers``' session and save it."""
        delta = self._next_delta()
        parent = answers.content_hash
        answers.service.apply_delta(delta)
        after = _Answers(answers.service)
        self.count += 1
        path = self.work / f"delta-{self.count:04d}.tppdelta"
        save_delta_snapshot(path, delta, parent, after.content_hash)
        return after, Reload(path, after.content_hash)


def plan(workload: Workload, seed: int, seconds: float, work: Path) -> Plan:
    """Build the instance, its snapshot, the sequence and every reference."""
    work.mkdir(parents=True, exist_ok=True)
    graph = powerlaw_cluster_graph(
        workload.nodes, 5, 0.4, seed=0
    )
    targets = [
        canonical_edge(*target)
        for target in sample_degree_weighted_targets(
            graph, workload.targets, seed=0
        )
    ]
    problem = TPPProblem(graph, targets, motif=workload.motif)
    snapshot = problem.save_index(work / "index.tppsnap")
    service = ProtectionService.from_snapshot(snapshot)
    answers = _Answers(service)
    initial = service.pristine_similarity()
    instances = service.index.number_of_instances()
    catalogue = _catalogue(workload, service.targets, initial)
    solves = solves_per_run(workload, seconds)
    sequence = _sequence(catalogue, solves, seed)

    warmup = [answers.solve(request) for request in catalogue]
    chain = _DeltaChain(workload, service, work)
    window: List[Operation] = []
    tail: List[Operation] = []
    checked = 0
    for position, request in enumerate(sequence, start=1):
        check = chain.count % CHECK_EVERY == 0
        checked += check
        window.append(answers.solve(request, check))
        if position % workload.reload_every == 0:
            answers, reload = chain.apply_next(answers)
            window.append(reload)
    for position in range(workload.tail_solves):
        fraction = BUDGETS[position % len(BUDGETS)]
        request = ProtectionRequest(
            workload.tail_method, _budget(fraction, initial), seed=position
        )
        tail.append(answers.solve(request))
    reloads = chain.count

    subset_requests = sum(1 for request in catalogue if request.targets is not None)
    shape: Dict[str, object] = {
        "nodes": graph.number_of_nodes(),
        "edges": graph.number_of_edges(),
        "motif": workload.motif,
        "targets": len(targets),
        "instances": instances,
        "initial_similarity": initial,
        "solves": solves,
        "method_shares": {
            method: round(
                sum(1 for request in catalogue if request.method == method)
                / len(catalogue),
                4,
            )
            for method in workload.methods
        },
        "budgets": sorted({request.budget for request in catalogue}),
        "subset_share": round(subset_requests / len(catalogue), 4),
        "fixed_subsets": subset_requests,
        "tail_solves": {workload.tail_method: workload.tail_solves} if workload.tail_solves else None,
        "reloads": reloads,
        "delta_edges": DELTA_EDGES,
        "reload_every": workload.reload_every,
        "deltas_near_targets": workload.deltas_near_targets,
        "solves_checked_against_reference": checked,
        "connections": 1,
        "loop": "closed",
    }
    return Plan(
        workload=workload,
        snapshot=snapshot,
        kernel=service.kernel,
        warmup=warmup,
        window=window,
        tail=tail,
        shape=shape,
    )
