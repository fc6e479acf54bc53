"""The ``/solve`` body is byte for byte the old ``json_response``.

:func:`repro.server.app.solve_response` builds the answer from the result
with one ``json.dumps`` per section instead of ``to_dict`` plus
``json.dumps(sort_keys=True)`` of the whole body; these tests pin it to
the reference bytes for every registered method (SGB+BB, CT/WT ``allocation`` and
``budget_division``, RD/RDT), subset and labelled requests, both values of
the ``coalesced`` flag, and ``int``, ``str`` and float node labels.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.model import TPPProblem
from repro.datasets.targets import sample_random_targets
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import Graph, canonical_edge
from repro.server.app import solve_response
from repro.server.protocol import json_response
from repro.service import ProtectionRequest, ProtectionService, iter_methods

METHODS = [spec.name for spec in iter_methods()]


def relabelled(graph, label):
    return Graph(
        edges=[(label(u), label(v)) for u, v in graph.edges()],
        nodes=[label(node) for node in graph.nodes()],
    )


def session(label):
    graph = powerlaw_cluster_graph(90, 3, 0.5, seed=11)
    targets = sample_random_targets(graph, 5, seed=2)
    relabelled_targets = [canonical_edge(label(u), label(v)) for u, v in targets]
    return ProtectionService(
        TPPProblem(relabelled(graph, label), relabelled_targets, motif="triangle")
    )


SESSIONS = {
    "int": session(int),
    "str": session(lambda node: f"user-{node}"),
    "float": session(float),
}


def reference(result, server):
    """What the server answered before: ``to_dict`` + ``json_response``."""
    body = result.to_dict()
    extra = dict(body.get("extra", {}))
    extra["server"] = server
    body["extra"] = extra
    return json_response(200, body)


def server_block(coalesced):
    return {
        "coalesced": coalesced,
        "queue_seconds": 0.000125,
        "solve_seconds": 0.0421,
        "content_hash": "ab" * 32,
    }


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    labels=st.sampled_from(sorted(SESSIONS)),
    method=st.sampled_from(METHODS),
    budget=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2**31),
    subset=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
    label=st.one_of(st.none(), st.text(max_size=6)),
    coalesced=st.booleans(),
)
def test_solve_response_bytes_equal_json_response(
    labels, method, budget, seed, subset, label, coalesced
):
    service = SESSIONS[labels]
    targets = None if subset is None else tuple(service.targets[:subset])
    request = ProtectionRequest(method, budget, seed=seed, targets=targets, label=label)
    result = service.solve(request)
    server = server_block(coalesced)
    assert solve_response(result, server) == reference(result, server)


@pytest.mark.parametrize("method", ["CT-Greedy:TBD", "WT-Greedy:DBD"])
def test_explicit_budget_division_and_allocation(method):
    service = SESSIONS["str"]
    division = {target: 2 for target in service.targets}
    result = service.solve(ProtectionRequest(method, 10, budget_division=division))
    assert result.allocation is not None and result.budget_division is not None
    server = server_block(False)
    assert solve_response(result, server) == reference(result, server)


def test_a_clients_float_subset_targets_keep_their_encoding():
    """Float subset targets name int targets (``1.0 == 1``); the answer
    echoes the client's floats, as ``to_dict`` does."""
    service = session(int)  # no cached sub-session made from int targets
    server = server_block(False)
    floats = tuple((float(u), float(v)) for u, v in service.targets[:2])
    result = service.solve(ProtectionRequest("CT-Greedy:TBD", 8, targets=floats))
    assert all(type(node) is float for target in result.allocation for node in target)
    assert solve_response(result, server) == reference(result, server)
