"""Differential suite: whole native selections vs the numpy kernel's loops.

On the native kernel, SGB-, CT- and WT-Greedy run their whole selection in
one C call (``CoverageState.drive_top_gain`` / ``drive_scored_pairs``) on
state copies that start with the session prototype's warm heaps, and the
random baselines, SGB+BB's commit and trace replays delete through one
batched kill walk (``kill_sequence``).  The numpy kernel runs the runners'
Python loops.  These tests pin the two to identical results — every
:class:`~repro.core.model.ProtectionResult` field except the runtime —
on random powerlaw-cluster instances and on the edge cases the drivers
special-case: CT's no-own-gain fallback, WT moving on early, zero
sub-budgets, warm prototypes after a delta, restricted sub-sessions, a
``copy()`` taken mid-walk and a pickled state.  RD and RDT are also pinned
to the edge-tuple formulation they replaced (shuffle the sorted edge
list).

Everything is skipped when the native kernel cannot be loaded (no
compiler, or ``REPRO_NATIVE=0``).
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._native import native_available
from repro.core.engines import CoverageEngine
from repro.core.model import TPPProblem
from repro.core.ct import ct_greedy
from repro.core.wt import wt_greedy
from repro.datasets.targets import sample_degree_weighted_targets
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import canonical_edge, edge_sort_key
from repro.motifs.updates import EdgeDelta
from repro.service import ProtectionRequest, ProtectionService

pytestmark = pytest.mark.skipif(
    not native_available(),
    reason="native kernel not loadable (no compiler or REPRO_NATIVE=0)",
)

MOTIFS = ("triangle", "rectangle", "rectri")

#: (method, budget_division override) pairs every instance is solved with.
METHODS = (
    ("SGB-Greedy", None),
    ("SGB-Greedy+BB", None),
    ("CT-Greedy:TBD", None),
    ("CT-Greedy:DBD", None),
    ("CT-Greedy:TBD", "uniform"),
    ("WT-Greedy:TBD", None),
    ("WT-Greedy:DBD", None),
    ("RDT", None),
    ("RD", None),
)


def make_problem(nodes, attach, motif, n_targets, seed):
    graph = powerlaw_cluster_graph(nodes, attach, 0.4, seed=seed)
    targets = [
        canonical_edge(*target)
        for target in sample_degree_weighted_targets(graph, n_targets, seed=seed)
    ]
    return TPPProblem(graph, targets, motif=motif)


def sessions(problem):
    """A native and a numpy session sharing one built index."""
    native = ProtectionService(problem, kernel="native")
    numpy = ProtectionService(problem, kernel="numpy")
    assert native.kernel == "native" and numpy.kernel == "numpy"
    return native, numpy


def budgets_for(service):
    initial = service.pristine_similarity()
    pool = service.index.number_of_candidate_edges()
    return sorted({0, 1, max(1, initial // 10), max(1, initial // 3), pool + 7})


def assert_sessions_agree(native, numpy, budgets, targets=None):
    for method, division in METHODS:
        for budget in budgets:
            request = ProtectionRequest(
                method, budget, seed=budget + 11, budget_division=division,
                targets=targets,
            )
            expected = numpy.solve(request)
            got = native.solve(request)
            assert got.reproducible_fields() == expected.reproducible_fields(), (
                method,
                division,
                budget,
            )
            assert native.evaluate_trace(got.protectors, targets) == (
                got.similarity_trace
            )


@given(
    nodes=st.integers(min_value=200, max_value=2000),
    attach=st.integers(min_value=2, max_value=4),
    motif=st.sampled_from(MOTIFS),
    n_targets=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_whole_solves_match_across_kernels(nodes, attach, motif, n_targets, seed):
    problem = make_problem(nodes, attach, motif, n_targets, seed)
    native, numpy = sessions(problem)
    assert_sessions_agree(native, numpy, budgets_for(native))
    # WT with a custom processing order (not reachable through a request)
    order = tuple(random.Random(seed).sample(problem.targets, len(problem.targets)))
    for budget in budgets_for(native):
        got, expected = (
            wt_greedy(
                problem,
                budget,
                engine=CoverageEngine(problem, state=service._prototype.copy()),
                target_order=order,
            )
            for service in (native, numpy)
        )
        assert got.reproducible_fields() == expected.reproducible_fields()


@pytest.fixture(scope="module")
def instance():
    problem = make_problem(900, 3, "rectangle", 24, 5)
    native, numpy = sessions(problem)
    assert native.pristine_similarity() > 50
    return problem, native, numpy


def _with_instances(problem):
    """Targets with at least one instance, ascending by instance count."""
    by_target = problem.initial_similarity_by_target()
    return sorted(
        (target for target in problem.targets if by_target[target] > 0),
        key=lambda target: (by_target[target], edge_sort_key(target)),
    )


def test_ct_fallback_branch(instance):
    problem, native, numpy = instance
    by_target = problem.initial_similarity_by_target()
    small = _with_instances(problem)[:2]
    # two small targets with sub-budgets beyond their own instances: once
    # their own-gain edges are gone the max-gain fallback charges the rest
    quota = {target: by_target[target] + 4 for target in small}
    division = {target: quota.get(target, 0) for target in problem.targets}
    budget = sum(quota.values())
    request = ProtectionRequest("CT-Greedy:TBD", budget, budget_division=division)
    got, expected = native.solve(request), numpy.solve(request)
    assert got.reproducible_fields() == expected.reproducible_fields()
    charged = sum(len(got.allocation[target]) for target in small)
    # every own-gain pick kills >= 1 own instance, so extra picks are
    # fallback picks
    assert charged > sum(by_target[target] for target in small)


def test_wt_moves_on_early(instance):
    problem, native, numpy = instance
    by_target = problem.initial_similarity_by_target()
    first = _with_instances(problem)[0]
    order = (first,) + tuple(t for t in problem.targets if t != first)
    division = {target: 2 for target in problem.targets}
    division[first] = by_target[first] + 5
    budget = sum(division.values())
    results = []
    for service in (native, numpy):
        state = service._prototype.copy()
        engine = CoverageEngine(problem, state=state)
        results.append(
            wt_greedy(
                problem, budget, budget_division=division, engine=engine,
                target_order=order,
            )
        )
    got, expected = results
    assert got.reproducible_fields() == expected.reproducible_fields()
    assert len(got.allocation[first]) < division[first]
    assert any(got.allocation[target] for target in order[1:])


def test_zero_sub_budgets(instance):
    problem, native, numpy = instance
    division = {
        target: (3 if position % 2 else 0)
        for position, target in enumerate(problem.targets)
    }
    budget = sum(division.values()) + 4
    for method in ("CT-Greedy:TBD", "WT-Greedy:TBD"):
        request = ProtectionRequest(method, budget, budget_division=division)
        got, expected = native.solve(request), numpy.solve(request)
        assert got.reproducible_fields() == expected.reproducible_fields()
        for target, quota in division.items():
            if quota == 0:
                assert got.allocation[target] == ()


def test_warm_prototype_after_apply_delta():
    problem = make_problem(700, 3, "rectri", 16, 9)
    native, numpy = sessions(problem)
    phase1 = problem.phase1_graph
    targets = set(problem.targets)
    deletions = [edge for edge in sorted(phase1.edges()) if edge not in targets][:4]
    nodes = sorted(phase1.nodes())
    insertions = [
        canonical_edge(nodes[i], nodes[-1 - i])
        for i in range(3)
        if not phase1.has_edge(nodes[i], nodes[-1 - i])
    ]
    delta = EdgeDelta.from_edges(insert=insertions, delete=deletions)
    native.apply_delta(delta)
    numpy.apply_delta(delta)
    assert native.deltas_applied == numpy.deltas_applied == 1
    assert_sessions_agree(native, numpy, budgets_for(native))
    # the warm post-delta prototype answers like a cold session on the
    # updated problem
    cold = ProtectionService(native.problem, kernel="native")
    for method, division in METHODS:
        request = ProtectionRequest(method, 40, seed=3, budget_division=division)
        warm_result, cold_result = native.solve(request), cold.solve(request)
        assert warm_result.extra["service"]["index_source"] == "delta"
        assert {**warm_result.reproducible_fields(), "service": None} == {
            **cold_result.reproducible_fields(),
            "service": None,
        }


def test_restricted_sub_session(instance):
    problem, native, numpy = instance
    subset = tuple(_with_instances(problem)[-4:])
    assert_sessions_agree(native, numpy, (3, 25, 400), targets=subset)


def _mid_walk(service, picks):
    """A copy of the prototype after ``picks`` SGB deletions."""
    state = service._prototype.copy()
    if state.has_drivers:
        state.drive_top_gain(picks)
    else:
        for _ in range(picks):
            state.delete_edge(state.top_gain_edge()[0])
    return state


def test_copy_taken_mid_walk(instance):
    problem, native, numpy = instance
    native_state, numpy_state = _mid_walk(native, 12), _mid_walk(numpy, 12)
    assert native_state.deleted_edges == numpy_state.deleted_edges
    runs = []
    for state in (native_state, numpy_state):
        clone = state.copy()
        runs.append(
            ct_greedy(problem, 60, engine=CoverageEngine(problem, state=clone))
        )
        # the source keeps walking independently of the copy
        runs.append(
            wt_greedy(problem, 60, engine=CoverageEngine(problem, state=state))
        )
    fields = [run.reproducible_fields() for run in runs]
    assert fields[:2] == fields[2:]


def test_pickled_state(instance):
    problem, native, numpy = instance
    # pickled with its problem, so the revived state sits on the revived
    # problem's index (the heaps are dropped and rebuilt lazily)
    revived_problem, revived = pickle.loads(
        pickle.dumps((problem, _mid_walk(native, 9)))
    )
    assert revived.kernel == "native" and revived.has_drivers
    expected_state = _mid_walk(numpy, 9)
    assert revived.deleted_edges == expected_state.deleted_edges
    got = ct_greedy(
        revived_problem, 50, engine=CoverageEngine(revived_problem, state=revived)
    )
    expected = ct_greedy(
        problem, 50, engine=CoverageEngine(problem, state=expected_state)
    )
    assert got.reproducible_fields() == expected.reproducible_fields()


def test_random_baselines_match_edge_tuple_formulation(instance):
    problem, native, numpy = instance
    for budget in (0, 5, 300, problem.phase1_graph.number_of_edges() + 3):
        for seed in (0, 7):
            rd = native.solve(ProtectionRequest("RD", budget, seed=seed))
            pool = sorted(problem.phase1_graph.edges(), key=edge_sort_key)
            random.Random(seed).shuffle(pool)
            assert rd.protectors == tuple(pool[:budget])
            rdt = native.solve(ProtectionRequest("RDT", budget, seed=seed))
            pool = problem.build_index().candidate_edge_list()
            random.Random(seed).shuffle(pool)
            assert rdt.protectors == tuple(pool[:budget])
