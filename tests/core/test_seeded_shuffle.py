"""RD/RDT's seeded shuffle: the C port against ``random.Random.shuffle``.

:func:`repro.core.baselines.shuffle_ids` must give the permutation
``random.Random.shuffle`` gives and leave the generator in the same state,
on the native kernel and under ``REPRO_NATIVE=0`` alike.  The lengths
straddle MT19937's 624-word refill; 5,585 and 59,975 are the benchmark
instance's RDT candidate pool and RD edge set.  The RD/RDT results are
pinned against the pure-Python form of the baselines.
"""

import random

import numpy as np
import pytest

from repro._native import load_kernel
from repro.core import baselines
from repro.core.baselines import (
    random_deletion,
    random_target_subgraph_deletion,
    shuffle_ids,
)
from repro.core.model import TPPProblem
from repro.core.selection import similarity_trace
from repro.datasets.targets import sample_random_targets
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.indexed import NP_LONG

LENGTHS = (0, 1, 2, 623, 624, 625, 1249, 5585, 59975)
SEEDS = (0, 1, 42, 2**40 + 3, "rd/rdt")


@pytest.fixture(params=["native", "fallback"])
def leg(request, monkeypatch):
    if request.param == "fallback":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    else:
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
    return request.param


def assert_leg_ran(leg):
    """The native leg took the C path whenever a kernel is loadable."""
    if leg == "native":
        assert bool(baselines._native_shuffle_ok) == (load_kernel() is not None)


@pytest.mark.parametrize("length", LENGTHS)
def test_permutation_matches_random_shuffle(leg, length):
    for seed in SEEDS:
        expected = list(range(length))
        random.Random(seed).shuffle(expected)
        ids = np.arange(length, dtype=NP_LONG)
        shuffle_ids(ids, random.Random(seed))
        assert ids.tolist() == expected, seed
    assert_leg_ran(leg)


@pytest.mark.parametrize("length", LENGTHS)
def test_a_callers_generator_ends_in_pythons_state(leg, length):
    python_rng, native_rng = random.Random(2020), random.Random(2020)
    for rng in (python_rng, native_rng):
        # mid-buffer position and a cached gauss draw
        [rng.random() for _ in range(700)]
        rng.gauss(0.0, 1.0)
    pool = [5 * value + 3 for value in range(length)]
    expected = list(pool)
    python_rng.shuffle(expected)
    ids = np.array(pool, dtype=NP_LONG)
    shuffle_ids(ids, native_rng)
    assert ids.tolist() == expected
    assert native_rng.getstate() == python_rng.getstate()
    assert native_rng.random() == python_rng.random()
    assert_leg_ran(leg)


def test_a_subclass_keeps_its_own_draws(leg):
    class Biased(random.Random):
        def random(self):
            return 0.0

        def getrandbits(self, k):
            return 0

    expected = list(range(50))
    Biased(3).shuffle(expected)
    ids = np.arange(50, dtype=NP_LONG)
    shuffle_ids(ids, Biased(3))
    assert ids.tolist() == expected


@pytest.fixture(scope="module")
def problem():
    graph = powerlaw_cluster_graph(150, 3, 0.5, seed=8)
    targets = sample_random_targets(graph, 5, seed=4)
    built = TPPProblem(graph, targets, motif="triangle")
    built.build_index()
    return built


def python_baseline(problem, budget, pool, rng):
    """RD/RDT as plain Python: shuffle the id list, delete the prefix."""
    index = problem.build_index()
    ids = list(pool)
    rng.shuffle(ids)
    chosen = [index.indexed_graph.edge_at(edge_id) for edge_id in ids[:budget]]
    state = index.new_state(kernel="numpy")
    initial = state.total_similarity()
    killed = []
    for edge in chosen:
        before = state.total_similarity()
        state.delete_edge(edge)
        killed.append(before - state.total_similarity())
    return tuple(chosen), tuple(similarity_trace(initial, killed))


@pytest.mark.parametrize("budget", [0, 1, 17, 10_000])
def test_rd_and_rdt_match_the_python_baselines(leg, problem, budget):
    index = problem.build_index()
    pools = {
        random_deletion: range(index.indexed_graph.number_of_edges()),
        random_target_subgraph_deletion: index.candidate_edge_ids(),
    }
    for runner, pool in pools.items():
        for seed in range(6):
            result = runner(problem, budget, seed=seed)
            expected = python_baseline(problem, budget, pool, random.Random(seed))
            assert (result.protectors, result.similarity_trace) == expected
        callers, reference = random.Random(99), random.Random(99)
        result = runner(problem, budget, seed=callers)
        expected = python_baseline(problem, budget, pool, reference)
        assert (result.protectors, result.similarity_trace) == expected
        assert callers.getstate() == reference.getstate()
