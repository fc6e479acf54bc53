"""Differential tests: native C kernel vs numpy kernel.

The native kernel must be *observably bit-identical* to the numpy kernel,
which in turn is validated against the ``recount`` engine
(``tests/property/test_kernel_differential.py``).  These tests drive both
kernels through the same greedy walks — the SGB validated-top walk, the CT
batched pair sweep and the WT single-target pair walk — across every
built-in motif plus a tuple-only custom motif, and exercise the loader's
fallback, cache and serialization behaviour.

Everything that needs the compiled kernel is skipped when it cannot be
loaded, so the forced-fallback CI leg (``REPRO_NATIVE=0``) still runs the
loader/fallback tests while the differential ones skip cleanly.
"""

from __future__ import annotations

import pickle
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro._native import build as native_build
from repro._native import (
    build_library,
    find_compiler,
    kernel_cache_dir,
    load_kernel,
    native_available,
    native_disabled,
    resolve_kernel,
)
from repro.exceptions import NativeKernelError
from repro.graphs.graph import Graph
from repro.motifs.base import MotifPattern
from repro.motifs.enumeration import TargetSubgraphIndex

MOTIFS = ("triangle", "rectangle", "rectri", "path4")

needs_native = pytest.mark.skipif(
    not native_available(),
    reason="native kernel not loadable (no compiler or REPRO_NATIVE=0)",
)
needs_compiler = pytest.mark.skipif(
    find_compiler() is None, reason="no C compiler on this machine"
)


class TupleOnlyTriangle(MotifPattern):
    """A custom motif with no id-space override (exercises the fallback)."""

    name = "tuple-only-triangle"

    def enumerate_instances(self, graph, target):
        u, v = target
        if not (graph.has_node(u) and graph.has_node(v)):
            return
        for w in graph.common_neighbors(u, v):
            yield frozenset((self._canonical(u, w), self._canonical(w, v)))


def random_index(seed, motif):
    rng = random.Random(seed)
    n = rng.randint(10, 18)
    graph = Graph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                graph.add_edge(u, v)
    edges = sorted(graph.edges())
    if len(edges) < 4:
        return None
    targets = []
    for _ in range(4):
        target = edges[rng.randrange(len(edges))]
        if target not in targets:
            targets.append(target)
            graph.remove_edge(*target)
    return TargetSubgraphIndex(graph, targets, motif)


def sgb_walk(state):
    """(deleted edge, gain, total sim) triples of the full validated walk."""
    trace = []
    while True:
        top = state.top_gain_edge()
        if top is None:
            break
        state.delete_edge(top[0])
        trace.append((top[0], top[1], state.total_similarity()))
    return trace


def pair_walk(state, targets, constant, budget):
    """(score, target, edge, sims) tuples of a best_scored_pair walk."""
    trace = []
    for _ in range(budget):
        best = state.best_scored_pair(targets, constant)
        if best is None:
            break
        state.delete_edge(best[2])
        trace.append(
            (best[0], best[1], best[2], tuple(state.similarity_by_target().items()))
        )
    return trace


@needs_native
@pytest.mark.parametrize("motif", MOTIFS + ("tuple-only",))
def test_sgb_walk_bit_identical_across_kernels(motif):
    pattern = TupleOnlyTriangle() if motif == "tuple-only" else motif
    for seed in range(12):
        index = random_index(seed, pattern)
        if index is None or index.number_of_instances() == 0:
            continue
        native = index.new_state(kernel="native")
        numpy_state = index.new_state(kernel="numpy")
        assert native.kernel == "native" and numpy_state.kernel == "numpy"
        assert sgb_walk(native) == sgb_walk(numpy_state)
        assert native.similarity_by_target() == numpy_state.similarity_by_target()
        assert native.is_fully_protected() == numpy_state.is_fully_protected()


@needs_native
@pytest.mark.parametrize("motif", MOTIFS)
def test_pair_walks_bit_identical_across_kernels(motif):
    for seed in range(12):
        index = random_index(seed, motif)
        if index is None or index.number_of_instances() == 0:
            continue
        constant = index.number_of_instances() + 1
        all_targets = list(index.targets)
        # CT-style: every target each step
        native = index.new_state(kernel="native")
        numpy_state = index.new_state(kernel="numpy")
        assert pair_walk(native, all_targets, constant, 20) == pair_walk(
            numpy_state, all_targets, constant, 20
        )
        # WT-style: one target at a time, and a mid-walk subset change
        native = index.new_state(kernel="native")
        numpy_state = index.new_state(kernel="numpy")
        for target in all_targets:
            assert pair_walk(native, (target,), constant, 3) == pair_walk(
                numpy_state, (target,), constant, 3
            )
        # changing the constant must rebuild the heaps identically
        assert pair_walk(native, all_targets, constant + 3, 5) == pair_walk(
            numpy_state, all_targets, constant + 3, 5
        )


@needs_native
def test_copy_midwalk_continues_identically():
    index = random_index(3, "rectangle")
    state = index.new_state(kernel="native")
    for _ in range(3):
        top = state.top_gain_edge()
        if top is None:
            break
        state.delete_edge(top[0])
    clone = state.copy()
    assert clone.kernel == "native"
    assert sgb_walk(clone) == sgb_walk(state)
    assert clone.similarity_by_target() == state.similarity_by_target()


@needs_native
def test_pickle_roundtrip_preserves_kernel_and_walk():
    index = random_index(5, "triangle")
    state = index.new_state(kernel="native")
    constant = index.number_of_instances() + 1
    pair_walk(state, list(index.targets), constant, 2)
    revived = pickle.loads(pickle.dumps(state))
    assert revived.kernel == "native"
    assert revived.deleted_edges == state.deleted_edges
    assert pair_walk(
        revived, list(index.targets), constant, 10
    ) == pair_walk(state, list(index.targets), constant, 10)


def _finish_walk(state):
    return sgb_walk(state)


@needs_native
def test_process_pool_roundtrip_rebuilds_native_handles():
    index = random_index(7, "rectangle")
    state = index.new_state(kernel="native")
    top = state.top_gain_edge()
    if top is not None:
        state.delete_edge(top[0])
    local = sgb_walk(state.copy())
    with ProcessPoolExecutor(max_workers=1) as pool:
        remote = pool.submit(_finish_walk, state).result()
    assert remote == local


def _reset_loader(monkeypatch):
    monkeypatch.setattr(native_build, "_LOADED", None)
    monkeypatch.setattr(native_build, "_LOAD_FAILED", False)
    monkeypatch.setattr(native_build, "_FALLBACK_LOGGED", False)


class TestLoaderFallback:
    def test_missing_compiler_degrades_to_numpy(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "empty"))
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        monkeypatch.setattr(native_build, "find_compiler", lambda: None)
        monkeypatch.setattr(native_build, "_prebuilt_library", lambda: None)
        _reset_loader(monkeypatch)
        assert load_kernel() is None
        assert not native_available()
        assert resolve_kernel("auto") == "numpy"
        assert resolve_kernel(None) == "numpy"
        with pytest.raises(NativeKernelError):
            resolve_kernel("native")
        index = random_index(1, "triangle")
        assert index.new_state(kernel="auto").kernel == "numpy"

    def test_repro_native_zero_forces_numpy_even_for_explicit_native(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        _reset_loader(monkeypatch)
        assert native_disabled()
        assert load_kernel() is None
        assert resolve_kernel("native") == "numpy"
        index = random_index(1, "triangle")
        state = index.new_state(kernel="native")
        assert state.kernel == "numpy"
        assert sgb_walk(state) == sgb_walk(index.new_state(kernel="numpy"))

    def test_unknown_kernel_name_rejected(self):
        with pytest.raises(NativeKernelError):
            resolve_kernel("fortran")


@needs_compiler
class TestCacheBuild:
    def test_build_into_fresh_cache_and_reuse(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        assert kernel_cache_dir() == tmp_path
        artifact = build_library()
        assert artifact.parent == tmp_path and artifact.exists()
        first_mtime = artifact.stat().st_mtime_ns
        assert build_library() == artifact  # cache hit, no rebuild
        assert artifact.stat().st_mtime_ns == first_mtime
        assert build_library(force=True) == artifact  # same key, recompiled
        kernel = native_build.NativeKernel(artifact)
        assert kernel.kill_instances is not None

    def test_stale_cache_entry_is_ignored_not_loaded(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        stale = tmp_path / "coverage_kernel-0000000000000000.so"
        stale.parent.mkdir(parents=True, exist_ok=True)
        stale.write_bytes(b"not a shared object")
        artifact = build_library()
        assert artifact != stale  # keyed by the real source digest
        monkeypatch.setattr(native_build, "_prebuilt_library", lambda: None)
        _reset_loader(monkeypatch)
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
        kernel = load_kernel()
        assert kernel is not None and kernel.library_path == artifact
