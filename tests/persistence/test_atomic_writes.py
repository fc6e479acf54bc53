"""Snapshot and delta files are written beside their path and renamed in.

``save_snapshot`` and ``save_delta_snapshot`` write to a temp file in the
destination directory and ``os.replace`` it over the path.  A writer that
fails between the write and the rename must leave the previous file
loadable, byte for byte, and must not leave its temp file behind.
"""

from __future__ import annotations

import os

import pytest

from repro.core.model import TPPProblem
from repro.datasets.targets import sample_random_targets
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import canonical_edge
from repro.motifs.updates import EdgeDelta
from repro.persistence import (
    index_content_hash,
    load_delta_snapshot,
    load_snapshot,
    save_delta_snapshot,
    save_snapshot,
)


@pytest.fixture
def states():
    """A built index and the index after one small delta."""
    graph = powerlaw_cluster_graph(120, 3, 0.5, seed=5)
    targets = sample_random_targets(graph, 3, seed=2)
    problem = TPPProblem(graph, targets, motif="triangle")
    index = problem.build_index()
    target_set = {canonical_edge(*target) for target in problem.targets}
    victim = next(
        canonical_edge(*edge)
        for edge in sorted(problem.phase1_graph.edges())
        if canonical_edge(*edge) not in target_set
    )
    delta = EdgeDelta.deleting(victim)
    return index, delta, index.apply_delta(delta).index


def crash_before_rename(*args, **kwargs):
    raise OSError("simulated crash between the write and the rename")


def test_a_snapshot_writer_failing_before_the_rename_keeps_the_old_file(
    tmp_path, states, monkeypatch
):
    index, _, updated = states
    path = tmp_path / "index.tppsnap"
    save_snapshot(path, index, 1000)
    before = path.read_bytes()

    monkeypatch.setattr(os, "replace", crash_before_rename)
    with pytest.raises(OSError, match="simulated crash"):
        save_snapshot(path, updated, 1000)
    monkeypatch.undo()

    assert path.read_bytes() == before
    assert index_content_hash(load_snapshot(path).index) == index_content_hash(index)
    assert sorted(os.listdir(tmp_path)) == ["index.tppsnap"]

    # and once the rename goes through, the new file replaces the old one
    save_snapshot(path, updated, 1000)
    assert index_content_hash(load_snapshot(path).index) == index_content_hash(updated)
    assert sorted(os.listdir(tmp_path)) == ["index.tppsnap"]


def test_a_delta_writer_failing_before_the_rename_keeps_the_old_file(
    tmp_path, states, monkeypatch
):
    index, delta, updated = states
    path = tmp_path / "update.tppdelta"
    save_delta_snapshot(path, delta, index, updated)
    before = path.read_bytes()

    monkeypatch.setattr(os, "replace", crash_before_rename)
    with pytest.raises(OSError, match="simulated crash"):
        save_delta_snapshot(path, EdgeDelta.inserting(*delta.deleted), updated, index)
    monkeypatch.undo()

    assert path.read_bytes() == before
    loaded = load_delta_snapshot(path)
    assert loaded.delta.operations == delta.operations
    assert sorted(os.listdir(tmp_path)) == ["update.tppdelta"]


def test_a_first_write_that_fails_leaves_nothing(tmp_path, states, monkeypatch):
    index, _, _ = states
    monkeypatch.setattr(os, "replace", crash_before_rename)
    with pytest.raises(OSError):
        save_snapshot(tmp_path / "new" / "index.tppsnap", index, 1000)
    assert os.listdir(tmp_path / "new") == []
