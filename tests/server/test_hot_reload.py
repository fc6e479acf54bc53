"""Hot-reload under concurrent load.

The guarantees under test: queries already in flight finish on the
session they were admitted under; a completed swap answers with the new
content hash; ``*.tppdelta`` files apply through the session's
copy-on-write machinery; and a corrupt or stale artifact is refused with
the live session untouched.
"""

import json
import threading
import zipfile
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.model import TPPProblem
from repro.core.sgb import sgb_greedy
from repro.datasets.targets import sample_random_targets
from repro.exceptions import ServerError, SnapshotMismatchError
from repro.graphs.generators import powerlaw_cluster_graph
from repro.graphs.graph import canonical_edge
from repro.motifs.updates import EdgeDelta
from repro.persistence import index_content_hash, save_delta_snapshot
from repro.server import ArtifactStore, ProtectionServer, ServingClient, serve_in_background
from repro.service import (
    ProtectionRequest,
    ProtectionService,
    register_method,
    unregister_method,
)


def build_problem(seed):
    graph = powerlaw_cluster_graph(160, 3, 0.5, seed=seed)
    targets = sample_random_targets(graph, 4, seed=seed + 1)
    problem = TPPProblem(graph, targets, motif="triangle")
    problem.build_index()
    return problem


@pytest.fixture(scope="module")
def problem_a():
    return build_problem(9)


@pytest.fixture(scope="module")
def problem_b():
    return build_problem(21)


@pytest.fixture(scope="module")
def hash_a(problem_a):
    return index_content_hash(problem_a.build_index())


@pytest.fixture(scope="module")
def hash_b(problem_b):
    return index_content_hash(problem_b.build_index())


@pytest.fixture
def served(problem_a, tmp_path):
    server = ProtectionServer(
        ProtectionService(problem_a),
        store=ArtifactStore(tmp_path / "store"),
        solver_threads=3,
    )
    handle = serve_in_background(server)
    try:
        yield server, ServingClient(handle.url, timeout=120.0)
    finally:
        handle.stop()


def trace(result):
    return (result.protectors, result.similarity_trace)


def make_delta(problem, count=2):
    """Delete ``count`` non-target phase-1 edges (a small, valid update)."""
    phase1 = problem.phase1_graph
    target_set = {canonical_edge(*target) for target in problem.targets}
    deletions = [
        canonical_edge(*edge)
        for edge in sorted(phase1.edges())
        if canonical_edge(*edge) not in target_set
    ][:count]
    return EdgeDelta.from_edges(delete=deletions)


class TestSnapshotSwap:
    def test_inflight_finishes_on_old_session(
        self, served, problem_a, problem_b, hash_a, hash_b, tmp_path
    ):
        server, client = served
        snapshot_b = problem_b.save_index(tmp_path / "b.tppsnap")

        started = threading.Event()
        release = threading.Event()

        @register_method("Gated-Reload", kind="greedy", order=991)
        def _run(problem, budget, engine, seed, **options):
            started.set()
            assert release.wait(timeout=60.0)
            return sgb_greedy(problem, budget, engine=engine)

        try:
            with ThreadPoolExecutor(max_workers=1) as pool:
                inflight = pool.submit(
                    client.solve_payload, ProtectionRequest("Gated-Reload", 4)
                )
                assert started.wait(timeout=30.0)
                # swap while the query is mid-solve on the old session
                outcome = client.reload(snapshot=snapshot_b)
                assert outcome["action"] == "swapped"
                assert outcome["content_hash"] == hash_b
                release.set()
                payload = inflight.result(timeout=60.0)
        finally:
            release.set()
            unregister_method("Gated-Reload")

        # the in-flight query finished on the session it was admitted under
        assert payload["extra"]["server"]["content_hash"] == hash_a
        expected = ProtectionService(problem_a).solve(
            ProtectionRequest("SGB-Greedy", 4)
        )
        assert tuple(map(tuple, payload["protectors"])) == expected.protectors

        # post-swap queries answer from the new session
        fresh = client.solve_payload(ProtectionRequest("SGB-Greedy", 4))
        assert fresh["extra"]["server"]["content_hash"] == hash_b
        expected_b = ProtectionService(problem_b).solve(
            ProtectionRequest("SGB-Greedy", 4)
        )
        assert tuple(map(tuple, fresh["protectors"])) == expected_b.protectors
        assert client.stats()["reloads"] == 1

    def test_coalescing_across_a_reload_boundary(
        self, served, problem_a, problem_b, hash_a, hash_b, tmp_path
    ):
        """A joiner that coalesces onto a solve admitted before the reload
        gets the admitted session's answer; fresh requests after the
        in-flight solve completes answer from the new session."""
        server, client = served
        snapshot_b = problem_b.save_index(tmp_path / "b.tppsnap")
        started = threading.Event()
        release = threading.Event()

        @register_method("Gated-Coalesce-Reload", kind="greedy", order=992)
        def _run(problem, budget, engine, seed, **options):
            started.set()
            assert release.wait(timeout=60.0)
            return sgb_greedy(problem, budget, engine=engine)

        try:
            request = ProtectionRequest("Gated-Coalesce-Reload", 4)
            with ThreadPoolExecutor(max_workers=2) as pool:
                first = pool.submit(client.solve_payload, request)
                assert started.wait(timeout=30.0)
                # the reload lands while the gated solve is mid-flight
                outcome = client.reload(snapshot=snapshot_b)
                assert outcome["action"] == "swapped"
                assert outcome["content_hash"] == hash_b
                second = pool.submit(client.solve_payload, request)
                deadline = threading.Event()
                for _ in range(200):
                    if server.stats()["coalesced_hits"] >= 1:
                        break
                    deadline.wait(0.02)
                assert server.stats()["coalesced_hits"] >= 1
                release.set()
                payloads = [first.result(timeout=60.0), second.result(timeout=60.0)]
        finally:
            release.set()
            unregister_method("Gated-Coalesce-Reload")

        flags = sorted(
            payload["extra"]["server"].pop("coalesced") for payload in payloads
        )
        assert flags == [False, True]
        # both riders share one solve on the session admitted pre-reload
        assert payloads[0] == payloads[1]
        assert payloads[0]["extra"]["server"]["content_hash"] == hash_a
        assert server.stats()["reloads"] == 1
        # the next identical request starts fresh on the reloaded session
        fresh = client.solve_payload(ProtectionRequest("SGB-Greedy", 4))
        assert fresh["extra"]["server"]["coalesced"] is False
        assert fresh["extra"]["server"]["content_hash"] == hash_b
        expected = ProtectionService(problem_b).solve(ProtectionRequest("SGB-Greedy", 4))
        assert tuple(map(tuple, fresh["protectors"])) == expected.protectors

    def test_concurrent_load_straddles_the_swap(
        self, served, problem_a, problem_b, hash_a, hash_b, tmp_path
    ):
        """Queries racing a swap all succeed and each one's payload matches
        a direct solve on whichever session answered it."""
        server, client = served
        snapshot_b = problem_b.save_index(tmp_path / "b.tppsnap")
        budgets = [2, 3, 4, 5]
        with ThreadPoolExecutor(max_workers=len(budgets) + 1) as pool:
            solves = [
                pool.submit(
                    client.solve_payload, ProtectionRequest("SGB-Greedy", budget)
                )
                for budget in budgets
            ]
            swap = pool.submit(client.reload, snapshot=snapshot_b)
            payloads = [solve.result(timeout=120.0) for solve in solves]
            assert swap.result(timeout=120.0)["content_hash"] == hash_b
        references = {
            hash_a: ProtectionService(problem_a),
            hash_b: ProtectionService(problem_b),
        }
        for budget, payload in zip(budgets, payloads):
            answered_by = payload["extra"]["server"]["content_hash"]
            assert answered_by in references
            expected = references[answered_by].solve(
                ProtectionRequest("SGB-Greedy", budget)
            )
            assert tuple(map(tuple, payload["protectors"])) == expected.protectors


class TestDeltaReload:
    def test_delta_applies_and_stale_replay_refused(
        self, served, problem_a, hash_a, tmp_path
    ):
        server, client = served
        delta = make_delta(problem_a)
        _, outcome = problem_a.apply_delta(delta)
        delta_file = save_delta_snapshot(
            tmp_path / "step.tppdelta", delta, problem_a.build_index(), outcome.index
        )
        result_hash = index_content_hash(outcome.index)
        assert result_hash != hash_a

        reloaded = client.reload(delta=delta_file)
        assert reloaded["action"] == "delta-applied"
        assert reloaded["content_hash"] == result_hash
        stats = client.stats()
        assert stats["index_source"] == "delta"
        assert stats["deltas_applied"] == 1

        # replaying the same delta: its parent hash no longer matches
        with pytest.raises(ServerError, match="409"):
            client.reload(delta=delta_file)
        # ...and the live session is untouched by the refused replay
        assert client.stats()["content_hash"] == result_hash

    def test_delta_reload_serves_updated_results(self, served, problem_a, tmp_path):
        server, client = served
        before = client.solve(ProtectionRequest("SGB-Greedy", 4))
        delta = make_delta(problem_a)
        mutated, outcome = problem_a.apply_delta(delta)
        delta_file = save_delta_snapshot(
            tmp_path / "step.tppdelta", delta, problem_a.build_index(), outcome.index
        )
        client.reload(delta=delta_file)
        after = client.solve(ProtectionRequest("SGB-Greedy", 4))
        expected = ProtectionService(mutated).solve(ProtectionRequest("SGB-Greedy", 4))
        assert trace(after) == trace(expected)
        # the swap genuinely changed the answering state
        assert (
            index_content_hash(ProtectionService(mutated).index)
            != index_content_hash(ProtectionService(problem_a).index)
        )
        del before  # the pre-swap answer is problem_a's; no assertion needed

    def test_delta_reload_takes_the_verified_hash_without_rehashing(
        self, served, problem_a, tmp_path, monkeypatch
    ):
        """A ``.tppdelta`` reload hashes once: the result, from the updated
        index.  The parent check reads the session's kept hash."""
        server, client = served
        delta = make_delta(problem_a)
        _, outcome = problem_a.apply_delta(delta)
        delta_file = save_delta_snapshot(
            tmp_path / "step.tppdelta", delta, problem_a.build_index(), outcome.index
        )
        result_hash = index_content_hash(outcome.index)
        server.content_hash()  # the parent's hash is kept by the session
        hashed = []

        def counting(index):
            hashed.append(index)
            return index_content_hash(index)

        monkeypatch.setattr("repro.persistence.delta.index_content_hash", counting)
        monkeypatch.setattr("repro.service.service.index_content_hash", counting)
        assert client.reload(delta=delta_file)["content_hash"] == result_hash
        assert client.stats()["content_hash"] == result_hash
        assert hashed == [server.current_service().index]

    def test_stale_replay_is_409_and_leaves_the_session_untouched(
        self, served, problem_a, tmp_path
    ):
        server, client = served
        delta = make_delta(problem_a)
        _, outcome = problem_a.apply_delta(delta)
        delta_file = save_delta_snapshot(
            tmp_path / "step.tppdelta", delta, problem_a.build_index(), outcome.index
        )
        client.reload(delta=delta_file)
        service = server.current_service()
        index, kept = service.index, service.content_hash()
        with pytest.raises(ServerError, match="409"):
            client.reload(delta=delta_file)
        assert server.current_service() is service
        assert service.index is index
        assert service.deltas_applied == 1
        assert service.content_hash() == kept == index_content_hash(index)

    def test_after_a_snapshot_swap_deltas_follow_the_new_hash(
        self, served, problem_a, problem_b, hash_b, tmp_path
    ):
        server, client = served
        stale_delta = make_delta(problem_a)
        _, stale_outcome = problem_a.apply_delta(stale_delta)
        stale_file = save_delta_snapshot(
            tmp_path / "stale.tppdelta",
            stale_delta,
            problem_a.build_index(),
            stale_outcome.index,
        )
        delta = make_delta(problem_b)
        _, outcome = problem_b.apply_delta(delta)
        delta_file = save_delta_snapshot(
            tmp_path / "next.tppdelta", delta, hash_b, outcome.index
        )
        assert client.reload(snapshot=problem_b.save_index(tmp_path / "b.tppsnap"))[
            "content_hash"
        ] == hash_b
        # recorded against the swapped-out state: refused, nothing changes
        with pytest.raises(ServerError, match="409"):
            client.reload(delta=stale_file)
        assert client.stats()["content_hash"] == hash_b
        reloaded = client.reload(delta=delta_file)
        assert reloaded["action"] == "delta-applied"
        assert reloaded["content_hash"] == index_content_hash(outcome.index)


class TestDeltaResultVerification:
    """A ``.tppdelta`` whose recorded result hash is wrong is refused before
    the swap (it used to be applied and reported ``"reloaded"``)."""

    @pytest.fixture(scope="class")
    def problem(self):
        graph = powerlaw_cluster_graph(300, 3, 0.5, seed=4)
        targets = sample_random_targets(graph, 5, seed=6)
        problem = TPPProblem(graph, targets, motif="triangle")
        problem.build_index()
        return problem

    @pytest.fixture
    def mislabelled(self, problem, tmp_path):
        return save_delta_snapshot(
            tmp_path / "mislabelled.tppdelta",
            make_delta(problem, count=4),
            problem.build_index(),
            "f" * 64,
        )

    def test_reload_from_file_refuses_and_keeps_the_session(self, problem, mislabelled):
        service = ProtectionService(problem)
        server = ProtectionServer(service)
        before_hash = server.content_hash()
        before = service.solve(ProtectionRequest("SGB-Greedy", 6))
        with pytest.raises(SnapshotMismatchError, match="result content hash"):
            server.reload_from_file(mislabelled)
        assert server.current_service() is service
        assert service.deltas_applied == 0
        assert index_content_hash(service.index) == before_hash
        assert server.content_hash() == before_hash
        assert server.stats()["reloads"] == 0
        assert trace(service.solve(ProtectionRequest("SGB-Greedy", 6))) == trace(before)

    def test_http_reload_is_409(self, problem, mislabelled):
        server = ProtectionServer(ProtectionService(problem))
        with serve_in_background(server) as handle:
            client = ServingClient(handle.url, timeout=120.0)
            before = client.stats()
            with pytest.raises(ServerError, match="409"):
                client.reload(delta=mislabelled)
            after = client.stats()
        assert after["content_hash"] == before["content_hash"]
        assert after["deltas_applied"] == 0
        assert after["index_source"] == before["index_source"]


class TestRefusals:
    def test_corrupt_publish_refused_store_untouched(self, served, hash_a):
        server, client = served
        with pytest.raises(ServerError, match="publish failed \\(400\\)"):
            client.publish_bytes(b"definitely not a snapshot")
        assert client.list_artifacts()["artifacts"] == []
        # the live session never noticed
        assert client.health()["content_hash"] == hash_a

    def test_reload_missing_file_is_409(self, served, hash_a, tmp_path):
        _, client = served
        with pytest.raises(ServerError, match="409"):
            client.reload(snapshot=tmp_path / "never-written.tppsnap")
        assert client.health()["content_hash"] == hash_a

    def test_sharded_bundle_refused_like_any_malformed_bundle(
        self, served, problem_b, hash_a, tmp_path
    ):
        """Zip archives are refused as malformed snapshots: a
        ``sharded-session`` bundle written by an older release and a zip
        with a broken manifest both fail the snapshot magic check with a
        typed 409, and the live session keeps serving unchanged."""
        _, client = served
        request = ProtectionRequest("SGB-Greedy", 4)
        before = client.solve_payload(request)
        member = problem_b.save_index(tmp_path / "shard-0000.tppsnap")
        manifest = {
            "format_version": 1,
            "kind": "sharded-session",
            "shards": [member.name],
            "constant": problem_b.constant,
            "content_hash": index_content_hash(problem_b.build_index()),
            "targets_per_shard": [len(problem_b.targets)],
        }
        sharded = tmp_path / "session.tppshards"
        malformed = tmp_path / "broken.zip"
        with zipfile.ZipFile(sharded, "w") as archive:
            archive.writestr("manifest.json", json.dumps(manifest))
            archive.write(member, member.name)
        with zipfile.ZipFile(malformed, "w") as archive:
            archive.writestr("manifest.json", "{not json")
        statuses = []
        for bundle in (sharded, malformed):
            status, _, body = client._request(
                "POST", "/reload", body=json.dumps({"snapshot": str(bundle)}).encode()
            )
            statuses.append(status)
            assert "error" in json.loads(body)
        assert statuses == [409, 409]
        assert client.health()["content_hash"] == hash_a
        assert client.stats()["reloads"] == 0
        after = client.solve_payload(request)
        assert after["extra"]["server"]["content_hash"] == hash_a
        assert after["protectors"] == before["protectors"]
        assert after["similarity_trace"] == before["similarity_trace"]

    def test_reload_needs_exactly_one_source(self, served, tmp_path):
        _, client = served
        with pytest.raises(ServerError, match="400"):
            client.reload()
        with pytest.raises(ServerError, match="400"):
            client.reload(snapshot=tmp_path / "a", delta=tmp_path / "b")

    def test_reload_unknown_hash_is_404(self, served):
        _, client = served
        with pytest.raises(ServerError, match="404"):
            client.reload(content_hash="feedface" * 8)


class TestStorePolling:
    def test_poll_converges_on_latest_snapshot(
        self, served, problem_b, hash_b, tmp_path
    ):
        server, client = served
        snapshot_b = problem_b.save_index(tmp_path / "b.tppsnap")
        client.publish_file(snapshot_b)
        client.set_latest(hash_b)
        outcome = server.poll_store_once()
        assert outcome["action"] == "converged"
        assert outcome["content_hash"] == hash_b
        # already current afterwards
        assert server.poll_store_once()["action"] == "noop"

    def test_poll_prefers_published_deltas(self, served, problem_a, hash_a, tmp_path):
        server, client = served
        delta = make_delta(problem_a)
        _, outcome = problem_a.apply_delta(delta)
        delta_file = save_delta_snapshot(
            tmp_path / "step.tppdelta", delta, problem_a.build_index(), outcome.index
        )
        result_hash = index_content_hash(outcome.index)
        client.publish_file(delta_file)
        client.set_latest(result_hash)
        polled = server.poll_store_once()
        assert polled == {
            "action": "converged",
            "steps": 1,
            "latest": result_hash,
            "content_hash": result_hash,
        }
        # the delta path kept the copy-on-write lineage, not a full swap
        assert client.stats()["index_source"] == "delta"

    def test_poll_without_pointer_is_noop(self, served):
        server, _ = served
        assert server.poll_store_once()["action"] == "noop"

    def test_background_poll_loop_converges(self, problem_a, problem_b, hash_b, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        server = ProtectionServer(
            ProtectionService(problem_a),
            store=store,
            solver_threads=2,
            poll_interval=0.05,
        )
        with serve_in_background(server) as handle:
            client = ServingClient(handle.url, timeout=120.0)
            client.publish_file(problem_b.save_index(tmp_path / "b.tppsnap"))
            client.set_latest(hash_b)
            deadline = threading.Event()
            for _ in range(200):
                if client.health()["content_hash"] == hash_b:
                    break
                deadline.wait(0.02)
            assert client.health()["content_hash"] == hash_b
