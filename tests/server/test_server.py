"""Integration tests for the HTTP serving front.

Every test talks to a real ``ProtectionServer`` bound to a loopback port
via ``serve_in_background`` — the same path the CLI and the benchmarks
use — so request framing, routing, backpressure, coalescing and the
replica cold-start all run end-to-end over actual sockets.
"""

import itertools
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.model import TPPProblem
from repro.core.sgb import sgb_greedy
from repro.datasets.targets import sample_random_targets
from repro.exceptions import (
    ArtifactNotFoundError,
    ServerError,
    ServerOverloadedError,
    SnapshotFormatError,
    SnapshotMismatchError,
)
from repro.graphs.generators import powerlaw_cluster_graph
from repro.persistence import index_content_hash
from repro.server import ArtifactStore, ProtectionServer, ServingClient, serve_in_background
from repro.server.protocol import parse_response_head
from repro.service import (
    ProtectionRequest,
    ProtectionService,
    register_method,
    unregister_method,
)


@pytest.fixture(scope="module")
def problem():
    graph = powerlaw_cluster_graph(180, 3, 0.5, seed=3)
    targets = sample_random_targets(graph, 5, seed=1)
    built = TPPProblem(graph, targets, motif="triangle")
    built.build_index()  # sessions created from it reuse this index
    return built


@pytest.fixture(scope="module")
def reference(problem):
    return ProtectionService(problem)


@pytest.fixture
def served(problem, tmp_path):
    server = ProtectionServer(
        ProtectionService(problem),
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


def raw_request(url, payload):
    """Write raw bytes to the server and return (status, headers, body)."""
    host, _, port = url.rsplit("/", 1)[-1].partition(":")
    with socket.create_connection((host, int(port)), timeout=30.0) as sock:
        sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status, headers = parse_response_head(head)
    return status, headers, body


class GateMethod:
    """A registered method that blocks until the test releases it."""

    def __init__(self, name):
        self.name = name
        self.started = threading.Event()
        self.release = threading.Event()

    def __enter__(self):
        @register_method(self.name, kind="greedy", order=990)
        def _run(problem, budget, engine, seed, **options):
            self.started.set()
            assert self.release.wait(timeout=60.0), "gate never released"
            return sgb_greedy(problem, budget, engine=engine)

        return self

    def __exit__(self, *exc_info):
        self.release.set()
        unregister_method(self.name)


class TestSolve:
    def test_parity_with_direct_session(self, served, reference):
        _, client = served
        request = ProtectionRequest("SGB-Greedy", 5)
        assert trace(client.solve(request)) == trace(reference.solve(request))

    def test_server_metadata_block(self, served, problem):
        server, client = served
        payload = client.solve_payload(ProtectionRequest("CT-Greedy:TBD", 4))
        meta = payload["extra"]["server"]
        assert meta["coalesced"] is False
        assert meta["content_hash"] == index_content_hash(problem.build_index())
        assert meta["queue_seconds"] >= 0.0
        assert meta["solve_seconds"] > 0.0
        # the session's own metadata block survives alongside
        assert payload["extra"]["service"]["reused_index"] is True

    def test_subset_request_parity(self, served, reference, problem):
        _, client = served
        subset = tuple(problem.targets[:3])
        request = ProtectionRequest("SGB-Greedy", 4, targets=subset)
        assert trace(client.solve(request)) == trace(reference.solve(request))

    def test_queries_served_visible_in_stats(self, served):
        _, client = served
        before = client.stats()["queries_served"]
        client.solve(ProtectionRequest("SGB-Greedy", 3))
        assert client.stats()["queries_served"] == before + 1


class TestRejection:
    def test_invalid_method_is_400(self, served):
        _, client = served
        with pytest.raises(ServerError, match="400"):
            client.solve(ProtectionRequest("No-Such-Method", 3))
        # a removed engine name is refused like any unknown engine
        body = {"method": "SGB-Greedy", "budget": 3, "engine": "coverage-set"}
        with pytest.raises(ServerError, match="400") as refused:
            client._json("POST", "/solve", body)
        assert "valid engines: coverage, recount" in str(refused.value)
        # and the session still answers afterwards
        assert client.solve(ProtectionRequest("SGB-Greedy", 3)).protectors

    def test_non_object_body_is_400(self, served):
        _, client = served
        status, _, _ = client._request("POST", "/solve", body=b"[1, 2]")
        assert status == 400

    def test_unparseable_body_is_400(self, served):
        _, client = served
        status, _, _ = client._request("POST", "/solve", body=b"{nope")
        assert status == 400

    def test_unknown_path_is_404(self, served):
        _, client = served
        with pytest.raises(ServerError, match="404"):
            client._json("GET", "/no-such-endpoint")

    def test_wrong_method_is_405_with_allow(self, served):
        _, client = served
        status, headers, _ = client._request("GET", "/solve")
        assert status == 405
        assert headers["allow"] == "POST"

    def test_queue_full_is_429(self, problem):
        server = ProtectionServer(
            ProtectionService(problem), max_pending=1, solver_threads=2
        )
        with GateMethod("Gated-429") as gate, serve_in_background(server) as handle:
            client = ServingClient(handle.url, timeout=120.0)
            with ThreadPoolExecutor(max_workers=1) as pool:
                occupying = pool.submit(
                    client.solve, ProtectionRequest("Gated-429", 3)
                )
                assert gate.started.wait(timeout=30.0)
                # a *different* request cannot coalesce and the queue is full
                with pytest.raises(ServerOverloadedError) as excinfo:
                    client.solve(ProtectionRequest("Gated-429", 4))
                assert excinfo.value.status == 429
                assert excinfo.value.retry_after >= 0.0
                gate.release.set()
                occupying.result(timeout=60.0)
            assert server.stats()["rejected"] == 1
            assert server.stats()["solves_executed"] == 1

    def test_draining_is_503(self, served):
        server, client = served
        client.health()  # serving normally first
        server.drain()
        with pytest.raises(ServerOverloadedError) as excinfo:
            client.health()
        assert excinfo.value.status == 503
        with pytest.raises(ServerOverloadedError):
            client.solve(ProtectionRequest("SGB-Greedy", 3))
        assert client.stats()["status"] == "draining"


class TestProtocolEdgeCases:
    def test_oversized_body_is_413(self, served):
        _, client = served
        status, _, body = raw_request(
            client.base_url,
            b"POST /solve HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 999999999999\r\n\r\n",
        )
        assert status == 413
        assert b"exceeds" in body
        # the connection was refused before any body was read; the server
        # keeps serving
        assert client.health()["status"] == "ok"

    def test_unknown_route_is_404(self, served):
        _, client = served
        status, _, body = client._request("GET", "/definitely-not-a-route")
        assert status == 404
        assert b"unknown path" in body

    def test_unknown_route_post_is_404_too(self, served):
        _, client = served
        status, _, _ = client._request("POST", "/definitely-not-a-route", body=b"{}")
        assert status == 404


class TestCoalescing:
    @pytest.mark.parametrize("burst", [2, 12])
    def test_permuted_subset_duplicates_share_one_solve(self, served, problem, burst):
        server, client = served
        subset = tuple(problem.targets[:3])
        orders = list(itertools.permutations(subset))
        before = server.stats()
        with GateMethod("Gated-Coalesce") as gate:
            with ThreadPoolExecutor(max_workers=burst) as pool:
                first = pool.submit(
                    client.solve_payload,
                    ProtectionRequest("Gated-Coalesce", 4, targets=subset),
                )
                assert gate.started.wait(timeout=30.0)
                # the same subset in other orders joins the gated solve
                joiners = [
                    pool.submit(
                        client.solve_payload,
                        ProtectionRequest(
                            "Gated-Coalesce", 4, targets=orders[i % len(orders)]
                        ),
                    )
                    for i in range(1, burst)
                ]
                # the joiners are counted before the shared solve finishes
                deadline = threading.Event()
                for _ in range(500):
                    hits = server.stats()["coalesced_hits"] - before["coalesced_hits"]
                    if hits >= burst - 1:
                        break
                    deadline.wait(0.02)
                gate.release.set()
                payloads = [
                    future.result(timeout=60.0) for future in [first] + joiners
                ]
        after = server.stats()
        assert after["coalesced_hits"] - before["coalesced_hits"] == burst - 1
        assert after["solves_executed"] == before["solves_executed"] + 1
        # one initiator, burst - 1 coalesced joiners — otherwise identical
        flags = [p["extra"]["server"].pop("coalesced") for p in payloads]
        assert flags == [False] + [True] * (burst - 1)
        assert all(payload == payloads[0] for payload in payloads)


class TestStats:
    def test_expected_fields(self, served, problem):
        _, client = served
        stats = client.stats()
        for field in (
            "status",
            "queries_served",
            "index_source",
            "deltas_applied",
            "content_hash",
            "targets",
            "instances",
            "pending",
            "max_pending",
            "uptime_seconds",
            "requests_total",
            "solves_executed",
            "solve_errors",
            "coalesced_hits",
            "rejected",
            "reloads",
            "poll_errors",
        ):
            assert field in stats, field
        assert stats["status"] == "serving"
        assert stats["index_source"] == "built"
        assert stats["targets"] == len(problem.targets)
        assert stats["content_hash"] == index_content_hash(problem.build_index())

    def test_health(self, served, problem):
        _, client = served
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["content_hash"] == index_content_hash(problem.build_index())


class TestColdStart:
    def test_replica_serves_byte_identical_traces(
        self, served, reference, problem, tmp_path
    ):
        _, client = served
        published = client.publish_file(problem.save_index(tmp_path / "a.tppsnap"))
        content_hash = published["content_hash"]
        client.set_latest(content_hash)
        assert client.list_artifacts()["latest"] == content_hash

        replica = client.cold_start(content_hash, cache_dir=tmp_path / "cache")
        assert replica.index_source == "snapshot"
        for request in (
            ProtectionRequest("SGB-Greedy", 5),
            ProtectionRequest("WT-Greedy:TBD", 4),
        ):
            assert trace(replica.solve(request)) == trace(reference.solve(request))

    def test_cached_fetch_skips_network(self, served, problem, tmp_path):
        _, client = served
        published = client.publish_file(problem.save_index(tmp_path / "a.tppsnap"))
        content_hash = published["content_hash"]
        cache = tmp_path / "cache"
        client.cold_start(content_hash, cache_dir=cache)
        # second start must come from the cache file, not the wire
        requests_before = client.stats()["requests_total"]
        client.cold_start(content_hash, cache_dir=cache)
        assert client.stats()["requests_total"] == requests_before + 1  # the stats call

    def test_unknown_hash_is_404(self, served, tmp_path):
        _, client = served
        with pytest.raises(ArtifactNotFoundError):
            client.cold_start("feedbeef" * 8, cache_dir=tmp_path / "cache")

    def test_mislabelled_artifact_refused_and_cache_scrubbed(
        self, served, problem, tmp_path
    ):
        _, client = served
        published = client.publish_file(problem.save_index(tmp_path / "a.tppsnap"))
        content_hash = published["content_hash"]
        # poison the cache: a *valid* snapshot of different content under
        # the requested hash's cache filename
        other = TPPProblem(
            powerlaw_cluster_graph(120, 3, 0.5, seed=11),
            sample_random_targets(powerlaw_cluster_graph(120, 3, 0.5, seed=11), 4, seed=2),
            motif="triangle",
        )
        cache = tmp_path / "cache"
        cache.mkdir()
        poisoned = cache / f"{content_hash}.tppsnap"
        other.save_index(poisoned)
        with pytest.raises(SnapshotMismatchError):
            client.cold_start(content_hash, cache_dir=cache)
        assert not poisoned.exists()  # scrubbed so a retry re-downloads
        # and the retry indeed recovers by re-fetching the real artifact
        replica = client.cold_start(content_hash, cache_dir=cache)
        assert index_content_hash(replica.index) == content_hash

    def test_corrupt_cache_refused_and_scrubbed(self, served, problem, tmp_path):
        _, client = served
        published = client.publish_file(problem.save_index(tmp_path / "a.tppsnap"))
        content_hash = published["content_hash"]
        cache = tmp_path / "cache"
        cache.mkdir()
        corrupt = cache / f"{content_hash}.tppsnap"
        corrupt.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotFormatError):
            client.cold_start(content_hash, cache_dir=cache)
        assert not corrupt.exists()


class TestConstruction:
    def test_bad_parameters_rejected(self, problem):
        with pytest.raises(ServerError):
            ProtectionServer(ProtectionService(problem), max_pending=0)
        with pytest.raises(ServerError):
            ProtectionServer(ProtectionService(problem), solver_threads=0)

    def test_bad_base_url_rejected(self):
        with pytest.raises(ServerError):
            ServingClient("ftp://example.org")
