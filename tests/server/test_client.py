"""Transport failures: typed client errors, and a stop that idle
keep-alive connections cannot hold up.

Whatever ``http.client`` raises (``IncompleteRead``, ``BadStatusLine``,
``LineTooLong``) surfaces from :class:`ServingClient` as a
:class:`~repro.exceptions.ServerError`, like a refused connection does.
A client that keeps its connection open between requests leaves the
server's read waiting with no timeout; stopping the server must not wait
for it.
"""

import http.client
import socket
import threading
import time

import pytest

from repro.core.model import TPPProblem
from repro.datasets.targets import sample_random_targets
from repro.exceptions import ServerError
from repro.graphs.generators import powerlaw_cluster_graph
from repro.server import ProtectionServer, ServingClient, serve_in_background
from repro.service import ProtectionRequest, ProtectionService


@pytest.fixture(scope="module")
def problem():
    graph = powerlaw_cluster_graph(120, 3, 0.5, seed=7)
    targets = sample_random_targets(graph, 4, seed=2)
    built = TPPProblem(graph, targets, motif="triangle")
    built.build_index()
    return built


def one_shot_server(reply):
    """A socket server answering one request with raw ``reply`` bytes and
    closing; returns its URL."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        with listener:
            listener.settimeout(30.0)
            try:
                connection, _ = listener.accept()
                with connection:
                    connection.recv(65536)
                    connection.sendall(reply)
            except OSError:  # the client may hang up mid-reply
                return

    threading.Thread(target=run, daemon=True).start()
    return f"http://127.0.0.1:{listener.getsockname()[1]}"


@pytest.mark.parametrize(
    "reply",
    [
        # IncompleteRead: the body ends 90 bytes short
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + b"{" * 10,
        # BadStatusLine
        b"NOT-HTTP nonsense\r\n\r\n",
        # LineTooLong
        b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70000 + b"\r\n\r\n",
    ],
    ids=["incomplete-read", "bad-status-line", "line-too-long"],
)
def test_http_client_errors_are_server_errors(reply):
    client = ServingClient(one_shot_server(reply), timeout=30.0)
    with pytest.raises(ServerError, match="GET /healthz"):
        client.health()


def test_a_dead_server_is_a_server_error(problem):
    handle = serve_in_background(ProtectionServer(ProtectionService(problem)))
    client = ServingClient(handle.url)
    client.health()
    handle.stop()
    with pytest.raises(ServerError):
        client.solve(ProtectionRequest("SGB-Greedy", 2))


def test_stop_does_not_wait_for_an_idle_keep_alive_connection(problem):
    handle = serve_in_background(ProtectionServer(ProtectionService(problem)))
    idle = http.client.HTTPConnection(handle.host, handle.port, timeout=30.0)
    try:
        idle.request("GET", "/healthz")
        assert idle.getresponse().read()
        # the connection stays open: the server now waits in its read
        started = time.monotonic()
        handle.stop()
        assert time.monotonic() - started < 2.0
    finally:
        idle.close()
