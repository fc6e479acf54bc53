"""The asyncio serving front over a :class:`ProtectionService` session.

One :class:`ProtectionServer` owns one live session and exposes it over
HTTP (see :mod:`repro.server.protocol` for the wire format):

``POST /solve``
    Body: a :class:`~repro.service.ProtectionRequest` as JSON (the
    existing ``to_dict`` round-trip).  Answer: the full
    :class:`~repro.core.model.ProtectionResult` as JSON, with per-request
    serving metadata added under ``extra["server"]`` (queue wait, solve
    wall time, the content hash that answered, whether the solve was
    coalesced) next to the session's own ``extra["service"]`` block.
``GET /healthz`` / ``GET /stats``
    Liveness (503 while draining) and counters: ``queries_served``,
    ``index_source``, the session's content hash, queue depth, coalescing
    and rejection counts.
``POST /reload``
    Graceful hot-swap: body names a snapshot path, a published
    ``content_hash``, or a ``*.tppdelta`` file.  Deltas apply
    through :meth:`ProtectionService.apply_delta` (copy-on-write swap);
    snapshots build a fresh session and swap it in atomically.  In-flight
    queries finish on the state they were admitted under; a corrupt or
    stale artifact is refused with 409 and the live session is untouched.
``GET /artifacts`` / ``GET /artifacts/<hash>`` / ``POST /artifacts`` /
``POST /artifacts/latest``
    The attached :class:`~repro.server.artifacts.ArtifactStore` over HTTP:
    list, fetch by content hash, publish (verified before storing), and
    move the ``latest`` pointer replicas converge on.

Concurrency model: the event loop parses and routes; solves run on a
bounded :class:`~concurrent.futures.ThreadPoolExecutor` (the kernels
release the GIL in numpy code, and every query solves on its own state
copy).  Admission is bounded — once ``max_pending`` solves are queued,
further *new* work is refused with ``429`` (coalesced joiners piggyback
on an in-flight solve and are always admitted; a draining server answers
``503``).  Identical concurrent requests — including the same target
subset in a different order — coalesce onto one solve and receive the
same result payload.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Dict, Mapping, Optional, Set, Tuple, Union

from repro.core.model import ProtectionResult

from repro.exceptions import (
    ArtifactNotFoundError,
    PayloadTooLargeError,
    ReproError,
    ServerError,
    ServerProtocolError,
)
from repro.graphs.graph import edge_sort_key
from repro.persistence import load_delta_snapshot
from repro.server.artifacts import ArtifactStore
from repro.server.protocol import (
    HttpRequest,
    json_response,
    read_request,
    response_bytes,
)
from repro.service import ProtectionRequest, ProtectionService

__all__ = ["ProtectionServer", "ServerHandle", "serve_in_background", "solve_response"]


#: How long a graceful stop waits for queued solves before cancelling.
DRAIN_SECONDS = 10.0


class ProtectionServer:
    """Serve one protection session over HTTP with hot-reload.

    Parameters
    ----------
    service:
        The live session to serve.  Hot-reload (``POST /reload`` or the
        artifact-store poll) replaces it atomically; in-flight queries
        finish on the session they were admitted under.
    store:
        Optional :class:`~repro.server.artifacts.ArtifactStore` backing
        the ``/artifacts`` endpoints, hash-addressed reloads and the
        ``latest``-pointer poll.
    max_pending:
        Bound on queued-plus-running solves; new non-coalesced work beyond
        it is refused with ``429``.
    solver_threads:
        Executor width for solves (each query solves on its own state
        copy, so width only trades latency for memory).
    poll_interval:
        When set (seconds), a background task follows the store's
        ``latest`` pointer: deltas whose parent matches the live hash are
        applied, published snapshots are swapped in.  ``None`` disables
        polling (``poll_store_once`` stays available for explicit calls).
    """

    def __init__(
        self,
        service: ProtectionService,
        store: Optional[ArtifactStore] = None,
        max_pending: int = 64,
        solver_threads: int = 4,
        poll_interval: Optional[float] = None,
    ) -> None:
        if max_pending < 1:
            raise ServerError(f"max_pending must be >= 1, got {max_pending}")
        if solver_threads < 1:
            raise ServerError(f"solver_threads must be >= 1, got {solver_threads}")
        self.store = store
        self._lock = threading.Lock()
        self._service = service  # reprolint: guarded-by(_lock)
        self._draining = False  # reprolint: guarded-by(_lock)
        self._requests_total = 0  # reprolint: guarded-by(_lock)
        self._solves_executed = 0  # reprolint: guarded-by(_lock)
        self._solve_errors = 0  # reprolint: guarded-by(_lock)
        self._coalesced_hits = 0  # reprolint: guarded-by(_lock)
        self._rejected = 0  # reprolint: guarded-by(_lock)
        self._reloads = 0  # reprolint: guarded-by(_lock)
        self._poll_errors = 0  # reprolint: guarded-by(_lock)
        self._max_pending = max_pending
        self._poll_interval = poll_interval
        self._executor = ThreadPoolExecutor(
            solver_threads, thread_name_prefix="tpp-solver"
        )
        self._started_monotonic = time.monotonic()
        # event-loop-only state (never touched from executor threads):
        self._inflight: Dict[ProtectionRequest, "asyncio.Future[_Solved]"] = {}
        self._pending = 0
        self._connections: Set["asyncio.Task[None]"] = set()
        self._asyncio_server: Optional[asyncio.Server] = None
        self._poll_task: Optional["asyncio.Task[None]"] = None
        self._stop_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # the live session
    # ------------------------------------------------------------------
    def current_service(self) -> ProtectionService:
        """The session queries are being admitted to right now."""
        with self._lock:
            return self._service

    def content_hash(self) -> str:
        """The live session's content hash, as the session keeps it
        (:meth:`ProtectionService.content_hash`)."""
        return self.current_service().content_hash()

    def drain(self) -> None:
        """Stop admitting new solves; queued work finishes, clients get 503."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        """Whether the server refuses new work ahead of shutdown."""
        with self._lock:
            return self._draining

    # ------------------------------------------------------------------
    # hot-reload (synchronous — the HTTP handler runs these in the executor)
    # ------------------------------------------------------------------
    def reload_from_file(self, path: Union[str, Path]) -> Dict[str, object]:
        """Swap in an index snapshot, or apply a delta file.

        ``*.tppdelta`` files apply through
        :meth:`ProtectionService.apply_delta` (the parent content hash is
        verified first, the recorded result hash before the swap; a stale
        or mislabelled delta raises
        :class:`~repro.exceptions.SnapshotMismatchError` and leaves the
        live session untouched).  Anything else loads as an index snapshot
        and replaces the session atomically — queries already in flight
        finish on the old one.  A file that is neither (a zip archive, a
        truncated or foreign file) raises
        :class:`~repro.exceptions.SnapshotFormatError`.
        """
        path = Path(path)
        try:
            with path.open("rb") as handle:
                head = handle.read(12)
        except OSError:
            # from_snapshot reports the unreadable path as a typed error
            head = b""
        if head == b"REPROTPPDLTA":
            self.current_service().apply_delta(load_delta_snapshot(path))
            with self._lock:
                self._reloads += 1
            return self._reloaded("delta-applied")
        return self._install(ProtectionService.from_snapshot(path))

    def reload_from_store(self, content_hash: str) -> Dict[str, object]:
        """Swap to / apply the published artifact named by ``content_hash``."""
        record = self._require_store().resolve(content_hash)
        return self.reload_from_file(record.path)

    def poll_store_once(self) -> Dict[str, object]:
        """Converge on the store's ``latest`` pointer; returns what happened.

        Catch-up prefers deltas: while a published delta's parent matches
        the live hash, it is applied; otherwise the ``latest`` snapshot is
        swapped in wholesale.  A missing pointer (or already being
        current) is a no-op.
        """
        store = self._require_store()
        latest = store.latest()
        if latest is None:
            return {"action": "noop", "reason": "no latest pointer"}
        steps = 0
        # the chain walk is bounded by the store's contents: each applied
        # delta moves to a new hash, and a finite store cannot extend the
        # walk forever
        bound = len(store.records()) + 1
        while self.content_hash() != latest and steps < bound:
            delta = store.delta_from(self.content_hash())
            if delta is not None:
                self.reload_from_file(delta.path)
                steps += 1
                continue
            record = store.resolve(latest)
            if record.kind != "snapshot":
                return {
                    "action": "refused",
                    "reason": (
                        "latest names a delta whose parent chain does not "
                        "reach the live session"
                    ),
                    "latest": latest,
                    "content_hash": self.content_hash(),
                }
            self.reload_from_file(record.path)
            steps += 1
        if steps == 0:
            return {"action": "noop", "reason": "already current", "latest": latest}
        return {
            "action": "converged",
            "steps": steps,
            "latest": latest,
            "content_hash": self.content_hash(),
        }

    def _require_store(self) -> ArtifactStore:
        if self.store is None:
            raise ServerError(
                "no artifact store is attached to this server "
                "(start it with --artifact-dir / store=...)"
            )
        return self.store

    def _install(self, fresh: ProtectionService) -> Dict[str, object]:
        with self._lock:
            self._service = fresh
            self._reloads += 1
        return self._reloaded("swapped")

    def _reloaded(self, action: str) -> Dict[str, object]:
        service = self.current_service()
        return {
            "status": "reloaded",
            "action": action,
            "content_hash": self.content_hash(),
            "index_source": service.index_source,
            "deltas_applied": service.deltas_applied,
            "targets": len(service.targets),
        }

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """The ``GET /stats`` payload (also handy for tests and tooling)."""
        service = self.current_service()
        with self._lock:
            counters = {
                "requests_total": self._requests_total,
                "solves_executed": self._solves_executed,
                "solve_errors": self._solve_errors,
                "coalesced_hits": self._coalesced_hits,
                "rejected": self._rejected,
                "reloads": self._reloads,
                "poll_errors": self._poll_errors,
                "draining": self._draining,
            }
        return {
            "status": "draining" if counters["draining"] else "serving",
            "queries_served": service.queries_served,
            "index_source": service.index_source,
            "deltas_applied": service.deltas_applied,
            "content_hash": self.content_hash(),
            "targets": len(service.targets),
            "instances": service.index.number_of_instances(),
            "pending": self._pending,
            "max_pending": self._max_pending,
            "uptime_seconds": round(time.monotonic() - self._started_monotonic, 3),
            **counters,
        }

    # ------------------------------------------------------------------
    # asyncio plumbing
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start accepting connections; returns ``(host, port)``."""
        if self._asyncio_server is not None:
            raise ServerError("server is already started")
        self._stop_event = asyncio.Event()
        self._asyncio_server = await asyncio.start_server(
            self._on_connection, host, port
        )
        if self._poll_interval is not None and self.store is not None:
            self._poll_task = asyncio.get_running_loop().create_task(
                self._poll_loop()
            )
        sockname = self._asyncio_server.sockets[0].getsockname()
        self.address: Tuple[str, int] = (sockname[0], sockname[1])
        return self.address

    def request_stop(self) -> None:
        """Ask the serving loop to shut down (thread-safe via call_soon)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def wait_stopped(self) -> None:
        """Block until :meth:`request_stop`, then drain and shut down."""
        assert self._stop_event is not None, "start() must run first"
        await self._stop_event.wait()
        await self._shutdown()

    async def _shutdown(self) -> None:
        self.drain()
        if self._poll_task is not None:
            self._poll_task.cancel()
            try:
                await self._poll_task
            except asyncio.CancelledError:
                pass
        if self._asyncio_server is not None:
            self._asyncio_server.close()
        deadline = time.monotonic() + DRAIN_SECONDS
        while self._pending and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        # an idle keep-alive connection waits in read_request with no
        # timeout, and Server.wait_closed waits for every open connection
        # (CPython >= 3.12.1): end the connections before waiting on it
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._asyncio_server is not None:
            await self._asyncio_server.wait_closed()
        self._executor.shutdown(wait=False)

    async def _poll_loop(self) -> None:
        assert self._poll_interval is not None
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self._poll_interval)
            try:
                await loop.run_in_executor(self._executor, self.poll_store_once)
            except ReproError:
                # a corrupt publish or racing pointer move must not kill
                # the serving loop; the live session stays untouched
                with self._lock:
                    self._poll_errors += 1

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except PayloadTooLargeError as error:
                    writer.write(
                        json_response(413, {"error": str(error)}, keep_alive=False)
                    )
                    await writer.drain()
                    break
                except ServerProtocolError as error:
                    writer.write(
                        json_response(400, {"error": str(error)}, keep_alive=False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                with self._lock:
                    self._requests_total += 1
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(self, request: HttpRequest) -> bytes:
        path = request.path
        if path == "/healthz":
            if request.method != "GET":
                return _method_not_allowed("GET")
            if self.draining:
                return json_response(
                    503,
                    {"status": "draining", "error": "server is draining"},
                    extra_headers={"Retry-After": "1"},
                )
            return json_response(
                200, {"status": "ok", "content_hash": self.content_hash()}
            )
        if path == "/stats":
            if request.method != "GET":
                return _method_not_allowed("GET")
            return json_response(200, self.stats())
        if path == "/solve":
            if request.method != "POST":
                return _method_not_allowed("POST")
            return await self._handle_solve(request)
        if path == "/reload":
            if request.method != "POST":
                return _method_not_allowed("POST")
            return await self._handle_reload(request)
        if path == "/artifacts" or path.startswith("/artifacts/"):
            return await self._handle_artifacts(request)
        return json_response(404, {"error": f"unknown path {path!r}"})

    # ------------------------------------------------------------------
    # /solve
    # ------------------------------------------------------------------
    async def _handle_solve(self, request: HttpRequest) -> bytes:
        try:
            payload = request.json()
            if not isinstance(payload, dict):
                raise ServerProtocolError(
                    "the /solve body must be a JSON object (a ProtectionRequest)"
                )
            query = ProtectionRequest.from_dict(payload)
            query.validate()
        except (ReproError, TypeError, KeyError) as error:
            return json_response(400, {"error": str(error) or repr(error)})
        if self.draining:
            return json_response(
                503,
                {"error": "server is draining; retry against another replica"},
                extra_headers={"Retry-After": "1"},
            )
        query = _coalescing_form(query)
        future = self._inflight.get(query)
        coalesced = future is not None
        if future is None:
            if self._pending >= self._max_pending:
                with self._lock:
                    self._rejected += 1
                return json_response(
                    429,
                    {
                        "error": (
                            f"admission queue is full "
                            f"({self._max_pending} solves pending)"
                        )
                    },
                    extra_headers={"Retry-After": "1"},
                )
            future = self._submit(query)
        else:
            with self._lock:
                self._coalesced_hits += 1
        try:
            solved = await asyncio.shield(future)
        except ReproError as error:
            return json_response(400, {"error": str(error)})
        except Exception as error:  # surface, don't kill the connection
            return json_response(
                500, {"error": f"{type(error).__name__}: {error}"}
            )
        return solve_response(
            solved.result,
            {
                "coalesced": coalesced,
                "queue_seconds": round(solved.queue_seconds, 6),
                "solve_seconds": round(solved.solve_seconds, 6),
                "content_hash": solved.content_hash,
            },
        )

    def _submit(
        self, query: ProtectionRequest
    ) -> "asyncio.Future[_Solved]":
        loop = asyncio.get_running_loop()
        submitted = time.perf_counter()

        def job() -> "_Solved":
            started = time.perf_counter()
            service = self.current_service()
            content_hash = self.content_hash()
            result = service.solve(query)
            return _Solved(
                result=result,
                queue_seconds=started - submitted,
                solve_seconds=time.perf_counter() - started,
                content_hash=content_hash,
            )

        shared: "asyncio.Future[_Solved]" = loop.create_future()
        executor_future = loop.run_in_executor(self._executor, job)
        self._pending += 1
        self._inflight[query] = shared

        def finished(task: "asyncio.Future[_Solved]") -> None:
            self._pending -= 1
            self._inflight.pop(query, None)
            error = task.exception() if not task.cancelled() else None
            if task.cancelled():
                shared.cancel()
            elif error is not None:
                with self._lock:
                    self._solve_errors += 1
                shared.set_exception(error)
            else:
                with self._lock:
                    self._solves_executed += 1
                shared.set_result(task.result())

        executor_future.add_done_callback(finished)
        return shared

    # ------------------------------------------------------------------
    # /reload
    # ------------------------------------------------------------------
    async def _handle_reload(self, request: HttpRequest) -> bytes:
        try:
            payload = request.json()
        except ServerProtocolError as error:
            return json_response(400, {"error": str(error)})
        if not isinstance(payload, dict):
            return json_response(400, {"error": "the /reload body must be a JSON object"})
        keys = [key for key in ("snapshot", "delta", "content_hash") if payload.get(key)]
        if len(keys) != 1:
            return json_response(
                400,
                {
                    "error": (
                        "pass exactly one of 'snapshot' (a *.tppsnap path), "
                        "'delta' (a *.tppdelta path) or 'content_hash' "
                        "(a published artifact)"
                    )
                },
            )
        loop = asyncio.get_running_loop()
        try:
            if keys[0] == "content_hash":
                outcome = await loop.run_in_executor(
                    self._executor,
                    self.reload_from_store,
                    str(payload["content_hash"]),
                )
            else:
                outcome = await loop.run_in_executor(
                    self._executor, self.reload_from_file, str(payload[keys[0]])
                )
        except ArtifactNotFoundError as error:
            return json_response(404, {"error": str(error)})
        except (ReproError, OSError) as error:
            # stale hash, corrupt file, missing path... — the live session
            # is untouched; tell the caller why
            return json_response(409, {"error": str(error)})
        return json_response(200, outcome)

    # ------------------------------------------------------------------
    # /artifacts
    # ------------------------------------------------------------------
    async def _handle_artifacts(self, request: HttpRequest) -> bytes:
        if self.store is None:
            return json_response(
                404, {"error": "no artifact store is attached to this server"}
            )
        store = self.store
        loop = asyncio.get_running_loop()
        if request.path == "/artifacts":
            if request.method == "GET":
                listing = await loop.run_in_executor(self._executor, store.describe)
                return json_response(200, listing)
            if request.method == "POST":
                try:
                    record = await loop.run_in_executor(
                        self._executor, store.publish_bytes, request.body
                    )
                except ReproError as error:
                    return json_response(400, {"error": str(error)})
                return json_response(201, record.to_dict())
            return _method_not_allowed("GET, POST")
        if request.path == "/artifacts/latest":
            if request.method != "POST":
                return _method_not_allowed("POST")
            try:
                payload = request.json()
                content_hash = (
                    payload.get("content_hash") if isinstance(payload, dict) else None
                )
                if not content_hash:
                    return json_response(
                        400, {"error": "the body must carry a 'content_hash'"}
                    )
                record = await loop.run_in_executor(
                    self._executor, store.set_latest, str(content_hash)
                )
            except ServerProtocolError as error:
                return json_response(400, {"error": str(error)})
            except ArtifactNotFoundError as error:
                return json_response(404, {"error": str(error)})
            return json_response(200, record.to_dict())
        content_hash = request.path[len("/artifacts/"):]
        if request.method != "GET":
            return _method_not_allowed("GET")
        try:
            blob = await loop.run_in_executor(
                self._executor, store.fetch_bytes, content_hash
            )
        except ArtifactNotFoundError as error:
            return json_response(404, {"error": str(error)})
        except ReproError as error:
            return json_response(409, {"error": str(error)})
        return response_bytes(200, blob, content_type="application/octet-stream")


class _Solved:
    """One executed solve, shared verbatim by every coalesced awaiter."""

    __slots__ = ("result", "queue_seconds", "solve_seconds", "content_hash")

    def __init__(
        self,
        result: ProtectionResult,
        queue_seconds: float,
        solve_seconds: float,
        content_hash: str,
    ) -> None:
        self.result = result
        self.queue_seconds = queue_seconds
        self.solve_seconds = solve_seconds
        self.content_hash = content_hash


def solve_response(result: ProtectionResult, server: Mapping[str, object]) -> bytes:
    """The ``/solve`` answer, byte for byte ``json_response(200, body)``
    of ``body = result.to_dict()`` with ``server`` as ``extra["server"]``.

    Built straight from the result, keys in sorted order, without the
    ``to_dict`` tree: each edge section (protectors, the CT/WT allocation,
    the budget division) is one ``json.dumps`` of its tuples, which
    encode exactly as the lists ``to_dict`` would make of them.
    """
    dumps = json.dumps
    extra = dict(result.extra)
    extra["server"] = server
    parts = ['{"algorithm": ', dumps(result.algorithm)]
    if result.allocation is not None:
        parts += [', "allocation": ', dumps(list(result.allocation.items()))]
    parts += [', "budget": ', dumps(result.budget)]
    if result.budget_division is not None:
        parts += [', "budget_division": ', dumps(list(result.budget_division.items()))]
    parts += [
        ', "extra": ',
        dumps(extra, sort_keys=True),
        ', "initial_similarity": ',
        dumps(result.initial_similarity),
        ', "motif": ',
        dumps(result.motif),
        ', "protectors": ',
        dumps(result.protectors),
        ', "runtime_seconds": ',
        dumps(result.runtime_seconds),
        ', "similarity_trace": ',
        dumps(result.similarity_trace),
        "}",
    ]
    return response_bytes(200, "".join(parts).encode("utf-8"))


def _coalescing_form(query: ProtectionRequest) -> ProtectionRequest:
    """Canonicalise a request so equal work shares one in-flight solve.

    Subset targets are put in the library-wide order — the same subset
    named in a different order is the same enumeration and the same greedy
    trace (``_subset_session`` sorts identically), so both callers receive
    the one solved payload.
    """
    if query.targets is None:
        return query
    ordered = tuple(sorted(query.targets, key=edge_sort_key))
    if ordered == query.targets:
        return query
    return replace(query, targets=ordered)


def _method_not_allowed(allowed: str) -> bytes:
    return json_response(
        405,
        {"error": f"method not allowed; use {allowed}"},
        extra_headers={"Allow": allowed},
    )


class ServerHandle:
    """A running background server (tests, examples, the CLI foreground).

    Created by :func:`serve_in_background`; :meth:`stop` drains and joins.
    """

    def __init__(
        self,
        server: ProtectionServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
        host: str,
        port: int,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._loop = loop
        self._thread = thread

    @property
    def url(self) -> str:
        """The base URL clients should talk to."""
        return f"http://{self.host}:{self.port}"

    def stop(self, timeout: float = DRAIN_SECONDS + 5.0) -> None:
        """Drain, shut the server down and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise ServerError("server thread did not stop within the timeout")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_in_background(
    server: ProtectionServer,
    host: str = "127.0.0.1",
    port: int = 0,
    start_timeout: float = 30.0,
) -> ServerHandle:
    """Run ``server`` on its own event loop in a daemon thread.

    Returns once the socket is bound; ``port=0`` picks a free port (read
    it off the returned handle).  Startup failures (port in use, ...) are
    re-raised in the calling thread.
    """
    started = threading.Event()
    box = _StartupBox()

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box.loop = loop

        async def main() -> None:
            try:
                box.address = await server.start(host, port)
            except BaseException as error:  # startup failed — hand it back
                box.error = error
                started.set()
                return
            started.set()
            await server.wait_stopped()

        try:
            loop.run_until_complete(main())
        finally:
            loop.close()
            server._executor.shutdown(wait=True)

    thread = threading.Thread(target=run, name="tpp-server", daemon=True)
    thread.start()
    if not started.wait(timeout=start_timeout):
        raise ServerError("server did not start within the timeout")
    if box.error is not None:
        thread.join(timeout=5.0)
        raise ServerError(f"server failed to start: {box.error}") from box.error
    assert box.address is not None and box.loop is not None
    return ServerHandle(
        server, box.loop, thread, str(box.address[0]), int(box.address[1])
    )


class _StartupBox:
    """Hand-off slots between the server thread and its creator."""

    __slots__ = ("loop", "address", "error")

    def __init__(self) -> None:
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self.address: Optional[Tuple[str, int]] = None
        self.error: Optional[BaseException] = None
