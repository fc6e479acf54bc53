"""Synchronous HTTP client for the serving front, plus replica cold-start.

:class:`ServingClient` is the caller side of :mod:`repro.server.app`:
solve queries travel as the existing
:meth:`ProtectionRequest.to_dict <repro.service.ProtectionRequest.to_dict>`
JSON and come back as full
:class:`~repro.core.model.ProtectionResult` objects; backpressure
responses (429/503) raise
:class:`~repro.exceptions.ServerOverloadedError` with the server's
``Retry-After`` hint instead of burying the status in a generic error.

The fleet workflow lives in :meth:`ServingClient.cold_start`: fetch a
published snapshot by its content hash from a serving peer's artifact
endpoints, cache it locally, and open a
:class:`~repro.service.ProtectionService` on it — refusing the bytes
unless the restored index's own hash equals the hash that was asked for
(:class:`~repro.exceptions.SnapshotMismatchError`), so a corrupted or
mislabelled artifact can never silently serve wrong gains.

Everything here is stdlib (:mod:`http.client`); one connection per
request keeps the client trivially thread-safe for benchmark fan-out.
Transport failures (a refused or reset connection, and ``http.client``'s
``IncompleteRead``, ``BadStatusLine`` or ``LineTooLong``) raise
:class:`~repro.exceptions.ServerError`.
"""

from __future__ import annotations

import json
import os
import tempfile
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from typing import Dict, Optional, Tuple, Union
from urllib.parse import urlsplit

from repro.core.model import ProtectionResult
from repro.exceptions import (
    ArtifactNotFoundError,
    ServerError,
    ServerOverloadedError,
    SnapshotFormatError,
    SnapshotMismatchError,
)
from repro.service import ProtectionRequest, ProtectionService

__all__ = ["ServingClient"]


class ServingClient:
    """Talk to one serving replica at ``base_url`` (e.g. ``http://host:port``)."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        split = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if split.scheme != "http" or not split.hostname:
            raise ServerError(
                f"base_url must look like http://host:port, got {base_url!r}"
            )
        self.host = split.hostname
        self.port = split.port or 80
        self.timeout = timeout

    @property
    def base_url(self) -> str:
        """The normalised server address."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> Tuple[int, Dict[str, str], bytes]:
        connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            headers = {"Content-Type": content_type} if body is not None else {}
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                data = response.read()
            except (OSError, HTTPException) as error:
                raise ServerError(
                    f"{method} {path} to {self.base_url} failed: {error}"
                ) from error
            lowered = {name.lower(): value for name, value in response.getheaders()}
            return response.status, lowered, data
        finally:
            connection.close()

    def _json(
        self, method: str, path: str, payload: Optional[object] = None
    ) -> Dict[str, object]:
        body = (
            json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None
            else None
        )
        status, headers, data = self._request(method, path, body=body)
        try:
            decoded = json.loads(data.decode("utf-8")) if data else {}
        except (UnicodeDecodeError, json.JSONDecodeError):
            decoded = {"error": data[:200].decode("latin-1")}
        if status in (429, 503):
            raise ServerOverloadedError(
                status,
                str(decoded.get("error", "overloaded")),
                retry_after=float(headers.get("retry-after", "1")),
            )
        if status >= 400:
            raise ServerError(
                f"{method} {path} failed ({status}): "
                f"{decoded.get('error', 'unexpected response')}"
            )
        if not isinstance(decoded, dict):
            raise ServerError(
                f"{method} {path} returned a non-object JSON body"
            )
        return decoded

    # ------------------------------------------------------------------
    # serving endpoints
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """``GET /healthz`` (raises :class:`ServerOverloadedError` on 503)."""
        return self._json("GET", "/healthz")

    def stats(self) -> Dict[str, object]:
        """``GET /stats``."""
        return self._json("GET", "/stats")

    def solve_payload(self, request: ProtectionRequest) -> Dict[str, object]:
        """``POST /solve`` returning the raw JSON payload.

        The payload is the full result dict including both metadata
        blocks: ``extra["service"]`` (the session's request echo and
        timing split) and ``extra["server"]`` (queue wait, solve wall
        time, answering content hash, coalescing flag).
        """
        return self._json("POST", "/solve", request.to_dict())

    def solve(self, request: ProtectionRequest) -> ProtectionResult:
        """``POST /solve`` returning a :class:`ProtectionResult`."""
        return ProtectionResult.from_dict(self.solve_payload(request))

    def reload(
        self,
        snapshot: Optional[Union[str, Path]] = None,
        delta: Optional[Union[str, Path]] = None,
        content_hash: Optional[str] = None,
    ) -> Dict[str, object]:
        """``POST /reload`` with exactly one source (path or published hash)."""
        payload: Dict[str, object] = {}
        if snapshot is not None:
            payload["snapshot"] = str(snapshot)
        if delta is not None:
            payload["delta"] = str(delta)
        if content_hash is not None:
            payload["content_hash"] = content_hash
        return self._json("POST", "/reload", payload)

    # ------------------------------------------------------------------
    # artifact endpoints
    # ------------------------------------------------------------------
    def list_artifacts(self) -> Dict[str, object]:
        """``GET /artifacts`` — the store listing plus the latest pointer."""
        return self._json("GET", "/artifacts")

    def fetch_artifact(self, content_hash: str) -> bytes:
        """``GET /artifacts/<hash>`` — the published file's raw bytes."""
        status, _, data = self._request("GET", f"/artifacts/{content_hash}")
        if status == 404:
            raise ArtifactNotFoundError(content_hash)
        if status >= 400:
            raise ServerError(
                f"GET /artifacts/{content_hash} failed ({status})"
            )
        return data

    def publish_file(self, path: Union[str, Path]) -> Dict[str, object]:
        """``POST /artifacts`` — publish a local snapshot / delta file."""
        return self.publish_bytes(Path(path).read_bytes())

    def publish_bytes(self, blob: bytes) -> Dict[str, object]:
        """``POST /artifacts`` with raw bytes (verified server-side)."""
        status, _, data = self._request(
            "POST", "/artifacts", body=blob, content_type="application/octet-stream"
        )
        decoded = json.loads(data.decode("utf-8")) if data else {}
        if status >= 400:
            raise ServerError(
                f"publish failed ({status}): {decoded.get('error', 'rejected')}"
            )
        return dict(decoded)

    def set_latest(self, content_hash: str) -> Dict[str, object]:
        """``POST /artifacts/latest`` — point the fleet at a published hash."""
        return self._json("POST", "/artifacts/latest", {"content_hash": content_hash})

    # ------------------------------------------------------------------
    # replica cold-start
    # ------------------------------------------------------------------
    def cold_start(
        self,
        content_hash: str,
        cache_dir: Union[str, Path],
        allow_pickle: bool = True,
        max_cached_subsets: Optional[int] = 32,
    ) -> ProtectionService:
        """Open a local session on the published snapshot named by its hash.

        Fetches ``/artifacts/<content_hash>`` (unless already cached in
        ``cache_dir``), restores the session with
        :meth:`ProtectionService.from_snapshot
        <repro.service.ProtectionService.from_snapshot>`, and *verifies*
        that the restored index's own content hash equals the hash that
        was requested.  Any mismatch — corrupted bytes, a tampered cache
        file, a mislabelled artifact — removes the cached file and raises,
        so a replica can never serve an index other than the one the hash
        names.

        Raises
        ------
        repro.exceptions.ArtifactNotFoundError
            If the server publishes no artifact under that hash.
        repro.exceptions.SnapshotFormatError
            If the fetched bytes are not a valid snapshot (the cached file
            is removed so a retry re-downloads).
        repro.exceptions.SnapshotMismatchError
            If the snapshot is valid but describes different content than
            the requested hash (the cached file is removed).
        """
        cache_dir = Path(cache_dir)
        cache_dir.mkdir(parents=True, exist_ok=True)
        target = cache_dir / f"{content_hash}.tppsnap"
        if not target.exists():
            blob = self.fetch_artifact(content_hash)
            with tempfile.NamedTemporaryFile(
                dir=cache_dir, prefix=".fetch-", delete=False
            ) as handle:
                staging = Path(handle.name)
                handle.write(blob)
            os.replace(staging, target)
        try:
            service = ProtectionService.from_snapshot(
                target,
                allow_pickle=allow_pickle,
                max_cached_subsets=max_cached_subsets,
            )
        except SnapshotFormatError:
            target.unlink(missing_ok=True)
            raise
        restored_hash = service.content_hash()
        if restored_hash != content_hash:
            target.unlink(missing_ok=True)
            raise SnapshotMismatchError(
                f"artifact fetched as {content_hash[:12]}… actually hashes to "
                f"{restored_hash[:12]}… — refusing the mislabelled snapshot "
                "(the cached copy was removed)"
            )
        return service
