"""Stdlib-only async client for the results server.

Used by the load test (``benchmarks/bench_sweep_service.py``), the CI
``service`` job, and anything else that wants protected-router numbers
without running a simulator: speak minimal HTTP/1.1, decode either a
``Content-Length`` JSON body or a chunked NDJSON stream.  Connections
persist: a client keeps those its replies left open and sends its next
request on one (concurrent requests take one each).  A kept connection
the server has dropped since (restart, idle timeout) is replaced and the
request sent once more — safe, every endpoint being a read or the
content-addressed, idempotent ``/v1/sweeps``.  Connections belong to the
event loop that opened them: a new ``asyncio.run`` starts from none.

>>> client = ServiceClient("127.0.0.1", 8733)
>>> reply = await client.sweep("fault_sweep", {"fault_counts": [0, 8]})
>>> reply["result"]["rows"][0]          # doctest: +SKIP
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["ServiceClient", "ServiceError", "wait_ready"]


class ServiceError(RuntimeError):
    """The server answered with an error status."""

    def __init__(self, status: int, payload: Any) -> None:
        message = payload.get("error") if isinstance(payload, dict) else payload
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Async client bound to one server address."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: connections of ``_loop`` a complete keep-alive reply left open
        self._idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    # ------------------------------------------------------------------
    # raw HTTP
    # ------------------------------------------------------------------
    async def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        on_line: Optional[Callable[[dict], None]] = None,
    ) -> Tuple[int, Any]:
        """One HTTP exchange; returns ``(status, decoded JSON)``.

        For chunked (streaming) responses every NDJSON line is passed to
        ``on_line`` as it arrives and the *last* line is returned as the
        body — the server's final line is the result (or error) event.
        """
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            # streams of a finished loop cannot even be closed on it;
            # dropped, their sockets close when they are collected
            self._loop, self._idle = loop, []
        payload = b"" if body is None else json.dumps(body).encode()
        message = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode() + payload
        reused = bool(self._idle)
        while True:
            reader, writer = (
                self._idle.pop()
                if reused
                else await asyncio.open_connection(self.host, self.port)
            )
            keep = False
            try:
                try:
                    writer.write(message)
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                except (ConnectionError, asyncio.IncompleteReadError) as exc:
                    if not reused:
                        raise ConnectionResetError(
                            "server closed the connection before replying"
                        ) from exc
                    reused = False  # dropped while idle: once more, afresh
                    continue
                status, decoded, keep = await _read_reply(head, reader, on_line)
                return status, decoded
            finally:
                if keep:
                    self._idle.append((reader, writer))
                else:
                    try:
                        writer.close()
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    async def health(self) -> bool:
        try:
            status, _ = await self._request("GET", "/healthz")
            return status == 200
        except OSError:
            return False

    async def stats(self) -> Dict[str, Any]:
        status, body = await self._request("GET", "/v1/stats")
        if status != 200:
            raise ServiceError(status, body)
        return body

    async def experiments(self) -> Dict[str, Any]:
        status, body = await self._request("GET", "/v1/experiments")
        if status != 200:
            raise ServiceError(status, body)
        return body["experiments"]

    async def result(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        status, body = await self._request(
            "GET", f"/v1/results/{fingerprint}"
        )
        if status == 404:
            return None
        if status != 200:
            raise ServiceError(status, body)
        return body

    async def sweep(
        self,
        experiment: str,
        config: Optional[dict] = None,
        *,
        seed: Optional[int] = None,
        quick: bool = False,
        jobs: Optional[int] = None,
        stream: bool = False,
        on_point: Optional[Callable[[dict], None]] = None,
    ) -> Dict[str, Any]:
        """Run (or fetch) one experiment; returns the full cache entry.

        With ``stream=True`` the server sends completed sweep points as
        they finish; each ``{"event": "point", ...}`` line is handed to
        ``on_point``.  Either way the returned dict carries ``cached``,
        ``fingerprint``, ``result`` and ``compute``.
        """
        body: Dict[str, Any] = {"experiment": experiment, "stream": stream}
        if config is not None:
            body["config"] = config
        if seed is not None:
            body["seed"] = seed
        if quick:
            body["quick"] = True
        if jobs is not None:
            body["jobs"] = jobs

        points: List[dict] = []

        def line_cb(line: dict) -> None:
            if line.get("event") == "point":
                points.append(line)
                if on_point is not None:
                    on_point(line)

        status, last = await self._request(
            "POST", "/v1/sweeps", body, on_line=line_cb if stream else None
        )
        if stream:
            if last is None or last.get("event") == "error":
                raise ServiceError(
                    (last or {}).get("status", status), last or {}
                )
            last = dict(last)
            last["points_streamed"] = len(points)  # one event per point
            return last
        if status != 200:
            raise ServiceError(status, last)
        return last


async def _read_reply(
    head: bytes,
    reader: asyncio.StreamReader,
    on_line: Optional[Callable[[dict], None]],
) -> Tuple[int, Any, bool]:
    """The reply behind ``head``: ``(status, JSON, connection stays open)``."""
    status_line, *lines = head[:-4].decode("latin-1").split("\r\n")
    parts = status_line.split(None, 2)
    status = int(parts[1]) if len(parts) >= 2 else 0
    headers: Dict[str, str] = {}
    for line in lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding", "").lower() == "chunked":
        last: Any = None
        for raw in await _read_chunked_lines(reader):
            last = json.loads(raw)
            if on_line is not None:
                on_line(last)
        return status, last, False  # the server ends a stream's connection
    length = int(headers.get("content-length", "0") or "0")
    raw_body = await reader.readexactly(length) if length else b""
    decoded = json.loads(raw_body) if raw_body.strip() else None
    return status, decoded, headers.get("connection", "").lower() != "close"


async def _read_chunked_lines(reader: asyncio.StreamReader) -> List[bytes]:
    """Decode a chunked body and split it into NDJSON lines."""
    buf = bytearray()
    while True:
        size_line = await reader.readline()
        try:
            size = int(size_line.strip().split(b";")[0], 16)
        except ValueError:
            break
        if size == 0:
            await reader.readline()  # trailing CRLF
            break
        buf += await reader.readexactly(size)
        await reader.readexactly(2)  # chunk CRLF
    return [line for line in bytes(buf).splitlines() if line.strip()]


async def wait_ready(
    host: str, port: int, timeout: float = 30.0
) -> "ServiceClient":
    """Poll ``/healthz`` until the server answers (or raise TimeoutError)."""
    client = ServiceClient(host, port)
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if await client.health():
            return client
        await asyncio.sleep(0.1)
    raise TimeoutError(
        f"repro.service at {host}:{port} not ready after {timeout:g}s"
    )
