"""The asyncio results server (stdlib-only HTTP/1.1).

One :class:`SweepService` owns a :class:`~repro.service.cache.ResultCache`,
an in-flight table, and a metrics registry.  The request path for
``POST /v1/sweeps``:

1. canonicalize the JSON body into the experiment's frozen config
   dataclass and fingerprint it (:mod:`repro.service.fingerprint`),
   memoised on the body's exact bytes;
2. **hit** — a validated cache entry exists: serve it (no simulation),
   its reply serialised once per validated entry;
3. **join** — the same fingerprint is already being computed: subscribe
   to the existing computation instead of starting a second one (N
   concurrent identical requests run the sweep exactly once);
4. **miss** — start the computation on a worker thread, inside the
   server's one resilient sweep runtime (supervised worker processes
   that outlive the request, retries, watchdogs —
   :mod:`repro.experiments.resilient`), store the entry, then answer
   everyone subscribed.

Clients that set ``"stream": true`` get a chunked NDJSON response:
completed sweep points as they finish (via the resilient runtime's
per-point progress hook), then the final result.  Because scheduling
between cache check and in-flight registration never awaits, the
hit/join/miss decision is atomic on the event loop.

Counters (``service.requests``, ``service.cache_hits``,
``service.cache_misses``, ``service.dedup_joined``,
``service.computations``, ``service.cache_poisoned``,
``service.connections``, ``service.workers_spawned``, …) live in an
observability :class:`~repro.observability.metrics.MetricsRegistry`
exposed at ``GET /v1/stats``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
import traceback
from typing import Any, Dict, NamedTuple, Optional, Set, Tuple

from ..experiments.parallel import PartialSweepError
from ..experiments.resilient import RetryPolicy, SweepRuntime
from ..experiments.runner import EXPERIMENTS
from ..observability.metrics import MetricsRegistry
from .cache import (
    BadFingerprintError,
    BoundedMemo,
    CacheEntry,
    ResultCache,
    make_entry,
)
from .fingerprint import (
    CONFIG_TYPES,
    RequestError,
    effective_config,
    request_fingerprint,
)
from .results import render_result

__all__ = ["SweepService"]

_MAX_BODY = 4 << 20  # a config JSON has no business being larger
_IDLE_TIMEOUT_S = 30.0  # how long a connection may sit between requests
_EOF = object()

#: bounds of the per-service memos: parsed request bodies (count, body
#: bytes) and serialised hit replies (count, reply bytes)
_REQUEST_MEMO_ENTRIES = 256
_REQUEST_MEMO_BYTES = 1 << 20
_REPLY_MEMO_ENTRIES = 128
_REPLY_MEMO_BYTES = 4 << 20


def _refuse_constant(name: str) -> Any:
    """``json.loads`` hook for ``NaN`` / ``Infinity`` / ``-Infinity``: no
    config field takes a non-finite number, so the request is a 400."""
    raise RequestError(f"{name} is not a number a request may carry")


def _json_body(payload: Dict[str, Any]) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


class _Request(NamedTuple):
    """What a ``POST /v1/sweeps`` body asks for, resolved and fingerprinted."""

    name: str
    jobs: Optional[int]
    stream: bool
    config: Any
    residual_seed: Optional[int]
    fingerprint: str


def _parse_request(body: bytes, default_jobs: Optional[int]) -> _Request:
    """Resolve a request body, or raise :class:`RequestError` / ``ValueError``.

    A pure function of its arguments: :meth:`SweepService._parse`
    memoises it on them.
    """
    try:
        req = json.loads(body.decode() or "{}", parse_constant=_refuse_constant)
    except RecursionError:
        raise RequestError("request body nests too deeply") from None
    if not isinstance(req, dict):
        raise RequestError("request body must be a JSON object")
    name = req.get("experiment")
    if not isinstance(name, str):
        raise RequestError("missing 'experiment' (string)")
    seed = req.get("seed")
    if seed is not None and (type(seed) is not int or seed < 0):
        # a negative seed fingerprints, then fails the computation
        raise RequestError("'seed' must be a non-negative integer")
    # checked before fingerprinting: ``jobs`` is not part of the key, so a
    # bad value must not reach a computation others join
    jobs = req.get("jobs", default_jobs)
    if jobs is not None and (type(jobs) is not int or jobs < 0):
        raise RequestError("'jobs' must be a non-negative integer or null")
    stream = req.get("stream", False)
    quick = req.get("quick", False)
    for key, flag in (("stream", stream), ("quick", quick)):
        if not isinstance(flag, bool):
            raise RequestError(f"'{key}' must be true or false")
    config, residual_seed = effective_config(
        name, req.get("config"), quick=quick, seed=seed
    )
    fingerprint = request_fingerprint(name, config, seed=residual_seed)
    return _Request(name, jobs, stream, config, residual_seed, fingerprint)


class _HttpError(RuntimeError):
    """An error reply to send: a failed computation's, to every
    subscriber, or a malformed request head's."""

    def __init__(self, status: int, payload: Dict[str, Any]) -> None:
        super().__init__(payload.get("error", "computation failed"))
        self.status = status
        self.payload = payload


class _InFlight:
    """One running computation plus its streaming subscribers."""

    __slots__ = ("task", "subscribers")

    def __init__(self) -> None:
        self.task: Optional[asyncio.Task] = None
        self.subscribers: Set[asyncio.Queue] = set()


class SweepService:
    """The server object: routing, dedup, cache, and metrics.

    ``jobs`` is the default per-computation worker-process count,
    ``retry`` the resilient runtime policy applied to every computation,
    and ``max_concurrent`` caps how many distinct fingerprints compute
    at once (requests beyond the cap queue on the semaphore; identical
    requests never queue — they join the in-flight computation).
    """

    def __init__(
        self,
        cache_dir: str,
        *,
        jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        max_concurrent: int = 1,
        cache_max_bytes: Optional[int] = None,
        cache_max_entries: Optional[int] = None,
    ) -> None:
        self.cache = ResultCache(
            cache_dir, max_bytes=cache_max_bytes, max_entries=cache_max_entries
        )
        self.jobs = jobs
        self.registry = MetricsRegistry()
        #: one runtime until :meth:`close`: the worker processes one cold
        #: request forks serve the next
        self.runtime = SweepRuntime(retry=retry or RetryPolicy(max_attempts=2))
        self._inflight: Dict[str, _InFlight] = {}
        self._slots = asyncio.Semaphore(max(1, max_concurrent))
        self._server: Optional[asyncio.base_events.Server] = None
        #: open connection -> does it outlive the reply being written
        #: (its request allowed that, and no reply has ended it since)
        self._keep_alive: Dict[asyncio.StreamWriter, bool] = {}
        self._handlers: Set[asyncio.Task] = set()
        #: (body bytes, default jobs) -> the :class:`_Request` they parse to
        self._requests = BoundedMemo(_REQUEST_MEMO_ENTRIES, _REQUEST_MEMO_BYTES)
        #: fingerprint -> (validated entry, its plain hit reply)
        self._replies = BoundedMemo(_REPLY_MEMO_ENTRIES, _REPLY_MEMO_BYTES)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start serving; returns the bound port."""
        self._server = await asyncio.start_server(self._handle, host, port)
        return self._server.sockets[0].getsockname()[1]

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (``start()`` is already accepting).

        Not ``Server.serve_forever()``: cancelled, it waits (from 3.12)
        for every connection before :meth:`close` could drop the idle ones.
        """
        assert self._server is not None, "call start() first"
        await asyncio.get_running_loop().create_future()

    async def close(self) -> None:
        """Stop accepting, drop every connection, wait for its handler.

        An idle one would hold ``wait_closed()`` for ``_IDLE_TIMEOUT_S``
        (from 3.12) or have its handler cancelled with a traceback when
        the loop ends (to 3.11).  A request in flight sees a clean EOF;
        its computation still finishes and is cached.  Then the runtime's
        idle workers are stopped (one still computing ends with its sweep).
        """
        if self._server is not None:
            self._server.close()
            for writer in list(self._keep_alive):
                writer.close()
            if self._handlers:
                await asyncio.wait(self._handlers)
            await self._server.wait_closed()
            self.runtime.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: requests in order until either side closes."""
        self.registry.inc("service.connections")
        task = asyncio.current_task()
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)
        self._keep_alive[writer] = True
        try:
            while self._keep_alive[writer]:
                try:
                    request = await self._read_request(reader, writer)
                except _HttpError as exc:
                    # the stream cannot be resynchronised: never reused
                    self._keep_alive[writer] = False
                    await self._respond(writer, exc.status, exc.payload)
                    break
                if request is None:
                    break
                method, path, body, keep_alive = request
                self._keep_alive[writer] = keep_alive
                await self._route(writer, method, path, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; any shared computation keeps running
        except Exception:  # pragma: no cover — defensive
            traceback.print_exc()
            self._keep_alive[writer] = False
            try:
                await self._respond(writer, 500, {"error": "internal error"})
            except ConnectionError:
                pass
        finally:
            del self._keep_alive[writer]
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        """The next ``(method, target, body, keep_alive)`` off the stream.

        ``None`` when the peer closed, or sat idle for ``_IDLE_TIMEOUT_S``,
        instead of sending one.
        """
        idle = asyncio.get_running_loop().call_later(
            _IDLE_TIMEOUT_S, writer.close
        )
        try:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except asyncio.IncompleteReadError:
                return None
            except asyncio.LimitOverrunError:
                raise _HttpError(431, {"error": "head too large"}) from None
            request_line, *lines = head[:-4].decode("latin-1").split("\r\n")
            try:
                method, target, version = request_line.split()
            except ValueError:
                raise _HttpError(400, {"error": "bad request line"}) from None
            headers: Dict[str, str] = {}
            for line in lines:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            declared = headers.get("content-length", "0")
            if not (declared.isascii() and declared.isdigit()):
                raise _HttpError(400, {"error": f"bad Content-Length {declared!r}"})
            length = int(declared)
            if length > _MAX_BODY:
                raise _HttpError(413, {"error": f"body over {_MAX_BODY} bytes"})
            body = await reader.readexactly(length)
        finally:
            idle.cancel()
        keep_alive = (
            version.upper() == "HTTP/1.1"
            and headers.get("connection", "").lower() != "close"
        )
        return method.upper(), target, body, keep_alive

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
    ) -> None:
        await self._send(writer, status, _json_body(payload))

    async def _send(
        self, writer: asyncio.StreamWriter, status: int, body: bytes
    ) -> None:
        connection = "keep-alive" if self._keep_alive.get(writer) else "close"
        writer.write(
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n".encode() + body
        )
        await writer.drain()

    async def _start_stream(self, writer: asyncio.StreamWriter) -> None:
        self._keep_alive[writer] = False  # a chunked reply ends its connection
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

    async def _send_event(
        self, writer: asyncio.StreamWriter, event: Dict[str, Any]
    ) -> None:
        line = (json.dumps(event, sort_keys=True) + "\n").encode()
        writer.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
        await writer.drain()

    async def _end_stream(self, writer: asyncio.StreamWriter) -> None:
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
    ) -> None:
        path = path.split("?", 1)[0]
        if method == "GET" and path == "/healthz":
            await self._respond(writer, 200, {"ok": True})
        elif method == "GET" and path == "/v1/stats":
            await self._respond(writer, 200, self._stats())
        elif method == "GET" and path == "/v1/experiments":
            await self._respond(writer, 200, self._catalog())
        elif method == "GET" and path.startswith("/v1/results/"):
            await self._get_result(writer, path.rsplit("/", 1)[1])
        elif method == "GET" and path == "/v1/results":
            await self._respond(writer, 200, {"results": self.cache.index()})
        elif method == "POST" and path == "/v1/sweeps":
            await self._post_sweep(writer, body)
        else:
            await self._respond(
                writer, 404, {"error": f"no route {method} {path}"}
            )

    def _stats(self) -> Dict[str, Any]:
        snap = self.registry.snapshot()
        return {
            "counters": {
                **snap["counters"],
                "service.workers_spawned": self.runtime.spawned,
            },
            "gauges": {
                **snap["gauges"],
                "service.workers_idle": self.runtime.idle,
            },
            "inflight": len(self._inflight),
            "cache_entries": len(self.cache),
            "cache_poisoned": self.cache.poisoned,
            "cache_evicted": self.cache.evicted,
        }

    def _catalog(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, cls in sorted(CONFIG_TYPES.items()):
            out[name] = {
                "config": cls.__name__,
                "fields": {
                    f.name: repr(f.default)
                    if f.default is not dataclasses.MISSING
                    else None
                    for f in dataclasses.fields(cls)
                },
            }
        return {"experiments": out}

    async def _get_result(
        self, writer: asyncio.StreamWriter, fingerprint: str
    ) -> None:
        try:
            entry = self.cache.get(fingerprint)
        except BadFingerprintError:
            entry = None
        if entry is None:
            await self._respond(
                writer, 404, {"error": f"no result for {fingerprint!r}"}
            )
        else:
            await self._send(writer, 200, self._hit_reply(entry))

    def _hit_reply(self, entry: CacheEntry) -> bytes:
        """The plain reply to a hit on ``entry``, serialised once per
        validated entry object: the cache hands out a new object whenever
        the bytes it validates change."""
        memo = self._replies.get(entry.fingerprint)
        if memo is not None and memo[0] is entry:
            return memo[1]
        body = _json_body({"cached": True, **entry.to_json()})
        self._replies.put(entry.fingerprint, (entry, body), len(body))
        return body

    # ------------------------------------------------------------------
    # the sweep endpoint
    # ------------------------------------------------------------------
    def _parse(self, body: bytes) -> _Request:
        """:func:`_parse_request` of ``body``, memoised on its exact bytes;
        a body that raises is never stored."""
        key = (body, self.jobs)
        request = self._requests.get(key)
        if request is None:
            request = _parse_request(body, self.jobs)
            self._requests.put(key, request, len(body))
        return request

    async def _post_sweep(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        self.registry.inc("service.requests")
        try:
            name, jobs, stream, config, residual_seed, fingerprint = (
                self._parse(body)
            )
        except RequestError as exc:
            self.registry.inc("service.bad_requests")
            await self._respond(writer, 400, {"error": str(exc)})
            return
        except ValueError as exc:
            self.registry.inc("service.bad_requests")
            await self._respond(writer, 400, {"error": f"bad JSON: {exc}"})
            return

        # hit / join / miss — no await between the checks, so the
        # decision is atomic on the event loop and a fingerprint can
        # never be computed twice concurrently
        entry = self.cache.get(fingerprint)
        if entry is not None:
            self.registry.inc("service.cache_hits")
            if stream:
                await self._stream_hit(writer, entry.to_json())
            else:
                await self._send(writer, 200, self._hit_reply(entry))
            return
        self.registry.inc("service.cache_misses")
        flight = self._inflight.get(fingerprint)
        if flight is None:
            flight = _InFlight()
            self._inflight[fingerprint] = flight
            flight.task = asyncio.create_task(
                self._compute(fingerprint, name, config, residual_seed, jobs)
            )
            # a disconnected client must not leave the shared task's
            # exception unretrieved
            flight.task.add_done_callback(
                lambda t: t.exception() if not t.cancelled() else None
            )
            self.registry.inc("service.computations")
            self.registry.set_gauge(
                "service.inflight", len(self._inflight)
            )
        else:
            self.registry.inc("service.dedup_joined")

        if stream:
            await self._stream_answer(writer, fingerprint, flight)
        else:
            await self._plain_answer(writer, flight)

    async def _plain_answer(
        self, writer: asyncio.StreamWriter, flight: _InFlight
    ) -> None:
        try:
            entry_json = await asyncio.shield(flight.task)
        except _HttpError as exc:
            await self._respond(writer, exc.status, exc.payload)
            return
        await self._respond(writer, 200, {"cached": False, **entry_json})

    async def _stream_answer(
        self,
        writer: asyncio.StreamWriter,
        fingerprint: str,
        flight: _InFlight,
    ) -> None:
        queue: asyncio.Queue = asyncio.Queue()
        flight.subscribers.add(queue)
        try:
            await self._start_stream(writer)
            await self._send_event(
                writer,
                {
                    "event": "accepted",
                    "fingerprint": fingerprint,
                    "cached": False,
                },
            )
            while True:
                item = await queue.get()
                if item is _EOF:
                    break
                await self._send_event(writer, {"event": "point", **item})
            # a stream's last line is always ``result`` or ``error``
            try:
                entry_json = await asyncio.shield(flight.task)
                last = {"event": "result", "cached": False, **entry_json}
            except _HttpError as exc:
                last = {"event": "error", "status": exc.status, **exc.payload}
            except Exception:
                traceback.print_exc()
                last = {"event": "error", "status": 500, "error": "internal error"}
            await self._send_event(writer, last)
            await self._end_stream(writer)
        finally:
            flight.subscribers.discard(queue)

    async def _stream_hit(
        self, writer: asyncio.StreamWriter, entry_json: Dict[str, Any]
    ) -> None:
        await self._start_stream(writer)
        await self._send_event(
            writer,
            {
                "event": "accepted",
                "fingerprint": entry_json["fingerprint"],
                "cached": True,
            },
        )
        await self._send_event(
            writer, {"event": "result", "cached": True, **entry_json}
        )
        await self._end_stream(writer)

    # ------------------------------------------------------------------
    # computation
    # ------------------------------------------------------------------
    def _publish(self, fingerprint: str, item: Any) -> None:
        if item is not _EOF:
            self.registry.inc("service.points_completed")
        flight = self._inflight.get(fingerprint)
        if flight is None:
            return
        for queue in list(flight.subscribers):
            queue.put_nowait(item)

    async def _compute(
        self,
        fingerprint: str,
        name: str,
        config: Any,
        residual_seed: Optional[int],
        jobs: Optional[int],
    ) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()

        def progress(event: Dict[str, Any]) -> None:
            # called on the supervisor thread — hop onto the event loop
            loop.call_soon_threadsafe(self._publish, fingerprint, event)

        def work() -> Any:
            with self.runtime.activate(progress):
                return EXPERIMENTS[name].module.run(
                    config, jobs=jobs, seed=residual_seed
                )

        try:
            async with self._slots:
                t0 = time.perf_counter()
                try:
                    result = await asyncio.to_thread(work)
                except PartialSweepError as exc:
                    self.registry.inc("service.partial_failures")
                    raise _HttpError(
                        503,
                        {
                            "error": "partial sweep: retries exhausted on "
                            "some points; result not cached",
                            "experiment": name,
                            "fingerprint": fingerprint,
                            "report": exc.report.format(),
                        },
                    ) from exc
                except Exception as exc:
                    self.registry.inc("service.failures")
                    raise _HttpError(
                        500,
                        {
                            "error": f"{type(exc).__name__}: {exc}",
                            "experiment": name,
                            "fingerprint": fingerprint,
                        },
                    ) from exc
                wall_s = time.perf_counter() - t0
                payload, sweep = render_result(result)
                compute = {"wall_s": round(wall_s, 6), "jobs": jobs}
                if sweep is not None:
                    compute["sweep"] = sweep
                entry = make_entry(
                    fingerprint, name, config, payload, compute
                )
                before = self.cache.evicted
                try:
                    self.cache.put(entry)
                except OSError:
                    # full or read-only directory: the result is computed,
                    # serve it uncached
                    self.registry.inc("service.cache_put_failures")
                swept = self.cache.evicted - before
                if swept:
                    self.registry.inc("service.cache_evicted", swept)
                return entry.to_json()
        finally:
            self._publish(fingerprint, _EOF)
            self._inflight.pop(fingerprint, None)
            self.registry.set_gauge("service.inflight", len(self._inflight))


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


async def serve(
    host: str,
    port: int,
    cache_dir: str,
    *,
    jobs: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    max_concurrent: int = 1,
    ready_line: bool = True,
    cache_max_bytes: Optional[int] = None,
    cache_max_entries: Optional[int] = None,
) -> None:
    """Entry point used by ``python -m repro.service``: serve until cancelled."""
    service = SweepService(
        cache_dir,
        jobs=jobs,
        retry=retry,
        max_concurrent=max_concurrent,
        cache_max_bytes=cache_max_bytes,
        cache_max_entries=cache_max_entries,
    )
    bound = await service.start(host, port)
    if ready_line:
        print(
            f"repro.service listening on http://{host}:{bound} "
            f"(cache: {cache_dir})",
            flush=True,
        )
    try:
        await service.serve_forever()
    finally:
        await service.close()
