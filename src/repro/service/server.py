"""``repro serve`` — the compile-as-a-service daemon.

A small asyncio HTTP/1.1 server (stdlib only; the HTTP layer is
handwritten over ``asyncio.start_server`` streams) that accepts typed
compile/evaluate requests and answers them through exactly the same
staged pipeline every other caller uses:

* **Hot path** — a request whose result is already in the staged cache
  (:func:`repro.service.api.cached`) is answered immediately, without
  touching the worker pool.
* **Coalescing** — identical in-flight requests (same
  :meth:`~repro.service.api.CompileRequest.canonical_json`) share one
  underlying job; joiners await the first request's future.
* **Admission control** — at most ``max_inflight`` *underlying* jobs run
  at once (joiners ride free); beyond that the daemon answers 429.
* **Worker pools** — ``inline:N`` runs misses on an in-process thread
  pool; ``queue:DIR`` feeds them to the elastic filesystem queue
  (:mod:`repro.pipeline.fsqueue`), where any number of ``repro worker
  DIR`` processes — on any host sharing the directory — claim and
  compute them, reporting results back through the queue directory.
* **Timeouts and drain** — every request is bounded by a per-request
  timeout (504 on expiry; the underlying job keeps running and lands in
  the cache for the retry). SIGTERM/SIGINT begin a graceful drain:
  the listener closes, in-flight requests finish, idle keep-alive
  connections get a short window for a request already on the wire,
  and the process exits 0.

Endpoints: ``POST /<action>`` for every record of
:data:`repro.service.api.ACTIONS` (listed below), each taking a
:class:`~repro.service.api.CompileRequest` JSON body ``{"kernel": ...,
"dataset": ..., "scale": ..., ...}`` and answering the deterministic
``CompileResult.to_json()`` bytes — byte-identical to a serial
``repro.api.execute(request)`` of the same request; ``GET /stats``
(serve counters + the shared cache-stats payload), ``GET /metrics`` and
``GET /healthz`` (liveness).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import dataclasses
import functools
import json
import os
import signal
import threading
import time
from typing import Any, Callable

from repro import obs
from repro.service import api
from repro.service.stats import cache_stats_payload

__doc__ += "\n" + "\n".join(
    f"    POST /{action.name:<10} {action.doc}"
    for action in api.ACTIONS.values()) + "\n"

__all__ = [
    "CompileService",
    "ServeConfig",
    "ServeError",
    "ServiceThread",
    "run_service",
]


class ServeError(RuntimeError):
    """Configuration or backend failure of the serve daemon."""


#: Seconds an idle keep-alive connection gets, once draining starts, to
#: deliver a request that was already on the wire when the signal hit.
DRAIN_READ_WINDOW = 0.5

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclasses.dataclass
class ServeConfig:
    """Daemon configuration (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8757
    #: ``inline:N`` (in-process thread pool) or ``queue:DIR`` (elastic
    #: ``repro worker`` pool over the filesystem queue).
    pool: str = "inline:2"
    #: Bound on concurrently *running* jobs; more distinct cold requests
    #: than this are rejected with 429 (coalesced joiners are not jobs).
    max_inflight: int = 32
    #: Per-request wall-clock bound; 504 on expiry. A request body may
    #: carry ``"timeout": seconds`` to lower (never raise) it.
    request_timeout: float = 120.0
    #: Hard deadline for graceful drain after SIGTERM.
    drain_grace: float = 30.0
    #: ``queue:`` pool: result-poll interval / worker lease / re-enqueues.
    queue_poll: float = 0.1
    queue_lease: float = 60.0
    queue_retries: int = 2
    use_cache: bool | None = None
    #: Coalesce identical in-flight requests (off only for benchmarks
    #: measuring the coalescing win).
    coalesce: bool = True
    #: Test hook: replaces :func:`repro.service.api.execute` for the
    #: inline pool. Signature ``(request, use_cache) -> CompileResult``.
    execute: Callable[..., Any] | None = None
    on_event: Callable[[str], None] | None = None


class ServeStats:
    """Daemon counters surfaced by ``/stats`` (event-loop-only writes)."""

    __slots__ = ("requests", "cache_hits", "coalesced", "computed",
                 "rejected", "timeouts", "errors", "started",
                 "responses", "status_codes")

    def __init__(self) -> None:
        self.requests = 0
        self.cache_hits = 0
        self.coalesced = 0
        self.computed = 0
        self.rejected = 0
        self.timeouts = 0
        self.errors = 0
        self.started = time.time()
        #: Every HTTP response sent (all endpoints), total and by code.
        self.responses = 0
        self.status_codes: dict[int, int] = {}

    def count_response(self, status: int) -> None:
        self.responses += 1
        self.status_codes[status] = self.status_codes.get(status, 0) + 1

    def as_dict(self, inflight: int, draining: bool,
                pool: str) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "responses": self.responses,
            "status_codes": {str(code): n for code, n
                             in sorted(self.status_codes.items())},
            "inflight": inflight,
            "draining": draining,
            "pool": pool,
            "uptime_s": time.time() - self.started,
        }


# ---------------------------------------------------------------------------
# Worker-pool backends
# ---------------------------------------------------------------------------


class _ThreadPoolBackend:
    """``inline:N`` — misses run on an in-process thread pool."""

    def __init__(self, slots: int, use_cache: bool | None,
                 execute: Callable[..., Any] | None) -> None:
        if slots < 1:
            raise ServeError(f"inline pool needs >= 1 slot, got {slots}")
        self.name = f"inline:{slots}"
        self._use_cache = use_cache
        self._execute = execute if execute is not None else (
            lambda req, use_cache: api.execute(req, use_cache=use_cache))
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=slots, thread_name_prefix="repro-serve")

    def start(self) -> None:
        pass

    async def submit(self, request: api.CompileRequest) -> api.CompileResult:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool,
            functools.partial(self._execute, request, self._use_cache))

    async def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)


class _QueueBackend:
    """``queue:DIR`` — misses are fed to the elastic filesystem queue.

    Each miss is one ``request`` task on the queue, leased by the same
    :class:`~repro.pipeline.lease.LeaseTable` that leases ``dispatch``
    chunks: ``repro worker DIR`` processes on any host sharing the
    directory claim it, run it through :func:`repro.service.api.execute`
    and write the result file the poll loop folds back into the waiting
    future. A worker that dies or goes silent mid-request loses its
    lease and the request is published again, up to ``retries`` times
    (README "Leases and faults"). Closing the backend raises the queue's
    stop sentinel, releasing attached workers.
    """

    def __init__(self, root: str, use_cache: bool | None, poll: float,
                 lease_timeout: float, retries: int,
                 on_event: Callable[[str], None]) -> None:
        from repro.pipeline.fsqueue import (
            ERROR_FORMAT,
            QueueError,
            QueueTransport,
        )
        from repro.pipeline.lease import LeaseTable

        try:
            self.transport = QueueTransport(root)
        except QueueError as exc:
            raise ServeError(str(exc)) from None
        self.name = f"queue:{self.transport.root}"
        self._use_cache = use_cache
        self._poll = poll
        self._events = on_event
        self._error_format = ERROR_FORMAT
        self._table = LeaseTable(self.transport, lease_timeout, retries,
                                 self._accept, on_event)
        self._waiting: dict[str, asyncio.Future] = {}
        self._seq = 0
        self._task: asyncio.Task | None = None

    def start(self) -> None:
        self.transport.prepare()
        self._task = asyncio.get_running_loop().create_task(self._poll_loop())

    async def submit(self, request: api.CompileRequest) -> api.CompileResult:
        self._seq += 1
        rid = f"req-{self._seq:06d}"
        payload: dict[str, Any] = {"kind": "request",
                                   "request": request.canonical()}
        if self._use_cache is not None:
            payload["use_cache"] = self._use_cache
        future = self._waiting[rid] = asyncio.get_running_loop().create_future()
        self._table.submit(rid, payload, f"request {rid}")
        return await future

    def _accept(self, rid: str, text: str):
        """A worker's answer as ``(value, why)`` for the lease table.

        A compile error the worker reports is a *value* — the exception
        to answer with: it is deterministic, so retrying it is futile.
        Only an unreadable answer counts against the retry bound.
        """
        try:
            data = json.loads(text)
            if (isinstance(data, dict)
                    and data.get("format") == self._error_format):
                return ServeError(f"queue worker failed: "
                                  f"{data.get('error', 'unknown')}"), None
            return api.CompileResult.from_dict(data), None
        except (KeyError, ValueError, TypeError) as exc:
            return None, f"malformed queue result: {exc}"

    async def _poll_loop(self) -> None:
        while True:
            try:
                outcomes = self._table.step()
            except OSError as exc:  # pragma: no cover - transient fs races
                self._events(f"queue scan error: {exc}")
                outcomes = []
            for outcome in outcomes:
                future = self._waiting.pop(outcome.task_id)
                if future.done():
                    continue
                if outcome.lost is not None:
                    future.set_exception(ServeError(
                        f"request {outcome.task_id} lost after "
                        f"{outcome.attempt} attempt(s): {outcome.lost}"))
                elif isinstance(outcome.value, Exception):
                    future.set_exception(outcome.value)
                else:
                    future.set_result(outcome.value)
            await asyncio.sleep(self._poll)

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._task
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(ServeError("server shutting down"))
        self._waiting.clear()
        self.transport.close(stop=True)


def _parse_pool(config: ServeConfig,
                on_event: Callable[[str], None]):
    kind, sep, arg = config.pool.strip().partition(":")
    if kind == "inline":
        try:
            slots = int(arg) if sep else 2
        except ValueError:
            raise ServeError(
                f"invalid pool {config.pool!r}; expected inline:N") from None
        return _ThreadPoolBackend(slots, config.use_cache, config.execute)
    if kind == "queue":
        return _QueueBackend(arg, config.use_cache, config.queue_poll,
                             config.queue_lease, config.queue_retries,
                             on_event)
    raise ServeError(f"unknown pool {config.pool!r}; expected inline:N "
                     f"or queue:DIR")


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------


class CompileService:
    """The serve daemon: HTTP front, coalescing map, worker-pool back."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.stats = ServeStats()
        self._events = config.on_event if config.on_event else (lambda _m: None)
        self._backend = _parse_pool(config, self._events)
        self._requests_total = obs.counter(
            "repro_requests_total", "HTTP responses by path and status.",
            ("path", "status"))
        self._request_seconds = obs.histogram(
            "repro_request_seconds",
            "HTTP request handling latency (seconds).")
        self._inflight: dict[str, asyncio.Future] = {}
        #: inflight key -> the compute span id joiners reference.
        self._inflight_spans: dict[str, str | None] = {}
        self._conn_tasks: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self._drain_event: asyncio.Event | None = None
        self._done: asyncio.Event | None = None
        self._draining = False
        self.port: int | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._drain_event = asyncio.Event()
        self._done = asyncio.Event()
        self._backend.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]

    @property
    def pool_name(self) -> str:
        return self._backend.name

    def begin_drain(self) -> None:
        """Stop accepting, finish in-flight work, then shut down.

        Idempotent; callable from a signal handler. New connections are
        refused immediately; open connections get
        :data:`DRAIN_READ_WINDOW` seconds for a request already on the
        wire and are closed after their response.
        """
        if self._draining:
            return
        self._draining = True
        self._drain_event.set()
        if self._server is not None:
            self._server.close()
        asyncio.get_running_loop().create_task(self._finish_drain())

    async def _finish_drain(self) -> None:
        if self._server is not None:
            with contextlib.suppress(Exception):
                await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace
        # A connection accepted just before the listener closed may not
        # have registered its handler task yet; give every open
        # connection its read window before sampling the task set, and
        # keep sampling until no handler remains (a handler observed
        # mid-request must finish, and its response may admit no more).
        await asyncio.sleep(max(0.0, min(DRAIN_READ_WINDOW,
                                         deadline - loop.time())))
        while True:
            pending = [t for t in self._conn_tasks if not t.done()]
            if not pending:
                break
            remaining = deadline - loop.time()
            if remaining <= 0:
                for task in pending:
                    task.cancel()
                await asyncio.wait(pending)
                break
            await asyncio.wait(pending, timeout=remaining)
        await self._backend.close()
        self._done.set()

    async def wait_done(self) -> None:
        await self._done.wait()

    # -- HTTP layer ---------------------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        while True:
            request = await self._next_request(reader)
            if request is None:
                return
            method, path, headers, body = request
            t0 = time.perf_counter()
            content_type = "application/json"
            try:
                status, payload, content_type = await self._route(
                    method, path, body)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defense: never drop the response
                self.stats.errors += 1
                status, payload = 500, _error_body(
                    f"{type(exc).__name__}: {exc}")
            self.stats.count_response(status)
            self._requests_total.inc(path=path, status=str(status))
            self._request_seconds.observe(time.perf_counter() - t0)
            keep = (not self._draining
                    and headers.get("connection", "").lower() != "close")
            writer.write(_render_response(status, payload, keep,
                                          content_type))
            await writer.drain()
            if not keep:
                return

    async def _next_request(self, reader: asyncio.StreamReader):
        """The next parsed request, honouring the drain protocol."""
        read = asyncio.ensure_future(_read_request(reader))
        if not self._draining:
            drain = asyncio.ensure_future(self._drain_event.wait())
            try:
                await asyncio.wait({read, drain},
                                   return_when=asyncio.FIRST_COMPLETED)
            finally:
                drain.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await drain
        if not read.done() and self._draining:
            # Drain began while this connection was idle: allow a short
            # window for a request that was already on the wire.
            try:
                return await asyncio.wait_for(read, DRAIN_READ_WINDOW)
            except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                    ConnectionError):
                return None
        try:
            return await read
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            return None

    async def _route(self, method: str, path: str,
                     body: bytes) -> tuple[int, bytes, str]:
        json_ct = "application/json"
        if path == "/healthz":
            return 200, json.dumps({"ok": True}).encode(), json_ct
        if path == "/stats":
            return 200, (json.dumps(self.stats_payload(), indent=2,
                                    sort_keys=True)).encode(), json_ct
        if path == "/metrics":
            return (200, self.metrics_text().encode(),
                    "text/plain; version=0.0.4; charset=utf-8")
        if path[1:] in api.ACTIONS:
            if method != "POST":
                return 405, _error_body(f"{path} expects POST"), json_ct
            status, payload = await self._handle_work(path[1:], body)
            return status, payload, json_ct
        known = [*api.ACTIONS, "stats", "metrics"]
        return 404, _error_body(
            f"unknown path {path!r}; try "
            f"{', '.join('/' + name for name in known)}"), json_ct

    def stats_payload(self) -> dict[str, Any]:
        """The ``/stats`` body: serve counters + shared cache payload."""
        return {
            "serve": self.stats.as_dict(len(self._inflight), self._draining,
                                        self.pool_name),
            "cache": cache_stats_payload(),
        }

    def metrics_text(self) -> str:
        """The ``/metrics`` body: Prometheus text exposition.

        Request counts and the latency histogram accumulate live in the
        process registry; the serve/cache counters are mirrored into it
        at scrape time so every series shares one exposition.
        """
        reg = obs.registry()
        stats = self.stats
        serve_totals = {
            "requests": "Work requests admitted (compile/evaluate).",
            "cache_hits": "Requests answered from the staged cache.",
            "coalesced": "Requests that joined an in-flight compile.",
            "computed": "Underlying jobs computed by the pool.",
            "rejected": "Requests rejected by admission control (429).",
            "timeouts": "Requests that hit their deadline (504).",
            "errors": "Requests that failed (500).",
        }
        for field, help_text in serve_totals.items():
            reg.counter(f"repro_serve_{field}_total",
                        help_text).set_total(getattr(stats, field))
        reg.gauge("repro_serve_inflight",
                  "Underlying jobs currently running."
                  ).set(len(self._inflight))
        reg.gauge("repro_serve_uptime_seconds",
                  "Seconds since the daemon started."
                  ).set(time.time() - stats.started)
        cache_counters = cache_stats_payload().get("counters", {})
        stage_counter = reg.counter(
            "repro_cache_stage_total",
            "Staged-cache lookups by stage and outcome.",
            ("stage", "outcome"))
        for stage, entry in cache_counters.get("stages", {}).items():
            stage_counter.set_total(entry.get("hits", 0),
                                    stage=stage, outcome="hit")
            stage_counter.set_total(entry.get("misses", 0),
                                    stage=stage, outcome="miss")
        return reg.render()

    # -- request handling ---------------------------------------------------

    async def _handle_work(self, action: str,
                           body: bytes) -> tuple[int, bytes]:
        try:
            data = json.loads(body or b"{}")
        except json.JSONDecodeError as exc:
            return 400, _error_body(f"request is not valid JSON: {exc}")
        timeout = self.config.request_timeout
        if isinstance(data, dict) and "timeout" in data:
            # Transport-level field: bounds *this* request, capped by the
            # server's own limit; never part of the canonical request.
            try:
                timeout = min(timeout, float(data.pop("timeout")))
            except (TypeError, ValueError):
                return 400, _error_body("'timeout' must be a number")
        try:
            request = api.CompileRequest.from_dict(
                {**data, "action": action} if isinstance(data, dict) else data)
            request = request.resolved()
        except ValueError as exc:
            return 400, _error_body(str(exc))

        self.stats.requests += 1
        # Request spans do not nest on the thread-local stack: handler
        # coroutines interleave on the one event-loop thread, so stack
        # discipline would attach spans to whichever request last
        # yielded. Each span is its own top-level track instead.
        with obs.span("request", _nest=False,
                      _track=f"req-{self.stats.requests}",
                      action=action, kernel=request.kernel,
                      dataset=request.dataset) as sp:
            hit = api.cached(request)
            if hit is not None:
                self.stats.cache_hits += 1
                sp.set(outcome="hit", status=200)
                return 200, hit.to_json().encode()

            key = request.canonical_json()
            if not self.config.coalesce:
                key = f"{key}#{self.stats.requests}"
            future = self._inflight.get(key)
            if future is None:
                if len(self._inflight) >= self.config.max_inflight:
                    self.stats.rejected += 1
                    sp.set(outcome="rejected", status=429)
                    return 429, _error_body(
                        f"{len(self._inflight)} requests already in flight "
                        f"(max {self.config.max_inflight}); retry shortly")
                future = self._launch(key, request)
                sp.set(outcome="computed")
            else:
                self.stats.coalesced += 1
                sp.set(outcome="joined")
            # N coalesced joiners all reference the one compute span.
            sp.set(compute_span=self._inflight_spans.get(key))
            try:
                result = await asyncio.wait_for(asyncio.shield(future),
                                                timeout)
            except asyncio.TimeoutError:
                self.stats.timeouts += 1
                sp.set(outcome="timeout", status=504)
                return 504, _error_body(
                    f"request timed out after {timeout:g}s; the job keeps "
                    f"running and a retry will hit the cache once it lands")
            except Exception as exc:
                sp.set(outcome="error", status=500)
                return 500, _error_body(f"{type(exc).__name__}: {exc}")
            sp.set(status=200)
            return 200, result.to_json().encode()

    def _launch(self, key: str, request: api.CompileRequest) -> asyncio.Future:
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        # Waiters may all time out before completion; retrieve the
        # exception so the loop never logs "exception was never retrieved".
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._inflight[key] = future
        compute_span = obs.span("compute", _nest=False, _track="compute",
                                kernel=request.kernel,
                                dataset=request.dataset,
                                action=request.action)
        self._inflight_spans[key] = compute_span.id

        async def run() -> None:
            try:
                with compute_span:
                    result = await self._backend.submit(request)
            except asyncio.CancelledError:
                if not future.done():
                    future.set_exception(ServeError("server shutting down"))
                raise
            except Exception as exc:
                self.stats.errors += 1
                if not future.done():
                    future.set_exception(exc)
            else:
                self.stats.computed += 1
                if not future.done():
                    future.set_result(result)
            finally:
                self._inflight.pop(key, None)
                self._inflight_spans.pop(key, None)

        loop.create_task(run())
        return future


def _error_body(message: str) -> bytes:
    return json.dumps({"error": message}, sort_keys=True).encode()


def _render_response(status: int, body: bytes, keep_alive: bool,
                     content_type: str = "application/json") -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n")
    return head.encode("latin-1") + body


async def _read_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request; None on clean EOF before a start line."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line {line!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    body = await reader.readexactly(length) if length else b""
    return method, path.split("?", 1)[0], headers, body


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _announce_default(message: str) -> None:
    print(message, flush=True)  # subprocess callers parse the banner live


def run_service(config: ServeConfig,
                announce: Callable[[str], None] = _announce_default) -> int:
    """Run the daemon until SIGTERM/SIGINT drains it; returns 0.

    ``announce`` receives the one-line startup banner (tests and the
    bench parse the bound port out of it, so ``--port 0`` works).
    """

    async def main() -> None:
        service = CompileService(config)
        await service.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(sig, service.begin_drain)
        announce(f"serving on http://{config.host}:{service.port} "
                 f"(pool {service.pool_name}; pid {os.getpid()})")
        await service.wait_done()
        stats = service.stats
        announce(f"drained: {stats.requests} request(s), "
                 f"{stats.cache_hits} cache hit(s), "
                 f"{stats.coalesced} coalesced, {stats.computed} computed")

    asyncio.run(main())
    return 0


class ServiceThread:
    """An in-process daemon on a private event-loop thread.

    The embedding surface for tests and benchmarks::

        with ServiceThread(ServeConfig(port=0)) as svc:
            requests.post(f"http://127.0.0.1:{svc.port}/evaluate", ...)

    ``stop()`` (also the context-manager exit) begins a graceful drain
    and joins the thread.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.service: CompileService | None = None
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # startup failures surface in start()
            self._startup_error = exc
            self._started.set()

    async def _main(self) -> None:
        self.service = CompileService(self.config)
        self._loop = asyncio.get_running_loop()
        try:
            await self.service.start()
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self.port = self.service.port
        self._started.set()
        await self.service.wait_done()

    def start(self) -> ServiceThread:
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise ServeError("serve thread did not start within 30s")
        if self._startup_error is not None:
            raise ServeError(
                f"serve thread failed to start: {self._startup_error}")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self.service is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self.service.begin_drain)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> ServiceThread:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
