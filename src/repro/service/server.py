"""``repro serve`` — the compile-as-a-service daemon.

A small asyncio HTTP/1.1 server (stdlib only; the HTTP layer is
handwritten over ``asyncio.start_server`` streams) that accepts typed
compile/evaluate requests and answers them through exactly the same
staged pipeline every other caller uses:

* **Hot path** — a request whose result is already in the staged cache
  (:func:`repro.service.api.cached`) is answered immediately, without
  touching the worker pool. A connection awaits its next request
  directly (no task per read). A body seen before, byte for byte, is
  not parsed again: an LRU map of up to :data:`PARSED_BODIES`
  ``(action, body)`` pairs (bodies of at most :data:`PARSED_BODY_BYTES`)
  gives its resolved request and timeout (a 400 is never kept), and the
  request memoizes its stage key, so a repeated hit is one read, one map
  lookup and one cache peek; the body is the cached result's
  ``to_json()``, encoded once per result object, so a hit held in
  memory reuses the string every earlier hit encoded.
* **Coalescing** — identical in-flight requests (same
  :meth:`~repro.service.api.CompileRequest.canonical_json`) share one
  underlying job; joiners await the first request's future.
* **Admission control** — at most ``max_inflight`` *underlying* jobs run
  at once (joiners ride free); beyond that the daemon answers 429.
* **Worker pools** — every miss is one ``request`` task, leased by the
  loop that leases ``dispatch`` chunks
  (:class:`~repro.pipeline.lease.LeaseTable`) on a
  :func:`~repro.pipeline.dispatch.parse_transport` pool: ``inline:N``
  runs it on an in-process slot thread; ``local:N`` and ``ssh:`` hand
  it to a slot's long-lived ``repro worker -`` process; ``queue:DIR``
  publishes it to the elastic filesystem queue, where ``repro worker
  DIR`` processes on any host sharing the directory claim it. A worker
  silent past its lease loses it (a slot's process is killed) and the
  request is leased again, up to the retry bound; an inline request
  cannot be stopped, so it runs once, to its end.
* **Timeouts and drain** — every request is bounded by a per-request
  timeout (504 on expiry; the underlying job keeps running and lands in
  the cache for the retry). SIGTERM/SIGINT begin a graceful drain:
  the listener closes, in-flight requests finish, and one timer gives
  idle keep-alive connections :data:`DRAIN_READ_WINDOW` seconds for a
  request already on the wire; a read still pending when it fires is
  cancelled and its connection ends as at EOF. The process exits 0.
  An HTTP/1.0 request is answered ``Connection: close`` unless it
  asked for ``keep-alive``.

Endpoints: ``POST /<action>`` for every record of
:data:`repro.service.api.ACTIONS` (listed below), each taking a
:class:`~repro.service.api.CompileRequest` JSON body ``{"kernel": ...,
"dataset": ..., "scale": ..., ...}`` and answering the deterministic
``CompileResult.to_json()`` bytes — byte-identical to a serial
``repro.api.execute(request)`` of the same request; ``GET /stats``
(serve counters + the shared cache-stats payload), ``GET /metrics`` (the
process registry, then the daemon's own instruments) and ``GET /healthz``
(liveness).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import functools
import itertools
import json
import os
import signal
import threading
import time
from typing import Any, Callable

from repro import obs
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.cache import default_cache
from repro.pipeline.dispatch import DispatchError, parse_transport
from repro.pipeline.fsqueue import ERROR_FORMAT
from repro.pipeline.lease import LeaseTable, Outcome
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

#: Bounds on the ``(action, body)`` -> resolved-request map that lets a
#: repeated body skip parsing: past ``PARSED_BODIES`` entries the least
#: recently used goes, and a body longer than ``PARSED_BODY_BYTES`` is
#: never kept.
PARSED_BODIES = 1024
PARSED_BODY_BYTES = 4096

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
    #: ``inline:N`` (in-process slot threads) or ``queue:DIR`` (elastic
    #: ``repro worker`` pool over the filesystem queue): a
    #: :func:`repro.pipeline.dispatch.parse_transport` spec.
    pool: str = "inline:2"
    #: Bound on concurrently *running* jobs; more distinct cold requests
    #: than this are rejected with 429 (coalesced joiners are not jobs).
    max_inflight: int = 32
    #: Per-request wall-clock bound; 504 on expiry. A request body may
    #: carry ``"timeout": seconds`` to lower (never raise) it.
    request_timeout: float = 120.0
    #: Hard deadline for graceful drain after SIGTERM.
    drain_grace: float = 30.0
    #: Seconds a request's worker may stay silent before the lease loop
    #: leases it again, and how many times it may. An ``inline:`` request
    #: cannot be stopped, so it is never silent: it runs once.
    lease_timeout: float = 60.0
    retries: int = 2
    use_cache: bool | None = None
    on_event: Callable[[str], None] | None = None


#: The daemon's counters: ``/stats``' ``serve`` key ``<key>`` is the
#: ``/metrics`` series ``repro_serve_<key>_total``, with this help text.
_COUNTERS = {
    "requests": "Work requests admitted (compile/evaluate).",
    "cache_hits": "Requests answered from the staged cache.",
    "coalesced": "Requests that joined an in-flight compile.",
    "computed": "Underlying jobs computed by the pool.",
    "rejected": "Requests rejected by admission control (429).",
    "timeouts": "Requests that hit their deadline (504).",
    "errors": "Requests that failed (500).",
}


#: Seconds the lease thread waits on the pool between lease-table steps:
#: a slot pool wakes it sooner, the moment a worker answers; a
#: ``queue:DIR`` pool is scanned this often.
LEASE_WAIT = 0.1


class CompileService:
    """The serve daemon: HTTP front, coalescing map, lease-table back.

    The event loop submits misses to the table under one lock; one
    daemon thread waits on the pool, steps the table under the same lock
    and hands each outcome back to the loop, which settles the one
    future every waiter on that miss shares. The daemon counts on its
    own :class:`~repro.obs.metrics.MetricsRegistry`, ``metrics``.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self._count = {key: self.metrics.counter(f"repro_serve_{key}_total",
                                                 help_text)
                       for key, help_text in _COUNTERS.items()}
        self._responses = self.metrics.counter(
            "repro_serve_responses_total", "HTTP responses sent, by status.",
            ("status",))
        self._inflight_now = self.metrics.gauge(
            "repro_serve_inflight", "Underlying jobs currently running.")
        self._uptime = self.metrics.gauge(
            "repro_serve_uptime_seconds", "Seconds since the daemon started.")
        self._stages = self.metrics.counter(
            "repro_cache_stage_total",
            "Staged-cache lookups by stage and outcome.", ("stage", "outcome"))
        self._started = time.time()
        self._events = config.on_event if config.on_event else (lambda _m: None)
        try:
            self._transport = parse_transport(config.pool)
        except DispatchError as exc:
            raise ServeError(f"invalid pool: {exc}") from None
        self.pool_name = self._transport.name
        self._table = LeaseTable(self._transport, config.lease_timeout,
                                 config.retries, self._accept, self._events)
        self._lock = threading.Lock()
        self._lease_thread = threading.Thread(
            target=self._lease_loop, name="repro-lease", daemon=True)
        self._closed = False
        self._rids = itertools.count(1)
        #: canonical request -> (future, compute span) of its one miss;
        #: coalesced joiners await the same future.
        self._inflight: dict[str, tuple[asyncio.Future, Any]] = {}
        #: task id -> the canonical request whose miss it leases.
        self._leased: dict[str, str] = {}
        self._requests_total = obs.counter(
            "repro_requests_total", "HTTP responses by path and status.",
            ("path", "status"))
        self._request_seconds = obs.histogram(
            "repro_request_seconds",
            "HTTP request handling latency (seconds).")
        self._conn_tasks: set[asyncio.Task] = set()
        #: Connection tasks awaiting their next request: drain's read
        #: window ends the ones still here when it closes.
        self._idle: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._done: asyncio.Event | None = None
        self._draining = False
        self._reads_cut = False
        self.port: int | None = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._done = asyncio.Event()
        # A queue:DIR pool clears a previous owner's residue, its stop
        # sentinel included, before workers attach, not at the first miss.
        prepare = getattr(self._transport, "prepare", None)
        if prepare is not None:
            prepare()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._lease_thread.start()

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
        if self._server is not None:
            self._server.close()
        loop = asyncio.get_running_loop()
        loop.call_later(DRAIN_READ_WINDOW, self._cut_reads)
        loop.create_task(self._finish_drain())

    def _cut_reads(self) -> None:
        """Drain's read window closed: end every connection still reading."""
        self._reads_cut = True
        for task in self._idle:
            task.cancel()

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
        # The lease thread is at most one wait-and-step from noticing.
        self._closed = True
        self._lease_thread.join()
        self._transport.close(stop=True)
        for rid in list(self._leased):
            self._settle(Outcome(rid, 0, ServeError("server shutting down")))
        self._done.set()

    async def wait_done(self) -> None:
        await self._done.wait()

    # -- the lease loop -----------------------------------------------------

    def _accept(self, rid: str, text: str):
        """A worker's answer as ``(value, why)`` for the lease table.

        A result's value is the worker's text itself, already the
        ``CompileResult.to_json()`` a serial run answers with: it is
        read only to tell it from an error and to check it has exactly
        a result's keys, never built into a result or encoded again. A
        compile error the worker reports is a *value* — the exception
        to answer with: it is deterministic, so retrying it is futile.
        Only an unreadable answer counts against the retry bound.
        """
        try:
            data = json.loads(text)
            if isinstance(data, dict) and data.get("format") == ERROR_FORMAT:
                return ServeError(f"worker failed: "
                                  f"{data.get('error', 'unknown')}"), None
            if (not isinstance(data, dict) or data.keys() != api.CompileResult.KEYS
                    or not isinstance(data["request"], dict)):
                raise ValueError("not a CompileResult payload")
            return text, None
        except (ValueError, TypeError) as exc:
            return None, f"malformed worker result: {exc}"

    def _lease_loop(self) -> None:
        while not self._closed:
            self._transport.wait(LEASE_WAIT)
            with self._lock:
                try:
                    outcomes = self._table.step()
                except OSError as exc:  # pragma: no cover - transient fs races
                    self._events(f"queue scan error: {exc}")
                    outcomes = []
            for outcome in outcomes:
                self._loop.call_soon_threadsafe(self._settle, outcome)

    def _settle(self, outcome: Outcome) -> None:
        """Settle the miss ``outcome`` leased (once: drain fails the rest)."""
        key = self._leased.pop(outcome.task_id, None)
        if key is None:
            return
        future, compute = self._inflight.pop(key)
        error = outcome.value if isinstance(outcome.value, Exception) else None
        if outcome.lost is not None:
            error = ServeError(f"request {outcome.task_id} lost after "
                               f"{outcome.attempt} attempt(s): {outcome.lost}")
        compute.__exit__(type(error) if error else None, error, None)
        if error is None:
            self._count["computed"].inc()
            future.set_result(outcome.value)
        else:
            self._count["errors"].inc()
            future.set_exception(error)

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
            try:
                request = await self._next_request(reader)
            except ValueError as exc:
                # A malformed request line or Content-Length: the stream
                # cannot be resynchronised, so answer 400 and close.
                self._responses.inc(status="400")
                writer.write(_render_response(400, _error_body(str(exc)),
                                              False))
                await writer.drain()
                return
            if request is None:
                return
            method, path, keep, body = request
            t0 = time.perf_counter()
            content_type = "application/json"
            try:
                status, payload, content_type = await self._route(
                    method, path, body)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # defense: never drop the response
                self._count["errors"].inc()
                status, payload = 500, _error_body(
                    f"{type(exc).__name__}: {exc}")
            self._responses.inc(status=str(status))
            self._requests_total.inc(path=path, status=str(status))
            self._request_seconds.observe(time.perf_counter() - t0)
            keep = keep and not self._draining
            writer.write(_render_response(status, payload, keep,
                                          content_type))
            await writer.drain()
            if not keep:
                return

    async def _next_request(self, reader: asyncio.StreamReader):
        """The next parsed request, honouring the drain protocol.

        ``None`` when the client went away or drain's read window closed
        before a whole request arrived; a malformed request raises
        ``ValueError``.
        """
        if self._reads_cut:
            return None
        task = asyncio.current_task()
        self._idle.add(task)
        try:
            return await _read_request(reader)
        except asyncio.CancelledError:
            if not self._reads_cut:
                raise
            return None  # _cut_reads ended this read: a clean EOF
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        finally:
            self._idle.discard(task)

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
        return {"serve": self.serve_stats(), "cache": cache_stats_payload()}

    def serve_stats(self) -> dict[str, Any]:
        """``/stats``' ``serve`` section, read off the daemon's instruments."""
        self._sample_gauges()
        codes = {code: int(n) for code, n in self._responses.snapshot().items()}
        return {**{key: int(c.value()) for key, c in self._count.items()},
                "responses": sum(codes.values()), "status_codes": codes,
                "inflight": int(self._inflight_now.value()),
                "draining": self._draining, "pool": self.pool_name,
                "uptime_s": self._uptime.value()}

    def metrics_text(self) -> str:
        """The ``/metrics`` body: the process registry, then the daemon's."""
        self._sample_gauges()
        # The in-memory tally only: the disk store's walk stays off the loop.
        for stage, entry in default_cache().stats.as_dict()["stages"].items():
            self._stages.set_total(entry["hits"], stage=stage, outcome="hit")
            self._stages.set_total(entry["misses"], stage=stage,
                                   outcome="miss")
        return obs.registry().render() + self.metrics.render()

    def _sample_gauges(self) -> None:
        self._inflight_now.set(len(self._inflight))
        self._uptime.set(time.time() - self._started)

    # -- request handling ---------------------------------------------------

    async def _handle_work(self, action: str,
                           body: bytes) -> tuple[int, bytes]:
        parse = _parse_kept if len(body) <= PARSED_BODY_BYTES else _parse_work
        try:
            request, timeout = parse(action, body, self.config.request_timeout)
        except ValueError as exc:
            return 400, _error_body(str(exc))

        requests = self._count["requests"]
        requests.inc()
        # Request spans do not nest on the thread-local stack: handler
        # coroutines interleave on the one event-loop thread, so stack
        # discipline would attach spans to whichever request last
        # yielded. Each span is its own top-level track instead. Its
        # track name (a locked counter read) and attributes are built
        # only when a trace records them.
        span = (obs.span("request", _nest=False, _track=f"req-{requests.value():.0f}",
                         action=action, kernel=request.kernel, dataset=request.dataset)
                if obs.tracing_enabled() else obs.NULL_SPAN)
        with span as sp:
            hit = api.cached(request)
            if hit is not None:
                self._count["cache_hits"].inc()
                sp.set(outcome="hit", status=200)
                return 200, hit.to_json().encode()

            key = request.canonical_json()
            miss = self._inflight.get(key)
            if miss is None:
                if len(self._inflight) >= self.config.max_inflight:
                    self._count["rejected"].inc()
                    sp.set(outcome="rejected", status=429)
                    return 429, _error_body(
                        f"{len(self._inflight)} requests already in flight "
                        f"(max {self.config.max_inflight}); retry shortly")
                miss = self._launch(key, request)
                sp.set(outcome="computed")
            else:
                self._count["coalesced"].inc()
                sp.set(outcome="joined")
            future, compute = miss
            # N coalesced joiners all reference the one compute span.
            sp.set(compute_span=compute.id)
            try:
                result = await asyncio.wait_for(asyncio.shield(future),
                                                timeout)
            except asyncio.TimeoutError:
                self._count["timeouts"].inc()
                sp.set(outcome="timeout", status=504)
                return 504, _error_body(
                    f"request timed out after {timeout:g}s; the job keeps "
                    f"running and a retry will hit the cache once it lands")
            except Exception as exc:
                sp.set(outcome="error", status=500)
                return 500, _error_body(f"{type(exc).__name__}: {exc}")
            sp.set(status=200)
            return 200, result.encode()

    def _launch(self, key: str, request: api.CompileRequest):
        """Lease a miss; its ``(future, compute span)`` until it settles."""
        future = self._loop.create_future()
        # Waiters may all time out before completion; retrieve the
        # exception so the loop never logs "exception was never retrieved".
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        compute = obs.span("compute", _nest=False, _track="compute",
                           kernel=request.kernel, dataset=request.dataset,
                           action=request.action).__enter__()
        rid = f"req-{next(self._rids):06d}"
        self._inflight[key] = (future, compute)
        self._leased[rid] = key
        payload = {"kind": "request", "request": request.canonical(),
                   "use_cache": self.config.use_cache}
        try:
            with self._lock:
                self._table.submit(rid, payload, f"request {rid}")
        except Exception as exc:
            self._settle(Outcome(rid, 0, exc))
        return future, compute


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


def _parse_work(action: str, body: bytes,
                request_timeout: float) -> tuple[api.CompileRequest, float]:
    """``body``'s resolved request and timeout; ``ValueError`` is a 400."""
    try:
        data = json.loads(body or b"{}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"request is not valid JSON: {exc}") from None
    timeout = request_timeout
    if isinstance(data, dict) and "timeout" in data:
        # Transport-level field: bounds *this* request, capped by the
        # server's own limit; never part of the canonical request.
        raw = data.pop("timeout")
        try:
            asked = float(raw)
        except (TypeError, ValueError):
            asked = float("nan")
        if not asked > 0:  # NaN compares false
            raise ValueError(
                f"timeout must be a positive number, got {raw!r}")
        timeout = min(timeout, asked)
    request = api.CompileRequest.from_dict(
        {**data, "action": action} if isinstance(data, dict) else data)
    return request.resolved(), timeout


#: :func:`_parse_work` of a body seen before, from memory. A call that
#: raised (a 400) is never kept.
_parse_kept = functools.lru_cache(maxsize=PARSED_BODIES)(_parse_work)


async def _read_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.x request; None on clean EOF before a start line.

    The head takes two reads: the request line up to its CR, checked as
    soon as it arrives, then the rest up to the blank line, which, read
    from that line's LF on, ends at the first ``\\n\\r\\n`` whether or
    not headers come between. A head over the stream's limit is
    malformed (``ValueError``).

    Returns ``(method, path, keep_alive, body)``: HTTP/1.1 keeps the
    connection unless it sent ``Connection: close``, HTTP/1.0 only if it
    sent ``Connection: keep-alive``.
    """
    try:
        line = await reader.readuntil(b"\r")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise
    except asyncio.LimitOverrunError:
        raise ValueError("request line over the head limit") from None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line {line!r}")
    method, path, version = parts
    try:
        rest = await reader.readuntil(b"\n\r\n")
    except asyncio.LimitOverrunError:
        raise ValueError("request head over the head limit") from None
    headers: dict[str, str] = {}
    for raw in rest.splitlines():
        if raw:
            name, _sep, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise ValueError(f"invalid Content-Length {raw_length!r}")
    length = int(raw_length)
    body = await reader.readexactly(length) if length else b""
    connection = headers.get("connection", "").lower()
    keep = (connection == "keep-alive" if version == "HTTP/1.0"
            else connection != "close")
    return method, path.split("?", 1)[0], keep, body


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
        stats = service.serve_stats()
        announce(f"drained: {stats['requests']} request(s), "
                 f"{stats['cache_hits']} cache hit(s), "
                 f"{stats['coalesced']} coalesced, "
                 f"{stats['computed']} computed")

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
