"""The ``repro serve`` daemon: HTTP round-trips, coalescing, admission
control, timeouts, the queue-pool miss path, and graceful drain."""

from __future__ import annotations

import http.client
import json
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro.api as api
from repro.pipeline.fsqueue import ERROR_FORMAT
from repro.service import server
from repro.service.server import (
    DRAIN_READ_WINDOW,
    CompileService,
    ServeConfig,
    ServeError,
    ServiceThread,
)
from tests.conftest import start_vanishing_worker

TINY = 0.02


def _post(port: int, path: str, body: dict, timeout: float = 60.0):
    return _post_raw(port, path, json.dumps(body), timeout)


def _post_raw(port: int, path: str, body: str | bytes,
              timeout: float = 60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _leases_total(port: int) -> float:
    _status, text = _get(port, "/metrics")
    for line in text.decode().splitlines():
        if line.startswith("repro_dispatch_leases_total "):
            return float(line.split()[1])
    return 0.0


def _raw_exchange(port: int, payload: bytes, timeout: float = 30) -> bytes:
    """Send raw bytes; everything the daemon answers until it closes."""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        sock.sendall(payload)
        return _read_to_eof(sock)


def _read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def _fake_result(request: api.CompileRequest) -> api.CompileResult:
    return api.CompileResult(request=request.resolved(),
                             seconds={api.BASELINE_PLATFORM: 1.0})


class TestRoundTrip:
    def test_byte_identical_to_serial_evaluate(self, fresh_cache):
        with ServiceThread(ServeConfig(port=0, pool="inline:2")) as svc:
            status, body = _post(svc.port, "/evaluate",
                                 {"kernel": "SpMV", "dataset": "bcsstk30",
                                  "scale": TINY})
            assert status == 200
            serial = api.evaluate(api.CompileRequest(
                kernel="SpMV", dataset="bcsstk30", scale=TINY))
            assert body == serial.to_json().encode()

            # Warm repeat: answered from the staged cache, same bytes.
            status, again = _post(svc.port, "/evaluate",
                                  {"kernel": "SpMV", "dataset": "bcsstk30",
                                   "scale": TINY})
            assert status == 200
            assert again == body

            status, compiled = _post(svc.port, "/compile",
                                     {"kernel": "SpMV", "scale": TINY})
            assert status == 200
            serial_compile = api.compile(api.CompileRequest(
                kernel="SpMV", scale=TINY, action="compile"))
            assert compiled == serial_compile.to_json().encode()

            _status, stats = _get(svc.port, "/stats")
            serve = json.loads(stats)["serve"]
            assert serve["requests"] == 3
            assert serve["cache_hits"] >= 1

    def test_protocol_errors(self, fresh_cache):
        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            assert _post(svc.port, "/evaluate",
                         {"kernel": "NoSuch"})[0] == 400
            assert _post(svc.port, "/evaluate",
                         {"kernel": "SpMV", "sclae": 1})[0] == 400
            # Coercing these would serve another request's cache entry.
            for bad in ({"seed": 7.9}, {"seed": True}, {"scale": True}):
                status, body = _post(svc.port, "/evaluate",
                                     {"kernel": "SpMV", **bad})
                assert status == 400
                assert "'seed' an integer" in json.loads(body)["error"]
            assert _post(svc.port, "/elsewhere", {})[0] == 404
            assert _get(svc.port, "/evaluate")[0] == 405
            assert _get(svc.port, "/healthz")[0] == 200
            conn = http.client.HTTPConnection("127.0.0.1", svc.port,
                                              timeout=30)
            try:
                conn.request("POST", "/evaluate", body=b"{not json")
                resp = conn.getresponse()
                assert resp.status == 400
                assert "error" in json.loads(resp.read())
            finally:
                conn.close()


class TestMalformedHttp:
    @pytest.mark.parametrize("raw", [
        b"GARBAGE\r\n",
        b"POST /evaluate HTTP/1.1\r\nContent-Length: ten\r\n\r\n{}",
        b"POST /evaluate HTTP/1.1\r\nContent-Length: -5\r\n\r\n{}",
    ], ids=["request-line", "non-numeric-length", "negative-length"])
    def test_answers_400_then_closes(self, fresh_cache, raw):
        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            # Reading to EOF also checks that the daemon closes.
            head, _, body = _raw_exchange(svc.port, raw).partition(
                b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 Bad Request\r\n")
            assert b"\r\nConnection: close" in head
            assert json.loads(body)["error"]
            assert _get(svc.port, "/healthz")[0] == 200
            serve = json.loads(_get(svc.port, "/stats")[1])["serve"]
            assert serve["status_codes"]["400"] == 1
            assert serve["requests"] == 0

    def test_http10_is_closed_unless_it_asks_to_stay(self, fresh_cache):
        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            # Reading to EOF, bounded: a held-open socket times out.
            head, _, body = _raw_exchange(
                svc.port, b"GET /healthz HTTP/1.0\r\n\r\n",
                timeout=5).partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 200 OK\r\n")
            assert b"\r\nConnection: close" in head
            assert json.loads(body) == {"ok": True}
            with socket.create_connection(("127.0.0.1", svc.port),
                                          timeout=5) as sock:
                stream = sock.makefile("rb")
                for _ in range(2):
                    sock.sendall(b"GET /healthz HTTP/1.0\r\n"
                                 b"Connection: Keep-Alive\r\n\r\n")
                    head = _read_head(stream)
                    assert b"\r\nConnection: keep-alive" in head
                    assert stream.read(_content_length(head)) == b'{"ok": true}'


def _read_head(stream) -> bytes:
    """One response's status line and headers, off a socket file."""
    lines = []
    while (line := stream.readline()) not in (b"\r\n", b""):
        lines.append(line)
    return b"".join(lines)


def _content_length(head: bytes) -> int:
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            return int(value)
    raise AssertionError(f"no Content-Length in {head!r}")


#: One request body per action, at a tiny scale.
_HIT_BODIES = {
    "compile": {"kernel": "SpMV", "scale": TINY},
    "evaluate": {"kernel": "SpMV", "scale": TINY},
    "pipeline": {"kernel": "twohop", "scale": TINY},
    "partition": {"kernel": "SpMV", "scale": TINY, "partition": 2},
}


class TestHitPath:
    """A hit is answered from the memoized request and result, and the
    memos change nothing on the wire or on disk."""

    def test_every_action_has_a_body(self):
        assert set(_HIT_BODIES) == set(api.ACTIONS)

    @pytest.mark.parametrize("action", sorted(_HIT_BODIES))
    def test_hits_answer_execute_bytes(self, fresh_cache, action):
        body = _HIT_BODIES[action]
        path = f"/{action}"
        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            status, miss = _post(svc.port, path, body)
            assert status == 200
            before = json.loads(_get(svc.port, "/stats")[1])["serve"]
            memory = [_post(svc.port, path, body) for _ in range(2)]
            fresh_cache.clear_memory()
            disk = _post(svc.port, path, body)
            after = json.loads(_get(svc.port, "/stats")[1])["serve"]
        # A fresh disk load, encoded afresh, is the reference.
        fresh_cache.clear_memory()
        request = api.CompileRequest.from_dict({**body, "action": action})
        expected = api.execute(request).to_json().encode()
        assert miss == expected
        assert memory == [(200, expected)] * 2
        assert disk == (200, expected)
        assert after["requests"] - before["requests"] == 3
        assert after["cache_hits"] - before["cache_hits"] == 3

    @pytest.mark.parametrize("action", sorted(_HIT_BODIES))
    def test_memos_are_invisible(self, fresh_cache, action):
        request = api.CompileRequest.from_dict(
            {**_HIT_BODIES[action], "action": action})
        result = api.execute(request)
        pickled = pickle.dumps(result), pickle.dumps(request)
        text = result.to_json()
        resolved = request.resolved()
        key = request.canonical_json()
        assert result.to_json() is text
        assert request.canonical_json() is key
        assert resolved.resolved() is resolved
        assert request.resolved() is resolved
        assert (pickle.dumps(result), pickle.dumps(request)) == pickled
        clone = pickle.loads(pickled[0])
        assert clone == result
        assert clone.to_json() == text


class TestParseOnce:
    """A body seen before answers from the ``(action, body)`` map."""

    def test_a_repeated_body_is_not_parsed_again(self, fresh_cache,
                                                 monkeypatch):
        server._parse_kept.cache_clear()
        body = {"kernel": "SpMV", "scale": TINY}
        expected = api.execute(
            api.CompileRequest.from_dict(body)).to_json().encode()
        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            assert _post(svc.port, "/evaluate", body) == (200, expected)

            def broken(*_args, **_kwargs):
                raise AssertionError("a repeated body was parsed again")

            monkeypatch.setattr(api.CompileRequest, "from_dict", broken)
            monkeypatch.setattr("repro.pipeline.cache.make_key", broken)
            assert server._parse_kept.cache_info().currsize == 1
            for _ in range(2):
                assert _post(svc.port, "/evaluate", body) == (200, expected)
                # Neither is stored: both fail before ``from_dict``.
                for bad in (b"{not json", b'{"kernel": "SpMV", "timeout": 0}'):
                    status, answer = _post_raw(svc.port, "/evaluate", bad)
                    assert status == 400
                    assert "error" in json.loads(answer)
                assert server._parse_kept.cache_info().currsize == 1

    def test_the_map_stays_within_its_bounds(self, fresh_cache):
        server._parse_kept.cache_clear()
        assert server._parse_kept.cache_info().maxsize == server.PARSED_BODIES
        expected = api.execute(api.CompileRequest.from_dict(
            {"kernel": "SpMV", "scale": TINY, "action": "compile"})
        ).to_json().encode()
        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            # Distinct bodies (each its own timeout), one cached request.
            for i in range(10):
                assert _post(svc.port, "/compile", {
                    "kernel": "SpMV", "scale": TINY, "timeout": 60 + i,
                }) == (200, expected)
                assert server._parse_kept.cache_info().currsize == i + 1
            # A long body answers like any other and is not kept.
            padding = " " * server.PARSED_BODY_BYTES
            assert _post_raw(svc.port, "/compile", json.dumps(
                {"kernel": "SpMV", "scale": TINY}) + padding) == (200, expected)
            assert server._parse_kept.cache_info().currsize == 10


class TestCoalescing:
    def test_identical_concurrent_requests_compute_once(self, fresh_cache,
                                                        monkeypatch):
        calls = []
        gate = threading.Event()

        def execute(request, use_cache):
            calls.append(request)
            gate.wait(timeout=10)
            return _fake_result(request)

        monkeypatch.setattr("repro.service.api.execute", execute)
        config = ServeConfig(port=0, pool="inline:4")
        with ServiceThread(config) as svc:
            results = []

            def client():
                results.append(_post(svc.port, "/evaluate",
                                     {"kernel": "SpMV", "scale": TINY}))

            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            # Let every client join the in-flight future, then release.
            deadline = time.time() + 10
            while time.time() < deadline:
                if json.loads(_get(svc.port, "/stats")[1])["serve"][
                        "coalesced"] >= 7:
                    break
                time.sleep(0.01)
            gate.set()
            for t in threads:
                t.join(timeout=30)

            assert len(calls) == 1  # exactly one underlying compile
            assert [s for s, _ in results] == [200] * 8
            assert len({body for _, body in results}) == 1
            serve = json.loads(_get(svc.port, "/stats")[1])["serve"]
            assert serve["coalesced"] == 7
            assert serve["computed"] == 1


class TestAdmissionAndTimeouts:
    def test_429_beyond_max_inflight(self, fresh_cache, monkeypatch):
        gate = threading.Event()

        def execute(request, use_cache):
            gate.wait(timeout=10)
            return _fake_result(request)

        monkeypatch.setattr("repro.service.api.execute", execute)
        config = ServeConfig(port=0, pool="inline:2", max_inflight=1)
        with ServiceThread(config) as svc:
            first = []
            t = threading.Thread(target=lambda: first.append(
                _post(svc.port, "/evaluate", {"kernel": "SpMV",
                                              "scale": TINY})))
            t.start()
            deadline = time.time() + 10
            while time.time() < deadline:
                if json.loads(_get(svc.port, "/stats")[1])["serve"][
                        "inflight"] >= 1:
                    break
                time.sleep(0.01)
            # A *different* request cannot start a second job.
            status, body = _post(svc.port, "/evaluate",
                                 {"kernel": "Plus2", "scale": TINY})
            assert status == 429
            assert "in flight" in json.loads(body)["error"]
            gate.set()
            t.join(timeout=30)
            assert first[0][0] == 200
            serve = json.loads(_get(svc.port, "/stats")[1])["serve"]
            assert serve["rejected"] == 1

    def test_timeout_returns_clean_504(self, fresh_cache, monkeypatch):
        release = threading.Event()

        def execute(request, use_cache):
            release.wait(timeout=10)
            return _fake_result(request)

        monkeypatch.setattr("repro.service.api.execute", execute)
        config = ServeConfig(port=0, pool="inline:1")
        with ServiceThread(config) as svc:
            status, body = _post(svc.port, "/evaluate",
                                 {"kernel": "SpMV", "scale": TINY,
                                  "timeout": 0.1})
            assert status == 504
            error = json.loads(body)
            assert "timed out" in error["error"]
            release.set()
            serve = json.loads(_get(svc.port, "/stats")[1])["serve"]
            assert serve["timeouts"] == 1

    def test_non_positive_body_timeout_is_a_400(self, fresh_cache):
        """A body ``timeout`` that is not a positive number is refused
        like ``serve --timeout``, never run with an instant deadline or
        silently dropped."""
        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            for timeout, shown in ((-1, "-1"), (0, "0"),
                                   (float("nan"), "nan")):
                status, body = _post(svc.port, "/evaluate",
                                     {"kernel": "SpMV", "scale": TINY,
                                      "timeout": timeout})
                assert status == 400, (timeout, body)
                assert json.loads(body)["error"] == (
                    f"timeout must be a positive number, got {shown}")
            serve = json.loads(_get(svc.port, "/stats")[1])["serve"]
            assert serve["requests"] == 0

    def test_worker_error_surfaces_as_500(self, fresh_cache, monkeypatch):
        def execute(request, use_cache):
            raise RuntimeError("compiler exploded")

        monkeypatch.setattr("repro.service.api.execute", execute)
        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            status, body = _post(svc.port, "/evaluate",
                                 {"kernel": "SpMV", "scale": TINY})
            assert status == 500
            assert "compiler exploded" in json.loads(body)["error"]


class TestStatsParity:
    def test_stats_matches_cache_json_cli(self, fresh_cache, capsys):
        from repro.__main__ import main

        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            _post(svc.port, "/evaluate", {"kernel": "SpMV", "scale": TINY})
            cache_section = json.loads(_get(svc.port, "/stats")[1])["cache"]
        assert main(["cache", "--json"]) == 0
        cli = json.loads(capsys.readouterr().out)
        # One shared formatter: same shape, same identity fields. (The
        # hit/miss counters keep moving between the two reads.)
        assert set(cli) == set(cache_section)
        assert cli["compiler"] == cache_section["compiler"]
        assert cli["disk"]["dir"] == cache_section["disk"]["dir"]
        assert set(cli["counters"]) == set(cache_section["counters"])


class TestLeaseLoop:
    """Every pool's misses are leased by the one lease table."""

    def test_inline_miss_is_one_lease(self, fresh_cache):
        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            leases_before = _leases_total(svc.port)
            status, body = _post(svc.port, "/evaluate",
                                 {"kernel": "SpMV", "scale": TINY})
            assert status == 200
            serial = api.evaluate(api.CompileRequest(kernel="SpMV",
                                                     scale=TINY))
            assert body == serial.to_json().encode()
            assert _leases_total(svc.port) - leases_before == 1

    def test_local_pool_answers_like_execute(self, fresh_cache):
        """A ``local:1`` slot's ``repro worker -`` process answers a
        compile and an evaluate with the bytes ``api.execute`` gives."""
        bodies = [{"kernel": "SpMV", "scale": TINY, "action": "compile"},
                  {"kernel": "Plus2", "scale": TINY}]
        with ServiceThread(ServeConfig(port=0, pool="local:1")) as svc:
            answers = [_post(svc.port, f"/{body.get('action', 'evaluate')}",
                             body) for body in bodies]
        for body, (status, answer) in zip(bodies, answers):
            assert status == 200, answer
            request = api.CompileRequest.from_dict(body)
            assert answer == api.execute(request).to_json().encode()

    def test_a_worker_answer_is_the_miss_body(self, fresh_cache,
                                              monkeypatch):
        """A result text is answered as the worker wrote it, never
        decoded into a result and encoded again; an error envelope stays
        an error, and unreadable text is a reason to lease again."""
        svc = CompileService(ServeConfig(port=0, pool="inline:1"))
        text = _fake_result(api.CompileRequest(kernel="SpMV")).to_json()
        value, why = svc._accept("req-1", text)
        assert value is text and why is None
        value, why = svc._accept("req-1", json.dumps(
            {"format": ERROR_FORMAT, "error": "ValueError: no"}))
        assert isinstance(value, ServeError) and why is None
        assert str(value) == "worker failed: ValueError: no"
        result = json.loads(text)
        assert result.keys() == api.CompileResult.KEYS
        missing = {k: v for k, v in result.items() if k != "seconds"}
        extra = {**result, "elapsed": 1.0}
        not_a_request = {**result, "request": "SpMV"}
        for bad in ("{", "[]", '{"format": "other"}', json.dumps(missing),
                    json.dumps(extra), json.dumps(not_a_request)):
            value, why = svc._accept("req-1", bad)
            assert value is None and why.startswith("malformed worker result")

        def execute(request, use_cache):
            raise ValueError("no such kernel today")

        monkeypatch.setattr("repro.service.api.execute", execute)
        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            status, body = _post(svc.port, "/evaluate",
                                 {"kernel": "SpMV", "scale": TINY})
        assert status == 500
        assert b"worker failed: ValueError: no such kernel today" in body

    def test_inline_request_outlives_its_lease_once(self, fresh_cache,
                                                    monkeypatch):
        """An in-process request cannot be stopped, so a lease shorter
        than its run neither expires it nor starts a second copy: the
        one run answers 200 and the slot cap holds."""
        calls = []

        def execute(request, use_cache):
            calls.append(request)
            time.sleep(0.5)
            return _fake_result(request)

        monkeypatch.setattr("repro.service.api.execute", execute)
        config = ServeConfig(port=0, pool="inline:1", lease_timeout=0.2)
        with ServiceThread(config) as svc:
            leases_before = _leases_total(svc.port)
            status, body = _post(svc.port, "/evaluate",
                                 {"kernel": "SpMV", "scale": TINY})
            assert status == 200, body
            assert _leases_total(svc.port) - leases_before == 1
        assert len(calls) == 1

    def test_no_thread_outlives_the_daemon(self, fresh_cache, monkeypatch):
        """Each miss runs on a slot thread of its own, and ``stop()``
        leaves neither the lease thread nor a slot thread behind."""
        started: list[threading.Thread] = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        monkeypatch.setattr("repro.service.api.execute",
                            lambda request, use_cache: _fake_result(request))
        svc = ServiceThread(ServeConfig(port=0, pool="inline:2")).start()
        try:
            for kernel in ("SpMV", "Plus2"):
                assert _post(svc.port, "/evaluate",
                             {"kernel": kernel, "scale": TINY})[0] == 200
        finally:
            svc.stop()
        slots = [t for t in started if t.name.startswith("repro-slot-")]
        assert len(slots) == 2
        leases = [t for t in started if t.name == "repro-lease"]
        assert len(leases) == 1
        for thread in slots + leases:
            thread.join(5)
        assert [t.name for t in slots + leases if t.is_alive()] == []


class TestQueuePool:
    def test_misses_flow_through_queue_workers(self, fresh_cache, tmp_path):
        from repro.pipeline.fsqueue import worker_loop

        qdir = tmp_path / "serve-queue"
        stop = threading.Event()
        config = ServeConfig(port=0, pool=f"queue:{qdir}")
        with ServiceThread(config) as svc:
            worker = threading.Thread(
                target=worker_loop, args=(qdir,),
                kwargs=dict(poll=0.05, should_exit=stop.is_set),
                daemon=True)
            worker.start()
            try:
                status, body = _post(svc.port, "/evaluate",
                                     {"kernel": "SpMV",
                                      "dataset": "bcsstk30", "scale": TINY})
                assert status == 200
                serial = api.evaluate(api.CompileRequest(
                    kernel="SpMV", dataset="bcsstk30", scale=TINY))
                assert body == serial.to_json().encode()
            finally:
                stop.set()
                worker.join(timeout=10)
        assert not worker.is_alive()

    def test_vanished_worker_request_is_released_and_answered(
            self, fresh_cache, tmp_path):
        """A worker claims a request task and vanishes: the lease loop
        the daemon shares with ``dispatch`` expires the claim, publishes
        the request again, and a second worker's answer is byte-identical
        to the serial render. The daemon's /metrics shows the leases."""
        from repro.pipeline.fsqueue import QueueTransport, worker_loop

        qdir = tmp_path / "serve-queue"
        claimed = start_vanishing_worker(QueueTransport(qdir), "req-*.json")
        events: list[str] = []
        stop = threading.Event()
        config = ServeConfig(port=0, pool=f"queue:{qdir}", lease_timeout=0.5,
                             on_event=events.append)
        worker = threading.Thread(
            target=worker_loop, args=(qdir,),
            kwargs=dict(poll=0.05, should_exit=stop.is_set), daemon=True)
        with ServiceThread(config) as svc:
            leases_before = _leases_total(svc.port)
            answers: list = []
            client = threading.Thread(target=lambda: answers.append(_post(
                svc.port, "/evaluate", {"kernel": "SpMV", "scale": TINY})))
            client.start()
            try:
                assert claimed.wait(timeout=10)
                worker.start()
                client.join(timeout=60)
            finally:
                stop.set()
                worker.join(timeout=10)
            assert answers and answers[0][0] == 200, answers
            serial = api.evaluate(api.CompileRequest(kernel="SpMV",
                                                     scale=TINY))
            assert answers[0][1] == serial.to_json().encode()
            assert _leases_total(svc.port) - leases_before == 2
        assert any("lease expired" in e and "reassigning" in e
                   for e in events)

    def test_lost_request_answers_500_at_the_retry_bound(self, fresh_cache,
                                                         tmp_path):
        from repro.pipeline.fsqueue import QueueTransport

        qdir = tmp_path / "serve-queue"
        start_vanishing_worker(QueueTransport(qdir), "req-*.json")
        config = ServeConfig(port=0, pool=f"queue:{qdir}", lease_timeout=0.3,
                             retries=0)
        with ServiceThread(config) as svc:
            status, body = _post(svc.port, "/evaluate",
                                 {"kernel": "SpMV", "scale": TINY})
            assert status == 500
            error = json.loads(body)["error"]
            assert "req-000001 lost after 1 attempt(s)" in error
            assert "lease expired" in error
            _status, stats = _get(svc.port, "/stats")
            assert json.loads(stats)["serve"]["inflight"] == 0

    def test_bad_pool_spec_rejected(self):
        with pytest.raises(ServeError, match="pool"):
            ServiceThread(ServeConfig(port=0, pool="carrier-pigeon")).start()


class TestDrain:
    def test_drain_finishes_inflight_work(self, fresh_cache, monkeypatch):
        started = threading.Event()

        def execute(request, use_cache):
            started.set()
            time.sleep(0.3)
            return _fake_result(request)

        monkeypatch.setattr("repro.service.api.execute", execute)
        svc = ServiceThread(ServeConfig(port=0, pool="inline:1")).start()
        results = []
        t = threading.Thread(target=lambda: results.append(
            _post(svc.port, "/evaluate", {"kernel": "SpMV", "scale": TINY})))
        t.start()
        assert started.wait(timeout=10)
        svc.stop()  # begins the drain and joins the serve thread
        t.join(timeout=30)
        assert results and results[0][0] == 200

    @staticmethod
    def _idle_connection(svc: ServiceThread) -> socket.socket:
        """A keep-alive connection whose handler is waiting for a request."""
        sock = socket.create_connection(("127.0.0.1", svc.port), timeout=5)
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        stream = sock.makefile("rb")
        head = _read_head(stream)
        assert b"\r\nConnection: keep-alive" in head
        assert stream.read(_content_length(head)) == b'{"ok": true}'
        return sock

    @staticmethod
    def _begin_drain(svc: ServiceThread) -> float:
        """Start the drain on the daemon's loop; when it began."""
        svc._loop.call_soon_threadsafe(svc.service.begin_drain)
        while not svc.service._draining:
            time.sleep(0.001)
        return time.monotonic()

    #: Drains here end well inside this grace.
    GRACE = 20.0

    def test_idle_keepalive_closes_within_the_window(self, fresh_cache):
        svc = ServiceThread(ServeConfig(port=0, pool="inline:1",
                                        drain_grace=self.GRACE)).start()
        with self._idle_connection(svc) as sock:
            began = self._begin_drain(svc)
            assert _read_to_eof(sock) == b""
            assert time.monotonic() - began < DRAIN_READ_WINDOW + 0.5
        svc.stop(timeout=self.GRACE / 2)
        assert not svc._thread.is_alive()

    def test_request_inside_the_window_is_answered(self, fresh_cache):
        svc = ServiceThread(ServeConfig(port=0, pool="inline:1",
                                        drain_grace=self.GRACE)).start()
        with self._idle_connection(svc) as sock:
            self._begin_drain(svc)
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            head, _, body = _read_to_eof(sock).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nConnection: close" in head
        assert json.loads(body) == {"ok": True}
        svc.stop(timeout=self.GRACE / 2)
        assert not svc._thread.is_alive()

    def test_headers_held_past_the_window_are_dropped(self, fresh_cache):
        svc = ServiceThread(ServeConfig(port=0, pool="inline:1",
                                        drain_grace=self.GRACE)).start()
        with self._idle_connection(svc) as sock:
            began = self._begin_drain(svc)
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            assert _read_to_eof(sock) == b""
            assert time.monotonic() - began < DRAIN_READ_WINDOW + 0.5
        svc.stop(timeout=self.GRACE / 2)
        assert not svc._thread.is_alive()

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        from repro.pipeline.dispatch import worker_env

        env = worker_env()
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--pool", "inline:2", "--quiet"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            banner = proc.stdout.readline()
            assert "serving on http://" in banner, banner
            port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            conn.request("POST", "/evaluate",
                         body=json.dumps({"kernel": "Plus2", "scale": TINY}))
            # SIGTERM lands while the (cold) request is in flight; the
            # drain must still answer it before the process exits.
            proc.send_signal(signal.SIGTERM)
            resp = conn.getresponse()
            body = resp.read()
            conn.close()
            assert resp.status == 200, body
            assert json.loads(body)["seconds"]
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stdout.close()
            proc.stderr.close()
