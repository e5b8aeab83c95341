"""The ``repro serve`` daemon: HTTP round-trips, coalescing, admission
control, timeouts, the queue-pool miss path, and graceful drain."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro.api as api
from repro.service.server import ServeConfig, ServeError, ServiceThread
from tests.conftest import start_vanishing_worker

TINY = 0.02


def _post(port: int, path: str, body: dict, timeout: float = 60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(body),
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


class TestCoalescing:
    def test_identical_concurrent_requests_compute_once(self, fresh_cache):
        calls = []
        gate = threading.Event()

        def execute(request, use_cache):
            calls.append(request)
            gate.wait(timeout=10)
            return _fake_result(request)

        config = ServeConfig(port=0, pool="inline:4", execute=execute)
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
    def test_429_beyond_max_inflight(self, fresh_cache):
        gate = threading.Event()

        def execute(request, use_cache):
            gate.wait(timeout=10)
            return _fake_result(request)

        config = ServeConfig(port=0, pool="inline:2", max_inflight=1,
                             execute=execute)
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

    def test_timeout_returns_clean_504(self, fresh_cache):
        release = threading.Event()

        def execute(request, use_cache):
            release.wait(timeout=10)
            return _fake_result(request)

        config = ServeConfig(port=0, pool="inline:1", execute=execute)
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

    def test_worker_error_surfaces_as_500(self, fresh_cache):
        def execute(request, use_cache):
            raise RuntimeError("compiler exploded")

        with ServiceThread(ServeConfig(port=0, pool="inline:1",
                                       execute=execute)) as svc:
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


class TestQueuePool:
    def test_misses_flow_through_queue_workers(self, fresh_cache, tmp_path):
        from repro.pipeline.fsqueue import worker_loop

        qdir = tmp_path / "serve-queue"
        stop = threading.Event()
        config = ServeConfig(port=0, pool=f"queue:{qdir}", queue_poll=0.05)
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
        config = ServeConfig(port=0, pool=f"queue:{qdir}", queue_poll=0.05,
                             queue_lease=0.5, on_event=events.append)
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
        config = ServeConfig(port=0, pool=f"queue:{qdir}", queue_poll=0.05,
                             queue_lease=0.3, queue_retries=0)
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
    def test_drain_finishes_inflight_work(self, fresh_cache):
        started = threading.Event()

        def execute(request, use_cache):
            started.set()
            time.sleep(0.3)
            return _fake_result(request)

        svc = ServiceThread(ServeConfig(port=0, pool="inline:1",
                                        execute=execute)).start()
        results = []
        t = threading.Thread(target=lambda: results.append(
            _post(svc.port, "/evaluate", {"kernel": "SpMV", "scale": TINY})))
        t.start()
        assert started.wait(timeout=10)
        svc.stop()  # begins the drain and joins the serve thread
        t.join(timeout=30)
        assert results and results[0][0] == 200

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
