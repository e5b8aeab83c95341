"""The observability layer: span tracing, the metrics registry, and
their surfaces.

The contracts under test are the tentpole guarantees of ``repro.obs``:

* **zero overhead when off** — with ``REPRO_TRACE_DIR`` unset, every
  ``span()`` call returns the same module-level no-op singleton and no
  file is ever created;
* **schema round-trip** — records written by the tracer parse back
  through :func:`repro.obs.timeline.load_trace_dir` with parent links,
  attrs, and the schema version intact, and export to valid Chrome
  trace JSON;
* **byte transparency** — artefact bytes are identical with tracing on
  and off, including across a ``queue:DIR`` sweep with a killed worker
  (whose expired lease must appear in the merged timeline);
* **serve spans** — N coalesced requests reference exactly one compute
  span; ``/metrics`` renders Prometheus text; ``/stats`` counts
  responses by status code;
* **the computed/cached split** — a warm dispatch reports
  ``jobs_cached``, not ``jobs_computed``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro import obs
from repro.obs import metrics as metrics_mod
from repro.obs import trace as trace_mod
from repro.obs.timeline import load_trace_dir, render_summary, to_chrome
from tests.conftest import start_vanishing_worker

TINY = 0.02


# ---------------------------------------------------------------------------
# Tracer: off mode
# ---------------------------------------------------------------------------


class TestTracingOff:
    def test_noop_singleton_identity(self, monkeypatch, tmp_path):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        assert not obs.tracing_enabled()
        assert obs.trace_dir() is None
        assert obs.trace_env_knobs() == {}
        first = obs.span("lower", kernel="SpMV")
        second = obs.span("codegen")
        assert first is second  # the module singleton: no per-call alloc
        assert first is trace_mod._NULL_SPAN
        assert first.id is None
        with first as sp:
            sp.set(anything="goes")
        obs.event("lease", worker="w1")  # also a no-op
        assert list(tmp_path.iterdir()) == []

    def test_exceptions_propagate_through_null_span(self, monkeypatch):
        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")


# ---------------------------------------------------------------------------
# Tracer: schema round-trip
# ---------------------------------------------------------------------------


@pytest.fixture
def trace_dir_env(monkeypatch, tmp_path):
    root = tmp_path / "traces"
    monkeypatch.setenv(obs.TRACE_ENV, str(root))
    return root


class TestSchemaRoundTrip:
    def test_nested_spans_and_events(self, trace_dir_env):
        assert obs.tracing_enabled()
        assert obs.trace_env_knobs() == {obs.TRACE_ENV: str(trace_dir_env)}
        with obs.span("outer", artifact="table3") as outer:
            obs.event("claim", task="chunk-1")
            with obs.span("inner", kernel="SpMV") as inner:
                inner.set(loops=4)
        data = load_trace_dir(trace_dir_env)
        assert data.problems() == []
        assert data.truncated_tails() == 0
        assert len(data.spans) == 2 and len(data.events) == 1
        by_name = {r["name"]: r for r in data.records}
        for rec in data.records:
            assert rec["v"] == trace_mod.SCHEMA
            assert rec["k"] in ("span", "event")
            assert isinstance(rec["ts"], float)
            assert rec["proc"] and rec["id"].startswith(rec["proc"])
        assert by_name["inner"]["parent"] == by_name["outer"]["id"]
        assert by_name["claim"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner"]["attrs"] == {"kernel": "SpMV", "loops": 4}
        assert by_name["inner"]["dur"] <= by_name["outer"]["dur"]

    def test_exception_stamps_error_attr(self, trace_dir_env):
        with pytest.raises(ValueError):
            with obs.span("lower", kernel="SpMV"):
                raise ValueError("bad schedule")
        data = load_trace_dir(trace_dir_env)
        assert data.spans[0]["attrs"]["error"] == "ValueError"

    def test_unnested_span_has_no_parent(self, trace_dir_env):
        with obs.span("outer"):
            with obs.span("detached", _nest=False, _track="req-1"):
                pass
        data = load_trace_dir(trace_dir_env)
        detached = next(r for r in data.spans if r["name"] == "detached")
        assert "parent" not in detached
        assert detached["track"] == "req-1"

    def test_chrome_export_shape(self, trace_dir_env):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        obs.event("claim")
        chrome = to_chrome(load_trace_dir(trace_dir_env))
        events = chrome["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "i", "M"} <= phases
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0
        json.dumps(chrome)  # must serialize cleanly

    def test_truncated_tail_tolerated_interior_flagged(self, trace_dir_env):
        with obs.span("a"):
            pass
        path = next(trace_dir_env.glob("trace-*.jsonl"))
        # A killed process leaves a partial trailing line: tolerated.
        path.write_text(path.read_text() + '{"k": "span", "na')
        data = load_trace_dir(trace_dir_env)
        assert data.truncated_tails() == 1
        assert data.problems() == []
        # The same fragment *inside* the file is corruption: flagged.
        path.write_text('{"k": "span", "na\n' + path.read_text())
        data = load_trace_dir(trace_dir_env)
        assert any("unparseable" in p for p in data.problems())

    def test_orphaned_span_reported(self, trace_dir_env):
        with obs.span("child"):
            pass
        path = next(trace_dir_env.glob("trace-*.jsonl"))
        rec = json.loads(path.read_text())
        rec["parent"] = "ghost-1:99"  # enclosing span never landed
        path.write_text(json.dumps(rec) + "\n")
        data = load_trace_dir(trace_dir_env)
        assert len(data.orphans) == 1
        assert any("missing parent" in p for p in data.problems())

    def test_summary_renders_all_sections(self, trace_dir_env):
        with obs.span("outer", kernel="SpMV"):
            with obs.span("stage:compile", hit=False):
                pass
            with obs.span("stage:compile", hit=True):
                pass
        text = render_summary(load_trace_dir(trace_dir_env))
        assert "== per-span totals ==" in text
        assert "== cache hit ratio (staged lookups) ==" in text
        assert "== worker utilization ==" in text
        assert "== critical path ==" in text
        assert "compile" in text and "50.0%" in text

    def test_non_serializable_attr_degrades_gracefully(self, trace_dir_env):
        with obs.span("odd", payload=object()):
            pass
        data = load_trace_dir(trace_dir_env)
        assert data.problems() == []
        assert data.spans[0]["attrs"]["payload"].startswith("<object")


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_and_labels(self):
        reg = metrics_mod.MetricsRegistry()
        c = reg.counter("repro_test_total", "help text", ("path", "status"))
        c.inc(path="/evaluate", status="200")
        c.inc(2, path="/evaluate", status="200")
        c.inc(path="/stats", status="200")
        assert c.value(path="/evaluate", status="200") == 3
        text = reg.render()
        assert "# HELP repro_test_total help text" in text
        assert "# TYPE repro_test_total counter" in text
        assert 'repro_test_total{path="/evaluate",status="200"} 3' in text
        assert text.endswith("\n")

    def test_histogram_buckets_cumulative(self):
        reg = metrics_mod.MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", "latency")
        for v in (0.001, 0.002, 0.004, 10.0):
            h.observe(v)
        text = reg.render()
        assert 'repro_lat_seconds_bucket{le="+Inf"} 4' in text
        assert "repro_lat_seconds_count 4" in text
        snap = reg.snapshot()
        assert snap["histograms"]["repro_lat_seconds"]["count"] == 4

    def test_kind_mismatch_rejected(self):
        reg = metrics_mod.MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(ValueError):
            reg.gauge("repro_x_total")

    def test_bad_name_rejected(self):
        reg = metrics_mod.MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("1bad-name")

    def test_label_escaping(self):
        reg = metrics_mod.MetricsRegistry()
        c = reg.counter("repro_esc_total", "", ("path",))
        c.inc(path='we"ird\\pa\nth')
        assert '\\"' in reg.render() and "\\n" in reg.render()


# ---------------------------------------------------------------------------
# Engine fallbacks are visible: span attr, counter, strict
# ---------------------------------------------------------------------------


class TestEngineFallback:
    @staticmethod
    def _kernels():
        """(vectorizable SpMV, a sparse-sparse join over differing index
        sets — which the vectorizer hands to the cpu walker)."""
        import numpy as np

        from repro.core.compiler import compile_stmt
        from repro.formats import CSR, DENSE_VECTOR, SPARSE_VECTOR, offChip
        from repro.ir import index_vars
        from repro.tensor import Tensor
        from tests.helpers_kernels import build_small_kernel_stmt

        stmt, _out, _ = build_small_kernel_stmt("SpMV")
        A = Tensor("A", (3, 4), CSR(offChip)).from_dense(
            np.array([[1.0, 0, 2, 0], [0, 0, 0, 3], [4, 5, 0, 0]]))
        b = Tensor("b", (4,), SPARSE_VECTOR(offChip)).from_dense(
            np.array([1.0, 0.0, 2.0, 3.0]))
        y = Tensor("y", (3,), DENSE_VECTOR(offChip))
        i, j = index_vars("i j")
        y[i] = A[i, j] * b[j]
        return (compile_stmt(stmt, "obs-spmv", cache=False),
                compile_stmt(y.get_index_stmt(), "obs-fallback", cache=False))

    def test_exec_span_and_counter_record_fallback(self, trace_dir_env):
        from repro.backends.numpy_exec import VectorizeFallback

        clean, falls = self._kernels()
        counter = obs.counter("repro_engine_fallbacks_total", "",
                              ("kernel",))
        before = counter.value(kernel="obs-fallback")
        clean.run_engine("numpy")
        falls.run_engine("numpy")
        with pytest.raises(VectorizeFallback):
            falls.run_engine("numpy", strict=True)
        assert counter.value(kernel="obs-fallback") == before + 1
        assert counter.value(kernel="obs-spmv") == 0
        spans = {r["attrs"]["kernel"]: r["attrs"]
                 for r in load_trace_dir(trace_dir_env).spans
                 if r["name"] == "exec" and "fell_back" in r["attrs"]}
        assert spans["obs-spmv"]["fell_back"] is False
        assert spans["obs-fallback"]["fell_back"] is True

    def test_exec_span_and_counter_say_what_the_plan_cost(self,
                                                          trace_dir_env):
        """A slow request paid for planning or for compute: the span says
        which, and exec_check reports through the same span."""
        from repro.service import api

        clean, falls = self._kernels()
        counter = obs.counter("repro_exec_plans_total", "", ("outcome",))
        before = {o: counter.value(outcome=o)
                  for o in ("built", "reused", "fallback")}
        clean.run_engine("numpy")
        clean.run_engine("numpy")
        falls.run_engine("numpy")
        assert {o: counter.value(outcome=o) - n for o, n in before.items()
                } == {"built": 1, "reused": 1, "fallback": 1}
        api.exec_check(api.CompileRequest(kernel="SpMV", scale=TINY,
                                          engine="numpy"), use_cache=False)
        spans = [r["attrs"] for r in load_trace_dir(trace_dir_env).spans
                 if r["name"] == "exec" and r["attrs"]["engine"] == "numpy"]
        assert [a["plan"] for a in spans] == ["built", "reused", "fallback",
                                              "built"]
        assert [("plan_ms" in a) for a in spans] == [True, False, True, True]
        assert spans[-1]["kernel"] == "SpMV"
        assert spans[-1]["fell_back"] is False

    def test_partition_compute_spans_carry_engine(self, fresh_cache,
                                                  trace_dir_env):
        from repro.pipeline.executor import run_jobs
        from repro.pipeline.partition import PartitionPlan

        run_jobs(PartitionPlan("SpMV", "bcsstk30", 2).jobs(TINY,
                                                           engine="cpu"))
        computes = [r for r in load_trace_dir(trace_dir_env).spans
                    if r["name"] == "partition:compute"]
        assert [r["attrs"]["engine"] for r in computes] == ["cpu", "cpu"]
        assert sorted(r["attrs"]["block"] for r in computes) == [0, 1]


# ---------------------------------------------------------------------------
# The computed/cached split
# ---------------------------------------------------------------------------


class TestComputedSplit:
    def test_warm_dispatch_reports_cached_not_computed(self, fresh_cache):
        from repro.pipeline.dispatch import (
            InlineTransport,
            dispatch,
            dispatch_summary_payload,
        )

        cold = dispatch("table3", TINY, InlineTransport(2))
        jobs = sum(len(m.jobs) for m in cold.manifests)
        assert cold.ok
        assert cold.jobs_computed == jobs
        assert cold.jobs_cached == 0
        warm = dispatch("table3", TINY, InlineTransport(2))
        assert warm.ok
        assert warm.merged.text == cold.merged.text
        assert warm.jobs_computed == 0
        assert warm.jobs_cached == jobs
        assert f"(0 computed, {jobs} cached)" in warm.summary()
        payload = dispatch_summary_payload(warm)
        assert payload["jobs_computed"] == 0
        assert payload["jobs_cached"] == jobs


# ---------------------------------------------------------------------------
# Dispatch tracing: killed worker, merged timeline, byte identity
# ---------------------------------------------------------------------------


class TestDispatchTracing:
    def test_killed_worker_timeline_and_byte_identity(
            self, fresh_cache, trace_dir_env, tmp_path, monkeypatch):
        """A queue sweep whose first lease is stolen by a vanishing
        worker: the merged timeline must show the expired lease and the
        traced artefact must stay byte-identical to an untraced serial
        run."""
        from repro.pipeline.batch import format_artifact, run_artifact
        from repro.pipeline.dispatch import QueueTransport, dispatch
        from repro.pipeline.fsqueue import worker_loop

        transport = QueueTransport(tmp_path / "pool")
        start_vanishing_worker(transport, "chunk-*.json")
        stop = {"exit": False}
        worker = threading.Thread(
            target=worker_loop,
            kwargs=dict(root=transport.root, poll=0.02,
                        should_exit=lambda: stop["exit"]),
            daemon=True)
        worker.start()
        events: list[str] = []
        result = dispatch("table3", TINY, transport, lease_timeout=1.0,
                          retries=8, on_event=events.append)
        worker.join(10)
        assert result.ok
        assert any("lease expired" in e for e in events)

        data = load_trace_dir(trace_dir_env)
        expired = [r for r in data.events if r["name"] == "lease.expired"]
        assert expired, "expired lease missing from the merged timeline"
        names = {r["name"] for r in data.spans}
        assert {"dispatch", "chunk", "job", "task"} <= names
        claims = [r for r in data.events if r["name"] == "claim"]
        assert claims and all(r["attrs"]["worker"] for r in claims)
        # Spans land in files, never in the artefact: byte identity
        # against an untraced serial rendering.
        monkeypatch.delenv(obs.TRACE_ENV)
        serial = format_artifact("table3", run_artifact("table3", TINY))
        assert result.merged.text == serial
        assert render_summary(data)  # and the report renders

    def test_dispatch_span_carries_job_split(self, fresh_cache,
                                             trace_dir_env):
        from repro.pipeline.dispatch import InlineTransport, dispatch

        result = dispatch("table3", TINY, InlineTransport(1))
        assert result.ok
        data = load_trace_dir(trace_dir_env)
        root = next(r for r in data.spans if r["name"] == "dispatch")
        assert root["attrs"]["jobs_computed"] == result.jobs_computed
        assert root["attrs"]["jobs_cached"] == result.jobs_cached
        # Chunk spans nest under the dispatch span via the job split.
        stage_hits = [r["attrs"]["hit"] for r in data.spans
                      if r["name"].startswith("stage:")]
        assert stage_hits, "memoized stages recorded no spans"


# ---------------------------------------------------------------------------
# Serve: request/compute spans, /metrics, /stats response counters
# ---------------------------------------------------------------------------


def _get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read(), dict(resp.getheaders())
    finally:
        conn.close()


def _post(port: int, path: str, body: dict, timeout: float = 60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(body))
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class TestServeObservability:
    def test_coalesced_requests_share_one_compute_span(self, fresh_cache,
                                                       trace_dir_env):
        import repro.api as api
        from repro.service.server import ServeConfig, ServiceThread

        release = threading.Event()

        def slow_execute(request, use_cache):
            release.wait(10)  # hold every joiner in the coalesce window
            return api.CompileResult(request=request.resolved(),
                                     seconds={api.BASELINE_PLATFORM: 1.0})

        clients = 4
        config = ServeConfig(port=0, pool="inline:2", execute=slow_execute)
        with ServiceThread(config) as svc:
            results: list[int] = []
            lock = threading.Lock()

            def hit():
                status, _body = _post(
                    svc.port, "/evaluate", {"kernel": "SpMV", "scale": TINY})
                with lock:
                    results.append(status)

            threads = [threading.Thread(target=hit)
                       for _ in range(clients)]
            for t in threads:
                t.start()
            # Hold the compute until every client is admitted, so all of
            # them land inside the coalescing window deterministically.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                serve = json.loads(_get(svc.port, "/stats")[1])["serve"]
                if serve["requests"] >= clients:
                    break
                time.sleep(0.02)
            release.set()
            for t in threads:
                t.join(30)
            assert results == [200] * clients

        data = load_trace_dir(trace_dir_env)
        computes = [r for r in data.spans if r["name"] == "compute"]
        assert len(computes) == 1, "coalesced burst must compute once"
        requests = [r for r in data.spans if r["name"] == "request"]
        assert len(requests) == clients
        joined = [r for r in requests
                  if r["attrs"]["outcome"] == "joined"]
        assert joined, "no request joined the in-flight compute"
        for rec in joined:
            assert rec["attrs"]["compute_span"] == computes[0]["id"]
        launcher = [r for r in requests
                    if r["attrs"]["outcome"] == "computed"]
        assert len(launcher) == 1
        assert launcher[0]["attrs"]["compute_span"] == computes[0]["id"]

    def test_metrics_endpoint_prometheus_text(self, fresh_cache):
        from repro.service.server import ServeConfig, ServiceThread

        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            _post(svc.port, "/evaluate", {"kernel": "SpMV", "scale": TINY})
            status, body, headers = _get(svc.port, "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            text = body.decode()
            assert "# TYPE repro_serve_requests_total counter" in text
            assert "# TYPE repro_request_seconds histogram" in text
            samples = {}
            for line in text.splitlines():
                if line and not line.startswith("#"):
                    series, _, value = line.rpartition(" ")
                    samples[series] = float(value)  # parseable exposition
            assert samples["repro_serve_requests_total"] >= 1
            assert samples["repro_request_seconds_count"] >= 1
            assert any(s.startswith("repro_cache_stage_total")
                       for s in samples)

    def test_stats_counts_responses_by_status(self, fresh_cache):
        from repro.service.server import ServeConfig, ServiceThread

        with ServiceThread(ServeConfig(port=0, pool="inline:1")) as svc:
            _post(svc.port, "/evaluate", {"kernel": "SpMV", "scale": TINY})
            _get(svc.port, "/nowhere")
            status, body, _headers = _get(svc.port, "/stats")
            assert status == 200
            serve = json.loads(body)["serve"]
            assert serve["uptime_s"] > 0
            assert serve["responses"] >= 2
            assert serve["status_codes"]["200"] >= 1
            assert serve["status_codes"]["404"] == 1
            # The shared payload carries the metrics snapshot too.
            metrics = json.loads(body)["cache"]["metrics"]
            assert "repro_requests_total" in metrics["counters"]


# ---------------------------------------------------------------------------
# Harness byte transparency
# ---------------------------------------------------------------------------


class TestByteTransparency:
    def test_artifact_bytes_identical_traced_and_untraced(
            self, fresh_cache, monkeypatch, tmp_path):
        from repro.pipeline.batch import format_artifact, run_artifact

        monkeypatch.delenv(obs.TRACE_ENV, raising=False)
        plain = format_artifact("table3", run_artifact("table3", TINY))
        monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "traces"))
        traced = format_artifact("table3", run_artifact("table3", TINY))
        assert traced == plain
        assert list((tmp_path / "traces").glob("trace-*.jsonl"))
