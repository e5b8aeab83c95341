"""``repro serve`` latency: cold vs warm, and request coalescing.

Runs an in-process daemon (:class:`repro.service.server.ServiceThread`)
and drives it with concurrent HTTP clients over the Table 6 kernels on
their first datasets:

* **cold** — every kernel once, nothing staged (a fresh per-run seed
  keeps the cache genuinely cold even when ``REPRO_CACHE_DIR`` is warm);
* **warm** — N concurrent clients replay the same requests, now answered
  straight from the staged cache (the p50 here is the daemon's hot-path
  overhead: parse + cache peek + render);
* **coalesce** — N identical concurrent cold requests must trigger
  exactly one underlying compile (the rest join its in-flight future or
  hit the cache the winner populated).

Every warm response is also diffed byte-for-byte against the serial
``repro.api.evaluate`` rendering — the daemon must be a transparent
cache front, not a different code path.

Writes ``BENCH_serve.json`` to the current directory::

    python -m benchmarks.bench_serve --scale 0.05 --clients 16 --smoke

``--pool queue:DIR --spawn-workers 2`` exercises the elastic worker pool
instead of the in-process thread pool.
"""

from __future__ import annotations

import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time

#: Smoke-mode acceptance bar: warm-cache median latency, milliseconds.
WARM_P50_BAR_MS = 50.0

SMOKE_SCALE = 0.05
DEFAULT_CLIENTS = 16


def _post(port: int, path: str, body: dict,
          timeout: float = 300.0) -> tuple[int, bytes, float]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        t0 = time.perf_counter()
        conn.request("POST", path, body=json.dumps(body))
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, data, time.perf_counter() - t0
    finally:
        conn.close()


def _stats(port: int) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _metrics_text(port: int) -> str:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        resp = conn.getresponse()
        assert resp.status == 200
        assert resp.getheader("Content-Type", "").startswith("text/plain")
        return resp.read().decode("utf-8")
    finally:
        conn.close()


def _parse_prometheus(text: str) -> dict[str, float]:
    """Samples by full series name; raises on unparseable lines."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        samples[series] = float(value)  # ValueError → malformed exposition
    return samples


def _latency_summary(seconds: list[float]) -> dict[str, float]:
    ordered = sorted(seconds)
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "p99_ms": ordered[max(0, int(0.99 * len(ordered)) - 1)] * 1e3
        if len(ordered) > 1 else ordered[0] * 1e3,
        "max_ms": ordered[-1] * 1e3,
        "n": float(len(ordered)),
    }


def _run_clients(port: int, requests: list[dict],
                 clients: int) -> tuple[list[float], list[bytes]]:
    """Fan ``requests`` out round-robin over ``clients`` threads."""
    latencies: list[float] = []
    bodies: list[bytes] = []
    lock = threading.Lock()
    errors: list[str] = []

    def worker(mine: list[dict]) -> None:
        for body in mine:
            status, data, seconds = _post(port, "/evaluate", body)
            with lock:
                if status != 200:
                    errors.append(f"{status}: {data[:200]!r}")
                else:
                    latencies.append(seconds)
                    bodies.append(data)

    shards = [requests[i::clients] for i in range(clients)]
    threads = [threading.Thread(target=worker, args=(s,))
               for s in shards if s]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise AssertionError(f"serve returned errors: {errors[:3]}")
    return latencies, bodies


def run_bench(scale: float = SMOKE_SCALE, clients: int = DEFAULT_CLIENTS,
              pool: str = "inline:4", spawn_workers: int = 0,
              smoke: bool = False) -> dict:
    import repro.api as api
    from repro.pipeline.dispatch import worker_env
    from repro.service.server import ServeConfig, ServiceThread

    # A per-run seed keeps the cold phase honest even on a warm cache
    # directory; the serial diff below uses the same seed, so warm
    # entries still match.
    seed = 1000 + (os.getpid() % 100_000)
    kernels = list(__import__("repro.kernels",
                              fromlist=["KERNEL_ORDER"]).KERNEL_ORDER)
    requests = [{"kernel": name, "scale": scale, "seed": seed}
                for name in kernels]
    metrics: dict[str, dict] = {}

    workers: list[subprocess.Popen] = []
    config = ServeConfig(port=0, pool=pool, max_inflight=max(64, clients),
                         lease_timeout=120.0)
    with ServiceThread(config) as svc:
        if spawn_workers:
            root = pool.partition(":")[2]
            workers = [subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", root, "--quiet",
                 "--poll", "0.05"], env=worker_env())
                for _ in range(spawn_workers)]

        cold, _ = _run_clients(svc.port, requests, clients)
        metrics["cold"] = _latency_summary(cold)

        warm_rounds = requests * max(1, (4 * clients) // len(requests))
        warm, warm_bodies = _run_clients(svc.port, warm_rounds, clients)
        metrics["warm"] = _latency_summary(warm)

        # Byte-identity: every warm response must equal the serial
        # rendering of its request.
        serial = {
            json.dumps(r, sort_keys=True): api.evaluate(
                api.CompileRequest(**r)).to_json().encode()
            for r in requests
        }
        mismatches = sum(1 for body in warm_bodies
                         if body not in serial.values())
        metrics["warm"]["byte_mismatches"] = float(mismatches)

        # Coalescing: an identical concurrent cold burst computes once.
        # The oracle check (``engine``) keeps its compute at tens of
        # milliseconds, longer than the clients take to arrive: a plain
        # evaluate at this scale takes a few milliseconds, and an
        # in-process slot thread may finish it before a second client
        # is read, leaving nothing to join.
        before = _stats(svc.port)["serve"]
        burst = [{"kernel": kernels[0], "scale": scale,
                  "seed": seed + 1, "engine": "interp"}] * clients
        t0 = time.perf_counter()
        _run_clients(svc.port, burst, clients)
        wall = time.perf_counter() - t0
        after = _stats(svc.port)["serve"]
        metrics["coalesce"] = {
            "computed": float(after["computed"] - before["computed"]),
            "coalesced": float(after["coalesced"] - before["coalesced"]),
            "cache_hits": float(after["cache_hits"] - before["cache_hits"]),
            "wall_ms": wall * 1e3,
            "clients": float(clients),
        }

        # Prometheus scrape while the daemon is still hot.
        exposition = _metrics_text(svc.port)
        samples = _parse_prometheus(exposition)
        metrics["prometheus"] = {
            "series": float(len(samples)),
            "type_lines": float(sum(1 for line in exposition.splitlines()
                                    if line.startswith("# TYPE"))),
            "requests_total": samples.get("repro_serve_requests_total", 0.0),
            "latency_observations": samples.get("repro_request_seconds_count",
                                                0.0),
            "coalesced_total": samples.get("repro_serve_coalesced_total",
                                           0.0),
        }

    for proc in workers:  # the drain's stop sentinel releases them
        proc.wait(timeout=60)

    if smoke:
        assert metrics["warm"]["p50_ms"] < WARM_P50_BAR_MS, (
            f"warm p50 {metrics['warm']['p50_ms']:.1f}ms over the "
            f"{WARM_P50_BAR_MS}ms bar")
        assert metrics["coalesce"]["computed"] == 1.0, (
            f"identical burst computed "
            f"{metrics['coalesce']['computed']:.0f} times, expected 1")
        assert metrics["coalesce"]["coalesced"] > 0, "nothing coalesced"
        assert metrics["warm"]["byte_mismatches"] == 0.0
        prom = metrics["prometheus"]
        assert prom["type_lines"] > 0, "no # TYPE lines in /metrics"
        assert prom["requests_total"] > 0, "requests counter never moved"
        assert prom["latency_observations"] > 0, "latency histogram empty"
        assert prom["coalesced_total"] > 0, "coalesce counter never moved"
    return metrics


def run_smoke(scale: float = SMOKE_SCALE, clients: int = DEFAULT_CLIENTS,
              pool: str = "inline:4", spawn_workers: int = 0,
              smoke: bool = False) -> dict:
    """Collect the metrics and write ``BENCH_serve.json``."""
    metrics = run_bench(scale, clients, pool, spawn_workers, smoke)
    payload = {"bench": "serve", "scale": scale, "pool": pool,
               "clients": clients, "metrics": metrics}
    with open("BENCH_serve.json", "w") as out:
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print("wrote BENCH_serve.json")
    return metrics


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="repro serve latency benchmark")
    parser.add_argument("--scale", type=float, default=SMOKE_SCALE)
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument("--pool", default="inline:4",
                        help="inline:N or queue:DIR (see --spawn-workers)")
    parser.add_argument("--spawn-workers", type=int, default=0, metavar="N",
                        help="launch N `repro worker` subprocesses against "
                             "a queue:DIR pool")
    parser.add_argument("--smoke", action="store_true",
                        help="enforce the warm-p50 and coalescing bars")
    args = parser.parse_args(argv)
    metrics = run_smoke(args.scale, args.clients, args.pool,
                        args.spawn_workers, args.smoke)
    for phase in ("cold", "warm"):
        entry = metrics[phase]
        print(f"{phase:12s} p50={entry['p50_ms']:8.2f}ms "
              f"p99={entry['p99_ms']:8.2f}ms  n={entry['n']:.0f}")
    co = metrics["coalesce"]
    print(f"coalesce     computed={co['computed']:.0f} "
          f"coalesced={co['coalesced']:.0f} "
          f"cache_hits={co['cache_hits']:.0f} wall={co['wall_ms']:.0f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
