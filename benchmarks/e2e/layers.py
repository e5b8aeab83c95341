"""The traced round's layer probes: every per-layer metric in ``spec``.

One child process times calls into each layer's public functions under
in-memory spans (``measure.Tracer``) and derives the per-layer metrics
from those spans. Three probes replay a workload's pass layer by layer
(``compile_nocache``, ``sweep_cold``, ``serve_mixed``) next to the real
pass on the same inputs, so the share of the pass the layer spans do not
cover is itself a metric (``trace.unattributed_pct.*``).

Repeat counts are small: the whole child has ~15 s, and per-layer
metrics carry no bound. They say where a change landed, not whether it
is a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

import spec
import workloads
from measure import (HostReference, Recorder, Tracer, durations_ms, geomean,
                     median, quantile, scratch_dir, time_ms)

#: The fixed evaluation seed of the sweep, CLI, dispatch and partition
#: paths (their public entry points take no seed).
FIXED_SEED = 7


class Probe:
    """Shared state of one layers run: tracer, metrics, failure counts."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tracer = Tracer()
        self.rec = Recorder(self.tracer, "layers")
        self.metrics: dict[str, float] = {}
        #: Left by earlier probes for later ones: the compile_nocache
        #: pass as a callable, and SpMV's run time at the large scale.
        self.compile_pass = None
        self.spmv_large_ms = 0.0

    def timed(self, name: str, fn, **attrs):
        return self.tracer.timed(name, fn, **attrs)

    def span_median(self, name: str) -> float:
        return median(durations_ms(self.tracer.spans, name))

    def use_cache_dir(self, label: str) -> str:
        """Point the program's cache at a fresh directory; drop its memory."""
        from repro.pipeline import default_cache

        path = str(scratch_dir() / f"cache-{label}")
        os.environ["REPRO_CACHE_DIR"] = path
        default_cache().clear_memory()
        return path


def layered_build(probe: Probe, kernel_name: str, tensors: dict):
    """What ``api.build`` does on a miss, one span per layer."""
    from repro.core.compiler import compile_stmt
    from repro.kernels import KERNELS

    (stmt, _), build_ms = probe.timed(
        "kernels.build", lambda: KERNELS[kernel_name].build(tensors))
    kernel, compile_ms = probe.timed(
        "core.compile", lambda: compile_stmt(stmt, kernel_name, cache=False))
    return kernel, build_ms + compile_ms


def layered_model(probe: Probe, kernel) -> tuple[dict, float]:
    """What ``api.evaluate`` does after the build, one span per layer.

    Returns what it computed (``stats``, ``resources``, ``seconds``) and
    the milliseconds the spans took together.
    """
    from repro.backends.cpu import CpuBackend
    from repro.backends.gpu import GpuBackend
    from repro.capstan import (DDR4, HBM2E, IDEAL, CapstanSimulator,
                               compute_stats, estimate_resources)

    stats, a = probe.timed("capstan.stats", lambda: compute_stats(kernel))
    resources, b = probe.timed("capstan.resources",
                               lambda: estimate_resources(kernel))
    sim = CapstanSimulator()
    seconds, c = probe.timed("capstan.simulate", lambda: {
        dram.name: sim.simulate(kernel, dram=dram, stats=stats,
                                resources=resources).seconds
        for dram in (IDEAL, HBM2E, DDR4)})
    _, d = probe.timed("backends.models", lambda: (
        GpuBackend().predict_seconds(kernel, stats),
        CpuBackend().predict_seconds(kernel, stats)))
    return ({"stats": stats, "resources": resources, "evaluate": seconds},
            a + b + c + d)


# -- compile_nocache, layer by layer ------------------------------------------


def probe_compile(probe: Probe) -> None:
    from repro import api

    requests = {k: api.CompileRequest(kernel=k, scale=spec.COMPILE_SCALE,
                                      seed=probe.seed) for k in spec.KERNELS}
    tensors = {k: api.load_dataset(r) for k, r in requests.items()}
    probe.compile_pass = lambda: [
        (api.compile(r, use_cache=False), api.evaluate(r, use_cache=False))
        for r in requests.values()]
    layered, real, source_bytes, source_loc = [], [], 0, 0
    for rep in range(3):
        total = 0.0
        for name in spec.KERNELS:
            # api.compile: build, render the source, the memory report.
            kernel, ms = layered_build(probe, name, tensors[name])
            total += ms
            _, ms = probe.timed("spatial.codegen", lambda: (
                kernel.source, kernel.spatial_loc, kernel.memory_report()))
            total += ms
            if rep == 0:
                source_bytes += len(kernel.source)
                source_loc += kernel.spatial_loc
            # api.evaluate: build again (use_cache=False), then the models.
            kernel, ms = layered_build(probe, name, tensors[name])
            total += ms + layered_model(probe, kernel)[1]
        layered.append(total)
        real.append(probe.timed("compile_nocache.pass",
                                probe.compile_pass)[1])
    m = probe.metrics
    m["kernels.build_ms"] = probe.span_median("kernels.build")
    m["core.compile_ms"] = probe.span_median("core.compile")
    m["spatial.codegen_ms"] = probe.span_median("spatial.codegen")
    m["spatial.source_bytes"] = source_bytes
    m["spatial.source_loc"] = source_loc
    m["trace.unattributed_pct.compile_nocache"] = (
        100.0 * (median(real) - median(layered)) / median(real))


# -- the engines ---------------------------------------------------------------


def sparse_nnz(kernel_name: str, kernel) -> int:
    from repro.kernels import KERNELS

    return sum(kernel.tensors[ts.name].nnz
               for ts in KERNELS[kernel_name].tensor_specs
               if ts.role == "sparse")


def scipy_call(name: str, kernel):
    """The ``scipy.sparse`` way to compute one kernel, operands prebuilt."""
    t = kernel.tensors
    if name == "SDDMM":
        mask, c, d = t["B"].to_scipy(), t["C"].to_dense(), t["D"].to_dense()
        return lambda: mask.multiply(c @ d)
    a = t["A"].to_scipy()
    if name == "DCSR-SpMM":
        b = t["B"].to_dense()
        return lambda: a @ b
    x = t["x"].to_dense()
    if name == "SpMV":
        return lambda: a @ x
    if name == "Residual":
        b = t["b"].to_dense()
        return lambda: b - a @ x
    at, z = a.T.tocsr(), t["z"].to_dense()  # MatTransMul
    alpha, beta = t["alpha"].scalar_value(), t["beta"].scalar_value()
    return lambda: alpha * (at @ x) + beta * z


def probe_exec(probe: Probe) -> None:
    from repro import api
    from repro.backends.numpy_exec import NumpyExecutor

    small = workloads.make("exec_small")
    small.setup(probe.seed)
    first, steady, construct, other = [], {}, [], {"cpu": [], "interp": []}
    fallbacks = 0
    for name, kernel in small.kernels.items():
        first.append(probe.timed("numpy_exec.first_call",
                                 lambda: kernel.run_engine("numpy"))[1])
        steady[name] = median(
            time_ms(lambda: kernel.run_engine("numpy"), small.inner[name])
            for _ in range(3))
        construct.append(time_ms(lambda: NumpyExecutor(kernel.stmt), 50))
        executor = NumpyExecutor(kernel.stmt)
        executor.run()
        fallbacks += bool(executor.fell_back)
    # The two slow evaluators run once each at a scale of their own, and
    # skip SDDMM: its rank-256 contraction costs the cpu walker 2 s even
    # there, and tens of seconds at the exec_small scale.
    for name in spec.KERNELS:
        if name == "SDDMM":
            continue
        kernel = api.build(api.CompileRequest(
            kernel=name, scale=spec.ORACLE_SCALE, seed=probe.seed))
        other["interp"].append(probe.timed(
            "interp.run", lambda: kernel.run_dense())[1])
        try:
            other["cpu"].append(probe.timed(
                "cpu_exec.run", lambda: kernel.run_engine("cpu"))[1])
        except Exception:
            # The cpu walker's documented gaps (singleton levels, CSC
            # under row-major loops) are not this benchmark's failures;
            # the geomean covers the kernels it runs.
            continue

    large = workloads.make("exec_large")
    large.setup(probe.seed)
    per_nnz, vs_scipy = [], []
    m = probe.metrics
    for name, kernel in large.kernels.items():
        kernel.run_engine("numpy")
        run = lambda: kernel.run_engine("numpy")  # noqa: E731
        if name in spec.SCIPY_KERNELS:
            reference = scipy_call(name, kernel)
            reference()
            pairs = [(time_ms(run, large.inner[name]), time_ms(reference))
                     for _ in range(3)]
            ms = median(p[0] for p in pairs)
            vs_scipy.append(ms / median(p[1] for p in pairs))
        else:
            ms = median(time_ms(run, large.inner[name]) for _ in range(3))
        m[f"backends.numpy_exec.{name}_ms"] = ms
        per_nnz.append(ms * 1e6 / sparse_nnz(name, kernel))
    probe.spmv_large_ms = m["backends.numpy_exec.SpMV_ms"]
    m["backends.numpy_exec.floor_ms"] = min(steady.values())
    m["backends.numpy_exec.construct_us"] = median(construct) * 1e3
    m["backends.numpy_exec.first_call_ms"] = geomean(first)
    m["backends.numpy_exec.ns_per_nnz"] = geomean(per_nnz)
    m["backends.numpy_exec.vs_scipy_x"] = geomean(vs_scipy)
    m["backends.numpy_exec.fallbacks"] = fallbacks
    m["backends.cpu_exec.geomean_ms"] = geomean(other["cpu"])
    m["spatial.interp.geomean_ms"] = geomean(other["interp"])


# -- sweep_cold, layer by layer --------------------------------------------------


def generate_raw(dspec, scale: float):
    """One dataset's coordinates through the public generators."""
    from repro.data import generators as gen

    dims = dspec.scaled_dims(scale)
    rng = np.random.default_rng(FIXED_SEED)
    calls = {
        "banded_symmetric": lambda: gen.banded_symmetric(
            dims[0], dspec.density, rng),
        "circuit": lambda: gen.circuit(dims[0], dspec.density, rng),
        "trefethen": lambda: gen.trefethen(dims[0], rng),
        "uniform_matrix": lambda: gen.uniform_matrix(
            dims[0], dims[1], dspec.density, rng),
        "uniform_tensor3": lambda: gen.uniform_tensor3(
            dims, dspec.density, rng),
        "hub_tensor3": lambda: gen.hub_tensor3(
            dims, dspec.nnz_estimate(scale), rng),
    }
    return dims, calls[dspec.generator]


def paper_gap(table6: dict) -> float:
    """Geomean over Table 6 cells of max(model/paper, paper/model)."""
    from repro.eval.paper_results import TABLE6_NORMALISED

    gaps = [max(model / paper, paper / model)
            for platform, by_kernel in table6.items()
            for kernel, model in by_kernel.items()
            for paper in [TABLE6_NORMALISED.get(platform, {}).get(kernel)]
            if paper and platform != "Capstan (HBM2E)"]
    return geomean(gaps)


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


def probe_sweep(probe: Probe) -> None:
    from repro import api
    from repro.data import datasets
    from repro.kernels import KERNELS
    from repro.pipeline import (Job, artifact_jobs, assemble_artifact,
                                default_cache, fingerprint_stmt, make_key,
                                run_jobs)
    from repro.pipeline.cache import get_stage, put_stage

    scale = spec.SWEEP_SCALE
    jobs = artifact_jobs("table6", scale)
    cells = [job.key[:2] for job in jobs]
    m = probe.metrics

    # The cells, layer by layer, into an empty cache.
    probe.use_cache_dir("layered")
    layered = 0.0

    def put(stage: str, parts: tuple, value) -> float:
        return probe.timed("pipeline.cache.put",
                           lambda: put_stage(stage, parts, value))[1]

    for name, dataset in cells:
        coords = (name, dataset, scale, FIXED_SEED)
        tensors, ms = probe.timed("data.load", lambda: datasets.load(
            name, dataset, scale=scale, seed=FIXED_SEED))
        layered += ms + put("dataset", ("e2e", *coords), tensors)
        kernel, ms = layered_build(probe, name, tensors)
        layered += ms
        _, ms = probe.timed("pipeline.cache.key", lambda: (
            fingerprint_stmt(kernel.stmt, name), make_key("build", *coords)))
        layered += ms
        computed, ms = layered_model(probe, kernel)
        layered += ms
        # One entry per stage, as a cold evaluate writes them.
        for stage, value in {"kernel": kernel, "build": kernel,
                             **computed}.items():
            layered += put(stage, ("e2e", *coords), value)

    # The real pass into another empty cache, then a pass warm from disk.
    real_dir = probe.use_cache_dir("real")
    results, real_ms = probe.timed(
        "sweep_cold.pass", lambda: run_jobs(jobs, max_workers=1))
    m["pipeline.cache.bytes_written"] = directory_bytes(real_dir)
    m["capstan.paper_gap_x"] = paper_gap(assemble_artifact("table6", results))
    default_cache().clear_memory()
    before = default_cache().stats.as_dict()
    run_jobs(jobs, max_workers=1)
    after = default_cache().stats.as_dict()
    hits = (after["memory_hits"] + after["disk_hits"]
            - before["memory_hits"] - before["disk_hits"])
    misses = after["misses"] - before["misses"]
    m["pipeline.cache.hit_ratio"] = hits / max(1, hits + misses)
    m["trace.unattributed_pct.sweep_cold"] = (
        100.0 * (real_ms - layered) / real_ms)

    # Cache reads of the 24 evaluate entries: from disk, then from memory.
    keys = [(api.CompileRequest(kernel=k, dataset=d, scale=scale)
             .canonical_json(),) for k, d in cells]
    default_cache().clear_memory()
    disk = [time_ms(lambda: get_stage("evaluate", key)) for key in keys]
    memory = [time_ms(lambda: get_stage("evaluate", key), 20)
              for key in keys]
    probe.rec.check(all(get_stage("evaluate", key) is not None
                        for key in keys), "an evaluate entry is missing")
    m["pipeline.cache.get_disk_ms"] = median(disk)
    m["pipeline.cache.get_mem_us"] = median(memory) * 1e3
    m["pipeline.cache.put_ms"] = probe.span_median("pipeline.cache.put")
    m["pipeline.cache.key_us"] = probe.span_median("pipeline.cache.key") * 1e3
    m["data.load_ms"] = probe.span_median("data.load")
    for name in ("capstan.stats", "capstan.resources", "capstan.simulate",
                 "backends.models"):
        m[f"{name}_ms"] = probe.span_median(name)

    # Generation and packing on their own, one kernel per dataset.
    for dspec in datasets.DATASETS:
        kernel = dspec.kernels[0]
        dims, generate = generate_raw(dspec, scale)
        (coords, vals), _ = probe.timed("data.generate", generate)
        sparse = next(ts for ts in KERNELS[kernel].tensor_specs
                      if ts.role == "sparse")
        probe.timed("tensor.pack",
                    lambda: sparse.make(dims).from_coo(coords, vals))
    m["data.generate_ms"] = probe.span_median("data.generate")
    m["tensor.pack_ms"] = probe.span_median("tensor.pack")

    # The executor: per-job overhead, and what a second worker buys cold.
    noop = [Job((i,), int) for i in range(1000)]
    m["pipeline.executor.overhead_us"] = time_ms(
        lambda: run_jobs(noop, max_workers=1)) * 1e3 / len(noop)
    probe.use_cache_dir("jobs2")
    _, jobs2_ms = probe.timed("sweep_cold.jobs2",
                              lambda: run_jobs(jobs, max_workers=2))
    m["pipeline.executor.jobs2_speedup_x"] = real_ms / jobs2_ms
    os.environ["REPRO_CACHE_DIR"] = real_dir  # warm, for the later probes
    default_cache().clear_memory()


# -- serve_mixed, layer by layer ---------------------------------------------------


def probe_serve(probe: Probe) -> None:
    from repro import api

    serve = workloads.make("serve_mixed")
    serve.setup(probe.seed)
    try:
        latencies = {"keepalive": [], "connect": []}
        started = time.perf_counter()
        conn = serve.connect()
        for _ in range(4):
            for path, body, expected in serve.hits:
                (status, got), ms = probe.timed(
                    "serve.hit_keepalive",
                    lambda: serve.post(conn, path, body))
                latencies["keepalive"].append(ms)
                probe.rec.check((status, got) == (200, expected),
                                f"keep-alive {path} answered {status}")
        conn.close()
        for path, body, expected in serve.hits:
            def connect_and_post():
                c = serve.connect()
                try:
                    return serve.post(c, path, body)
                finally:
                    c.close()

            (status, got), ms = probe.timed("serve.hit_connect",
                                            connect_and_post)
            latencies["connect"].append(ms)
            probe.rec.check((status, got) == (200, expected),
                            f"connect {path} answered {status}")
        elapsed = time.perf_counter() - started
        everything = latencies["keepalive"] + latencies["connect"]

        # The handler's own work on a hit, in-process.
        handler = {"canonical": [], "cached": [], "to_json": []}
        for path, body, _ in serve.hits:
            wire = json.dumps({**json.loads(body), "action": path[1:]})
            request = api.CompileRequest.from_json(wire).resolved()
            result = api.cached(request)
            handler["canonical"].append(time_ms(
                lambda: api.CompileRequest.from_json(wire).resolved()
                .canonical_json(), 20))
            handler["cached"].append(time_ms(
                lambda: api.cached(request), 20))
            handler["to_json"].append(time_ms(
                lambda: result.to_json().encode(), 20))
        m = probe.metrics
        for piece, samples in handler.items():
            m[f"service.api.{piece}_us"] = median(samples) * 1e3
        handler_ms = sum(median(s) for s in handler.values())
        keepalive = median(latencies["keepalive"])
        m["service.server.wire_ms"] = keepalive - handler_ms
        m["service.server.connect_ms"] = (median(latencies["connect"])
                                          - keepalive)
        m["service.server.rps"] = len(everything) / elapsed
        m["service.server.p99_ms"] = quantile(everything, 0.99)

        # One serve_mixed pass: wall time against its clients' requests.
        out: dict = {}
        _, pass_ms = probe.timed("serve_mixed.pass",
                                 lambda: serve.client(0, 0, out))
        requests_ms = (len(serve.hits) * (out["samples"]["hit_keepalive"]
                                          + out["samples"]["hit_connect"])
                       + out["samples"]["miss_evaluate"]
                       + out["samples"]["miss_compile"])
        for message in out["bad"]:
            probe.rec.fail(message)
        m["trace.unattributed_pct.serve_mixed"] = (
            100.0 * (pass_ms - requests_ms) / pass_ms)

        conn = serve.connect()
        conn.request("GET", "/stats")
        codes = json.loads(conn.getresponse().read())["serve"]["status_codes"]
        conn.close()
        m["service.server.status_other"] = sum(
            n for code, n in codes.items() if code != "200")
        probe_repro_tracer(probe, serve)
    finally:
        serve.close()


def probe_repro_tracer(probe: Probe, serve) -> None:
    """The program's own tracer: a compile pass and 26 hits, on vs off."""
    def work():
        probe.compile_pass()
        conn = serve.connect()
        for path, body, _ in serve.hits:
            serve.post(conn, path, body)
        conn.close()

    work()
    off, on = [], []
    for _ in range(3):
        off.append(time_ms(work))
        os.environ["REPRO_TRACE_DIR"] = str(scratch_dir() / "repro-trace")
        try:
            on.append(time_ms(work))
        finally:
            del os.environ["REPRO_TRACE_DIR"]
    probe.metrics["obs.repro_trace_overhead_pct"] = (
        100.0 * (median(on) / median(off) - 1.0))


# -- partition and fusion ------------------------------------------------------------


def probe_partition(probe: Probe) -> None:
    from repro import api
    from repro.convert import slice_rows, staged_matrix_storage
    from repro.pipeline import run_jobs
    from repro.pipeline.fusion import PIPELINES, run_pipeline
    from repro.pipeline.partition import (PartitionPlan, block_range,
                                          reduce_partials)

    scale, dataset = spec.PARTITION_SCALE, "bcsstk30"
    full = staged_matrix_storage(dataset, scale, FIXED_SEED, "csr")
    for index in range(4):
        lo, hi = block_range(full.dims[0], 4, index)
        probe.timed("convert.slice_rows", lambda: slice_rows(full, lo, hi))
    plan = PartitionPlan("SpMV", dataset, 4)
    results = run_jobs(plan.jobs(scale, use_cache=False), max_workers=1)
    _, reduce_ms = probe.timed(
        "partition.reduce", lambda: reduce_partials(plan.artifact, results))

    def partition(blocks: int):
        request = api.CompileRequest(kernel="SpMV", scale=scale,
                                     partition=blocks, action="partition")
        return lambda: api.partition(request, use_cache=False)

    pairs = [(time_ms(partition(4)), time_ms(partition(1)))
             for _ in range(2)]
    p4, p1 = median(p[0] for p in pairs), median(p[1] for p in pairs)
    m = probe.metrics
    m["convert.slice_rows_ms"] = probe.span_median("convert.slice_rows")
    m["pipeline.partition.cell_ms"] = median(r.seconds for r in results) * 1e3
    m["pipeline.partition.reduce_ms"] = reduce_ms
    m["pipeline.partition.p4_over_p1_x"] = p4 / p1
    m["pipeline.partition.vs_engine_x"] = p1 / probe.spmv_large_ms

    saved = []
    for name in spec.FUSE_OPS:
        for _ in range(2):
            row, _ = probe.timed("fusion.run", lambda: run_pipeline(
                name, PIPELINES[name].datasets[0], spec.FUSE_SCALE,
                probe.seed, engine="numpy", use_cache=False))
        saved.append(row["reduction_pct"])
    m["pipeline.fusion.run_ms"] = probe.span_median("fusion.run")
    m["pipeline.fusion.traffic_saved_pct"] = sum(saved) / len(saved)


# -- processes: imports, the CLI, dispatch ----------------------------------------------


def process_ms(probe: Probe, name: str, argv: list[str], reps: int) -> float:
    def once():
        done = subprocess.run([sys.executable, *argv], capture_output=True,
                              timeout=120)
        probe.rec.check(done.returncode == 0,
                        f"{argv} exited {done.returncode}")

    return median(probe.timed(name, once)[1] for _ in range(reps))


def probe_processes(probe: Probe) -> None:
    from repro.pipeline import (ShardSpec, dispatch, merge_manifests,
                                run_artifact, run_shard)

    m = probe.metrics
    m["python.startup_ms"] = process_ms(probe, "python.startup",
                                        ["-c", "pass"], 3)
    m["numpy.import_ms"] = process_ms(probe, "numpy.import",
                                      ["-c", "import numpy"], 3)
    m["repro.import_ms"] = process_ms(probe, "repro.import",
                                      ["-c", "import repro.api"], 3)
    for metric, op in (("main.tables_ms", "tables_table6"),
                       ("main.compile_ms", "compile_spmv"),
                       ("main.batch_shard_ms", "batch_shard")):
        workloads.render_in_process(spec.CLI_OPS[op])  # warms the disk cache
        m[metric] = process_ms(probe, f"cli.{op}",
                               ["-m", "repro", *spec.CLI_OPS[op]],
                               2) - m["repro.import_ms"]

    scale = spec.SWEEP_SCALE
    serial_ms = median(time_ms(lambda: run_artifact("table6", scale))
                       for _ in range(3))
    inline = [probe.timed("dispatch.inline2", lambda: dispatch(
        "table6", scale, "inline:2"))[1] for _ in range(6)]
    m["pipeline.dispatch.inline_overhead_ms"] = (sum(inline) / len(inline)
                                                 - serial_ms)
    result, local_ms = probe.timed("dispatch.local2", lambda: dispatch(
        "table6", scale, "local:2", chunks_per_worker=2))
    probe.rec.check(result.ok, "local:2 dispatch did not merge")
    m["pipeline.dispatch.local2_s"] = local_ms / 1e3
    m["pipeline.dispatch.local_chunk_ms"] = 2 * local_ms / result.chunks
    _, m["pipeline.shard.merge_ms"] = probe.timed(
        "shard.merge", lambda: merge_manifests([
            run_shard("table6", scale, ShardSpec(i, 2)) for i in (1, 2)]))


def run(seed: int) -> dict:
    probe = Probe(seed)
    reference = HostReference(spec.REFERENCE_NOMINAL_MS)
    for step in (probe_compile, probe_exec, probe_sweep, probe_serve,
                 probe_partition, probe_processes):
        reference.spin()
        probe.timed(step.__name__, lambda: step(probe))
    reference.spin()
    for kind, samples in reference.samples.items():
        probe.metrics[f"host.{kind}_ref_ms"] = median(samples)
    return {
        "metrics": probe.metrics,
        "spans": probe.tracer.spans,
        "attempted": probe.rec.attempted,
        "failures": probe.rec.failures,
    }
