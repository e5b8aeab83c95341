"""What the end-to-end benchmark runs and reports.

Everything a later issue may cite lives here: the seven workloads with
their why-sentences, pass counts, scales and inner repeat counts; the
end-to-end metrics with their bounds; the per-layer metrics with the
end-to-end metric each should move. ``BENCHMARK.json`` at the repo root
is :func:`benchmark_json` rendered; ``run.py --smoke`` asserts the two
agree.

Sizing (2-core VM, 2026-09-30): the driver that gates later PRs makes
158 single-workload runs inside 3420 s, so one run may take ~17 s wall
including five child set-ups; today they take 11-21 s, 15 s on average.
The pass counts below are sized for ``--seconds 10`` and scale linearly
with ``--seconds``; they are never a time-based loop.
"""

from __future__ import annotations

import dataclasses

#: Fresh child processes per workload per run; ``setup_s`` is their median.
ROUNDS = 5

#: Nominal ``--seconds``: the pass counts below are sized for it.
RUN_SECONDS = 10

#: Default ``--seed`` (the Table 4 evaluation seed).
DEFAULT_SEED = 7

#: Every op sample should last this long; faster ops repeat ``inner``
#: times per sample and divide (sub-ms samples drift 6 % between sets).
#: ``run.py`` prints how many samples fell short.
MIN_SAMPLE_MS = 5.0

#: What the host-reference spins cost on this VM when it is quiet; a
#: child whose spins run slower has its timings scaled down by the same
#: factor. Only ratios to these constants matter.
REFERENCE_NOMINAL_MS = {"python": 3.3, "numpy": 3.3, "spawn": 12.0,
                        "wakeup": 0.7}

#: Relative tolerance of the numeric references.
RTOL = 1e-8


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: Timed passes per round at ``--seconds RUN_SECONDS``.
    passes: int
    #: Untimed warm-up passes per round (their cost sits in ``setup_s``).
    warmups: int
    #: Whether the program's cache keeps its disk layer. Off wherever the
    #: workload does not need entries to outlive a process: the VM's
    #: disk is the largest noise source (README, finding a).
    disk_cache: bool
    #: One sentence on why the workload exists (quoted by later issues).
    why: str
    #: The host-reference spins the timings are drift-corrected against
    #: (``measure.HostReference``; their slowdowns are geometric-meaned):
    #: the kind of work the ops are made of, done by code that is not
    #: under test.
    reference: tuple[str, ...] = ("python", "numpy")


WORKLOADS = {w.name: w for w in (
    Workload(
        "compile_nocache", 10, 1, False,
        "Compiler front-to-back (kernels/ir/schedule/core/spatial.codegen) "
        "plus the capstan model do all the work on warm datasets; data and "
        "engines do none.",
    ),
    Workload(
        "exec_small", 8, 2, False,
        "Engine fixed overhead: 11 of 13 kernels cost 0.2-0.4 ms at scale "
        "0.05 whatever their nnz, so a per-call-floor fix shows here and "
        "not in exec_large.",
    ),
    Workload(
        "exec_large", 5, 2, False,
        "Engine throughput on the same 13 kernels at scale 0.25: a "
        "vectorisation gain that adds per-call set-up wins here and loses "
        "in exec_small.",
    ),
    Workload(
        "sweep_cold", 2, 1, False,
        "What regenerating Table 6 into an empty (in-memory) cache costs: "
        "data generation, tensor packing, cache misses, capstan stats; "
        "jobs=1 because two workers are bimodal.",
    ),
    Workload(
        "serve_mixed", 8, 1, True,
        "service.server plus cache reads with writes beside them: a "
        "hit-path shortcut that slows misses, or connection handling that "
        "only helps keep-alive, moves one op kind against another.",
    ),
    Workload(
        "cli_warm", 2, 0, True,
        "CLI subprocesses over a warm disk cache are almost all import "
        "and __main__ time; lazy imports show here and nowhere else.",
        reference=("spawn",),
    ),
    Workload(
        "partition_fuse", 2, 1, False,
        "pipeline.partition, pipeline.fusion, convert.slice_rows and the "
        "executor: rewriting partition to run the compiled kernel must "
        "not slow this.",
    ),
)}

# -- workload parameters ----------------------------------------------------

#: compile_nocache: 13 kernels x first dataset; one op = compile + evaluate.
COMPILE_SCALE = 0.02
COMPILE_INNER = 3

#: exec_small: everything at one scale; sub-ms kernels repeat per sample.
EXEC_SMALL_SCALE = 0.05
EXEC_SMALL_INNER = {"SDDMM": 1, "TTM": 2, "DCSR-SpMM": 5, "BCSR-SpMV": 7}
EXEC_SMALL_INNER_DEFAULT = 40

#: exec_large: SDDMM and TTM scale super-linearly (their dense outputs are
#: 418 MB and 813 MB at 0.25), so they stay at the small scale.
EXEC_LARGE_SCALE = 0.25
EXEC_LARGE_SCALES = {"SDDMM": 0.05, "TTM": 0.05}
EXEC_LARGE_INNER = {"Plus3": 10, "InnerProd": 10, "Plus2": 7, "SpMV": 2,
                    "MatTransMul": 2, "Residual": 2, "MTTKRP": 2,
                    "COO-SpMV": 2, "TTM": 3}

#: The traced round runs the cpu walker and the interpreter here.
ORACLE_SCALE = 0.01

#: sweep_cold: the 24 Table 6 cells into an empty cache.
SWEEP_SCALE = 0.05

#: serve_mixed: 2 closed-loop clients; per pass and client 26 keep-alive
#: hits, the same 26 with connect-per-request, and 2 misses.
SERVE_SCALE = 0.05
SERVE_CLIENTS = 2
SERVE_POOL = "inline:2"

#: cli_warm: argv after ``python -m repro``.
CLI_SCALE = 0.02
CLI_OPS = {
    "tables_table6": ["tables", "table6", "--scale", str(CLI_SCALE)],
    "compile_spmv": ["compile", "SpMV"],
    "kernels": ["kernels"],
    "batch_shard": ["batch", "table6", "--scale", str(CLI_SCALE),
                    "--shard", "1/2", "--out", "-"],
}

#: partition_fuse: (kernel, blocks) at PARTITION_SCALE; pipelines at
#: FUSE_SCALE on their first dataset with the numpy engine.
PARTITION_SCALE = 0.25
PARTITION_OPS = (("SpMV", 1), ("SpMV", 4), ("DCSR-SpMM", 4))
FUSE_SCALE = 0.05
FUSE_OPS = ("attention", "twohop", "cgstep")
FUSE_INNER = 2


# -- metrics ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end: share of the parent's median it may worsen by.
    #: Per-layer: ``None`` (no bound).
    bound: float | None = None
    #: Per-layer: which end-to-end metric it should move, on which workload.
    moves: str = ""


#: Bounds are twice the worst quartile spread seen over ten seeds on this
#: VM while it was at its noisiest (README, "How well it repeats").
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("pass_ms", "ms", "lower", 0.20),
    Metric("geomean_ms", "ms", "lower", 0.20),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: The 13 kernels, in the order every workload walks them.
KERNELS = ("SpMV", "Plus3", "SDDMM", "MatTransMul", "Residual", "TTV", "TTM",
           "MTTKRP", "InnerProd", "Plus2", "COO-SpMV", "DCSR-SpMM",
           "BCSR-SpMV")

#: Kernels with a direct ``scipy.sparse`` counterpart (``vs_scipy_x``).
SCIPY_KERNELS = ("SpMV", "MatTransMul", "Residual", "SDDMM", "DCSR-SpMM")

_IMPORT = "cli_warm geomean_ms ~1:1; every workload's setup_s"
_COMPILE = "compile_nocache geomean_ms"
_MODEL = "compile_nocache pass_ms; sweep_cold pass_ms"
_SWEEP = "sweep_cold pass_ms"
_SERVE = "serve_mixed geomean_ms"
_PART = "partition_fuse geomean_ms"
_NONE = "none"

PER_LAYER = (
    Metric("python.startup_ms", "ms", "lower", moves=_IMPORT),
    Metric("numpy.import_ms", "ms", "lower", moves=_IMPORT),
    Metric("repro.import_ms", "ms", "lower", moves=_IMPORT),
    Metric("main.tables_ms", "ms", "lower", moves="cli_warm pass_ms"),
    Metric("main.compile_ms", "ms", "lower", moves="cli_warm pass_ms"),
    Metric("main.batch_shard_ms", "ms", "lower", moves="cli_warm pass_ms"),
    Metric("kernels.build_ms", "ms", "lower", moves=_COMPILE),
    Metric("core.compile_ms", "ms", "lower",
           moves=_COMPILE + "; setup_s of exec_*"),
    Metric("spatial.codegen_ms", "ms", "lower", moves=_COMPILE),
    Metric("spatial.source_bytes", "count", "lower",
           moves="none; must not change under a perf PR"),
    Metric("spatial.source_loc", "count", "lower",
           moves="none; must not change under a perf PR"),
    Metric("capstan.stats_ms", "ms", "lower", moves=_MODEL),
    Metric("capstan.resources_ms", "ms", "lower", moves=_MODEL),
    Metric("capstan.simulate_ms", "ms", "lower", moves=_MODEL),
    Metric("backends.models_ms", "ms", "lower", moves=_MODEL),
    Metric("capstan.paper_gap_x", "x", "lower",
           moves="none; fidelity scorecard input"),
    Metric("service.api.canonical_us", "us", "lower",
           moves="serve_mixed hit_keepalive if handler share is large"),
    Metric("service.api.cached_us", "us", "lower",
           moves="serve_mixed hit_keepalive if handler share is large"),
    Metric("service.api.to_json_us", "us", "lower",
           moves="serve_mixed hit_keepalive if handler share is large"),
    Metric("service.server.wire_ms", "ms", "lower", moves=_SERVE),
    Metric("service.server.connect_ms", "ms", "lower", moves=_SERVE),
    Metric("service.server.rps", "1/s", "higher",
           moves="serve_mixed pass_ms"),
    Metric("service.server.p99_ms", "ms", "lower",
           moves="serve_mixed pass_ms"),
    Metric("service.server.status_other", "count", "lower",
           moves="serve_mixed failed"),
    Metric("data.load_ms", "ms", "lower",
           moves=_SWEEP + "; exec_large setup_s"),
    Metric("data.generate_ms", "ms", "lower",
           moves=_SWEEP + "; exec_large setup_s"),
    Metric("tensor.pack_ms", "ms", "lower",
           moves=_SWEEP + "; exec_large setup_s"),
    Metric("pipeline.cache.put_ms", "ms", "lower", moves=_SWEEP),
    Metric("pipeline.cache.get_mem_us", "us", "lower",
           moves="serve_mixed hits"),
    Metric("pipeline.cache.get_disk_ms", "ms", "lower",
           moves="cli_warm pass_ms"),
    Metric("pipeline.cache.key_us", "us", "lower", moves=_SWEEP),
    Metric("pipeline.cache.bytes_written", "count", "lower", moves=_SWEEP),
    Metric("pipeline.cache.hit_ratio", "ratio", "higher",
           moves="cli_warm pass_ms"),
    Metric("pipeline.executor.overhead_us", "us", "lower",
           moves="sweep_cold, partition_fuse pass_ms"),
    Metric("pipeline.executor.jobs2_speedup_x", "x", "higher",
           moves="none; sweep_cold runs jobs=1"),
    *(Metric(f"backends.numpy_exec.{k}_ms", "ms", "lower",
             moves="exec_large geomean_ms") for k in KERNELS),
    Metric("backends.numpy_exec.floor_ms", "ms", "lower",
           moves="exec_small geomean_ms"),
    Metric("backends.numpy_exec.construct_us", "us", "lower",
           moves="exec_small geomean_ms"),
    Metric("backends.numpy_exec.first_call_ms", "ms", "lower",
           moves="exec_* setup_s"),
    Metric("backends.numpy_exec.ns_per_nnz", "ns", "lower",
           moves="exec_large geomean_ms"),
    Metric("backends.numpy_exec.vs_scipy_x", "x", "lower",
           moves="exec_large geomean_ms"),
    Metric("backends.numpy_exec.fallbacks", "count", "lower",
           moves="none; must stay 0"),
    Metric("backends.cpu_exec.geomean_ms", "ms", "lower",
           moves="none today; the SAM refactor is judged on it"),
    Metric("spatial.interp.geomean_ms", "ms", "lower",
           moves="none today; the SAM refactor is judged on it"),
    Metric("convert.slice_rows_ms", "ms", "lower", moves=_PART),
    Metric("pipeline.partition.cell_ms", "ms", "lower", moves=_PART),
    Metric("pipeline.partition.reduce_ms", "ms", "lower", moves=_PART),
    Metric("pipeline.partition.p4_over_p1_x", "x", "lower", moves=_PART),
    Metric("pipeline.partition.vs_engine_x", "x", "lower", moves=_PART),
    Metric("pipeline.fusion.run_ms", "ms", "lower", moves=_PART),
    Metric("pipeline.fusion.traffic_saved_pct", "%", "higher",
           moves="none; exact"),
    Metric("pipeline.dispatch.local2_s", "s", "lower",
           moves="none; tracks repro.import_ms"),
    Metric("pipeline.dispatch.local_chunk_ms", "ms", "lower",
           moves="none; tracks repro.import_ms"),
    Metric("pipeline.dispatch.inline_overhead_ms", "ms", "lower",
           moves="none; inline dispatch is poll-sleep quantised"),
    Metric("pipeline.shard.merge_ms", "ms", "lower", moves=_NONE),
    Metric("obs.bench_trace_overhead_pct", "%", "lower", moves=_NONE),
    Metric("obs.repro_trace_overhead_pct", "%", "lower", moves=_NONE),
    Metric("trace.unattributed_pct.compile_nocache", "%", "lower",
           moves=_NONE),
    Metric("trace.unattributed_pct.sweep_cold", "%", "lower", moves=_NONE),
    Metric("trace.unattributed_pct.serve_mixed", "%", "lower", moves=_NONE),
    Metric("host.python_ref_ms", "ms", "lower",
           moves="none; tells VM drift from a regression"),
    Metric("host.numpy_ref_ms", "ms", "lower",
           moves="none; tells VM drift from a regression"),
    Metric("host.spawn_ref_ms", "ms", "lower",
           moves="none; tells VM drift from a regression"),
    Metric("host.wakeup_ref_ms", "ms", "lower",
           moves="none; cross-vCPU wake-ups flip between 5 and 40 us"),
)


def passes_for(workload: str, seconds: float) -> int:
    """Timed passes per round: the fixed count scaled by ``--seconds``."""
    scaled = WORKLOADS[workload].passes * seconds / RUN_SECONDS
    return max(1, round(scaled))


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
