"""Tables and figures as explicit (kernel, dataset, platform) job lists.

The evaluation harness regenerates every artefact of Section 8 by fanning
out over independent combinations. This module makes that fan-out a
first-class object: :func:`artifact_jobs` returns the job list for one
artefact, :func:`run_artifact` executes it (serially or over a worker
pool) and folds the per-job results into exactly the data structure the
harness's serial loops produce — deterministic ordering guarantees the
two are byte-identical. ``python -m repro batch`` drives this directly.
"""

from __future__ import annotations

import dataclasses
import time
from statistics import geometric_mean
from typing import Any

from repro.pipeline.cache import cache_enabled, memoize_stage, put_stage
from repro.pipeline.executor import Job, JobResult, run_jobs

__all__ = [
    "ARTIFACT_NAMES",
    "BatchRun",
    "COST_STAGE",
    "artifact_jobs",
    "assemble_artifact",
    "cost_key",
    "format_artifact",
    "is_partition_artifact",
    "record_cost",
    "record_result_costs",
    "run_artifact",
    "run_batch",
]

#: Artefacts the batch runner can regenerate.
ARTIFACT_NAMES = ("table3", "table5", "table6", "figure12", "format_sweep",
                  "pipeline_sweep")

#: Artefact-namespace prefix of the ``partition:<kernel>:<dataset>:p<P>:
#: <mode>`` pseudo-artefacts (:mod:`repro.pipeline.partition` parses the
#: rest; telling the two kinds of name apart must not load it).
PARTITION_PREFIX = "partition:"


def is_partition_artifact(name: str) -> bool:
    """True for ``partition:<kernel>:<dataset>:p<P>:<mode>`` strings."""
    return isinstance(name, str) and name.startswith(PARTITION_PREFIX)


# ---------------------------------------------------------------------------
# Per-cell job functions (top-level, so process pools can pickle them)
# ---------------------------------------------------------------------------


def evaluate_cell(kernel_name: str, dataset_name: str, scale: float,
                  use_cache: bool | None = None,
                  engine: str | None = None):
    """One Table 6 cell: all-platform times for one kernel+dataset.

    When ``engine`` is set, the cell first executes the kernel
    functionally with that engine and validates the result against the
    interpreter oracle (:func:`repro.service.api.exec_check`); a
    disagreeing engine fails the job, so engine-selected artefact runs
    genuinely gate execution equivalence. The simulator-predicted times
    themselves are engine-invariant: the request keyed *with* the engine
    carries the check, the engine-less request carries the times, so
    shard manifests stay byte-identical across engines.
    """
    from repro.service import api

    if engine is not None:
        api.exec_check(
            api.CompileRequest(kernel=kernel_name, dataset=dataset_name,
                               scale=scale, engine=engine),
            use_cache=use_cache,
        )
    result = api.evaluate(
        api.CompileRequest(kernel=kernel_name, dataset=dataset_name,
                           scale=scale),
        use_cache=use_cache,
    )
    return result.platform_times()


def table5_cell(kernel_name: str, scale: float,
                use_cache: bool | None = None):
    """One Table 5 row: the resource estimate for one compiled kernel.

    Memoized under the ``resources`` stage with the same coordinate key
    the Table 6 simulations use, so whichever shard computes a kernel's
    estimate first serves every other artefact that needs it.
    """
    from repro.capstan.resources import estimate_resources
    from repro.service import api

    dataset = api.first_dataset(kernel_name)

    def compute():
        kernel = api.build(
            api.CompileRequest(kernel=kernel_name, dataset=dataset,
                               scale=scale),
            use_cache=use_cache,
        )
        return estimate_resources(kernel)

    return memoize_stage("resources", (kernel_name, dataset, scale, 7),
                         compute, use_cache)


def table3_cell(kernel_name: str, scale: float,
                use_cache: bool | None = None):
    """One Table 3 row: input vs generated lines of code."""
    from repro.eval import paper_results
    from repro.service import api

    def compute():
        # The compile-action request renders exactly this cell's data
        # (and shares its staged entry with `repro compile` and the
        # daemon's /compile endpoint).
        result = api.compile(
            api.CompileRequest(kernel=kernel_name, scale=scale,
                               action="compile"),
            use_cache=use_cache,
        )
        paper_in, paper_sp = paper_results.TABLE3_LOC[kernel_name]
        return {
            "input_loc": result.input_loc,
            "spatial_loc": result.spatial_loc,
            "paper_input_loc": paper_in,
            "paper_spatial_loc": paper_sp,
        }

    return memoize_stage("table3", (kernel_name, scale), compute, use_cache)


def figure12_cell(kernel_name: str, scale: float,
                  use_cache: bool | None = None):
    """One Figure 12 series: the bandwidth sweep for one kernel."""
    from repro.capstan.simulator import CapstanSimulator
    from repro.capstan.stats import compute_stats_cached
    from repro.eval.paper_results import FIG12_BANDWIDTHS
    from repro.service import api

    dataset = api.first_dataset(kernel_name)

    def compute():
        kernel = api.build(
            api.CompileRequest(kernel=kernel_name, dataset=dataset,
                               scale=scale),
            use_cache=use_cache,
        )
        # Shares the per-cell stats entry with the Table 6 simulations.
        stats = compute_stats_cached(kernel, (kernel_name, dataset, scale, 7),
                                     use_cache)
        sweep = CapstanSimulator().sweep_bandwidth(
            kernel, None, FIG12_BANDWIDTHS, stats
        )
        base = sweep[FIG12_BANDWIDTHS[0]].seconds
        return {bw: base / res.seconds for bw, res in sweep.items()}

    return memoize_stage("figure12", (kernel_name, scale), compute, use_cache)


def format_sweep_cell(kernel_name: str, dataset_name: str, scale: float,
                      use_cache: bool | None = None,
                      engine: str | None = None):
    """One format-sweep cell: per-format cost of a kernel on one dataset.

    The kernel's sparse operand is staged once per (dataset, format) by
    the conversion compiler (``repro.convert``), so every cell sharing a
    dataset reuses the same generated matrix and every cell sharing a
    format reuses the converted storage. ``engine`` adds the same
    functional equivalence check as :func:`evaluate_cell`.
    """
    from repro.capstan.dram import HBM2E
    from repro.capstan.resources import estimate_resources_cached
    from repro.capstan.simulator import CapstanSimulator
    from repro.capstan.stats import compute_stats_cached
    from repro.service import api

    if engine is not None:
        api.exec_check(
            api.CompileRequest(kernel=kernel_name, dataset=dataset_name,
                               scale=scale, engine=engine),
            use_cache=use_cache,
        )

    def compute():
        coords = (kernel_name, dataset_name, scale, 7)
        kernel = api.build(
            api.CompileRequest(kernel=kernel_name, dataset=dataset_name,
                               scale=scale),
            use_cache=use_cache,
        )
        stats = compute_stats_cached(kernel, coords, use_cache)
        resources = estimate_resources_cached(kernel, coords, use_cache)
        seconds = CapstanSimulator().simulate(
            kernel, dram=HBM2E, stats=stats, resources=resources
        ).seconds
        storage = kernel.tensors["A"].storage
        return {
            "format": str(kernel.tensors["A"].format),
            "nnz": int(storage.nnz),
            "storage_bytes": int(storage.bytes_total()),
            "spatial_loc": int(kernel.spatial_loc),
            "pcu": int(resources.pcu),
            "pmu": int(resources.pmu),
            "dram_bytes": int(stats.dram_total_bytes),
            "seconds": float(seconds),
        }

    return memoize_stage("format_sweep", (kernel_name, dataset_name, scale, 7),
                         compute, use_cache)


def pipeline_sweep_cell(pipeline_name: str, dataset_name: str, scale: float,
                        use_cache: bool | None = None,
                        engine: str | None = None):
    """One pipeline-sweep cell: the fused-vs-unfused report for one
    pipeline on one dataset.

    The row itself is computed with the interpreter oracle, so shard
    manifests stay engine-agnostic (the discipline :func:`evaluate_cell`
    set). ``engine`` adds a separate engine-keyed run whose every stage is
    validated cell-by-cell against the oracle inside
    :func:`repro.pipeline.fusion.run_pipeline`.
    """
    from repro.pipeline.fusion import run_pipeline

    if engine is not None and engine != "interp":
        memoize_stage(
            "pipeline", (pipeline_name, dataset_name, scale, 7, engine),
            lambda: run_pipeline(pipeline_name, dataset_name, scale, seed=7,
                                 fuse=True, engine=engine,
                                 use_cache=use_cache)["checksum"],
            use_cache,
        )

    def compute():
        return run_pipeline(pipeline_name, dataset_name, scale, seed=7,
                            fuse=True, engine="interp", use_cache=use_cache)

    return memoize_stage("pipeline", (pipeline_name, dataset_name, scale, 7),
                         compute, use_cache)


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def artifact_jobs(artifact: str, scale: float,
                  use_cache: bool | None = None,
                  engine: str | None = None) -> list[Job]:
    """The (kernel, dataset, platform) job list for one artefact.

    ``engine`` only affects the cells that execute kernels functionally
    (``table6`` and ``format_sweep``); job **keys** never include it, so
    shard manifests stay engine-agnostic and merge across engines.
    """
    from repro.data.datasets import datasets_for
    from repro.kernels.suite import KERNEL_ORDER

    if is_partition_artifact(artifact):
        # Partition pseudo-artifacts expand to one job per row block; the
        # plan string carries the kernel/dataset/count/mode coordinates.
        from repro.pipeline.partition import parse_partition

        return parse_partition(artifact).jobs(scale, use_cache=use_cache,
                                              engine=engine)
    kwargs = {"use_cache": use_cache}
    # Leave the kwarg out entirely when unset, so engine-less runs call
    # the cells exactly as they always did.
    exec_kwargs = dict(kwargs, engine=engine) if engine is not None else kwargs
    if artifact == "table6":
        return [
            Job((kernel, dspec.name, "*"), evaluate_cell,
                (kernel, dspec.name, scale), dict(exec_kwargs))
            for kernel in KERNEL_ORDER
            for dspec in datasets_for(kernel)
        ]
    if artifact == "table5":
        return [Job((kernel, "-", "capstan-resources"), table5_cell,
                    (kernel, scale), dict(kwargs))
                for kernel in KERNEL_ORDER]
    if artifact == "table3":
        return [Job((kernel, "-", "loc"), table3_cell,
                    (kernel, scale), dict(kwargs))
                for kernel in KERNEL_ORDER]
    if artifact == "figure12":
        return [Job((kernel, "-", "bandwidth-sweep"), figure12_cell,
                    (kernel, scale), dict(kwargs))
                for kernel in KERNEL_ORDER]
    if artifact == "format_sweep":
        from repro.eval.harness import FORMAT_SWEEP_KERNELS

        return [
            Job((kernel, dspec.name, "format"), format_sweep_cell,
                (kernel, dspec.name, scale), dict(exec_kwargs))
            for kernel in FORMAT_SWEEP_KERNELS
            for dspec in datasets_for(kernel)
        ]
    if artifact == "pipeline_sweep":
        from repro.pipeline.fusion import PIPELINES, PIPELINE_ORDER

        return [
            Job((name, dataset, "fusion"), pipeline_sweep_cell,
                (name, dataset, scale), dict(exec_kwargs))
            for name in PIPELINE_ORDER
            for dataset in PIPELINES[name].datasets
        ]
    raise KeyError(
        f"unknown artefact {artifact!r}; choose from {ARTIFACT_NAMES}"
    )


# ---------------------------------------------------------------------------
# Assembly: fold ordered job results into the harness data structures
# ---------------------------------------------------------------------------


def _assemble_table6(results: list[JobResult]) -> dict[str, dict[str, float]]:
    from repro.kernels.suite import KERNEL_ORDER

    ratios_by_kernel: dict[str, dict[str, list[float]]] = {}
    for res in results:
        times = res.unwrap()
        ratios = ratios_by_kernel.setdefault(times.kernel, {})
        for platform, value in times.normalised().items():
            ratios.setdefault(platform, []).append(value)
    per_platform: dict[str, dict[str, float]] = {}
    for kernel in KERNEL_ORDER:
        for platform, values in ratios_by_kernel.get(kernel, {}).items():
            per_platform.setdefault(platform, {})[kernel] = (
                geometric_mean(values)
            )
    return per_platform


def _assemble_by_kernel(results: list[JobResult]) -> dict[str, Any]:
    return {res.job.key[0]: res.unwrap() for res in results}


def _assemble_format_sweep(results: list[JobResult]) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for res in results:
        kernel, dataset = res.job.key[0], res.job.key[1]
        out.setdefault(kernel, {})[dataset] = res.unwrap()
    return out


def assemble_artifact(artifact: str, results: list[JobResult]):
    """Fold ordered job results into the artefact's data structure."""
    if is_partition_artifact(artifact):
        from repro.pipeline.partition import reduce_partials

        return reduce_partials(artifact, results)
    if artifact == "table6":
        return _assemble_table6(results)
    if artifact in ("format_sweep", "pipeline_sweep"):
        return _assemble_format_sweep(results)
    return _assemble_by_kernel(results)


def format_artifact(artifact: str, data) -> str:
    """Render an artefact with the harness's formatter."""
    if is_partition_artifact(artifact):
        from repro.pipeline.partition import format_partition

        return format_partition(data)
    from repro.eval import harness

    formatter = {
        "table3": harness.format_table3,
        "table5": harness.format_table5,
        "table6": harness.format_table6,
        "figure12": harness.format_figure12,
        "format_sweep": harness.format_format_sweep,
        "pipeline_sweep": harness.format_pipeline_sweep,
    }[artifact]
    return formatter(data)


#: The staged-cache stage observed job wall times are recorded under: the
#: persistent cost table :mod:`repro.pipeline.steal` plans chunks from.
COST_STAGE = "cost"


def cost_key(artifact: str, scale: float, key: tuple) -> tuple:
    """The ``cost``-stage key parts of one job's observed wall time."""
    # repr(scale) round-trips the float exactly (the same trick the
    # worker command line uses), so dispatcher and workers agree on keys.
    return (artifact, repr(scale), tuple(key))


def record_cost(artifact: str, scale: float, key: tuple,
                seconds: float) -> None:
    """Record one observed job wall time (latest observation wins)."""
    put_stage(COST_STAGE, cost_key(artifact, scale, key), float(seconds))


def record_result_costs(artifact: str, scale: float,
                        results: list[JobResult]) -> int:
    """Record each successful job's observed wall time in the cost table.

    Every run that executes an artefact's jobs — serial ``tables``, a
    ``batch`` invocation, a shard worker — feeds the work-stealing
    planner's persistent cost model (:mod:`repro.pipeline.steal`), so a
    later ``dispatch --steal`` plans from warm data no matter how the
    sweep was last executed. Returns the number of entries written
    (zero when caching is disabled).
    """
    if not cache_enabled():
        return 0
    recorded = 0
    for res in results:
        if res.ok:
            record_cost(artifact, scale, res.job.key, res.seconds)
            recorded += 1
    return recorded


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class BatchRun:
    """Outcome of one batch invocation (artefacts + execution report)."""

    artifacts: dict[str, Any]
    texts: dict[str, str]
    results: dict[str, list[JobResult]]
    seconds: float

    @property
    def jobs(self) -> int:
        return sum(len(r) for r in self.results.values())

    @property
    def failures(self) -> list[JobResult]:
        return [res for rs in self.results.values() for res in rs if not res.ok]

    def summary(self) -> str:
        failed = len(self.failures)
        status = "ok" if not failed else f"{failed} FAILED"
        return (f"batch: {self.jobs} jobs across "
                f"{len(self.results)} artefact(s) in {self.seconds:.2f}s "
                f"[{status}]")


def run_artifact(
    artifact: str,
    scale: float,
    jobs: int | None = None,
    use_cache: bool | None = None,
    kind: str = "thread",
    engine: str | None = None,
):
    """Regenerate one artefact through the pipeline.

    Returns the same data structure the harness's serial loop produces.
    Raises ``RuntimeError`` (with the captured traceback) if any job
    failed.
    """
    results = run_jobs(artifact_jobs(artifact, scale, use_cache, engine),
                       max_workers=jobs, kind=kind)
    record_result_costs(artifact, scale, results)
    return assemble_artifact(artifact, results)


def run_batch(
    artifacts: list[str],
    scale: float,
    jobs: int | None = None,
    use_cache: bool | None = None,
    kind: str = "thread",
    engine: str | None = None,
) -> BatchRun:
    """Regenerate several artefacts, isolating failures per job.

    Artefacts whose jobs all succeeded are assembled and formatted;
    artefacts with failed jobs are reported in :attr:`BatchRun.failures`
    and omitted from :attr:`BatchRun.artifacts`.
    """
    start = time.perf_counter()
    all_results: dict[str, list[JobResult]] = {}
    assembled: dict[str, Any] = {}
    texts: dict[str, str] = {}
    for artifact in artifacts:
        results = run_jobs(artifact_jobs(artifact, scale, use_cache, engine),
                           max_workers=jobs, kind=kind)
        record_result_costs(artifact, scale, results)
        all_results[artifact] = results
        if all(res.ok for res in results):
            data = assemble_artifact(artifact, results)
            assembled[artifact] = data
            texts[artifact] = format_artifact(artifact, data)
    return BatchRun(assembled, texts, all_results,
                    time.perf_counter() - start)
