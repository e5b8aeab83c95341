"""Tables and figures as explicit (kernel, dataset, platform) job lists.

The evaluation harness regenerates every artefact of Section 8 by fanning
out over independent combinations. This module makes that fan-out a
first-class object, and is the one place an artefact is defined: each is
one :class:`Artefact` record in :data:`ARTEFACTS` (job list, assembly,
renderer, manifest codec, default scale), and :func:`resolve_artifact`
is the only code that tells artefact names apart. :func:`run_artifact`
executes a record's job list (serially or over a worker pool) and folds
the per-job results into exactly the data structure the harness's serial
loops produce — deterministic ordering guarantees the two are
byte-identical. ``python -m repro batch`` drives this directly.
"""

from __future__ import annotations

import dataclasses
import time
from statistics import geometric_mean
from typing import Any, Callable, Iterable

from repro.pipeline.cache import memoize_stage
from repro.pipeline.executor import Job, JobResult, run_jobs
from repro.service import api

__all__ = [
    "ARTEFACTS",
    "ARTIFACT_NAMES",
    "Artefact",
    "BatchRun",
    "STRUCTURAL_SCALE",
    "UnknownArtifact",
    "artifact_jobs",
    "assemble_artifact",
    "format_artifact",
    "is_partition_artifact",
    "resolve_artifact",
    "run_artifact",
    "run_batch",
]

#: Default scale of the structural artefacts (LoC, resources): they do
#: not depend on the data, so a tiny dataset suffices to build each kernel.
STRUCTURAL_SCALE = 0.05

#: Artefact-namespace prefix of the ``partition:<kernel>:<dataset>:p<P>:
#: <mode>`` pseudo-artefacts (:mod:`repro.pipeline.partition` parses the
#: rest; telling the two kinds of name apart must not load it).
PARTITION_PREFIX = "partition:"


def is_partition_artifact(name: str) -> bool:
    """True for ``partition:<kernel>:<dataset>:p<P>:<mode>`` strings."""
    return isinstance(name, str) and name.startswith(PARTITION_PREFIX)


# ---------------------------------------------------------------------------
# Per-cell job functions
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


def _assemble_by_dataset(results: list[JobResult]) -> dict[str, dict[str, Any]]:
    out: dict[str, dict[str, Any]] = {}
    for res in results:
        kernel, dataset = res.job.key[0], res.job.key[1]
        out.setdefault(kernel, {})[dataset] = res.unwrap()
    return out


# ---------------------------------------------------------------------------
# Manifest codecs (JSON-safe, lossless for floats); plain-dict cells use
# the record's default ``dict`` codec
# ---------------------------------------------------------------------------


def _encode_times(value) -> dict:
    return {"kernel": value.kernel, "dataset": value.dataset,
            "seconds": dict(value.seconds)}


def _decode_times(payload: dict):
    return api.PlatformTimes(payload["kernel"], payload["dataset"],
                             dict(payload["seconds"]))


_RESOURCE_FIELDS = ("kernel", "par", "pcu", "pmu", "mc", "shuffle")


def _encode_resources(value) -> dict:
    return {field: getattr(value, field) for field in _RESOURCE_FIELDS}


def _decode_resources(payload: dict):
    from repro.capstan.resources import ResourceEstimate

    return ResourceEstimate(**{field: payload[field]
                               for field in _RESOURCE_FIELDS})


def _encode_series(value: dict) -> dict:
    # {bandwidth: speedup}; JSON keys are strings.
    return {str(bw): ratio for bw, ratio in value.items()}


def _decode_series(payload: dict) -> dict:
    return {int(bw) if bw.lstrip("-").isdigit() else float(bw): ratio
            for bw, ratio in payload.items()}


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


def _kernels() -> list[tuple]:
    from repro.kernels.suite import KERNEL_ORDER

    return [(kernel,) for kernel in KERNEL_ORDER]


def _with_datasets(kernels: Iterable[str]) -> list[tuple]:
    from repro.data.datasets import datasets_for

    return [(kernel, dspec.name) for kernel in kernels
            for dspec in datasets_for(kernel)]


def _kernel_datasets() -> list[tuple]:
    from repro.kernels.suite import KERNEL_ORDER

    return _with_datasets(KERNEL_ORDER)


def _format_kernel_datasets() -> list[tuple]:
    from repro.eval.harness import FORMAT_SWEEP_KERNELS

    return _with_datasets(FORMAT_SWEEP_KERNELS)


def _pipeline_datasets() -> list[tuple]:
    from repro.pipeline.fusion import PIPELINE_ORDER, PIPELINES

    return [(name, dataset) for name in PIPELINE_ORDER
            for dataset in PIPELINES[name].datasets]


def _harness(formatter: str) -> Callable[[Any], str]:
    """A paper-table formatter of ``eval/harness``, loaded when a text is
    rendered (a shard worker never renders one)."""
    def render(data) -> str:
        from repro.eval import harness

        return getattr(harness, formatter)(data)
    return render


@dataclasses.dataclass(frozen=True)
class Artefact:
    """Everything one artefact is: adding one is one record below.

    ``rows`` lists the job coordinates in canonical order, ``(kernel,)``
    or ``(kernel, dataset)``; ``cell`` computes one of them, ``tag`` is
    the platform slot of its job key. ``assemble`` folds the ordered job
    results into the artefact's data, ``render`` formats that as text,
    and ``encode`` / ``decode`` carry one job's value through a JSON
    shard manifest. :class:`repro.pipeline.partition.PartitionPlan`
    offers the same interface for ``partition:*`` names.
    """

    name: str
    cell: Callable
    tag: str
    rows: Callable[[], list[tuple]]
    assemble: Callable[[list[JobResult]], Any]
    render: Callable[[Any], str]
    #: Structural artefacts default to :data:`STRUCTURAL_SCALE`.
    structural: bool = False
    #: Whether ``engine`` reaches the cells (they run kernels functionally).
    uses_engine: bool = False
    encode: Callable[[Any], Any] = dict
    decode: Callable[[Any], Any] = dict

    #: Queue task-file prefix of a sweep's chunks (a plan's are ``part``).
    task_prefix = "chunk"

    @property
    def default_scale(self) -> float:
        return STRUCTURAL_SCALE if self.structural else api.DEFAULT_SCALE

    def jobs(self, scale: float, use_cache: bool | None = None,
             engine: str | None = None) -> list[Job]:
        """The job list. Job **keys** never include the engine, so shard
        manifests stay engine-agnostic and merge across engines."""
        kwargs = {"use_cache": use_cache}
        # Leave the kwarg out entirely when unset, so engine-less runs
        # call the cells exactly as they always did.
        if self.uses_engine and engine is not None:
            kwargs["engine"] = engine
        # Key: (kernel, dataset or "-", tag).
        return [Job((*coords, "-")[:2] + (self.tag,), self.cell,
                    (*coords, scale), dict(kwargs))
                for coords in self.rows()]


#: Artefacts the batch runner can regenerate, in regeneration order.
ARTEFACTS = {record.name: record for record in (
    Artefact("table3", table3_cell, "loc", _kernels,
             _assemble_by_kernel, _harness("format_table3"),
             structural=True),
    Artefact("table5", table5_cell, "capstan-resources", _kernels,
             _assemble_by_kernel, _harness("format_table5"),
             structural=True, encode=_encode_resources,
             decode=_decode_resources),
    Artefact("table6", evaluate_cell, "*", _kernel_datasets,
             _assemble_table6, _harness("format_table6"), uses_engine=True,
             encode=_encode_times, decode=_decode_times),
    Artefact("figure12", figure12_cell, "bandwidth-sweep", _kernels,
             _assemble_by_kernel, _harness("format_figure12"),
             encode=_encode_series, decode=_decode_series),
    Artefact("format_sweep", format_sweep_cell, "format",
             _format_kernel_datasets, _assemble_by_dataset,
             _harness("format_format_sweep"), uses_engine=True),
    Artefact("pipeline_sweep", pipeline_sweep_cell, "fusion",
             _pipeline_datasets, _assemble_by_dataset,
             _harness("format_pipeline_sweep"), uses_engine=True),
)}

ARTIFACT_NAMES = tuple(ARTEFACTS)


class UnknownArtifact(KeyError):
    """No artefact goes by this name (or its partition plan is invalid)."""

    def __init__(self, name, reason: str | None = None) -> None:
        super().__init__(reason or (
            f"unknown artefact {name!r}; choose from "
            f"{', '.join(ARTIFACT_NAMES)} or a partition:* plan "
            f"({PARTITION_PREFIX}<kernel>:<dataset>:p<P>:<mode>)"))

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


def resolve_artifact(name: str):
    """The record behind an artefact name: the only place names are told
    apart. A registry hit, or a ``partition:*`` name parsed into its
    :class:`~repro.pipeline.partition.PartitionPlan` (same interface);
    anything else raises :class:`UnknownArtifact`."""
    record = ARTEFACTS.get(name) if isinstance(name, str) else None
    if record is not None:
        return record
    if not is_partition_artifact(name):
        raise UnknownArtifact(name)
    from repro.pipeline.partition import PartitionError, parse_partition

    try:
        return parse_partition(name)
    except PartitionError as exc:
        raise UnknownArtifact(name, str(exc)) from None


def artifact_jobs(artifact: str, scale: float,
                  use_cache: bool | None = None,
                  engine: str | None = None) -> list[Job]:
    """The (kernel, dataset, platform) job list for one artefact."""
    return resolve_artifact(artifact).jobs(scale, use_cache, engine)


def assemble_artifact(artifact: str, results: list[JobResult]):
    """Fold ordered job results into the artefact's data structure."""
    return resolve_artifact(artifact).assemble(results)


def format_artifact(artifact: str, data) -> str:
    """Render an artefact's data as its text."""
    return resolve_artifact(artifact).render(data)


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
    engine: str | None = None,
):
    """Regenerate one artefact through the pipeline.

    Returns the same data structure the harness's serial loop produces.
    Raises ``RuntimeError`` (with the captured traceback) if any job
    failed.
    """
    record = resolve_artifact(artifact)
    return record.assemble(run_jobs(record.jobs(scale, use_cache, engine),
                                    max_workers=jobs))


def run_batch(
    artifacts: list[str],
    scale: float | None,
    jobs: int | None = None,
    use_cache: bool | None = None,
    engine: str | None = None,
) -> BatchRun:
    """Regenerate several artefacts, isolating failures per job.

    ``scale=None`` runs each artefact at its record's default scale.
    Artefacts whose jobs all succeeded are assembled and formatted;
    artefacts with failed jobs are reported in :attr:`BatchRun.failures`
    and omitted from :attr:`BatchRun.artifacts`.
    """
    start = time.perf_counter()
    all_results: dict[str, list[JobResult]] = {}
    assembled: dict[str, Any] = {}
    texts: dict[str, str] = {}
    for artifact in artifacts:
        record = resolve_artifact(artifact)
        at = record.default_scale if scale is None else scale
        results = run_jobs(record.jobs(at, use_cache, engine),
                           max_workers=jobs)
        all_results[artifact] = results
        if all(res.ok for res in results):
            assembled[artifact] = record.assemble(results)
            texts[artifact] = record.render(assembled[artifact])
    return BatchRun(assembled, texts, all_results,
                    time.perf_counter() - start)
