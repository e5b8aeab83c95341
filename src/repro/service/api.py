"""The typed compile-request API: one entry point for every caller.

The CLI, the batch cells, dispatch and queue workers and the ``repro
serve`` daemon all build the same request object, key the cache on its
canonical form and compare one result type across execution paths:

* :class:`CompileRequest` — a frozen dataclass naming *what* to do
  (``action``: one of :data:`ACTIONS`) and *on what* (kernel, dataset,
  scale, seed, platform filter, execution engine). Its
  :meth:`~CompileRequest.canonical_json` form — defaults resolved, keys
  sorted, compact separators — **is** the cache-key derivation: the
  staged result entry is keyed on exactly that string, so the CLI, the
  batch runner, a dispatch worker, and the ``repro serve`` daemon all
  hit the same entry for the same request no matter how it was spelled.
* :class:`CompileResult` — the matching result dataclass with a
  deterministic :meth:`~CompileResult.to_json` rendering (sorted keys,
  no volatile fields), so a daemon response is byte-identical to a
  serial :func:`evaluate` of the same request.
* :class:`Action` — one record per request verb in :data:`ACTIONS`:
  the namespace its ``kernel`` is validated against, the optional fields
  it keeps on the wire, and its ``compute``. :func:`execute` runs any
  request through the one memoized wrapper (the result is staged under
  the action's name, keyed on the canonical JSON); :func:`evaluate` /
  :func:`compile` / :func:`pipeline` / :func:`partition` pin the action
  and call it. :func:`cached` peeks for a finished result without
  computing (the daemon's hot path). Adding a verb is one record.
* :func:`load_dataset` / :func:`build` / :func:`exec_check` — the
  stages below the verbs, each memoized on the evaluation coordinates.

The artefact orchestration (tables/figures) lives in
``pipeline/batch.py``, expressed on top of this module.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Sequence

from repro.engines import ENGINES, default_engine, oracle_maxerr
from repro.obs import trace as _trace

__all__ = [
    "ACTIONS",
    "Action",
    "BASELINE_PLATFORM",
    "CompileRequest",
    "CompileResult",
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
    "EngineMismatchError",
    "PlatformTimes",
    "build",
    "cached",
    "compile",
    "evaluate",
    "exec_check",
    "execute",
    "first_dataset",
    "load_dataset",
    "partition",
    "pipeline",
]

#: Default dataset scale; override with REPRO_SCALE (1.0 = full Table 4).
DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "0.25"))

#: Default dataset-generation seed (the Table 4 synthetic datasets).
DEFAULT_SEED = 7

#: The normalisation baseline of Table 6 / Figure 13.
BASELINE_PLATFORM = "Capstan (HBM2E)"


def first_dataset(kernel_name: str) -> str:
    """The kernel's first Table 4 dataset (used for structural artefacts)."""
    from repro.data.datasets import datasets_for

    return datasets_for(kernel_name)[0].name


class EngineMismatchError(AssertionError):
    """A functional execution engine disagreed with the interpreter oracle."""


# ---------------------------------------------------------------------------
# The request
# ---------------------------------------------------------------------------

_REQUEST_FIELDS = ("action", "kernel", "dataset", "scale", "seed",
                   "platforms", "engine", "fuse", "partition", "split")

#: The optional request fields and their defaults; an :class:`Action`
#: names the ones it keeps.
_OPTIONAL = {"platforms": None, "engine": None, "fuse": True,
             "partition": 1, "split": "row"}


@dataclasses.dataclass(frozen=True)
class CompileRequest:
    """One unit of compiler work, in canonical, wire-ready form.

    ``dataset=None`` and ``scale=None`` resolve to the kernel's first
    Table 4 dataset and :data:`DEFAULT_SCALE`; ``platforms`` restricts
    an evaluate to those platform names; ``engine`` (one of
    :data:`~repro.engines.ENGINES`) additionally executes the
    kernel functionally and validates it against the interpreter oracle.
    Two requests with the same :meth:`canonical_json` are the same work
    and share one staged-cache entry.
    """

    kernel: str
    dataset: str | None = None
    scale: float | None = None
    seed: int = DEFAULT_SEED
    platforms: tuple[str, ...] | None = None
    engine: str | None = None
    action: str = "evaluate"
    fuse: bool = True
    partition: int = 1
    split: str = "row"

    def resolved(self) -> CompileRequest:
        """Defaults filled in and every field validated.

        Raises ``ValueError`` for an unknown action, kernel, dataset, or
        engine, and for a non-positive scale. Platform names are checked
        later, against the evaluated kernel's model set (SpMV has extra
        handwritten baselines). Optional fields the action does not keep
        resolve to their defaults, so they never reach the canonical
        form: every spelling of "compile SpMV on bcsstk30" shares one
        staged entry.
        """
        action = ACTIONS.get(self.action)
        if action is None:
            raise ValueError(f"unknown action {self.action!r}; choose "
                             f"from {tuple(ACTIONS)}")
        datasets = action.datasets(self.kernel)
        dataset = datasets[0] if self.dataset is None else self.dataset
        if dataset not in datasets:
            raise ValueError(
                f"unknown dataset {dataset!r} for {self.kernel}; choose "
                f"from {list(datasets)}")
        scale = DEFAULT_SCALE if self.scale is None else float(self.scale)
        if not scale > 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}")
        platforms = self.platforms
        if platforms is not None:
            platforms = tuple(str(p) for p in platforms)
        dropped = {name: default for name, default in _OPTIONAL.items()
                   if name not in action.keeps}
        fields = {"dataset": dataset, "scale": scale, "seed": int(self.seed),
                  "platforms": platforms, "fuse": bool(self.fuse), **dropped}
        if action.finish is not None:
            fields.update(action.finish(self, dataset))
        return dataclasses.replace(self, **fields)

    def canonical(self) -> dict[str, Any]:
        """The defaults-resolved request as a plain JSON-able dict."""
        r = self.resolved()
        out = {
            "action": r.action,
            "kernel": r.kernel,
            "dataset": r.dataset,
            "scale": r.scale,
            "seed": r.seed,
            "platforms": list(r.platforms) if r.platforms is not None else None,
            "engine": r.engine,
        }
        # The later optional fields go on the wire only for the actions
        # that keep them, so the canonical form (and hence every cache
        # key) of the other actions is byte-identical to what it was
        # before each feature.
        for name in ACTIONS[r.action].keeps:
            out.setdefault(name, getattr(r, name))
        return out

    def canonical_json(self) -> str:
        """The canonical wire form — and the cache-key derivation.

        Sorted keys and compact separators make this byte-stable across
        processes; :func:`execute` keys the staged result entry on
        exactly this string.
        """
        return json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))

    @property
    def stage(self) -> str:
        """The cache stage the request's result is memoized under."""
        return self.action

    @classmethod
    def from_dict(cls, data: Any) -> CompileRequest:
        """Parse a wire dict, rejecting unknown fields (typed API)."""
        if not isinstance(data, dict):
            raise ValueError("request must be a JSON object")
        unknown = sorted(set(data) - set(_REQUEST_FIELDS))
        if unknown:
            raise ValueError(f"unknown request field(s) {unknown}; "
                             f"expected {sorted(_REQUEST_FIELDS)}")
        if "kernel" not in data or not data["kernel"]:
            raise ValueError("request needs a 'kernel'")
        platforms = data.get("platforms")
        if platforms is not None:
            if isinstance(platforms, str):
                raise ValueError("'platforms' must be a list of names")
            platforms = tuple(str(p) for p in platforms)
        scale = data.get("scale")
        seed = data.get("seed", DEFAULT_SEED)
        try:
            scale = float(scale) if scale is not None else None
            seed = int(seed)
        except (TypeError, ValueError):
            raise ValueError("'scale' must be a number and 'seed' an "
                             "integer") from None
        fuse = data.get("fuse", True)
        if not isinstance(fuse, bool):
            raise ValueError("'fuse' must be a boolean")
        partition = data.get("partition", 1)
        if isinstance(partition, bool) or not isinstance(partition, int):
            raise ValueError("'partition' must be an integer block count")
        split = data.get("split", "row")
        if not isinstance(split, str):
            raise ValueError("'split' must be a string")
        return cls(
            kernel=str(data["kernel"]),
            dataset=(str(data["dataset"])
                     if data.get("dataset") is not None else None),
            scale=scale,
            seed=seed,
            platforms=platforms,
            engine=(str(data["engine"])
                    if data.get("engine") is not None else None),
            action=str(data.get("action", "evaluate")),
            fuse=fuse,
            partition=partition,
            split=split,
        )

    @classmethod
    def from_json(cls, text: str | bytes) -> CompileRequest:
        try:
            data = json.loads(text or "{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"request is not valid JSON: {exc}") from None
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# The result
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class PlatformTimes:
    """Predicted seconds per platform for one kernel+dataset."""

    kernel: str
    dataset: str
    seconds: dict[str, float]

    def normalised(self) -> dict[str, float]:
        base = self.seconds[BASELINE_PLATFORM]
        return {p: s / base for p, s in self.seconds.items()}


@dataclasses.dataclass(frozen=True)
class CompileResult:
    """The result of one :class:`CompileRequest`, wire-ready.

    Evaluate requests fill ``seconds`` (and ``exec_summary`` when an
    engine check ran); compile requests fill ``source`` /
    ``spatial_loc`` / ``input_loc`` / ``memory_report``.
    :meth:`to_json` is deterministic — sorted keys, no timestamps — so
    any two paths that computed the same request (serial call, batch
    cell, daemon response, queue worker) render identical bytes.
    """

    request: CompileRequest
    seconds: dict[str, float] | None = None
    exec_summary: dict[str, Any] | None = None
    source: str | None = None
    spatial_loc: int | None = None
    input_loc: int | None = None
    memory_report: str | None = None
    pipeline: dict[str, Any] | None = None
    partition: dict[str, Any] | None = None

    def platform_times(self) -> PlatformTimes:
        """The evaluate payload as the harness's :class:`PlatformTimes`."""
        if self.seconds is None:
            raise ValueError(f"no platform times on a "
                             f"{self.request.action!r} result")
        return PlatformTimes(self.request.kernel, self.request.dataset,
                             dict(self.seconds))

    def to_dict(self) -> dict[str, Any]:
        return {
            "request": self.request.canonical(),
            "seconds": dict(self.seconds) if self.seconds is not None else None,
            "exec": (dict(self.exec_summary)
                     if self.exec_summary is not None else None),
            "source": self.source,
            "spatial_loc": self.spatial_loc,
            "input_loc": self.input_loc,
            "memory_report": self.memory_report,
            "pipeline": (dict(self.pipeline)
                         if self.pipeline is not None else None),
            "partition": (dict(self.partition)
                          if self.partition is not None else None),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> CompileResult:
        if not isinstance(data, dict) or "request" not in data:
            raise ValueError("not a CompileResult payload")
        return cls(
            request=CompileRequest.from_dict(data["request"]),
            seconds=data.get("seconds"),
            exec_summary=data.get("exec"),
            source=data.get("source"),
            spatial_loc=data.get("spatial_loc"),
            input_loc=data.get("input_loc"),
            memory_report=data.get("memory_report"),
            pipeline=data.get("pipeline"),
            partition=data.get("partition"),
        )


# ---------------------------------------------------------------------------
# The verbs
# ---------------------------------------------------------------------------


def load_dataset(request: CompileRequest,
                 use_cache: bool | None = None) -> dict:
    """Dataset-generation **stage**: the kernel's packed operand tensors.

    Generating and packing the synthetic Table 4 datasets dominates cold
    build time but involves no compiler code, so this stage is keyed by a
    hash of only the data/format/tensor sources and — uniquely — stays
    warm under ``--no-cache``: a forced recompile reuses the generated
    datasets while every later stage recomputes.
    """
    from repro.data.datasets import load
    from repro.pipeline.cache import memoize_stage

    req = request.resolved()
    return memoize_stage(
        "dataset", (req.kernel, req.dataset, req.scale, req.seed),
        lambda: load(req.kernel, req.dataset, scale=req.scale, seed=req.seed),
        use_cache,
    )


def build(request: CompileRequest, use_cache: bool | None = None):
    """Materialise the dataset and compile the kernel, staged.

    Two cache stages compose: ``dataset`` survives ``--no-cache`` and
    compiler edits, and the whole build is memoized under ``build`` on
    the evaluation coordinates (a warm hit skips even statement
    construction). The compile inside skips ``compile_stmt``'s ``kernel``
    stage, which would store this same kernel, operands included, twice.
    Returns the :class:`~repro.core.compiler.CompiledKernel`.
    """
    from repro.core.compiler import compile_stmt
    from repro.kernels.suite import KERNELS
    from repro.pipeline.cache import memoize_stage

    req = request.resolved()

    def compute():
        spec = KERNELS[req.kernel]
        tensors = load_dataset(req, use_cache=use_cache)
        with _trace.span("parse", kernel=req.kernel, dataset=req.dataset):
            stmt, _out = spec.build(tensors)
        return compile_stmt(stmt, req.kernel, cache=False)

    return memoize_stage(
        "build", (req.kernel, req.dataset, req.scale, req.seed),
        compute, use_cache,
    )


def _platform_models(kernel, stats, sim, resources) -> dict[str, Any]:
    """Per-platform runtime predictors (lazily evaluated thunks)."""
    from repro.backends.cpu import CpuBackend
    from repro.backends.gpu import GpuBackend
    from repro.backends.handwritten import handwritten_models
    from repro.capstan.dram import DDR4, HBM2E, IDEAL

    models = {
        "Capstan (Ideal)": lambda: sim.simulate(
            kernel, dram=IDEAL, stats=stats, resources=resources).seconds,
        "Capstan (HBM2E)": lambda: sim.simulate(
            kernel, dram=HBM2E, stats=stats, resources=resources).seconds,
        "Capstan (DDR4)": lambda: sim.simulate(
            kernel, dram=DDR4, stats=stats, resources=resources).seconds,
        "V100 GPU": lambda: GpuBackend().predict_seconds(kernel, stats),
        "128-Thread CPU": lambda: CpuBackend().predict_seconds(kernel, stats),
    }
    models.update(handwritten_models(kernel.name, stats))
    return models


def exec_check(request: CompileRequest,
               use_cache: bool | None = None) -> dict[str, Any]:
    """Functional-execution **stage**: run one cell with the request's engine.

    Executes the kernel's statement with the selected engine and checks
    the dense result against the Spatial interpreter
    (``CompiledKernel.run_dense`` — the oracle: it executes the lowered
    program and handles every format, and unlike the dense broadcast
    reference it never materializes the full iteration-space product,
    which is intractable at sweep scales for contractions like SDDMM).
    Raises :class:`EngineMismatchError` on disagreement — so an artefact
    job that embeds this check genuinely gates engine equivalence. Keyed
    by the evaluation coordinates **plus the engine name** (the ``exec``
    cache stage), so results for different engines never collide. For
    ``engine="interp"`` the check is the oracle run itself.
    """
    from repro.pipeline.cache import memoize_stage

    req = request.resolved()
    engine = req.engine if req.engine is not None else default_engine()

    def compute() -> dict:
        import numpy as np

        kernel = build(req, use_cache=use_cache)
        with _trace.span("interp", kernel=req.kernel, dataset=req.dataset):
            expected = np.asarray(kernel.run_dense(), dtype=np.float64)
        if engine == "interp":
            got, fell_back = expected, False
        else:
            got, fell_back = kernel.run_engine_report(engine)
        got = np.asarray(got, dtype=np.float64).reshape(expected.shape)
        maxerr = oracle_maxerr(
            got, expected, EngineMismatchError,
            f"{engine} engine disagrees with the interpreter oracle on "
            f"{req.kernel}/{req.dataset} (scale={req.scale})")
        return {
            "kernel": req.kernel,
            "dataset": req.dataset,
            "engine": engine,
            "maxerr": maxerr,
            "elements": int(expected.size),
            "fell_back": fell_back,
        }

    return memoize_stage(
        "exec", (req.kernel, req.dataset, req.scale, req.seed, engine),
        compute, use_cache,
    )


def _evaluate(req: CompileRequest, use_cache: bool | None) -> CompileResult:
    # A hit answers from the staged entry; only a miss loads the model.
    from repro.capstan.resources import estimate_resources_cached
    from repro.capstan.simulator import CapstanSimulator
    from repro.capstan.stats import compute_stats_cached

    summary = (exec_check(req, use_cache=use_cache)
               if req.engine is not None else None)
    coords = (req.kernel, req.dataset, req.scale, req.seed)
    kernel = build(req, use_cache=use_cache)
    stats = compute_stats_cached(kernel, coords, use_cache)
    sim = CapstanSimulator()
    resources = estimate_resources_cached(kernel, coords, use_cache)
    models = _platform_models(kernel, stats, sim, resources)
    if req.platforms is not None:
        unknown = [p for p in req.platforms if p not in models]
        if unknown:
            raise ValueError(
                f"unknown platform(s) {unknown} for {req.kernel}; "
                f"choose from {sorted(models)}"
            )
    seconds = {}
    for name, model in models.items():
        if req.platforms is not None and name not in req.platforms:
            continue
        with _trace.span("simulate", kernel=req.kernel, platform=name):
            seconds[name] = model()
    return CompileResult(request=req, seconds=seconds, exec_summary=summary)


def _compile(req: CompileRequest, use_cache: bool | None) -> CompileResult:
    # The heavyweight compilation is shared with every other path through
    # the ``build`` stage; this only renders the wire-ready summary.
    from repro.kernels.suite import KERNELS

    kernel = build(req, use_cache=use_cache)
    return CompileResult(
        request=req,
        source=kernel.source,
        spatial_loc=int(kernel.spatial_loc),
        input_loc=int(KERNELS[req.kernel].input_loc()),
        memory_report=kernel.memory_report(),
    )


def _pipeline(req: CompileRequest, use_cache: bool | None) -> CompileResult:
    from repro.pipeline.fusion import run_pipeline

    row = run_pipeline(req.kernel, req.dataset, req.scale, req.seed,
                       fuse=req.fuse, engine=req.engine or "interp",
                       use_cache=use_cache)
    return CompileResult(request=req, pipeline=row)


def _partition(req: CompileRequest, use_cache: bool | None) -> CompileResult:
    # The plan's jobs share one staged operand — staged once per request,
    # whatever ``use_cache`` — which the blocks view, the reduce counts
    # and the oracle reads; each block runs the compiled kernel on the
    # request's engine, inline on the executor's thread pool.
    from repro.pipeline.executor import run_jobs
    from repro.pipeline.partition import PartitionPlan

    plan = PartitionPlan(req.kernel, req.dataset, req.partition, req.split)
    data = plan.assemble(run_jobs(plan.jobs(req.scale, use_cache=use_cache,
                                            engine=req.engine)))
    summary = dict(data, blocks=req.partition, text=plan.render(data))
    return CompileResult(request=req, partition=summary)


def _finish_partition(req: CompileRequest, dataset: str) -> dict[str, Any]:
    from repro.pipeline.partition import PartitionPlan

    try:
        count = int(req.partition)
    except (TypeError, ValueError):
        raise ValueError("'partition' must be an integer") from None
    # The plan's constructor holds the kernel / split / block-count
    # checks (``PartitionError`` is a ``ValueError``).
    PartitionPlan(req.kernel, dataset, count, req.split)
    if int(req.seed) != DEFAULT_SEED:
        raise ValueError(
            f"partition requests run on the fixed evaluation seed "
            f"{DEFAULT_SEED}, got {req.seed}")
    # Blocks run the compiled kernel on the engine, and engines agree
    # only up to summation order, so the resolved engine is part of the
    # result's identity.
    return {"partition": count, "engine": req.engine or default_engine()}


def _kernel_datasets(kernel: str) -> Sequence[str]:
    from repro.data.datasets import datasets_for
    from repro.kernels.suite import KERNELS

    if kernel not in KERNELS:
        raise ValueError(
            f"unknown kernel {kernel!r}; choose from {sorted(KERNELS)}")
    return [d.name for d in datasets_for(kernel)]


def _pipeline_datasets(name: str) -> Sequence[str]:
    from repro.pipeline.fusion import PIPELINES

    if name not in PIPELINES:
        raise ValueError(
            f"unknown pipeline {name!r}; choose from {sorted(PIPELINES)}")
    return PIPELINES[name].datasets


@dataclasses.dataclass(frozen=True)
class Action:
    """Everything one request verb is: adding one is one record below.

    ``datasets`` validates the request's ``kernel`` in the action's
    namespace and lists the datasets it may run on (the first is the
    default). ``keeps`` names the optional request fields that are part
    of the result's identity: the rest resolve to their defaults, and
    the kept ones past ``engine`` go on the wire. ``finish`` runs the
    action's own checks on the request and its resolved dataset and
    returns the fields it resolves itself; ``compute`` turns a resolved
    request into its result on a cache miss. ``doc`` is the endpoint's
    summary.
    """

    name: str
    doc: str
    datasets: Callable[[str], Sequence[str]]
    keeps: tuple[str, ...]
    compute: Callable[[CompileRequest, bool | None], CompileResult]
    finish: Callable[[CompileRequest, str], dict[str, Any]] | None = None


#: The request verbs, by name.
ACTIONS = {record.name: record for record in (
    Action("compile", "render the kernel: source, LoC, memory report",
           _kernel_datasets, (), _compile),
    Action("evaluate", "predict per-platform runtimes (a Table 6 cell)",
           _kernel_datasets, ("platforms", "engine"), _evaluate),
    Action("pipeline", "plan and run a fused expression pipeline "
           "(`kernel` names it; FuseFlow cut report)",
           _pipeline_datasets, ("engine", "fuse"), _pipeline),
    Action("partition", "row-block one kernel into `partition` "
           "sub-kernels along `split` and reduce the partials (SpDISTAL)",
           _kernel_datasets, ("engine", "partition", "split"), _partition,
           finish=_finish_partition),
)}


def execute(request: CompileRequest,
            use_cache: bool | None = None) -> CompileResult:
    """Run one request, whatever its action (the worker entry point).

    The result is memoized under the stage named after the action, keyed
    on the request's :meth:`~CompileRequest.canonical_json` — the typed
    request *is* the cache key.
    """
    from repro.pipeline.cache import memoize_stage

    req = request.resolved()
    return memoize_stage(
        req.action, (req.canonical_json(),),
        lambda: ACTIONS[req.action].compute(req, use_cache), use_cache)


def evaluate(request: CompileRequest,
             use_cache: bool | None = None) -> CompileResult:
    """Predict runtimes on every platform for one request.

    When the request names an engine, the cell is first executed
    functionally and validated against the interpreter oracle
    (:func:`exec_check`); a disagreeing engine fails the request.
    """
    return execute(dataclasses.replace(request, action="evaluate"), use_cache)


def compile(request: CompileRequest,  # noqa: A001 - the API verb
            use_cache: bool | None = None) -> CompileResult:
    """Compile one request and render the kernel (Table 3 material):
    source text, generated and input LoC, memory report."""
    return execute(dataclasses.replace(request, action="compile"), use_cache)


def pipeline(request: CompileRequest,
             use_cache: bool | None = None) -> CompileResult:
    """Plan and run one fused expression pipeline (FuseFlow).

    The request's ``kernel`` field names the pipeline; ``fuse=False``
    forces materializing cuts at every connection (the equivalence
    baseline).
    """
    return execute(dataclasses.replace(request, action="pipeline"), use_cache)


def partition(request: CompileRequest,
              use_cache: bool | None = None) -> CompileResult:
    """Row-block one kernel into sub-kernels and reduce the partials.

    The request's ``partition`` field is the block count and ``split``
    the dimension to cut (``row`` concatenates output blocks, ``sum``
    splits the contraction and sums partials). The dispatcher offers the
    same plan over any transport as the ``partition:*`` artefact.
    """
    return execute(dataclasses.replace(request, action="partition"), use_cache)


def cached(request: CompileRequest) -> CompileResult | None:
    """Peek for a finished result without computing (the serve hot path).

    Returns ``None`` on a miss or when caching is disabled. The lookup
    is tallied in the per-stage hit/miss counters, so ``/stats`` and
    ``repro cache --json`` show daemon cache traffic per stage.
    """
    from repro.pipeline.cache import peek_stage

    req = request.resolved()
    return peek_stage(req.action, (req.canonical_json(),))
