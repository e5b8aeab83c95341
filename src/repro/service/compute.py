"""The request verbs' miss path: what a request computes when no staged
result answers it.

:func:`repro.service.api.execute` imports this module on a miss only, so
a cache hit (``repro.api.cached``, a warm ``compile`` / ``tables`` /
``batch``) never compiles it. :data:`~repro.service.api.ACTIONS` names
each action's compute here; :func:`load_dataset`, :func:`build`,
:func:`build_structure` and :func:`exec_check` stay public through
:mod:`repro.api` and :mod:`repro.service.api`, which export them lazily.
"""

from __future__ import annotations

import math
from typing import Any

from repro.engines import default_engine
from repro.obs import trace as _trace
from repro.service.api import CompileRequest, CompileResult, EngineMismatchError

__all__ = ["build", "build_structure", "exec_check", "load_dataset"]


def load_dataset(request: CompileRequest) -> dict:
    """The request kernel's operand tensors on its dataset, with data.

    :func:`repro.data.datasets.load` on the resolved request, for the
    verbs that read operand values (evaluate, :func:`exec_check`, the
    figure and sweep cells); a compile reads none and builds over
    :func:`repro.data.datasets.structure` instead. Only the dataset's
    generation is staged (the ``dataset`` stage, keyed by a hash of only
    the data and tensor sources and exempt from ``--no-cache``); the
    packed operands and this dict live beside it in memory, so repeated
    builds of one request get the same tensors.
    """
    from repro.data.datasets import load

    req = request.resolved()
    return load(req.kernel, req.dataset, scale=req.scale, seed=req.seed)


def build(request: CompileRequest, use_cache: bool | None = None):
    """Load the request's dataset, build its statement and compile it.

    The one data-bound build: the operands come from
    :func:`load_dataset`, whose generation survives ``--no-cache`` and
    compiler edits. The statement is rebuilt over them on every call
    (well under a millisecond) and
    :func:`~repro.core.compiler.compile_stmt` binds it to the one
    ``program`` entry of its structure, so every dataset and scale of a
    kernel shares one compile: a cold Table 6 lowers 10 programs for
    its 24 cells. No stage stores the operands: the store holds only the
    generation they are packed from. ``use_cache=False`` and
    ``REPRO_NO_CACHE=1`` lower each cell's own statement. Returns the
    :class:`~repro.core.compiler.CompiledKernel`.
    """
    req = request.resolved()
    return _compile(req, load_dataset(req), use_cache)


def build_structure(request: CompileRequest, use_cache: bool | None = None):
    """:func:`build` over data-free operands.

    The statement is built over :func:`repro.data.datasets.structure`,
    tensors with the shapes :func:`load_dataset` would give and no data,
    and compiled like :func:`build`'s: the same program, the same
    ``program`` key. No dataset is drawn, packed or stored, so it serves
    what reads only the program (the ``compile`` verb, Table 3 and 5
    rows, ``repro compile --cpu``) and nothing that reads operand values.
    """
    from repro.data.datasets import structure

    req = request.resolved()
    return _compile(req, structure(req.kernel, req.dataset, req.scale),
                    use_cache)


def _compile(req: CompileRequest, tensors: dict, use_cache: bool | None):
    """The request kernel's statement over ``tensors``, compiled."""
    from repro.core.compiler import compile_stmt
    from repro.kernels.suite import KERNELS

    with _trace.span("parse", kernel=req.kernel, dataset=req.dataset):
        stmt, _out = KERNELS[req.kernel].build(tensors)
    return compile_stmt(stmt, req.kernel, cache=use_cache)


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
    the result, on coordinates, against the Spatial interpreter
    (``CompiledKernel.run`` — the oracle: it executes the lowered
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
    from repro.tensor.storage import oracle_maxerr

    req = request.resolved()
    engine = req.engine if req.engine is not None else default_engine()

    def compute() -> dict:
        kernel = build(req, use_cache=use_cache)
        with _trace.span("interp", kernel=req.kernel, dataset=req.dataset):
            expected = kernel.run()
        if engine == "interp":
            got, fell_back = expected, False
        else:
            got, fell_back = kernel.run_engine_report(engine)
        maxerr = oracle_maxerr(
            got, expected, EngineMismatchError,
            f"{engine} engine disagrees with the interpreter oracle on "
            f"{req.kernel}/{req.dataset} (scale={req.scale})")
        return {
            "kernel": req.kernel,
            "dataset": req.dataset,
            "engine": engine,
            "maxerr": maxerr,
            "elements": math.prod(expected.shape),
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
    resources = estimate_resources_cached(kernel, use_cache)
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


def _render(req: CompileRequest, use_cache: bool | None) -> CompileResult:
    # The compiled program is shared with every other path through the
    # ``program`` stage; this only renders the wire-ready summary. What
    # it renders depends on no operand value, so it builds over the
    # data-free operands and no dataset is drawn.
    from repro.kernels.suite import KERNELS

    kernel = build_structure(req, use_cache=use_cache)
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
    # request's engine. ``run_jobs`` gets no ``max_workers``: the blocks
    # run one after another in the calling thread, as two threads were
    # no faster (2-core VM, scale 0.25: DCSR-SpMM p4 34 ms serial, 38 ms
    # on two; SpMV within noise).
    from repro.pipeline.executor import run_jobs
    from repro.pipeline.partition import PartitionPlan

    plan = PartitionPlan(req.kernel, req.dataset, req.partition, req.split)
    data = plan.assemble(run_jobs(plan.jobs(req.scale, use_cache=use_cache,
                                            engine=req.engine)))
    summary = dict(data, blocks=req.partition, text=plan.render(data))
    return CompileResult(request=req, partition=summary)
