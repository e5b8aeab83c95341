"""The Stardust compiler facade.

Combines the whole pipeline of Figure 1: a scheduled statement (tensor
algebra expression + formats + schedule) is analysed, memory-planned,
lowered through the co-iteration rewrite system to Spatial, and packaged
as a :class:`CompiledKernel` that can render source text (Figure 11),
execute functionally, or be handed to the Capstan simulator.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.core.lowering import Lowerer
from repro.engines import (  # noqa: F401 - re-exported
    DEFAULT_ENGINE,
    ENGINES,
    default_engine,
)
from repro import settings
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.core.memory_analysis import KernelAnalysis, MemoryPlan
from repro.core.runner import run_program
from repro.immutable import immutable
from repro.ir.cin import SplitDown, SplitUp
from repro.schedule.stmt import IndexStmt
from repro.spatial import codegen
from repro.spatial.ir import SpatialProgram
from repro.tensor.storage import TensorStorage, to_dense
from repro.tensor.tensor import Tensor


@immutable
class KernelProgram:
    """The data-free half of a compilation: what a structure lowers to.

    The Spatial program leaves every dimension and nnz as a host-bound
    symbol, so it depends on the statement's structure (expression,
    formats, schedule) and not on its operands: one program serves every
    dataset and scale. ``analysis`` and ``plan`` describe the statement it
    was lowered from; their tensors are that statement's, so a reader of
    operand data resolves tensors by name through
    :attr:`CompiledKernel.tensors` instead. ``key`` is the ``program``
    stage key (:func:`~repro.pipeline.cache.fingerprint_program`) it was
    stored under, fixed at construction; ``None`` when it was lowered
    outside that stage.
    """

    name: str
    program: SpatialProgram
    analysis: KernelAnalysis
    plan: MemoryPlan
    key: str | None = None

    @functools.cached_property
    def source(self) -> str:
        """Generated Spatial source text (Figure 11 style)."""
        with _trace.span("codegen", kernel=self.name):
            return codegen.generate(self.program)

    @functools.cached_property
    def spatial_loc(self) -> int:
        """Lines of generated Spatial (the Table 3 metric)."""
        return codegen.count_loc(self.source)

    @functools.cached_property
    def notes(self) -> tuple[str, ...]:
        """Lowering notes: the memory report, then each forall's
        rewrite-rule trace, derived on first read."""
        notes = self.plan.report().splitlines()
        for info in self.analysis.foralls:
            notes.extend(f"  {t}" for t in info.strategy.trace)
        return tuple(notes)


@dataclasses.dataclass
class CompiledKernel:
    """A Stardust compilation result: a program bound to one statement.

    ``compiled`` may be shared by every kernel whose statement has the
    same structure (the ``program`` stage); ``stmt`` is this kernel's own
    statement, whose tensors hold its operand data.
    """

    stmt: IndexStmt
    compiled: KernelProgram

    @property
    def name(self) -> str:
        return self.compiled.name

    @property
    def program(self) -> SpatialProgram:
        return self.compiled.program

    @property
    def analysis(self) -> KernelAnalysis:
        return self.compiled.analysis

    @property
    def plan(self) -> MemoryPlan:
        return self.compiled.plan

    @property
    def source(self) -> str:
        """Generated Spatial source text (Figure 11 style)."""
        return self.compiled.source

    @property
    def spatial_loc(self) -> int:
        """Lines of generated Spatial (the Table 3 metric)."""
        return self.compiled.spatial_loc

    @property
    def notes(self) -> tuple[str, ...]:
        """Lowering notes: the memory report, then each forall's
        rewrite-rule trace."""
        return self.compiled.notes

    @functools.cached_property
    def tensors(self) -> dict[str, Tensor]:
        """This kernel's tensors by name: output, inputs and workspaces."""
        return {t.name: t for t in self.stmt.cin.tensors()}

    @property
    def output(self) -> Tensor:
        """This kernel's output tensor."""
        return self.tensors[self.analysis.output.name]

    def run(self, **overrides: Tensor) -> TensorStorage:
        """Execute the kernel functionally on the bound tensor data.

        Keyword arguments replace input tensors by name; a replacement
        must have the same shape and format as the tensor it replaces
        (``ValueError`` otherwise).
        """
        tensors = dict(self.tensors)
        for name, t in overrides.items():
            bound = tensors.get(name)
            if bound is None:
                raise KeyError(f"kernel has no tensor named {name!r}")
            if t.format != bound.format:
                raise ValueError(
                    f"override {name!r} has format {t.format}; the kernel "
                    f"was compiled for {bound.format}")
            if t.shape != bound.shape:
                raise ValueError(
                    f"override {name!r} has shape {t.shape}; the kernel "
                    f"is bound to {bound.shape}")
            tensors[name] = t
        self._refuse_ragged_splits()
        return run_program(self.program, tensors, self.analysis.output.name)

    def _refuse_ragged_splits(self) -> None:
        """The Spatial IR has no conditional, so a lowered split has no tail
        guard: a factor that does not divide its extent would run off the
        arrays. Refuse it before the interpreter runs."""
        prov = self.analysis.provenance
        dim_of = {id(v): self.tensors[acc.tensor.name].shape[mode]
                  for asg in self.analysis.assignments
                  for acc in (asg.lhs, *asg.rhs.accesses())
                  for mode, v in enumerate(acc.indices)}
        for rel in prov.relations:
            if (isinstance(rel, (SplitUp, SplitDown)) and
                    (extent := prov.trip_count(rel.parent, dim_of)) % rel.factor):
                raise ValueError(
                    f"{rel} does not divide the extent {extent} of "
                    f"{rel.parent}: the lowered program has no tail guard")

    def run_dense(self, **overrides: Tensor) -> np.ndarray:
        """Execute and densify the result (convenience for tests)."""
        return to_dense(self.run(**overrides))

    def run_engine(self, engine: str | None = None,
                   strict: bool = False) -> TensorStorage:
        """Execute functionally with the selected engine.

        ``engine`` is one of :data:`ENGINES` (``None`` asks
        :func:`default_engine`). Every engine returns the result as a
        :class:`TensorStorage` in the output tensor's declared format, a
        level writer's output: no engine builds a dense buffer for a
        compressed result, and ``np.asarray`` densifies on request. They
        agree up to floating-point summation order, with ``interp`` as
        the oracle. ``strict`` makes a ``numpy``-engine fallback to the
        ``cpu`` walker raise
        :class:`~repro.backends.numpy_exec.VectorizeFallback` instead.
        """
        return self.run_engine_report(engine, strict)[0]

    def run_engine_report(self, engine: str | None = None,
                          strict: bool = False) -> tuple[TensorStorage, bool]:
        """:meth:`run_engine`, plus whether the engine fell back.

        The one place a kernel's ``numpy`` run is observed: its ``exec``
        span carries ``fell_back``, ``plan`` (``built`` / ``reused`` /
        ``fallback``), when this run built the plan ``plan_ms``, and,
        unless it fell back, ``pieces`` and ``threads`` (how its blocks
        spread over the CPUs);
        ``repro_engine_fallbacks_total`` and ``repro_exec_plans_total``
        count the same. The span is built only while tracing is on (one
        dict probe per run tells, :mod:`repro.settings`), and the plans
        counter is bound once per outcome.
        """
        engine = default_engine() if engine is None else engine
        if engine == "interp":
            with _trace.span("interp", kernel=self.name):
                return self.run(), False
        if engine == "cpu":
            from repro.backends.cpu_exec import CpuExecutor

            with _trace.span("exec", kernel=self.name, engine="cpu"):
                return CpuExecutor(self.stmt).run(), False
        if engine == "numpy":
            run_plan, spread, plans, fallbacks = _numpy_engine()
            if not _tracing():  # no span to build or fill in
                result, state, plan_ms = run_plan(self.stmt.assignment, strict)
            else:
                with _trace.span("exec", kernel=self.compiled.name,
                                 engine="numpy") as sp:
                    result, state, plan_ms = run_plan(self.stmt.assignment,
                                                      strict)
                    sp.set(fell_back=state == "fallback", plan=state)
                    if plan_ms is not None:
                        sp.set(plan_ms=plan_ms)
                    if state != "fallback":
                        sp.set(**spread(self.stmt.assignment))
            plans[state].inc()
            if state != "fallback":
                return result, False
            fallbacks.inc(kernel=self.name)
            return result, True
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")

    def memory_report(self) -> str:
        return self.plan.report()


#: Whether tracing is on: the knob's raw value, read in C (no frame).
_tracing = settings.TRACE_DIR.raw


@functools.cache
def _numpy_engine() -> tuple:
    """The numpy engine's run function, its spread report, its plans
    counter bound once per outcome and its fallbacks counter, resolved on
    first use only: a run looks up none of them again."""
    from repro.backends.numpy_exec import plan_spread, run_plan

    plans = _metrics.counter("repro_exec_plans_total", "numpy-engine runs by "
                             "what happened to their ExecPlan", ("outcome",))
    return (run_plan, plan_spread,
            {outcome: plans.labels(outcome=outcome)
             for outcome in ("built", "reused", "fallback")},
            _metrics.counter("repro_engine_fallbacks_total", "numpy-engine "
                             "runs that fell back to the cpu walker", ("kernel",)))


def _lower(stmt: IndexStmt, name: str, key: str | None = None) -> KernelProgram:
    """The uncached compilation pipeline (analysis → plan → lowering)."""
    with _trace.span("lower", kernel=name):
        lowerer = Lowerer(stmt, name)
        program = lowerer.lower()
    return KernelProgram(name, program, lowerer.analysis, lowerer.plan, key)


def compile_stmt(
    stmt: IndexStmt,
    name: str = "kernel",
    *,
    cache: bool | None = None,
) -> CompiledKernel:
    """Compile a scheduled statement and bind it to its own operands.

    The one compile entry point. A cached call binds ``stmt`` to the
    ``program`` stage entry under its structural key
    (:func:`~repro.pipeline.cache.fingerprint_program`: kernel name,
    CIN, environment, each tensor's name, order and format). On a miss
    the entry is lowered from ``stmt.with_tensors(Tensor.copy_structure)``,
    the same statement over operands without data, so it holds no
    operand arrays and every statement of that structure (any dataset,
    any scale) binds to it. Keying reads no operand data: a deferred
    operand stays undrawn.

    Args:
        stmt: the scheduled statement.
        name: kernel name (appears in generated code, so it is part of
            the key).
        cache: ``None`` uses the process default; ``False`` bypasses the
            ``program`` stage and lowers ``stmt`` itself, as does
            ``REPRO_NO_CACHE=1`` whatever ``cache`` says.
    """
    from repro.pipeline import cache as cache_mod

    if cache_mod.stage_bypassed("program", cache):
        return CompiledKernel(stmt, _lower(stmt, name))
    key = cache_mod.fingerprint_program(stmt, name)
    compiled = cache_mod.memoize_stage(
        "program", (key,),
        lambda: _lower(stmt.with_tensors(Tensor.copy_structure), name, key),
        cache)
    return CompiledKernel(stmt, compiled)
