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
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.core.memory_analysis import KernelAnalysis, MemoryPlan
from repro.core.runner import run_program
from repro.schedule.stmt import IndexStmt
from repro.spatial import codegen
from repro.spatial.ir import SpatialProgram
from repro.tensor.storage import TensorStorage, to_dense
from repro.tensor.tensor import Tensor


@dataclasses.dataclass
class CompiledKernel:
    """A Stardust compilation result."""

    name: str
    stmt: IndexStmt
    program: SpatialProgram
    analysis: KernelAnalysis
    plan: MemoryPlan

    @functools.cached_property
    def source(self) -> str:
        """Generated Spatial source text (Figure 11 style)."""
        with _trace.span("codegen", kernel=self.name):
            return codegen.generate(self.program)

    @property
    def spatial_loc(self) -> int:
        """Lines of generated Spatial (the Table 3 metric)."""
        return codegen.count_loc(self.source)

    @property
    def tensors(self) -> dict[str, Tensor]:
        named = {}
        for t in (self.analysis.output, *self.analysis.inputs,
                  *self.analysis.workspaces):
            named[t.name] = t
        return named

    def run(self, **overrides: Tensor) -> TensorStorage:
        """Execute the kernel functionally on the bound tensor data.

        Keyword arguments replace input tensors by name (they must have
        identical shapes and formats).
        """
        tensors = dict(self.tensors)
        for name, t in overrides.items():
            if name not in tensors:
                raise KeyError(f"kernel has no tensor named {name!r}")
            tensors[name] = t
        return run_program(self.program, tensors, self.analysis.output.name)

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

        The one place the ``numpy`` engine is called from: its ``exec``
        span carries ``fell_back``, ``plan`` (``built`` / ``reused`` /
        ``fallback``) and, when this run built the plan, ``plan_ms``;
        ``repro_engine_fallbacks_total`` and ``repro_exec_plans_total``
        count the same.
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
            from repro.backends.numpy_exec import NumpyExecutor

            executor = NumpyExecutor(self.stmt)
            with _trace.span("exec", kernel=self.name, engine="numpy") as sp:
                result = executor.run(strict=strict)
                sp.set(fell_back=executor.fell_back, plan=executor.plan_state)
                if executor.plan_ms is not None:
                    sp.set(plan_ms=executor.plan_ms)
            _metrics.counter(
                "repro_exec_plans_total",
                "numpy-engine runs by what happened to their ExecPlan",
                ("outcome",)).inc(outcome=executor.plan_state)
            if executor.fell_back:
                _metrics.counter(
                    "repro_engine_fallbacks_total",
                    "numpy-engine runs that fell back to the cpu walker",
                    ("kernel",)).inc(kernel=self.name)
            return result, executor.fell_back
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")

    def memory_report(self) -> str:
        return self.plan.report()


def _compile(stmt: IndexStmt, name: str) -> CompiledKernel:
    """The uncached compilation pipeline (analysis → plan → lowering)."""
    with _trace.span("lower", kernel=name):
        lowerer = Lowerer(stmt, name)
        program = lowerer.lower()
    return CompiledKernel(
        name=name,
        stmt=stmt,
        program=program,
        analysis=lowerer.analysis,
        plan=lowerer.plan,
    )


def compile_stmt(
    stmt: IndexStmt,
    name: str = "kernel",
    *,
    cache: bool | None = None,
) -> CompiledKernel:
    """Compile a scheduled statement to a Spatial kernel.

    Compilation is memoized through :mod:`repro.pipeline.cache`, keyed by
    a content hash of the statement, its tensor formats and data, the
    schedule, and the compiler version — so repeated harness runs and CLI
    invocations reuse prior results (including across processes via the
    on-disk store).

    Args:
        stmt: the scheduled statement.
        name: kernel name (appears in generated code, so it is part of
            the cache key).
        cache: ``None`` uses the process default (honouring the
            ``REPRO_NO_CACHE`` environment knob); ``False`` bypasses the
            cache; ``True`` forces it on.
    """
    from repro.pipeline import cache as cache_mod

    use_cache = cache_mod.cache_enabled() if cache is None else bool(cache)
    if not use_cache:
        return _compile(stmt, name)
    key = cache_mod.fingerprint_stmt(stmt, name)
    return cache_mod.default_cache().get_or_compute(
        key, lambda: _compile(stmt, name), stage="kernel"
    )


def compile_tensor(result: Tensor, name: str | None = None) -> CompiledKernel:
    """Compile the assignment recorded on a tensor with no schedule."""
    return compile_stmt(result.get_index_stmt(), name or result.name)
