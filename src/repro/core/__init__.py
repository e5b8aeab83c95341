"""The Stardust compiler core: analysis, memory planning, lowering."""

from repro import lazy_exports

_EXPORTS = {
    "ArrayBinding": ("repro.core.memory_analysis", "ArrayBinding"),
    "CompiledKernel": ("repro.core.compiler", "CompiledKernel"),
    "IterationStrategy": ("repro.core.coiteration", "IterationStrategy"),
    "KernelAnalysis": ("repro.core.memory_analysis", "KernelAnalysis"),
    "LevelIterator": ("repro.core.coiteration", "LevelIterator"),
    "Lowerer": ("repro.core.lowering", "Lowerer"),
    "LoweringError": ("repro.core.coiteration", "LoweringError"),
    "MemoryPlan": ("repro.core.memory_analysis", "MemoryPlan"),
    "analyze": ("repro.core.memory_analysis", "analyze"),
    "bind_dram": ("repro.core.runner", "bind_dram"),
    "bind_symbols": ("repro.core.runner", "bind_symbols"),
    "build_strategy": ("repro.core.coiteration", "build_strategy"),
    "compile_stmt": ("repro.core.compiler", "compile_stmt"),
    "compile_tensor": ("repro.core.compiler", "compile_tensor"),
    "iteration_algebra": ("repro.core.coiteration", "iteration_algebra"),
    "lower": ("repro.core.lowering", "lower"),
    "plan_memory": ("repro.core.memory_analysis", "plan_memory"),
    "run_program": ("repro.core.runner", "run_program"),
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
