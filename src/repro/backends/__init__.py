"""Comparison backends: CPU (TACO), GPU (TACO-CUDA), handwritten Spatial."""

from repro import lazy_exports

_EXPORTS = {
    "CpuBackend": ("repro.backends.cpu", "CpuBackend"),
    "CpuCodegen": ("repro.backends.cpu", "CpuCodegen"),
    "CpuExecutor": ("repro.backends.cpu_exec", "CpuExecutor"),
    "GpuBackend": ("repro.backends.gpu", "GpuBackend"),
    "HANDWRITTEN_CAPSTAN_SPMV": ("repro.backends.handwritten", "HANDWRITTEN_CAPSTAN_SPMV"),
    "HandwrittenCapstanSpMV": ("repro.backends.handwritten", "HandwrittenCapstanSpMV"),
    "HandwrittenPlasticineSpMV": ("repro.backends.handwritten", "HandwrittenPlasticineSpMV"),
    "execute_cpu": ("repro.backends.cpu_exec", "execute_cpu"),
    "handwritten_capstan_loc": ("repro.backends.handwritten", "handwritten_capstan_loc"),
    "lower_cpu": ("repro.backends.cpu", "lower_cpu"),
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
