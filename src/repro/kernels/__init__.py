"""The evaluation kernel suite (Table 3 + format-sweep kernels)."""

from repro.kernels.suite import (
    FORMAT_KERNEL_ORDER,
    KERNEL_ORDER,
    KERNELS,
    KernelSpec,
    TensorSpec,
    get_kernel,
)

__all__ = [
    "FORMAT_KERNEL_ORDER",
    "KERNEL_ORDER",
    "KERNELS",
    "KernelSpec",
    "TensorSpec",
    "get_kernel",
]
