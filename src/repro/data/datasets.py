"""The Table 4 evaluation datasets (synthetic substitutes).

Each :class:`DatasetSpec` names one paper dataset, its dimensions and
density, and which kernels consume it. :func:`load` materialises the
tensors for a kernel at an optional ``scale`` (dimensions shrink by the
factor; densities are preserved), so tests can run miniature versions of
the exact evaluation configurations.

Operand shapes follow from the kernel's record
(:meth:`repro.kernels.suite.KernelSpec.shapes`). Dense operand dimensions
the paper leaves unspecified: SDDMM's factor rank ``K`` defaults to 256,
TTM/MTTKRP's factor rank to 16 (typical for the ALS workloads the paper
cites).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.data import generators as gen
from repro.kernels.suite import FORMAT_KERNEL_ORDER, KERNELS
from repro.tensor.tensor import Tensor


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """One Table 4 dataset."""

    name: str
    kind: str  # matrix | tensor3
    dims: tuple[int, ...]
    density: float
    kernels: tuple[str, ...]
    generator: str  # generator function name
    paper_source: str

    def scaled_dims(self, scale: float) -> tuple[int, ...]:
        if scale >= 1.0:
            return self.dims
        return tuple(max(8, int(round(d * scale))) for d in self.dims)

    def nnz_estimate(self, scale: float = 1.0) -> int:
        dims = self.scaled_dims(scale)
        return max(1, int(round(math.prod(dims) * self.density)))


MATRIX_KERNELS = (("SpMV", "SDDMM", "MatTransMul", "Residual")
                  + FORMAT_KERNEL_ORDER)
PLUS3_KERNELS = ("Plus3",)
TENSOR_KERNELS = ("TTV", "TTM", "MTTKRP")
TENSOR2_KERNELS = ("InnerProd", "Plus2")

DATASETS: tuple[DatasetSpec, ...] = (
    DatasetSpec("bcsstk30", "matrix", (28924, 28924), 2.48e-3,
                MATRIX_KERNELS, "banded_symmetric", "SuiteSparse [10]"),
    DatasetSpec("ckt11752_dc_1", "matrix", (49702, 49702), 1.35e-4,
                MATRIX_KERNELS, "circuit", "SuiteSparse [10]"),
    DatasetSpec("Trefethen_20000", "matrix", (20000, 20000), 1.39e-3,
                MATRIX_KERNELS, "trefethen", "SuiteSparse [10]"),
    DatasetSpec("random-1pct", "matrix", (800, 800), 0.01,
                PLUS3_KERNELS, "uniform_matrix", "random (Table 4)"),
    DatasetSpec("random-10pct", "matrix", (800, 800), 0.10,
                PLUS3_KERNELS, "uniform_matrix", "random (Table 4)"),
    DatasetSpec("random-50pct", "matrix", (800, 800), 0.50,
                PLUS3_KERNELS, "uniform_matrix", "random (Table 4)"),
    DatasetSpec("facebook", "tensor3", (1591, 63891, 63890), 1.14e-7,
                TENSOR_KERNELS, "hub_tensor3", "Viswanath et al. [36]"),
    DatasetSpec("random3-1pct", "tensor3", (200, 200, 200), 0.01,
                TENSOR2_KERNELS, "uniform_tensor3", "random (Table 4)"),
    DatasetSpec("random3-10pct", "tensor3", (200, 200, 200), 0.10,
                TENSOR2_KERNELS, "uniform_tensor3", "random (Table 4)"),
    DatasetSpec("random3-50pct", "tensor3", (200, 200, 200), 0.50,
                TENSOR2_KERNELS, "uniform_tensor3", "random (Table 4)"),
)

DATASETS_BY_NAME = {d.name: d for d in DATASETS}


def datasets_for(kernel: str) -> list[DatasetSpec]:
    return [d for d in DATASETS if kernel in d.kernels]


def _generate(spec: DatasetSpec, scale: float, rng: np.random.Generator):
    dims = spec.scaled_dims(scale)
    if spec.generator == "banded_symmetric":
        return dims, gen.banded_symmetric(dims[0], spec.density, rng)
    if spec.generator == "circuit":
        return dims, gen.circuit(dims[0], spec.density, rng)
    if spec.generator == "trefethen":
        return dims, gen.trefethen(dims[0], rng)
    if spec.generator == "uniform_matrix":
        return dims, gen.uniform_matrix(dims[0], dims[1], spec.density, rng)
    if spec.generator == "uniform_tensor3":
        return dims, gen.uniform_tensor3(dims, spec.density, rng)
    if spec.generator == "hub_tensor3":
        return dims, gen.hub_tensor3(dims, spec.nnz_estimate(scale), rng)
    raise KeyError(spec.generator)


def load_matrix_coo(
    dataset_name: str,
    scale: float = 1.0,
    seed: int = 7,
    use_cache: bool | None = None,
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The raw ``(dims, coords, vals)`` of one matrix dataset.

    Staged under the ``dataset`` cache key, so the format-conversion
    stage (and the ``repro convert`` CLI) share one generated matrix per
    (dataset, scale, seed) with every kernel that consumes it.
    """
    from repro.pipeline.cache import memoize_stage

    dspec = DATASETS_BY_NAME[dataset_name]
    if dspec.kind != "matrix":
        raise ValueError(f"{dataset_name} is not a matrix dataset")

    def compute():
        rng = np.random.default_rng(seed)
        dims, (coords, vals) = _generate(dspec, scale, rng)
        return dims, coords, vals

    return memoize_stage(
        "dataset", ("matrix-coo", dataset_name, scale, seed), compute,
        use_cache,
    )


def load(
    kernel_name: str,
    dataset_name: str,
    scale: float = 1.0,
    seed: int = 7,
) -> dict[str, Tensor]:
    """Materialise a kernel's operand tensors for one dataset.

    Sparse operands take the dataset's structure (with the paper's derived
    variants for multi-operand kernels); dense operands are random; output
    tensors are left empty.
    """
    spec = KERNELS[kernel_name]
    dspec = DATASETS_BY_NAME[dataset_name]
    if spec.name not in dspec.kernels:
        raise ValueError(f"{dataset_name} is not evaluated with {kernel_name}")
    rng = np.random.default_rng(seed)
    dims, (coords, vals) = _generate(dspec, scale, rng)
    formats = [ts.format for ts in spec.of_role("sparse")]
    if spec.name in FORMAT_KERNEL_ORDER:
        # Format-sweep kernels stage their converted operand once per
        # (dataset, format) through the conversion compiler; a blocked
        # format's dims are the staged storage's.
        from repro.convert import staged_matrix_storage

        sparse = [staged_matrix_storage(dataset_name, scale, seed, fmt)
                  for fmt in formats]
        dims = sparse[0].dims
    else:
        sparse = [_variant(kernel_name, nth, coords, vals, dims)
                  for nth in range(len(formats))]
    return spec.operands(spec.shapes(dims), sparse, rng.random)


def _variant(kernel: str, index: int, coords, vals, dims):
    """Derived datasets for multi-sparse-operand kernels (Section 8.1)."""
    if index == 0:
        return coords, vals
    if kernel == "Plus3":
        # Rotate the columns right by one and two.
        return gen.rotate_columns(coords, vals, dims[1], index)
    if kernel in ("Plus2", "InnerProd"):
        return gen.rotate_even_coords(coords, vals, dims[-1])
    return coords, vals
