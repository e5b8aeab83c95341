"""The Table 4 evaluation datasets (synthetic substitutes).

Each :class:`DatasetSpec` names one paper dataset, its dimensions and
density, and which kernels consume it. :func:`load` materialises the
tensors for a kernel at an optional ``scale`` (dimensions shrink by the
factor; densities are preserved), so tests can run miniature versions of
the exact evaluation configurations. :func:`structure` gives the same
tensors without data, for a compile: it draws, packs and stores nothing.

Operand shapes follow from the kernel's record
(:meth:`repro.kernels.suite.KernelSpec.shapes`). Dense operand dimensions
the paper leaves unspecified: SDDMM's factor rank ``K`` defaults to 256,
TTM/MTTKRP's factor rank to 16 (typical for the ALS workloads the paper
cites).

Like the kernel records, the dataset records load without NumPy, the
generators or the tensor layer: those are imported by the functions that
materialise data, i.e. on a cache miss.
"""

from __future__ import annotations

import dataclasses
import math
import threading
import weakref
from typing import TYPE_CHECKING

from repro.kernels.suite import FORMAT_KERNEL_ORDER, KERNELS

if TYPE_CHECKING:
    import numpy as np

    from repro.tensor.storage import TensorStorage
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

_DATASETS_BY_KERNEL = {
    kernel: tuple(d for d in DATASETS if kernel in d.kernels)
    for kernel in dict.fromkeys(k for d in DATASETS for k in d.kernels)}


def datasets_for(kernel: str) -> tuple[DatasetSpec, ...]:
    """The kernel's Table 4 datasets, in table order (one shared tuple)."""
    return _DATASETS_BY_KERNEL.get(kernel, ())


def _generate(spec: DatasetSpec, scale: float, rng: np.random.Generator):
    from repro.data import generators as gen

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


def _generated(dspec: DatasetSpec, scale: float, seed: int):
    """One generation of a dataset: ``(dims, coords, vals, state)``.

    Staged under the ``dataset`` cache key ``("coo", dataset, scale,
    seed)``, the only operand data the store holds: every kernel
    evaluated on the dataset, partition staging, ``repro convert`` and
    the fused pipelines share one draw per (dataset, scale, seed).
    ``coords`` is int32, ``state`` is the generator state after the
    draw, and both arrays are read-only: a consumer writing into them
    would corrupt the next consumer's operands. The stage is exempt from
    ``--no-cache``; only ``REPRO_NO_CACHE=1`` draws afresh.

    Next to the entry, in memory only, the generation holds what is
    derived from it (:func:`_memo`): each sparse operand packed once and
    each kernel's operand dict. The memo is never pickled and is dropped
    with the entry's arrays, so a cleared memory layer, or
    ``REPRO_NO_CACHE=1``, starts it cold.
    """
    from repro.pipeline.cache import memoize_stage

    def compute():
        import numpy as np

        rng = np.random.default_rng(seed)
        dims, (coords, vals) = _generate(dspec, scale, rng)
        assert max(dims) < 1 << 31, dims
        return (dims, coords.astype(np.int32), vals,
                rng.bit_generator.state)

    entry = memoize_stage("dataset", ("coo", dspec.name, scale, seed),
                          compute)
    for array in entry[1:3]:
        array.flags.writeable = False  # a disk hit unpickles writeable
    return entry


def load_matrix_coo(
    dataset_name: str,
    scale: float = 1.0,
    seed: int = 7,
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """The raw, read-only ``(dims, coords, vals)`` of one matrix dataset.

    The first three fields of the dataset's one staged generation, which
    :func:`load`, :func:`repro.convert.staged_matrix_storage` (partition
    staging and the ``repro convert`` CLI) and the fused pipelines all
    read.
    """
    return _matrix_generation(dataset_name, scale, seed)[:3]


def _matrix_generation(dataset_name: str, scale: float, seed: int) -> tuple:
    """:func:`_generated` of a dataset that must be a matrix."""
    dspec = DATASETS_BY_NAME[dataset_name]
    if dspec.kind != "matrix":
        raise ValueError(f"{dataset_name} is not a matrix dataset")
    return _generated(dspec, scale, seed)


def _resume(state: dict) -> np.random.Generator:
    """A generator that continues from a saved bit-generator ``state``."""
    import numpy as np

    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


@dataclasses.dataclass(frozen=True)
class DenseDraw:
    """A dense operand's values, stored as the generator state that
    draws them: ``draw()`` is ``random(shape)`` from ``state``.

    A module-level record rather than a closure, so a tensor holding one
    pickles into a cache entry as a few hundred bytes of state.
    """

    state: dict
    shape: tuple[int, ...]

    def __call__(self) -> np.ndarray:
        return _resume(self.state).random(self.shape)


def load(
    kernel_name: str,
    dataset_name: str,
    scale: float = 1.0,
    seed: int = 7,
) -> dict[str, Tensor]:
    """Materialise a kernel's operand tensors for one dataset.

    Sparse operands take the dataset's structure (with the paper's derived
    variants for multi-operand kernels, see :func:`derivation`), each
    packed into its format by :func:`repro.convert.pack_entries`, so a
    blocked format's dims are the packed storage's. The structure is the
    dataset's one staged generation, and each (derivation, format) of it
    is packed once per generation: every kernel evaluated on the dataset
    holds the same read-only storage. Dense operands are random, drawn
    by a generator resumed from the state that generation left, and held
    as a :class:`DenseDraw` until something reads their values (a Table
    6 evaluation never does); output tensors are left empty.

    The dict is built once per generation and kernel, beside the packs
    (:func:`_memo`): while the generation lives, every call returns the
    same tensors, so a caller that draws, fills or installs into one
    changes what the next caller gets.
    """
    generation = _generated(_dataset(kernel_name, dataset_name), scale, seed)
    return _memo(generation, ("operands", kernel_name),
                 lambda: _operands(kernel_name, generation))


def structure(kernel_name: str, dataset_name: str,
              scale: float = 1.0) -> dict[str, Tensor]:
    """A kernel's operand tensors for one dataset, holding no data.

    The names, formats and shapes :func:`load` gives: the dataset's
    ``scaled_dims``, padded to tile multiples for a blocked format as
    :func:`repro.convert.pack_entries` pads them. Nothing is generated,
    packed or stored, so a compile, whose program depends only on the
    expression, the formats and the schedule, builds over these.
    """
    from repro.convert import packed_dims
    from repro.formats import format_of

    spec = KERNELS[kernel_name]
    shapes = spec.shapes(packed_dims(
        _dataset(kernel_name, dataset_name).scaled_dims(scale),
        format_of(spec.of_role("sparse")[0].format)))
    return {ts.name: ts.make(shapes[ts.name]) for ts in spec.tensor_specs}


def _dataset(kernel_name: str, dataset_name: str) -> DatasetSpec:
    """The dataset's record, which must list the kernel."""
    dspec = DATASETS_BY_NAME[dataset_name]
    if KERNELS[kernel_name].name not in dspec.kernels:
        raise ValueError(f"{dataset_name} is not evaluated with {kernel_name}")
    return dspec


def _operands(kernel_name: str, generation: tuple) -> dict[str, Tensor]:
    """:func:`load`'s operand dict, built from ``generation``."""
    spec = KERNELS[kernel_name]
    rng = _resume(generation[3])
    sparse = [_packed(generation, derivation(kernel_name, nth), ts.format)
              for nth, ts in enumerate(spec.of_role("sparse"))]
    dims = sparse[0].dims

    def dense(shape: tuple[int, ...]) -> DenseDraw:
        # Skip what the draw will consume, one uint64 per float64, so the
        # next operand starts where an eager draw would have left it.
        draw = DenseDraw(rng.bit_generator.state, shape)
        rng.bit_generator.advance(math.prod(shape))
        return draw

    return spec.operands(spec.shapes(dims), sparse, dense)


def derivation(kernel: str, index: int) -> tuple:
    """How ``kernel``'s ``index``-th sparse operand derives from its
    dataset's generation (Section 8.1).

    ``("identity",)`` is the generation itself; Plus3 rotates the columns
    right by one and two (``("rotate_columns", 1)`` / ``2``), Plus2 and
    InnerProd rotate the even last-mode coordinates
    (``("rotate_even_coords",)``). Operands of one generation with equal
    derivations and formats share one packed storage.
    """
    if index == 0:
        return ("identity",)
    if kernel == "Plus3":
        return ("rotate_columns", index)
    if kernel in ("Plus2", "InnerProd"):
        return ("rotate_even_coords",)
    return ("identity",)


def _variant(derived: tuple, coords, vals, dims):
    """The ``(coords, vals)`` of one :func:`derivation` of a generation."""
    from repro.data import generators as gen

    name, *args = derived
    if name == "rotate_columns":
        return gen.rotate_columns(coords, vals, dims[1], *args)
    if name == "rotate_even_coords":
        return gen.rotate_even_coords(coords, vals, dims[-1])
    return coords, vals


#: What each live generation derives, by key: packed operands by
#: (derivation, format name), operand dicts by ("operands", kernel).
#: Keyed by ``id`` of the generation's ``coords`` array. A finalizer on
#: that array drops its memo, so the memo lives as long as the
#: generation does and never outlives the cache entry holding it.
_MEMO: dict[int, dict[tuple, object]] = {}
_MEMO_LOCK = threading.Lock()


def _memo(generation: tuple, key: tuple, compute):
    """``compute()``, once per live ``generation`` and ``key``.

    Two threads racing on one key may both compute; both get the value
    stored first.
    """
    coords = generation[1]
    with _MEMO_LOCK:
        memo = _MEMO.get(id(coords))
        if memo is None:
            memo = _MEMO[id(coords)] = {}
            weakref.finalize(coords, _MEMO.pop, id(coords), None)
        value = memo.get(key)
    if value is None:
        value = compute()
        with _MEMO_LOCK:
            value = memo.setdefault(key, value)
    return value


def _packed(generation: tuple, derived: tuple,
            fmt_name: str) -> TensorStorage:
    """``generation``'s ``derived`` variant packed into ``fmt_name``, once.

    The storage is read-only (``vals`` and every level array), since
    every kernel that reads the operand holds the same object.
    """
    def pack() -> TensorStorage:
        from repro.convert import pack_entries
        from repro.formats import format_of

        dims, coords, vals, _ = generation
        storage = pack_entries(*_variant(derived, coords, vals, dims), dims,
                               format_of(fmt_name))
        storage.vals.flags.writeable = False
        for level in storage.levels:
            for array in level.arrays.values():
                array.flags.writeable = False
        return storage

    return _memo(generation, (derived, fmt_name), pack)
