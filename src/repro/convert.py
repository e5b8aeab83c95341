"""The format-conversion compiler (``repro convert``).

TACO-style compilers derive conversion routines between tensor formats
from the same level abstraction that drives kernel compilation (Chou et
al., "Format Abstraction for Sparse Tensor Algebra Compilers"). This
module reproduces that facility for the registered whole-tensor formats:
:func:`plan_conversion` synthesizes a :class:`ConversionPlan` — an
ordered list of primitive coordinate-space transformations — between any
two registered formats, and :func:`convert` executes the plan on packed
:class:`~repro.tensor.storage.TensorStorage`.

The primitive vocabulary:

* ``unpack``   — expand level storage to sorted COO entries;
* ``sparsify`` — drop explicit zeros materialised by trailing dense or
  block levels (so blocked→compressed round trips are lossless);
* ``block``    — split each mode ``c`` into ``(c // b, c % b)`` tile
  coordinates (matrix → BCSR's blocked 4-D space, padding dimensions up
  to tile multiples);
* ``unblock``  — the inverse merge of tile coordinates;
* ``pack``     — rank coordinates into the target's level structure (the
  target's mode ordering re-sorts entries as part of packing).

Conversions compose: CSR↔COO↔DCSR are direct re-rankings of the same
coordinate space, while CSR↔BCSR route through the block/unblock steps.
The evaluation harness stages converted datasets once per (dataset,
format) through the pipeline's staged cache, so a format sweep converts
each matrix at most once per format.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable

import numpy as np

from repro.formats.format import Format
from repro.formats.memory import MemoryRegion
from repro.tensor.storage import (
    CompressedLevel,
    DenseLevel,
    TensorStorage,
    pack,
    unpack,
)
from repro.tensor.tensor import Tensor


class ConversionError(ValueError):
    """The requested conversion cannot be synthesized."""


# ---------------------------------------------------------------------------
# Coordinate-space primitives
# ---------------------------------------------------------------------------


def blocked_dims(dims: tuple[int, ...], sizes: tuple[int, ...]) -> tuple[int, ...]:
    """The blocked dimensions ``(d0/b0, ..., b0, ...)`` of a dense space.

    Each mode is padded up to the next multiple of its tile size; the
    result lists all block-index extents first, then the tile extents —
    matching BCSR's (I/b, J/b, b, b) level order.
    """
    if len(sizes) != len(dims):
        raise ConversionError(
            f"blocking needs one tile size per mode: {len(dims)} mode(s), "
            f"{len(sizes)} size(s)"
        )
    outer = tuple(math.ceil(d / b) for d, b in zip(dims, sizes))
    return outer + tuple(sizes)


def block_coords(coords: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Split each coordinate column into (block index, intra-tile offset)."""
    order = coords.shape[1] if coords.size else len(sizes)
    cols = [coords[:, m] // sizes[m] for m in range(order)]
    cols += [coords[:, m] % sizes[m] for m in range(order)]
    return np.stack(cols, axis=1) if cols else coords


def unblock_coords(coords: np.ndarray, sizes: tuple[int, ...]) -> np.ndarray:
    """Merge (block index, intra-tile offset) columns back into coordinates."""
    order = len(sizes)
    cols = [coords[:, m] * sizes[m] + coords[:, order + m] for m in range(order)]
    return np.stack(cols, axis=1)


def _block_sizes(fmt: Format) -> tuple[int, ...]:
    return tuple(
        mf.size for mf in fmt.mode_formats if mf.is_block
    )


def _stores_explicit_zeros(fmt: Format) -> bool:
    """Trailing dense/block levels materialise zeros inside each segment."""
    return bool(fmt.mode_formats) and fmt.mode_formats[-1].is_dense


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConversionStep:
    """One primitive of a synthesized conversion routine."""

    op: str  # unpack | sparsify | block | unblock | pack
    detail: str
    apply: Callable[[dict], dict] = dataclasses.field(compare=False, repr=False)

    def __str__(self) -> str:
        return f"{self.op}: {self.detail}"


@dataclasses.dataclass
class ConversionPlan:
    """A synthesized source→target conversion routine.

    The plan is a pipeline of :class:`ConversionStep` functions over a
    state dict ``{coords, vals, dims}``; :meth:`run` executes it and packs
    the result into the target format's level structure.
    """

    source: Format
    target: Format
    steps: tuple[ConversionStep, ...]

    def describe(self) -> str:
        lines = [f"convert {self.source} -> {self.target}"]
        lines.extend(f"  {k + 1}. {step}" for k, step in enumerate(self.steps))
        return "\n".join(lines)

    def run(self, storage: TensorStorage) -> TensorStorage:
        return self._run({"storage": storage, "dims": tuple(storage.dims)},
                         self.steps)

    def run_coo(self, coords: np.ndarray, vals: np.ndarray,
                dims: tuple[int, ...]) -> TensorStorage:
        """Every step after the leading ``unpack``, on COO entries over
        ``dims`` in place of the unpacked source storage: converting raw
        entries costs one pack, not a pack into the source format first."""
        return self._run({"coords": coords, "vals": vals,
                          "dims": tuple(dims)}, self.steps[1:])

    @staticmethod
    def _run(state: dict, steps: tuple[ConversionStep, ...]) -> TensorStorage:
        for step in steps:
            state = step.apply(state)
        result = state.get("result")
        if result is None:  # pragma: no cover - plans always end in pack
            raise ConversionError("plan did not produce a packed result")
        return result


def _step_unpack() -> ConversionStep:
    def apply(state: dict) -> dict:
        coords, vals = unpack(state["storage"])
        state.update(coords=coords, vals=vals)
        return state

    return ConversionStep("unpack", "expand level storage to COO entries",
                          apply)


def _step_sparsify() -> ConversionStep:
    def apply(state: dict) -> dict:
        keep = state["vals"] != 0.0
        state.update(coords=state["coords"][keep], vals=state["vals"][keep])
        return state

    return ConversionStep(
        "sparsify", "drop explicit zeros from dense/block segments", apply
    )


def _step_block(sizes: tuple[int, ...]) -> ConversionStep:
    def apply(state: dict) -> dict:
        state["coords"] = block_coords(state["coords"], sizes)
        state["dims"] = blocked_dims(state["dims"], sizes)
        return state

    tiles = "x".join(map(str, sizes))
    return ConversionStep(
        "block", f"split modes into {tiles} tile coordinates (pad to "
        f"tile multiples)", apply
    )


def _step_unblock(sizes: tuple[int, ...], dims: tuple[int, ...] | None
                  ) -> ConversionStep:
    def apply(state: dict) -> dict:
        order = len(sizes)
        state["coords"] = unblock_coords(state["coords"], sizes)
        if dims is not None:
            merged = dims
        else:
            merged = tuple(
                state["dims"][m] * sizes[m] for m in range(order)
            )
        state["dims"] = merged
        return state

    return ConversionStep("unblock", "merge tile coordinates back into "
                          "flat modes", apply)


def _step_pack(target: Format) -> ConversionStep:
    def apply(state: dict) -> dict:
        state["result"] = pack(state["coords"], state["vals"], state["dims"],
                               target)
        return state

    ordering = ""
    if target.mode_ordering != tuple(range(target.order)):
        ordering = f" (mode ordering {list(target.mode_ordering)})"
    return ConversionStep(
        "pack", f"rank coordinates into {{{', '.join(str(m) for m in target.mode_formats)}}}{ordering}",
        apply,
    )


def plan_conversion(
    source: Format,
    target: Format,
    dims: tuple[int, ...] | None = None,
) -> ConversionPlan:
    """Synthesize the conversion routine from ``source`` to ``target``.

    ``dims`` optionally pins the target's tensor dimensions for
    blocked→flat conversions (otherwise tile multiples are kept).
    """
    src_blocks = _block_sizes(source)
    dst_blocks = _block_sizes(target)
    steps: list[ConversionStep] = [_step_unpack()]
    if _stores_explicit_zeros(source) and not target.is_all_dense:
        steps.append(_step_sparsify())
    if src_blocks and not dst_blocks:
        if source.order != 2 * len(src_blocks):
            raise ConversionError(
                f"unblocking expects one tile level per flat mode; format "
                f"{source} has order {source.order} with "
                f"{len(src_blocks)} block level(s)"
            )
        steps.append(_step_unblock(src_blocks, dims))
    elif dst_blocks and not src_blocks:
        if target.order != source.order + len(dst_blocks) or (
            len(dst_blocks) != source.order
        ):
            raise ConversionError(
                f"blocking splits every source mode once: source order "
                f"{source.order} cannot block into {target}"
            )
        steps.append(_step_block(dst_blocks))
    elif src_blocks and dst_blocks and src_blocks != dst_blocks:
        # Re-tile through the flat coordinate space.
        steps.append(_step_unblock(src_blocks, None))
        steps.append(_step_block(dst_blocks))
    elif source.order != target.order:
        raise ConversionError(
            f"cannot convert order-{source.order} format {source} to "
            f"order-{target.order} format {target} without block levels"
        )
    steps.append(_step_pack(target))
    return ConversionPlan(source, target, tuple(steps))


def convert(
    storage: TensorStorage,
    target: Format,
    dims: tuple[int, ...] | None = None,
) -> TensorStorage:
    """Convert packed storage to ``target`` via a synthesized plan; an
    identity conversion returns ``storage`` itself."""
    if storage.fmt == target:
        return storage
    return plan_conversion(storage.fmt, target, dims).run(storage)


def convert_tensor(
    tensor: Tensor,
    target: Format,
    name: str | None = None,
    dims: tuple[int, ...] | None = None,
) -> Tensor:
    """A new tensor holding ``tensor``'s data in ``target`` format."""
    storage = convert(tensor.storage, target, dims)
    return Tensor(name or tensor.name, storage.dims, target).install(storage)


# ---------------------------------------------------------------------------
# Coordinate-range slicing (single-kernel partitioning)
# ---------------------------------------------------------------------------


def _sliced_dims(storage: TensorStorage, lo: int, hi: int, axis: int) -> tuple:
    """``storage.dims`` with mode ``axis`` cut to ``[lo, hi)``, validated."""
    if not 0 <= axis < storage.order:
        raise ConversionError(
            f"slice axis {axis} out of range for order-{storage.order} "
            f"storage"
        )
    if not 0 <= lo <= hi <= storage.dims[axis]:
        raise ConversionError(
            f"slice [{lo}, {hi}) out of bounds for dimension "
            f"{storage.dims[axis]} of mode {axis}"
        )
    if _block_sizes(storage.fmt):
        raise ConversionError(
            "cannot range-slice a blocked format; convert to a flat "
            "format first"
        )
    return storage.dims[:axis] + (hi - lo,) + storage.dims[axis + 1:]


def slice_rows(
    storage: TensorStorage,
    lo: int,
    hi: int,
    axis: int = 0,
) -> TensorStorage:
    """The sub-tensor with mode-``axis`` coordinates in ``[lo, hi)``.

    The general coordinate filter: unpack to sorted COO, keep entries
    whose ``axis`` coordinate falls in the range, rebase them to zero and
    re-pack into the *same* format with that dimension shrunk. It cuts
    the partitioner's contraction split and is the reference for
    :func:`slice_positions`; consecutive slices concatenate losslessly.
    """
    dims = _sliced_dims(storage, lo, hi, axis)
    coords, vals = unpack(storage)
    if _stores_explicit_zeros(storage.fmt):
        keep_nz = vals != 0.0
        coords, vals = coords[keep_nz], vals[keep_nz]
    keep = (coords[:, axis] >= lo) & (coords[:, axis] < hi)
    coords = coords[keep]
    coords[:, axis] -= lo
    return pack(coords, vals[keep], dims, storage.fmt)


def position_sliceable(fmt: Format) -> bool:
    """Whether :func:`slice_positions` can cut ``fmt``: a dense or ordered
    compressed root over compressed levels (CSR, DCSR)."""
    root, *inner = fmt.mode_formats
    return (not root.is_singleton and root.ordered
            and all(mf.is_compressed for mf in inner))


def slice_positions(storage: TensorStorage, lo: int, hi: int) -> TensorStorage:
    """Root-mode coordinates ``[lo, hi)`` as a view of the level arrays.

    SpDISTAL's tensor partition: cut the root level by coordinate range,
    then take each compressed level's *image*, the position range its
    parent range owns. A dense root owns positions ``[lo, hi)`` (CSR:
    ``pos[lo:hi+1] - pos[lo]`` over ``crd``/``vals[pos[lo]:pos[hi]]``);
    an ordered compressed root finds them by ``searchsorted`` (DCSR).
    O(hi - lo); deeper ``crd``/``vals`` are read-only views. Equal,
    array for array, to ``slice_rows`` on the root mode.
    """
    dims = _sliced_dims(storage, lo, hi, storage.fmt.mode_of_level(0))
    root, *inner = storage.levels
    if not position_sliceable(storage.fmt):
        raise ConversionError(
            f"cannot position-slice {storage.fmt}: needs a dense or ordered "
            f"compressed root over compressed levels (CSR, DCSR)"
        )
    if isinstance(root, DenseLevel):
        levels: list = [DenseLevel(hi - lo)]
    else:
        first, last = (int(p) for p in np.searchsorted(root.crd, (lo, hi)))
        levels = [CompressedLevel(
            pos=np.array([0, last - first], dtype=root.pos.dtype),
            crd=root.crd[first:last] - root.crd.dtype.type(lo))]
        lo, hi = first, last
    for lvl in inner:  # [lo, hi) is the position range the parent owns
        pos = lvl.pos[lo:hi + 1]
        lo, hi = int(pos[0]), int(pos[-1])
        levels.append(CompressedLevel(pos=pos - lo, crd=lvl.crd[lo:hi]))
    return TensorStorage(storage.fmt, dims, levels, storage.vals[lo:hi])


# ---------------------------------------------------------------------------
# Staged dataset conversion (harness integration)
# ---------------------------------------------------------------------------


def staged_matrix_storage(
    dataset_name: str,
    scale: float,
    seed: int,
    format_name: str,
    use_cache: bool | None = None,
) -> TensorStorage:
    """One matrix dataset converted to a registered format, staged once.

    The raw (dims, coords, vals) triple comes from the ``dataset`` cache
    stage (shared with every kernel using the dataset) and is taken for a
    CSR matrix's unpacked entries: the CSR-to-format plan runs on it from
    its second step, so staging packs once. The converted storage
    memoizes under the ``convert`` stage keyed by (dataset, scale, seed,
    format), so a sweep over many kernels converts each matrix at most
    once per format — cold conversions happen on the first worker to ask.
    """
    from repro.data.datasets import load_matrix_coo
    from repro.formats.format import CSR, format_of
    from repro.pipeline.cache import memoize_stage

    def compute() -> TensorStorage:
        dims, coords, vals = load_matrix_coo(dataset_name, scale, seed,
                                             use_cache=use_cache)
        plan = plan_conversion(CSR(MemoryRegion.OFF_CHIP),
                               format_of(format_name))
        return plan.run_coo(coords, vals, dims)

    return memoize_stage(
        "convert", (dataset_name, scale, seed, format_name), compute,
        use_cache,
    )
