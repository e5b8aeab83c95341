"""The format-conversion compiler (``repro convert``).

TACO-style compilers derive conversion routines between tensor formats
from the same level abstraction that drives kernel compilation (Chou et
al., "Format Abstraction for Sparse Tensor Algebra Compilers"). Under
that abstraction putting coordinates into any registered format is one
level walk (``pack``), so a conversion is a straight line: unpack,
remap the coordinates, pack. :func:`plan_conversion` records which
remappings a source→target pair needs in a :class:`ConversionPlan`, and
:func:`convert` runs it on packed
:class:`~repro.tensor.storage.TensorStorage`.

The steps, in the order a plan runs them:

* ``unpack``   — expand level storage to sorted COO entries;
* ``sparsify`` — drop explicit zeros materialised by trailing dense or
  block levels (so blocked→compressed round trips are lossless);
* ``unblock``  — merge (block index, intra-tile offset) coordinates back
  into flat modes;
* ``block``    — split each mode ``c`` into ``(c // b, c % b)`` tile
  coordinates (matrix → BCSR's blocked 4-D space, padding dimensions up
  to tile multiples);
* ``pack``     — rank coordinates into the target's level structure (the
  target's mode ordering re-sorts entries as part of packing).

``block`` and ``pack`` are one call, :func:`pack_entries`, which is also
how the dataset layer packs every kernel's sparse operands from their
generated entries. CSR↔COO↔DCSR are direct re-rankings of the same
coordinate space, while CSR↔BCSR add the block/unblock steps.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.formats.format import Format
from repro.tensor.storage import (
    CompressedLevel,
    DenseLevel,
    TensorStorage,
    pack,
    unpack,
)


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


def pack_entries(coords: np.ndarray, vals: np.ndarray,
                 dims: tuple[int, ...], target: Format) -> TensorStorage:
    """Pack COO entries into ``target``'s level structure: one level walk.

    Entries over a blocked target's flat dims are first split into tile
    coordinates (padding dims up to tile multiples); entries already in
    its blocked space, like every entry of a flat target, pack as they
    are.
    """
    packed = packed_dims(dims, target)
    if len(packed) != len(dims):
        coords = block_coords(coords, _block_sizes(target))
    return pack(coords, vals, packed, target)


def packed_dims(dims: tuple[int, ...], target: Format) -> tuple[int, ...]:
    """The dims :func:`pack_entries` gives entries over ``dims`` packed
    into ``target``: a blocked target's flat dims padded to tile
    multiples, anything else as it is."""
    sizes = _block_sizes(target)
    if sizes and len(dims) != target.order:
        return blocked_dims(tuple(dims), sizes)
    return tuple(dims)


@dataclasses.dataclass(frozen=True)
class ConversionPlan:
    """A synthesized source→target conversion routine.

    ``sparsify`` drops explicit zeros, ``unblock`` holds the source tile
    sizes to merge away and ``block`` the target tile sizes that
    :func:`pack_entries` splits into (both empty when the tiles stay);
    ``dims`` pins the flat dims an unblock produces.
    """

    source: Format
    target: Format
    sparsify: bool
    unblock: tuple[int, ...]
    block: tuple[int, ...]
    dims: tuple[int, ...] | None

    @property
    def steps(self) -> tuple[str, ...]:
        remaps = (("sparsify", self.sparsify), ("unblock", self.unblock),
                  ("block", self.block))
        return ("unpack", *(op for op, runs in remaps if runs), "pack")

    def describe(self) -> str:
        target = self.target
        ordering = ""
        if target.mode_ordering != tuple(range(target.order)):
            ordering = f" (mode ordering {list(target.mode_ordering)})"
        levels = ", ".join(str(m) for m in target.mode_formats)
        detail = {
            "unpack": "expand level storage to COO entries",
            "sparsify": "drop explicit zeros from dense/block segments",
            "unblock": "merge tile coordinates back into flat modes",
            "block": f"split modes into {'x'.join(map(str, self.block))} "
                     f"tile coordinates (pad to tile multiples)",
            "pack": f"rank coordinates into {{{levels}}}{ordering}",
        }
        lines = [f"convert {self.source} -> {target}"]
        lines.extend(f"  {k}. {op}: {detail[op]}"
                     for k, op in enumerate(self.steps, 1))
        return "\n".join(lines)

    def run(self, storage: TensorStorage) -> TensorStorage:
        coords, vals = unpack(storage)
        return self.run_coo(coords, vals, storage.dims)

    def run_coo(self, coords: np.ndarray, vals: np.ndarray,
                dims: tuple[int, ...]) -> TensorStorage:
        """Every step after ``unpack``, on COO entries in the source's
        coordinate space over ``dims``."""
        if self.sparsify:
            keep = vals != 0.0
            coords, vals = coords[keep], vals[keep]
        if self.unblock:
            coords = unblock_coords(coords, self.unblock)
            dims = self.dims if self.dims is not None else tuple(
                d * b for d, b in zip(dims, self.unblock))
        return pack_entries(coords, vals, dims, self.target)


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
    retile = src_blocks != dst_blocks
    if src_blocks and not dst_blocks:
        if source.order != 2 * len(src_blocks):
            raise ConversionError(
                f"unblocking expects one tile level per flat mode; format "
                f"{source} has order {source.order} with "
                f"{len(src_blocks)} block level(s)"
            )
    elif dst_blocks and not src_blocks:
        if target.order != source.order + len(dst_blocks) or (
            len(dst_blocks) != source.order
        ):
            raise ConversionError(
                f"blocking splits every source mode once: source order "
                f"{source.order} cannot block into {target}"
            )
    elif not retile and source.order != target.order:
        raise ConversionError(
            f"cannot convert order-{source.order} format {source} to "
            f"order-{target.order} format {target} without block levels"
        )
    return ConversionPlan(
        source, target,
        sparsify=_stores_explicit_zeros(source) and not target.is_all_dense,
        unblock=src_blocks if retile else (),
        block=dst_blocks if retile else (),
        dims=dims if src_blocks and not dst_blocks else None,
    )


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
    if storage.fmt.level_format(0).is_dense:
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
# Dataset staging (harness integration)
# ---------------------------------------------------------------------------


def staged_matrix_storage(
    dataset_name: str,
    scale: float,
    seed: int,
    format_name: str,
) -> TensorStorage:
    """One matrix dataset packed into a registered format, once per
    generation.

    The dataset's staged generation packed into ``format_name`` through
    :func:`pack_entries`, memoized in memory beside the generation
    exactly like a kernel's operands (so it *is* the storage ``load``
    gives a kernel reading the dataset in that format). Partition
    staging and ``repro convert`` read it; the storage is read-only.
    """
    from repro.data.datasets import _matrix_generation, _packed

    return _packed(_matrix_generation(dataset_name, scale, seed),
                   ("identity",), format_name)
