"""Level-based sparse tensor storage (the Chou et al. format abstraction).

A tensor of order *n* is stored as *n* stacked level structures plus one
values array. Each level materialises the coordinates of one tensor mode
(in ``mode_ordering`` order):

* **dense** levels store nothing; a parent position ``p`` expands to child
  positions ``p * N + i`` for every coordinate ``i`` in ``[0, N)``.
* **block** levels behave like dense levels whose extent is fixed by the
  format (the BCSR tile dimensions); packing validates the tensor shape
  against the static size.
* **compressed** levels store a ``pos`` array (segment boundaries per parent
  position) and a ``crd`` array (the nonzero coordinates), exactly the
  CSR-style arrays of Figure 8. Non-unique compressed levels (the COO
  root) keep one position per stored entry instead of deduplicating.
* **singleton** levels store a bare ``crd`` array with exactly one
  coordinate per parent position (the COO column/tail levels).

The :func:`pack` function converts COO data into this representation for an
arbitrary format, and :func:`unpack` converts back, so round-tripping is
property-testable.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from repro.formats.format import Format
from repro.formats.levels import LevelKind


@dataclasses.dataclass
class DenseLevel:
    """A dense (uncompressed) storage level: coordinates are implicit."""

    size: int

    @property
    def kind(self) -> LevelKind:
        return LevelKind.DENSE

    def num_children(self, num_parents: int) -> int:
        return num_parents * self.size


@dataclasses.dataclass
class CompressedLevel:
    """A compressed storage level: explicit ``pos``/``crd`` arrays."""

    pos: np.ndarray
    crd: np.ndarray

    @property
    def kind(self) -> LevelKind:
        return LevelKind.COMPRESSED

    @property
    def nnz(self) -> int:
        return len(self.crd)

    def segment(self, parent_pos: int) -> tuple[int, int]:
        """Child position range ``[start, end)`` for one parent position."""
        return int(self.pos[parent_pos]), int(self.pos[parent_pos + 1])


@dataclasses.dataclass
class SingletonLevel:
    """A singleton storage level: one explicit coordinate per parent
    position (a ``crd`` array with no ``pos`` array)."""

    crd: np.ndarray

    @property
    def kind(self) -> LevelKind:
        return LevelKind.SINGLETON

    @property
    def nnz(self) -> int:
        return len(self.crd)


Level = DenseLevel | CompressedLevel | SingletonLevel


@dataclasses.dataclass
class TensorStorage:
    """Packed storage for one tensor: levels (outermost first) plus values.

    ``levels[L]`` stores tensor mode ``fmt.mode_ordering[L]``. ``vals`` has
    one entry per position of the innermost level.

    The level arrays (``pos``/``crd``) and ``dims`` of a packed storage
    are **immutable**: nothing writes them in place, every re-pack,
    conversion or slice installs a new ``TensorStorage``. Consumers (the
    numpy engine's ``ExecPlan``) may therefore cache anything derived
    from them, keyed on the identity of this object. ``vals`` may be
    updated in place and must be read live.
    """

    fmt: Format
    dims: tuple[int, ...]
    levels: list[Level]
    vals: np.ndarray

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def nnz(self) -> int:
        """Number of stored (possibly explicit-zero) entries."""
        return len(self.vals)

    def level_dim(self, level: int) -> int:
        """Dimension size of the mode stored at ``level``."""
        return self.dims[self.fmt.mode_of_level(level)]

    def array(self, level: int, name: str) -> np.ndarray:
        """Fetch a named sub-array (``pos``/``crd``) of a sparse level."""
        lvl = self.levels[level]
        if isinstance(lvl, SingletonLevel):
            if name == "crd":
                return lvl.crd
            raise KeyError(
                f"singleton level {level} has no {name!r} array (only crd)"
            )
        if not isinstance(lvl, CompressedLevel):
            raise KeyError(f"level {level} is dense and has no {name!r} array")
        if name == "pos":
            return lvl.pos
        if name == "crd":
            return lvl.crd
        raise KeyError(f"unknown sub-array {name!r}")

    def bytes_total(self, elem_bytes: int = 4) -> int:
        """Total footprint in bytes (indices and values, 4B words)."""
        total = len(self.vals) * elem_bytes
        for lvl in self.levels:
            if isinstance(lvl, CompressedLevel):
                total += (len(lvl.pos) + len(lvl.crd)) * 4
            elif isinstance(lvl, SingletonLevel):
                total += len(lvl.crd) * 4
        return total


_POS_DTYPE = np.int64
_CRD_DTYPE = np.int32


def _strictly_sorted(coords: np.ndarray,
                     storage_order: tuple[int, ...]) -> bool:
    """Whether each row is lexicographically below the next one.

    Compared column by column in storage order (never through a Horner
    key, which overflows int64 on large dimension products): a row pair
    is ordered by the first column where it differs, and a fully tied
    pair — a duplicate — is not strictly ordered.
    """
    if coords.shape[0] < 2:
        return True
    tied = np.ones(coords.shape[0] - 1, dtype=bool)
    below = np.zeros(coords.shape[0] - 1, dtype=bool)
    for m in storage_order:
        col = coords[:, m]
        below |= tied & (col[:-1] < col[1:])
        tied &= col[:-1] == col[1:]
    return bool(below.all())


def sort_dedupe(coords: np.ndarray,
                order: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Canonical order of COO rows: a stable sort plus the run starts.

    Returns ``(perm, starts)``. ``coords[perm]`` is sorted
    lexicographically by the columns in ``order`` (most significant
    first) with tied rows in input order, and ``starts`` indexes, within
    ``perm``, the first row of each run of equal rows. So
    ``coords[perm[starts]]`` is the sorted, duplicate-free row set (what
    ``np.unique(coords, axis=0)`` returns for the identity ``order``,
    without its structured-dtype sort), ``vals[perm[starts]]`` keeps the
    first of each duplicate and ``np.add.reduceat(vals[perm], starts)``
    sums them.

    Rows are linearised to one int64 Horner key over the observed column
    ranges with the row number in the low digits, so a plain value
    ``sort()`` is stable and carries the permutation. When ``rows x
    extents`` does not fit in int64 (see :func:`_strictly_sorted`) the
    columns are lexsorted and adjacent rows compared instead.
    """
    n = coords.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    cols = [coords[:, m] for m in order]
    lows = [int(col.min()) for col in cols]
    extents = [int(col.max()) - low + 1 for col, low in zip(cols, lows)]
    if n * math.prod(extents) < 1 << 63:
        key = np.zeros(n, dtype=np.int64)
        for col, low, extent in zip(cols, lows, extents):  # in place
            key *= extent
            key += col
            key -= low
        key *= n
        key += np.arange(n)
        key.sort()
        key, perm = np.divmod(key, n)
        new_run = key[1:] != key[:-1]
    else:
        perm = np.lexsort(tuple(reversed(cols)))
        new_run = np.zeros(n - 1, dtype=bool)
        for col in cols:
            col = col[perm]
            new_run |= col[1:] != col[:-1]
    return perm, np.flatnonzero(np.concatenate(([True], new_run)))


def _dedupe_coo(
    coords: np.ndarray, vals: np.ndarray, storage_order: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Sort COO entries by storage order and sum duplicates.

    ``coords`` is (nnz, order); returns sorted, unique coords and summed
    values in storage-level order of significance. Entries that already
    arrive strictly increasing (unpacked storage, generated datasets)
    are sorted and duplicate-free, so they skip the sort — it would
    return the identity permutation.
    """
    if _strictly_sorted(coords, storage_order):
        return coords, vals
    perm, starts = sort_dedupe(coords, storage_order)
    return coords[perm[starts]], np.add.reduceat(vals[perm], starts)


def pack(
    coords: np.ndarray,
    vals: np.ndarray,
    dims: tuple[int, ...],
    fmt: Format,
) -> TensorStorage:
    """Pack COO data into level storage for an arbitrary format.

    Args:
        coords: integer array of shape (nnz, order), one row per entry.
        vals: values of shape (nnz,).
        dims: dimension sizes per tensor mode.
        fmt: target format; ``fmt.order`` must equal ``len(dims)``.

    The algorithm walks levels top-down, tracking each entry's *parent
    position*. Dense levels multiply the position space by the dimension;
    compressed levels rank the unique (parent, coordinate) pairs.
    """
    order = len(dims)
    if fmt.order != order:
        raise ValueError(f"format order {fmt.order} != tensor order {order}")
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, order) if order else (
        np.zeros((len(np.atleast_1d(vals)), 0), dtype=np.int64)
    )
    vals = np.asarray(vals, dtype=np.float64).reshape(-1)
    if coords.shape[0] != vals.shape[0]:
        raise ValueError("coords and vals disagree on entry count")
    for m in range(order):
        if coords.shape[0] and (
            coords[:, m].min() < 0 or coords[:, m].max() >= dims[m]
        ):
            raise ValueError(f"coordinate out of bounds in mode {m}")

    if order == 0:
        value = float(vals.sum()) if len(vals) else 0.0
        return TensorStorage(fmt, (), [], np.array([value], dtype=np.float64))

    coords, vals = _dedupe_coo(coords, vals, fmt.mode_ordering)
    n = coords.shape[0]

    levels: list[Level] = []
    # parent position of each stored entry at the level being built
    parent_pos = np.zeros(n, dtype=np.int64)
    num_parents = 1
    for lvl_idx in range(order):
        mode = fmt.mode_of_level(lvl_idx)
        dim = dims[mode]
        lvl_coords = coords[:, mode]
        lf = fmt.level_format(lvl_idx)
        if lf.is_dense:
            if lf.is_block and dim != lf.size:
                raise ValueError(
                    f"block level {lvl_idx} has static size {lf.size} but "
                    f"mode {mode} has dimension {dim}"
                )
            levels.append(DenseLevel(dim))
            parent_pos = parent_pos * dim + lvl_coords
            num_parents *= dim
        elif lf.is_singleton:
            # One coordinate per parent position: positions pass through.
            # parent_pos is non-decreasing (entries are in storage order),
            # so a repeated parent sits next to its twin.
            if n != num_parents or (parent_pos[1:] == parent_pos[:-1]).any():
                raise ValueError(
                    f"singleton level {lvl_idx} requires exactly one entry "
                    f"per parent position ({num_parents} parents, {n} "
                    f"entries); use a non-unique compressed parent level"
                )
            crd = np.zeros(num_parents, dtype=_CRD_DTYPE)
            crd[parent_pos] = lvl_coords
            levels.append(SingletonLevel(crd=crd))
        else:
            # Rank unique (parent_pos, coord) pairs. Entries are already
            # sorted in storage order, so pairs appear grouped and sorted.
            # Non-unique compressed levels (the COO root) keep one position
            # per stored entry instead of grouping equal pairs.
            key = parent_pos * dim + lvl_coords
            if n:
                if lf.unique:
                    new_group = np.concatenate(([True], key[1:] != key[:-1]))
                else:
                    new_group = np.ones(n, dtype=bool)
                group_rank = np.cumsum(new_group) - 1
                uniq_key = key[new_group]
                uniq_parent = parent_pos[new_group]
                uniq_crd = (uniq_key % dim).astype(_CRD_DTYPE)
            else:
                group_rank = np.zeros(0, dtype=np.int64)
                uniq_parent = np.zeros(0, dtype=np.int64)
                uniq_crd = np.zeros(0, dtype=_CRD_DTYPE)
            pos = np.bincount(uniq_parent + 1, minlength=num_parents + 1
                              ).astype(_POS_DTYPE, copy=False)
            np.cumsum(pos, out=pos)
            levels.append(CompressedLevel(pos=pos, crd=uniq_crd))
            parent_pos = group_rank
            num_parents = len(uniq_crd)

    # One value slot per innermost-level position: compressed tails have one
    # slot per stored entry, dense tails one per (possibly zero) dense slot.
    out_vals = np.zeros(num_parents, dtype=np.float64)
    out_vals[parent_pos] = vals
    return TensorStorage(fmt, tuple(dims), levels, out_vals)


def walk_levels(storage: TensorStorage,
                n_levels: int) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Enumerate the positions of level ``n_levels - 1``, outermost first.

    Returns ``(positions, cols)``: one position per stored entry of that
    level and, per walked **mode**, the entry's int64 coordinate — the
    vectorized analogue of a generated per-level loop nest. Dense levels
    multiply the position space, compressed levels expand their ``pos``
    segments, singleton levels pass positions through.
    """
    positions = np.zeros(1, dtype=np.int64)
    cols: dict[int, np.ndarray] = {}
    for lvl_idx in range(n_levels):
        lvl = storage.levels[lvl_idx]
        if isinstance(lvl, DenseLevel):
            dim = lvl.size
            new = np.tile(np.arange(dim, dtype=np.int64), len(positions))
            positions = np.repeat(positions, dim) * dim + new
            cols = {m: np.repeat(c, dim) for m, c in cols.items()}
        elif isinstance(lvl, SingletonLevel):
            new = lvl.crd[positions].astype(np.int64)
        else:
            # offsets[e] = pos[parent of e] + (rank of e in its segment)
            starts = lvl.pos[positions]
            counts = lvl.pos[positions + 1] - starts
            prefix = np.cumsum(counts) - counts
            positions = (np.repeat(starts - prefix, counts)
                         + np.arange(int(counts.sum())))
            cols = {m: np.repeat(c, counts) for m, c in cols.items()}
            new = lvl.crd[positions].astype(np.int64)
        cols[storage.fmt.mode_of_level(lvl_idx)] = new
    return positions, cols


def unpack(storage: TensorStorage) -> tuple[np.ndarray, np.ndarray]:
    """Expand level storage back to COO ``(coords, vals)``, mode order.

    Dense levels enumerate every slot, so unpacking a format with a trailing
    dense level yields explicit zeros; callers filter if needed.
    """
    if storage.order == 0:
        return np.zeros((1, 0), dtype=np.int64), storage.vals.copy()
    positions, cols = walk_levels(storage, storage.order)
    coords = np.stack([cols[m] for m in range(storage.order)], axis=1)
    return coords, storage.vals[positions]


def _mode_order_view(storage: TensorStorage) -> np.ndarray:
    """All-dense ``vals`` reshaped by level and transposed to mode order."""
    return storage.vals.reshape(
        [storage.level_dim(L) for L in range(storage.order)]
    ).transpose([storage.fmt.level_of_mode(m) for m in range(storage.order)])


def dense_view(storage: TensorStorage) -> np.ndarray:
    """All-dense storage in mode order as a **read-only** view of ``vals``.

    Never copies: a non-identity mode ordering comes back strided.
    """
    if not all(isinstance(lvl, DenseLevel) for lvl in storage.levels):
        raise ValueError(f"dense_view needs an all-dense format, got "
                         f"{storage.fmt}")
    view = _mode_order_view(storage)
    view.flags.writeable = False
    return view


def to_dense(storage: TensorStorage) -> np.ndarray:
    """Materialise the tensor as a dense numpy array.

    Aliasing differs by format: an all-dense storage in identity mode
    order comes back as a writable *view* of ``storage.vals``; every
    other storage (permuted dense, or any sparse level) comes back as a
    fresh copy. Callers that only read should use :func:`dense_view`;
    callers that write must not assume either.
    """
    if storage.order == 0:
        return np.array(storage.vals[0])
    if all(isinstance(lvl, DenseLevel) for lvl in storage.levels):
        # All-dense storage holds one value per slot in level order: a
        # reshape plus a mode-permuting transpose avoids the COO expansion.
        return np.ascontiguousarray(_mode_order_view(storage))
    dense = np.zeros(storage.dims, dtype=np.float64)
    coords, vals = unpack(storage)
    idx = tuple(coords[:, m] for m in range(storage.order))
    if all(mf.unique for mf in storage.fmt.mode_formats):
        # Unique levels never repeat a coordinate: a plain scatter.
        dense[idx] = vals
    else:
        np.add.at(dense, idx, vals)
    return dense


def _pack_dense(array: np.ndarray, fmt: Format) -> TensorStorage:
    """All-dense storage of ``array``: one slot per element in level
    order, i.e. a mode-permuting transposed copy (never through COO).
    ``vals`` owns its memory; the caller's array is not aliased."""
    if fmt.order != array.ndim:
        raise ValueError(
            f"format order {fmt.order} != tensor order {array.ndim}")
    level_dims = []
    for lvl_idx in range(fmt.order):
        mode = fmt.mode_of_level(lvl_idx)
        dim = array.shape[mode]
        lf = fmt.level_format(lvl_idx)
        if lf.is_block and dim != lf.size:
            raise ValueError(
                f"block level {lvl_idx} has static size {lf.size} but "
                f"mode {mode} has dimension {dim}"
            )
        level_dims.append(dim)
    vals = np.empty(array.size, dtype=np.float64)
    vals.reshape(level_dims)[...] = array.transpose(fmt.mode_ordering)
    return TensorStorage(fmt, tuple(array.shape),
                         [DenseLevel(dim) for dim in level_dims], vals)


def from_dense(array: np.ndarray, fmt: Format) -> TensorStorage:
    """Pack a dense numpy array, keeping only the nonzero entries for
    compressed levels (dense formats keep everything)."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim == 0:
        return pack(np.zeros((1, 0), dtype=np.int64), [float(array)], (), fmt)
    if fmt.is_all_dense:
        return _pack_dense(array, fmt)
    nz = np.nonzero(array)
    coords = np.stack(nz, axis=1) if array.ndim else np.zeros((0, 0))
    return pack(coords, array[nz], array.shape, fmt)
