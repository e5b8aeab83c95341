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

A consumer never branches on the kind of a level: each level class
answers two level functions, and every walk derives from them.

* ``segments(n_parents) -> (counts, coords)``: the children of each of
  ``n_parents`` parent positions, in position order. ``counts`` is the
  number of children per parent (an int for a fixed fan-out: dense
  ``size``, singleton 1; ``np.diff(pos)`` for compressed) and ``coords``
  one coordinate per child position.
* ``arrays``: the level's stored arrays by name (``{}`` dense, ``crd``
  singleton, ``pos`` and ``crd`` compressed).

A walk from the root visits every position of each level in order, so
the positions of a level are always ``0..n-1`` and a level's parents
are simply counted: :func:`scan` yields each level's segments, and
:func:`scan_keys` each level's segments with its positions' linearised
keys.

The :func:`pack` function converts COO data into this representation for an
arbitrary format, and :func:`unpack` converts back, so round-tripping is
property-testable.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterator, Sequence

import numpy as np

from repro.formats.format import Format


@dataclasses.dataclass
class DenseLevel:
    """A dense (uncompressed) storage level: coordinates are implicit."""

    size: int

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        return {}

    def segments(self, n_parents: int) -> tuple[int, np.ndarray]:
        """Every parent holds each coordinate of ``[0, size)`` once."""
        coords = np.empty((n_parents, self.size), dtype=np.int64)
        coords[:] = np.arange(self.size)  # one broadcast copy: no np.tile
        return self.size, coords.reshape(-1)


@dataclasses.dataclass
class CompressedLevel:
    """A compressed storage level: explicit ``pos``/``crd`` arrays."""

    pos: np.ndarray
    crd: np.ndarray

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        return {"pos": self.pos, "crd": self.crd}

    @property
    def nnz(self) -> int:
        return len(self.crd)

    def segment(self, parent_pos: int) -> tuple[int, int]:
        """Child position range ``[start, end)`` for one parent position."""
        return int(self.pos[parent_pos]), int(self.pos[parent_pos + 1])

    def segments(self, n_parents: int) -> tuple[np.ndarray, np.ndarray]:
        """Parent ``p`` holds ``crd[pos[p]:pos[p + 1]]``."""
        return self.pos[1:] - self.pos[:-1], self.crd


@dataclasses.dataclass
class SingletonLevel:
    """A singleton storage level: one explicit coordinate per parent
    position (a ``crd`` array with no ``pos`` array)."""

    crd: np.ndarray

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        return {"crd": self.crd}

    def segments(self, n_parents: int) -> tuple[int, np.ndarray]:
        """Parent ``p`` holds the one coordinate ``crd[p]``."""
        return 1, self.crd


Level = DenseLevel | CompressedLevel | SingletonLevel


def make_level(size: int, arrays: dict[str, np.ndarray]) -> Level:
    """The storage level holding ``arrays``, a level format's declared
    ones (``ModeFormat.arrays()``) by name; a level that stores none is
    dense over ``size`` coordinates."""
    if "pos" in arrays:
        return CompressedLevel(**arrays)
    return SingletonLevel(**arrays) if arrays else DenseLevel(size)


@dataclasses.dataclass
class TensorStorage(np.lib.mixins.NDArrayOperatorsMixin):
    """Packed storage for one tensor: levels (outermost first) plus values.

    ``levels[L]`` stores tensor mode ``fmt.mode_ordering[L]``. ``vals`` has
    one entry per position of the innermost level.

    The level arrays (``pos``/``crd``) and ``dims`` of a packed storage
    are **immutable**: nothing writes them in place, every re-pack,
    conversion or slice installs a new ``TensorStorage``. Consumers (the
    numpy engine's ``ExecPlan``) may therefore cache anything derived
    from them, keyed on the identity of this object. ``vals`` may be
    updated in place and must be read live.

    To NumPy a storage is the dense tensor it holds, built on request:
    ``np.asarray`` calls :meth:`__array__`, and arithmetic operators and
    ufuncs (``result + 1e-3``, ``np.abs(result)``) densify every storage
    operand first.
    """

    fmt: Format
    dims: tuple[int, ...]
    levels: list[Level]
    vals: np.ndarray

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def shape(self) -> tuple[int, ...]:
        """``dims``, under the name NumPy consumers read."""
        return self.dims

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense tensor, built on request by :func:`to_dense`, so
        ``np.asarray`` (and any NumPy function) reads a storage as the
        tensor it holds. ``copy`` follows NumPy 2: ``True`` never aliases
        ``vals``, ``False`` refuses to build a new array."""
        dense = to_dense(self)
        if dtype is not None:
            dense = dense.astype(dtype, copy=False)
        shared = np.may_share_memory(dense, self.vals)
        if copy is False and not shared:
            raise ValueError("densifying this storage needs a copy")
        return dense.copy() if copy and shared else dense

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = tuple(np.asarray(x) if isinstance(x, TensorStorage) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    @property
    def nnz(self) -> int:
        """Number of stored (possibly explicit-zero) entries."""
        return len(self.vals)

    def level_dim(self, level: int) -> int:
        """Dimension size of the mode stored at ``level``."""
        return self.dims[self.fmt.mode_of_level(level)]

    def array(self, level: int, name: str) -> np.ndarray:
        """Fetch a named sub-array (``pos``/``crd``) of a sparse level."""
        arrays = self.levels[level].arrays
        if name not in arrays:
            raise KeyError(f"level {level} has no {name!r} array (it stores "
                           f"{', '.join(arrays) or 'none'})")
        return arrays[name]

    def bytes_total(self, elem_bytes: int = 4) -> int:
        """Total footprint in bytes (indices and values, 4B words)."""
        return len(self.vals) * elem_bytes + 4 * sum(
            len(arr) for lvl in self.levels for arr in lvl.arrays.values())


_POS_DTYPE = np.int64
_CRD_DTYPE = np.int32


def _adjacent_order(columns: Sequence[np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """``(below, tied)``: per adjacent row pair of the rows whose
    ``columns`` (one or more, most significant first) are given, whether
    the first row is lexicographically below the second, and whether
    they are equal.

    Compared column by column (never through a Horner key, which
    overflows int64 on large dimension products): a row pair is ordered
    by the first column where it differs.
    """
    n = max(len(columns[0]) - 1, 0)
    tied = np.ones(n, dtype=bool)
    below = np.zeros(n, dtype=bool)
    for col in columns:
        col = np.ascontiguousarray(col)  # a strided column reads slowly
        below |= tied & (col[:-1] < col[1:])
        tied &= col[:-1] == col[1:]
    return below, tied


def _strictly_sorted(coords: np.ndarray,
                     storage_order: tuple[int, ...]) -> bool:
    """Whether each row is lexicographically below the next one (a fully
    tied pair, a duplicate, is not strictly ordered)."""
    below, _ = _adjacent_order([coords[:, m] for m in storage_order])
    return bool(below.all())


def sorted_run_starts(columns: Sequence[np.ndarray]) -> np.ndarray | None:
    """:func:`sort_dedupe`'s ``starts`` for rows already in order.

    ``columns`` are the rows' columns, most significant first. When
    every row is lexicographically at or below the next, the stable sort
    is the identity, so runs of equal rows start where a row is strictly
    below its successor; returns ``None`` for rows out of order.
    """
    below, tied = _adjacent_order(columns)
    if not (below | tied).all():
        return None
    first = np.ones(min(len(columns[0]), 1), dtype=bool)  # row 0 opens one
    return np.flatnonzero(np.concatenate((first, below)))


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
    return the identity permutation. Rows are gathered with
    ``np.take(..., axis=0)``, several times faster than 2-D fancy
    indexing, and a sort that finds no duplicates permutes ``vals``
    instead of summing runs of one (the same bytes, ``-0.0`` included).
    """
    if _strictly_sorted(coords, storage_order):
        return coords, vals
    perm, starts = sort_dedupe(coords, storage_order)
    if len(starts) == len(perm):
        return np.take(coords, perm, axis=0), vals[perm]
    return (np.take(coords, perm[starts], axis=0),
            np.add.reduceat(vals[perm], starts))


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

    Entries are sorted into storage order and deduplicated first (a
    no-op for sorted input), then the levels are built in one walk
    top-down, tracking each entry's *parent position*. Dense levels
    multiply the position space by the dimension. A compressed level
    stores the coordinate of every *fresh* entry, one whose coordinates
    at this level or above differ from its predecessor's (every entry
    below a non-unique level), and counts them per parent into ``pos``;
    where every entry is fresh, positions are the entry indices.
    """
    order = len(dims)
    if fmt.order != order:
        raise ValueError(f"format order {fmt.order} != tensor order {order}")
    if order:
        # int32 coordinates (every generated dataset's) are read as they
        # are, without a widening copy: positions are computed in int64.
        coords = np.asarray(coords)
        if coords.dtype != _CRD_DTYPE:
            coords = np.asarray(coords, dtype=np.int64)
        coords = coords.reshape(-1, order)
    else:
        coords = np.zeros((len(np.atleast_1d(vals)), 0), dtype=np.int64)
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
    # Each entry's position at the level above; None when entry e sits at
    # position e, so that no two entries share a parent.
    parent: np.ndarray | None = np.zeros(n, dtype=np.int64)
    num_parents = 1
    # Whether entry e's coordinates so far differ from entry e-1's, i.e.
    # whether e opens a new position at the next compressed level; None
    # when every entry does.
    fresh: np.ndarray | None = np.zeros(n, dtype=bool)
    fresh[:1] = True
    for lvl_idx in range(order):
        mode = fmt.mode_of_level(lvl_idx)
        dim = dims[mode]
        lvl_coords = coords[:, mode]
        lf = fmt.level_format(lvl_idx)
        if fresh is not None:
            fresh[1:] |= lvl_coords[1:] != lvl_coords[:-1]
        if lf.is_dense:
            if lf.is_block and dim != lf.size:
                raise ValueError(
                    f"block level {lvl_idx} has static size {lf.size} but "
                    f"mode {mode} has dimension {dim}"
                )
            levels.append(DenseLevel(dim))
            parent = (np.arange(n, dtype=np.int64) if parent is None
                      else parent) * dim + lvl_coords
            num_parents *= dim
        elif lf.is_singleton:
            # One coordinate per parent position: positions pass through.
            # parent is non-decreasing (entries are in storage order),
            # so a repeated parent sits next to its twin.
            if n != num_parents or (parent is not None
                                    and (parent[1:] == parent[:-1]).any()):
                raise ValueError(
                    f"singleton level {lvl_idx} requires exactly one entry "
                    f"per parent position ({num_parents} parents, {n} "
                    f"entries); use a non-unique compressed parent level"
                )
            # n distinct non-decreasing parents out of n: entry e is at e.
            levels.append(SingletonLevel(crd=lvl_coords.astype(_CRD_DTYPE)))
            parent = fresh = None
        else:
            # Entries are sorted and duplicate-free, so a fresh entry opens
            # the next position. A non-unique level (the COO root) gives
            # every stored entry a position of its own.
            if fresh is not None and (not lf.unique or fresh.all()):
                fresh = None
            if fresh is None:
                crd = lvl_coords.astype(_CRD_DTYPE)
                opened_by = parent
            else:
                opens = np.flatnonzero(fresh)
                crd = lvl_coords[opens].astype(_CRD_DTYPE)
                opened_by = parent[opens]
            if opened_by is None:
                pos = np.arange(num_parents + 1, dtype=_POS_DTYPE)
            else:
                pos = np.zeros(num_parents + 1, dtype=_POS_DTYPE)
                np.cumsum(np.bincount(opened_by, minlength=num_parents),
                          out=pos[1:])
            levels.append(CompressedLevel(pos=pos, crd=crd))
            parent = None if fresh is None else np.cumsum(fresh) - 1
            num_parents = len(crd)

    # One value slot per innermost-level position: compressed tails have one
    # slot per stored entry, dense tails one per (possibly zero) dense slot.
    if parent is None:
        out_vals = vals.copy()
    else:
        out_vals = np.zeros(num_parents, dtype=np.float64)
        out_vals[parent] = vals
    return TensorStorage(fmt, tuple(dims), levels, out_vals)


def scan(storage: TensorStorage) -> Iterator[tuple[int | np.ndarray,
                                                  np.ndarray]]:
    """Every level's ``segments``, from the root down.

    The parents of a level are all the positions of the level above, in
    order, so each level is asked for as many parents as the level above
    yielded coordinates (the root has one parent).
    """
    n_parents = 1
    for lvl in storage.levels:
        counts, coords = lvl.segments(n_parents)
        yield counts, coords
        n_parents = len(coords)


def scan_keys(storage: TensorStorage) -> Iterator[tuple[int | np.ndarray,
                                                       np.ndarray,
                                                       np.ndarray]]:
    """:func:`scan` with the linearised key of every position.

    Yields each level's ``(counts, coords, keys)``, from the root down: a
    position's key is its parent's key times the level's dimension plus
    its own coordinate (Horner, from the root's one ``0``), so a level's
    keys are its positions' storage-prefix coordinates, linearised. Under
    ordered, unique levels they are strictly increasing. The walk is
    :func:`scan`'s, written out: wrapping that generator would cost a
    Python call per level of every key walk (``capstan.stats``).
    """
    keys = np.zeros(1, dtype=np.int64)
    for lvl, mode in zip(storage.levels, storage.fmt.mode_ordering):
        counts, coords = lvl.segments(len(keys))
        keys = np.repeat(keys, counts) * storage.dims[mode] + coords
        yield counts, coords, keys


def walk_levels(storage: TensorStorage,
                n_levels: int) -> dict[int, np.ndarray]:
    """Enumerate the positions of level ``n_levels - 1``, outermost first.

    Returns, per walked **mode**, one int64 coordinate per position of
    that level, in position order — the vectorized analogue of a
    generated per-level loop nest. Each level repeats the columns above
    it by its ``counts`` and appends its own ``coords``. Position ``e``
    of the last level is row ``e``; for the innermost level that is
    ``vals[e]``.
    """
    cols: dict[int, np.ndarray] = {}
    for lvl_idx, (counts, coords) in zip(range(n_levels), scan(storage)):
        cols = {m: np.repeat(c, counts) for m, c in cols.items()}
        cols[storage.fmt.mode_of_level(lvl_idx)] = coords.astype(
            np.int64, copy=False)
    return cols


def unpack(storage: TensorStorage) -> tuple[np.ndarray, np.ndarray]:
    """Expand level storage back to COO ``(coords, vals)``, mode order.

    ``vals`` is ``storage.vals`` itself, not a copy: row ``e`` of
    ``coords`` is the coordinate of ``vals[e]``. Dense levels enumerate
    every slot, so unpacking a format with a trailing dense level yields
    explicit zeros; callers filter if needed.
    """
    if storage.order == 0:
        return np.zeros((1, 0), dtype=np.int64), storage.vals
    cols = walk_levels(storage, storage.order)
    coords = np.stack([cols[m] for m in range(storage.order)], axis=1)
    return coords, storage.vals


def _mode_order_view(storage: TensorStorage) -> np.ndarray:
    """All-dense ``vals`` reshaped by level and transposed to mode order."""
    return storage.vals.reshape(
        [storage.level_dim(L) for L in range(storage.order)]
    ).transpose([storage.fmt.level_of_mode(m) for m in range(storage.order)])


def dense_view(storage: TensorStorage) -> np.ndarray:
    """All-dense storage in mode order as a **read-only** view of ``vals``.

    Never copies: a non-identity mode ordering comes back strided.
    """
    if not storage.fmt.is_all_dense:
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
    if storage.fmt.is_all_dense:
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


def wrap_dense(array: np.ndarray, fmt: Format) -> TensorStorage:
    """A computed dense result as storage in ``fmt``, which
    :func:`to_dense` gives back bit for bit.

    All-dense formats wrap ``array``: ``vals`` is a view of it whenever
    it is already in level order, so the caller hands the array over.
    Any other format packs every entry that is not ``+0.0`` (a ``-0.0``
    is kept), where :func:`from_dense` would drop it.
    """
    array = np.asarray(array, dtype=np.float64)
    if fmt.is_all_dense:
        return TensorStorage(
            fmt, array.shape,
            [DenseLevel(array.shape[m]) for m in fmt.mode_ordering],
            array.transpose(fmt.mode_ordering).reshape(-1))
    # Any set bit: +0.0 is the one all-zero float64.
    flat = np.ascontiguousarray(array).reshape(-1)
    keep = np.flatnonzero(flat.view(np.int64) != 0)
    coords = np.stack(np.unravel_index(keep, array.shape), axis=1)
    return pack(coords, flat[keep], array.shape, fmt)


def aligned_values(a: TensorStorage,
                   b: TensorStorage) -> tuple[np.ndarray, np.ndarray]:
    """Two same-shape tensors' values over the union of their stored
    coordinates, an entry one side does not store reading 0 there.

    Storages of one unique format with equal level arrays (an engine
    result and the interpreter's, as a rule) store the same coordinates
    in the same order: their ``vals`` come back as they are. Otherwise
    coordinates meet as linearised keys, with duplicate coordinates of a
    non-unique format summed as :func:`to_dense` sums them.
    """
    if a.dims != b.dims:
        raise ValueError(f"shapes differ: {a.dims} vs {b.dims}")
    # Equal dims and format fix the dense levels; compare the rest.
    if (a.fmt == b.fmt and all(mf.unique for mf in a.fmt.mode_formats)
            and all(np.array_equal(arr, y.arrays[name])
                    for x, y in zip(a.levels, b.levels)
                    for name, arr in x.arrays.items())):
        return a.vals, b.vals
    keyed = []
    for storage in (a, b):
        coords, vals = unpack(storage)
        keyed.append((np.ravel_multi_index(coords.T, storage.dims), vals,
                      all(mf.unique for mf in storage.fmt.mode_formats)))
    keys = np.union1d(keyed[0][0], keyed[1][0])
    out = []
    for k, vals, unique in keyed:
        aligned = np.zeros(len(keys))
        if unique:
            aligned[np.searchsorted(keys, k)] = vals
        else:
            np.add.at(aligned, np.searchsorted(keys, k), vals)
        out.append(aligned)
    return out[0], out[1]


def from_dense(array: np.ndarray, fmt: Format) -> TensorStorage:
    """Pack a dense numpy array, keeping only the nonzero entries for
    compressed levels (dense formats keep everything)."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim == 0:
        return pack(np.zeros((1, 0), dtype=np.int64), [float(array)], (), fmt)
    if fmt.is_all_dense:
        return _pack_dense(array, fmt)
    nz = np.nonzero(array)
    coords = np.stack(nz, axis=1)
    return pack(coords, array[nz], array.shape, fmt)
