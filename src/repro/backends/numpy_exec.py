"""Vectorized NumPy execution backend: plan once, execute many.

Where the Spatial interpreter and :class:`~repro.backends.cpu_exec.CpuExecutor`
walk the iteration space coordinate by coordinate in Python, this backend
executes an index-notation statement as a handful of whole-array NumPy
operations, split the way the DaCe streaming-SpMV exemplar splits its
SDFG into a pre-state, a compute state and a post-state:

* **pre-state** — an :class:`ExecPlan`, built the first time a statement
  runs against a given set of operand storages. Everything that depends
  only on the statement and on ``pos``/``crd``/dims is decided here,
  from each sparse operand's level arrays (**block** levels first
  validate their static extent). A term keyed on its operand's leading
  storage levels, each declared ordered and unique, reads its runs off
  them (CSR SpMV and DCSR SpMM key on the row level, SDDMM on both):
  :func:`~repro.tensor.storage.scan_keys` keys the last key level's
  positions, each position's child segment is one run, and only the
  coordinate columns a dense operand gathers on are expanded per entry,
  so no per-entry key is built or sorted. Any other term walks every
  entry (:func:`~repro.tensor.storage.walk_levels`: each level's
  ``segments`` repeat the coordinate columns above it by its children
  per parent and append its own coordinates, so entry ``e`` of the walk
  is ``vals[e]``) and sorts its keys once; both give the same index
  arrays. The plan keeps only compact index arrays (gather indices per
  dense operand, positions into ``vals``, ``reduceat`` run starts and
  output keys, join index pairs) and einsum strings — no coordinate
  matrix, no value. For a compressed
  lhs it also packs the output's level arrays once: a term's sorted,
  unique run keys *are* the output coordinates (a multi-term sum merges
  them with one sorted union), so only where each run lands in ``vals``
  is kept;
* **compute state** — ``ExecPlan.run``: gather → multiply/``einsum``
  → ``np.add.reduceat``, as a tuple of *runners*, one closure per term
  picked at plan time for that term's shape (its sparse values as a
  view or a positions gather; a keyed dense gather in one pass or in
  blocks; an einsum over dense views; its runs as the output rows or
  scattered into zeros; a slots write into a compressed lhs), so a run
  re-tests nothing the plan decided and does the same NumPy operations
  in the same order a general pass would: the same bytes. It reads live
  only what values may change: each operand's ``vals`` (sparse, dense
  and scalar), through the storages the plan holds. Everything else is
  fixed at plan time: each dense operand's level dims and one
  permutation (its mode ordering composed with its gather's axes; none
  when that is the identity), and whether a keyed term's runs are every
  row of its output (then the runs, ``+ 0.0``, *are* the output: no
  zeroed buffer, no scatter). A keyed term whose per-entry gathers
  total at least twice :data:`GATHER_BLOCK_BYTES` runs in blocks of
  about that many bytes of gathers, cut at run starts; consecutive
  blocks form one chunk per CPU the process may use, the caller's
  thread running the first and a shared pool the rest
  (:func:`repro.parallel.map_chunks`), and every block gathers from one
  contiguous copy per run of a permuted layout. Each block sums whole
  runs, over the same operands in the same order as one pass, and a
  term without keys (one sum over every entry) never runs in blocks, so
  the result is the same bytes on one CPU or many;
* **post-state** — a :class:`TensorStorage` in the lhs's declared format:
  the planned level arrays plus fresh ``vals`` for a compressed lhs (no
  dense buffer), the computed array wrapped without a copy for a dense
  one. ``np.asarray`` densifies it on request.

Each additive term is classified by how many *sparse* (non-all-dense)
factors it multiplies: none → one ``einsum`` over dense views; one →
its stored entries drive the gathers; two over the *same* index-variable
set (the InnerProd shape) → a sorted-key join (``np.intersect1d``) merges
them into one entry stream. Anything else — nested unions inside a
product, three or more sparse factors, joins over differing variable
sets — plans to *fall back*: :class:`VectorizeFallback` under ``strict``,
else the :class:`CpuExecutor` merge-lattice interpreter, on every call.

Every run goes through :func:`run_plan`, which hangs the plan on the
statement's :class:`Assignment` (never pickled, freed with it) and
revalidates it on every run by **identity** of each
operand's current :class:`TensorStorage`: any re-pack, conversion or
``_storage`` rebinding forces a rebuild, while level arrays and dims of
a packed storage are immutable and values are read live.

Like ``CpuExecutor``, this backend executes the *algorithm* (the original
assignment), not the schedule: schedules are semantics-preserving, so the
result is engine-independent up to floating-point summation order.
"""

from __future__ import annotations

import math
import operator
import time

import numpy as np

from repro.ir.index_notation import (
    Access,
    Add,
    Assignment,
    IndexExpr,
    Literal,
    Mul,
    Neg,
    Sub,
    additive_terms,
)
from repro.parallel import map_chunks, threads_for
from repro.schedule.stmt import IndexStmt
from repro.tensor.ops import infer_dimensions
from repro.tensor.storage import (
    DenseLevel,
    TensorStorage,
    pack,
    scan_keys,
    unpack,
    walk_levels,
    wrap_dense,
)

__all__ = [
    "ExecPlan",
    "NumpyExecutor",
    "VectorizeFallback",
    "enumerate_entries",
    "execute_numpy",
    "plan_spread",
    "run_plan",
]

#: einsum subscript letters; ``e`` is reserved for the entry axis.
_LETTERS = "abcdfghijklmnopqrstuvwxyz"

#: Bytes of dense gathers one block of entries holds at once, about an
#: L2 cache: a gather many times that size runs slower whole than in
#: blocks (CHANGES.md has SDDMM's timings).
GATHER_BLOCK_BYTES = 1 << 20


class VectorizeFallback(Exception):
    """The vectorizer cannot handle this statement shape.

    Raised (and caught by :meth:`NumpyExecutor.run` unless ``strict``)
    for nested additions inside a product, more than two sparse factors
    in one term, or a sparse-sparse join over differing index-variable
    sets — the shapes the merge-lattice ``CpuExecutor`` exists for.
    """


# ---------------------------------------------------------------------------
# Plan-time primitives: entry enumeration and scatter ordering
# ---------------------------------------------------------------------------


def _check_blocks(storage: TensorStorage) -> None:
    """A block level's extent is fixed by the format, not by the data."""
    for lvl_idx, lvl in enumerate(storage.levels):
        lf = storage.fmt.level_format(lvl_idx)
        if lf.is_block and lvl.size != lf.size:
            raise VectorizeFallback(
                f"block level extent {lvl.size} != static size {lf.size}"
            )


def enumerate_entries(storage: TensorStorage) -> tuple[np.ndarray, np.ndarray]:
    """All stored entries as ``(coords, vals)``, coords in **mode** order.

    :func:`~repro.tensor.storage.unpack` behind the block-extent check.
    Formats with trailing dense levels enumerate explicit zeros; they
    multiply out harmlessly.
    """
    _check_blocks(storage)
    return unpack(storage)


def _scatter_order(keys: np.ndarray):
    """How to sum ``keys``' duplicates with one ``reduceat``.

    Returns ``(perm, starts, ukeys)``: the stable sort order (``None``
    when the keys are already non-decreasing), the start of every
    equal-key run, and each run's key. Every run is non-empty by
    construction, sidestepping reduceat's empty-segment pitfall.
    """
    perm = None
    if not np.all(keys[1:] >= keys[:-1]):
        perm = np.argsort(keys, kind="stable")
        keys = keys[perm]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return perm, starts, keys[starts]


def _prefix_runs(st: TensorStorage, level_vars, lhs_s):
    """:func:`_scatter_order`'s ``starts`` and ``ukeys`` read off the
    level arrays, with no sort and no per-entry key; ``None`` where the
    keys need the sort.

    Applies when the term's sparse lhs variables ``lhs_s`` are the
    factor's first ``k`` storage levels (``level_vars`` are its walked
    levels' variables), in level order, each declared ordered and
    unique, and ``k`` is the last walked level or the one above it.
    Positions of the last key level then hold strictly increasing keys
    (checked, one per position: data that breaks its declaration takes
    the sort), and the entries below one position are one run: its
    start is where the position's child segment starts, and an empty
    segment is no run. Returns ``(segments, starts, ukeys)``, with
    ``segments`` the walked levels' ``(counts, coords)``.
    """
    k, n_outer = len(lhs_s), len(level_vars)
    if (not k or k < n_outer - 1 or len(set(map(id, level_vars))) < n_outer
            or list(map(id, lhs_s)) != list(map(id, level_vars[:k]))):
        return None
    for mf in st.fmt.mode_formats[:k]:
        if not (mf.ordered and mf.unique):
            return None
    segments = []
    for _, (counts, coords, keys) in zip(range(k), scan_keys(st)):
        segments.append((counts, coords))
    if not (keys[1:] > keys[:-1]).all():
        return None
    if k == n_outer:  # every entry is its own run
        return segments, None, keys
    segments.append(st.levels[k].segments(len(keys)))
    counts = np.broadcast_to(segments[-1][0], keys.shape)
    live = counts > 0
    return segments, (np.cumsum(counts) - counts)[live], keys[live]


def _entry_column(segments, level: int) -> np.ndarray:
    """One int64 coordinate per entry (position of the last of the
    walked ``segments``) of the mode stored at ``level``: its coordinates
    repeated by the child counts of every level below, as
    :func:`~repro.tensor.storage.walk_levels` repeats them."""
    col = segments[level][1].astype(np.int64, copy=False)
    for counts, _ in segments[level + 1:]:
        col = np.repeat(col, counts)
    return col


def _in_range(index: np.ndarray, extent: int) -> np.ndarray:
    """``index`` itself, refused as ``np.ravel_multi_index`` refuses a
    coordinate outside ``[0, extent)``."""
    if index.min() < 0 or index.max() >= extent:
        raise ValueError("invalid entry in coordinates array")
    return index


def _blocks(n: int, starts, size: int) -> list:
    """``[(entries, starts)]``: slices of about ``size`` entries, cut only
    at run starts (a run longer than ``size`` stays whole), each with the
    run starts inside it, a view of ``starts`` that the block rebases as
    it sums (``None``: one entry per run)."""
    if starts is None:
        return [(slice(lo, min(lo + size, n)), None)
                for lo in range(0, n, size)]
    cuts = np.unique(starts[np.searchsorted(
        starts, np.arange(0, n, size), side="right") - 1])
    bounds = [*map(int, cuts), n]
    at = np.searchsorted(starts, bounds).tolist()
    return [(slice(lo, hi), starts[a:b])
            for lo, hi, a, b in zip(bounds, bounds[1:], at, at[1:])]


def _flatten_factors(expr: IndexExpr) -> tuple[float, list[IndexExpr]]:
    """Flatten a product term into ``(scalar sign, [factors])``."""
    if isinstance(expr, Mul):
        sa, fa = _flatten_factors(expr.a)
        sb, fb = _flatten_factors(expr.b)
        return sa * sb, fa + fb
    if isinstance(expr, Neg):
        s, f = _flatten_factors(expr.a)
        return -s, f
    if isinstance(expr, (Add, Sub)):
        raise VectorizeFallback(
            "nested addition inside a product (union under intersection)"
        )
    return 1.0, [expr]


def _join(a: Access, b: Access):
    """Merge two sparse factors over one shared index-variable set.

    Returns the joined entries' coordinate columns (keyed by index
    variable) and, per factor, the positions of its values.
    """
    if {id(v) for v in a.indices} != {id(v) for v in b.indices}:
        raise VectorizeFallback(
            "sparse-sparse join over differing index-variable sets"
        )
    for acc in (a, b):
        _check_blocks(acc.tensor.storage)
    cols_a = walk_levels(a.tensor.storage, a.tensor.order)
    cols_b = walk_levels(b.tensor.storage, b.tensor.order)
    mode_b = {id(v): m for m, v in enumerate(b.indices)}
    keys_a = keys_b = 0
    for m, v in enumerate(a.indices):
        keys_a = keys_a * a.tensor.shape[m] + cols_a[m]
        keys_b = keys_b * a.tensor.shape[m] + cols_b[mode_b[id(v)]]
    if (len(np.unique(keys_a)) != len(keys_a)
            or len(np.unique(keys_b)) != len(keys_b)):
        raise VectorizeFallback(
            "duplicate stored coordinates in a sparse-sparse join"
        )
    _, ia, ib = np.intersect1d(keys_a, keys_b, assume_unique=True,
                               return_indices=True)
    cols = {id(v): cols_a[m][ia] for m, v in enumerate(a.indices)}
    return cols, [(a.tensor.storage, ia, ()), (b.tensor.storage, ib, ())]


# ---------------------------------------------------------------------------
# The plan (pre-state) and its compute state
# ---------------------------------------------------------------------------


def _dense_spec(st: TensorStorage, axes=None, shape=None, index=None,
                axis=None) -> tuple:
    """How to read a dense operand each run: ``vals`` reshaped to its
    level dims, permuted by its mode ordering composed with the gather's
    ``axes``, reshaped to ``shape`` (default: mode order, no gather),
    then gathered at ``index`` along ``axis``. ``perm`` is ``None`` for
    the identity: ``vals`` reshapes straight to ``shape``."""
    dims = [st.level_dim(L) for L in range(st.order)]
    perm = [st.fmt.level_of_mode(m) for m in axes or range(st.order)]
    shape = shape or [dims[L] for L in perm]
    return st, dims, None if perm == sorted(perm) else perm, shape, index, axis


# ---------------------------------------------------------------------------
# Runners: the compute state, one closure per shape, picked at plan time.
# Each reads ``vals`` live through the storages the plan holds and does
# the fewest NumPy operations its shape needs, in the order one general
# pass would do them, so every result is the same bytes.
# ---------------------------------------------------------------------------


def _layout(st, dims, perm, shape):
    """A dense operand's ``vals`` laid out for its gather: a reshaped
    view, or a transposed copy where the permutation forces one."""
    if perm is not None:
        return lambda: st.vals.reshape(dims).transpose(perm).reshape(shape)
    return lambda: st.vals.reshape(shape)


def _gathered(spec):
    """A dense operand laid out and gathered at its index (the whole
    operand when it has none)."""
    st, dims, perm, shape, index, axis = spec
    if index is not None and perm is None and len(shape) == 1:
        return lambda: st.vals.take(index, axis=axis)  # ``vals`` as laid out
    layout = _layout(st, dims, perm, shape)
    return layout if index is None else lambda: layout().take(index, axis=axis)


def _reader(st: TensorStorage, blk: tuple, pos):
    """A sparse factor's value per entry: ``vals`` itself (a view), or
    gathered at its planned positions ``pos``. ``blk`` keeps a block
    format's tile as value axes."""
    if blk:
        shape, pos = (-1,) + blk, slice(None) if pos is None else pos
        return lambda: st.vals.reshape(shape)[pos]
    return (lambda: st.vals) if pos is None else (lambda: st.vals[pos])


def _scalar(literal: float, scalars) -> float:
    """A term's scalar: its literal times its scalar operands, read live."""
    for st in scalars:
        literal *= float(st.vals[0])
    return literal


def _values(readers, literal: float, scalars):
    """The product of the sparse factors' values per entry, times the
    term's scalar; the one reader itself when there is nothing to
    multiply."""
    first, *rest = readers
    if not rest and not scalars and literal == 1.0:
        return first

    def values():
        vals = first()
        for read in rest:
            vals = vals * read()
        scalar = _scalar(literal, scalars)
        if scalar != 1.0:
            vals = vals * scalar
        return vals
    return values


def _one_pass(values, ops, einsum, starts, axis):
    """A term over all its entries at once: the values, times the
    gathered operands (an ``einsum``, or in place into the first, fresh
    gather), summed over each run of ``starts`` along ``axis``."""
    if einsum is not None:
        def run():
            vals = values()
            return np.einsum(einsum, vals, *[op() for op in ops])
    elif ops:
        first, *rest = ops

        def run():
            vals = values()
            contrib = first()
            for op in rest:
                contrib *= op()
            contrib *= vals
            return contrib
    else:
        run = values
    if starts is None:
        return run
    return lambda: np.add.reduceat(run(), starts, axis=axis)


def _in_blocks(values, layouts, gathers, blocks, einsum, axis):
    """A term whose gathers run in ``blocks`` (entry slices with their
    run starts), spread over the CPUs by :func:`repro.parallel.map_chunks`.
    The values and each operand's layout are read once per run (a
    gathered layout as one contiguous copy), and each block takes its
    slice of them, multiplies as :func:`_one_pass` does (an ``einsum``,
    or in place into its first, fresh gather) and sums its runs along
    ``axis``; ``gathers`` holds each operand's ``(index, axis)``
    (``None``: read whole)."""
    def run():
        vals = values()
        srcs = [layout() if gather is None
                else np.ascontiguousarray(layout())
                for layout, gather in zip(layouts, gathers)]

        def chunk(pieces):
            parts = []
            for entries, starts in pieces:
                ops = []
                for src, gather in zip(srcs, gathers):
                    ops.append(src if gather is None else
                               src.take(gather[0][entries], axis=gather[1]))
                if einsum is not None:
                    contrib = np.einsum(einsum, vals[entries], *ops)
                else:
                    contrib = ops[0]
                    for op in ops[1:]:
                        contrib *= op
                    contrib *= vals[entries]
                if starts is not None:
                    contrib = np.add.reduceat(contrib, starts - entries.start,
                                              axis=axis)
                parts.append(contrib)
            return parts
        return np.concatenate(
            map_chunks(chunk, blocks, threads_for(len(blocks))), axis)
    return run


class _Term:
    """One additive term: index arrays and einsum strings, no values.

    Operands are held as the storages the plan snapshot validates, and
    their ``vals`` are read on every run. ``factors`` holds ``(storage,
    positions, block)`` per sparse factor
    (``positions`` is ``None`` for the identity; ``block`` the extents of
    the format's trailing block levels, kept as dense value axes);
    ``dense`` holds :func:`_dense_spec` per dense operand, with its
    gather index and axis; ``blocks`` the entry slices its gathers run
    in, with the run starts inside each (see :func:`_blocks`; one slice
    of every entry when the term runs in one pass). ``identity``: the
    run keys are every row of the buffer, so the runs *are* the buffer.

    ``entries`` (a keyed term's value per run, in ``ukeys`` order,
    shaped ``(runs,) + d_shape``; an unkeyed one's einsum, the entry axis
    summed away; possibly a view of an operand's ``vals``) and ``run``
    (the term as a fresh dense array that broadcasts to the lhs shape)
    are runners picked here for this term's shape.
    """

    def __init__(self, term: IndexExpr, lhs_vars, dims, letters) -> None:
        self.literal, factors = _flatten_factors(term)
        self.scalars, dense, sparse = [], [], []
        for f in factors:
            if isinstance(f, Literal):
                self.literal *= float(f.value)
            elif not isinstance(f, Access):  # pragma: no cover
                raise VectorizeFallback(f"unexpected factor {type(f).__name__}")
            elif f.tensor.order == 0:
                self.scalars.append(f.tensor.storage)
            elif f.tensor.format.is_all_dense:
                dense.append(f)
            else:
                sparse.append(f)
        if len(sparse) > 2:
            raise VectorizeFallback(f"{len(sparse)} sparse factors in one term")

        def sub(ivars) -> str:
            return "".join(map(letters.__getitem__, map(id, ivars)))

        in_term = {id(v) for v in term.index_vars()}
        present = [v for v in lhs_vars if id(v) in in_term]
        # Broadcast into full lhs rank: size-1 axes for absent lhs vars.
        self.shape = tuple(dims[v] if id(v) in in_term else 1
                           for v in lhs_vars)
        self.factors, self.dense, self.ukeys, self.n = [], [], None, None
        self.key_vars, self.identity = None, False
        self.blocks = [(slice(None), None)]
        if not sparse:
            self.dense = [_dense_spec(acc.tensor.storage) for acc in dense]
            self.einsum = (",".join(sub(acc.indices) for acc in dense)
                           + "->" + sub(present))
            self.run = self._einsum_runner()
            return

        if len(sparse) == 2:
            cols, factors = _join(*sparse)
            walked, vals_sub = set(cols), "e"
        else:
            # Trailing block levels are dense inside a block (Chou et
            # al.): enumerate blocks, and keep the tile as value axes.
            (acc,), st = sparse, sparse[0].tensor.storage
            _check_blocks(st)
            n_outer = st.order
            while st.fmt.level_format(n_outer - 1).is_block:
                n_outer -= 1
            tile = range(n_outer, st.order)
            level_vars = [acc.indices[m]
                          for m in st.fmt.mode_ordering[:n_outer]]
            walked = set(map(id, level_vars))
            factors = [(st, None, tuple(st.levels[lv].size for lv in tile))]
            vals_sub = "e" + sub(acc.indices[st.fmt.mode_of_level(lv)]
                                 for lv in tile)
        lhs_s = [v for v in present if id(v) in walked]
        lhs_d = [v for v in present if id(v) not in walked]
        # A keyed term's runs are output coordinates: its sparse lhs
        # variables, linearised into ``ukeys``, times the dense tail.
        self.key_vars = (tuple(map(id, lhs_s)), tuple(map(id, lhs_d))
                         ) if lhs_s else None
        self.d_shape = tuple(dims[v] for v in lhs_d)
        perm = starts = runs = None
        if len(sparse) == 1:
            # Runs read off the level arrays need no per-entry key and
            # no sort, and expand per entry only the columns a dense
            # operand gathers on; any other term walks every column.
            runs = _prefix_runs(st, level_vars, lhs_s)
            if runs is None:
                cols = {id(acc.indices[m]): c
                        for m, c in walk_levels(st, n_outer).items()}
            else:
                segments, starts, self.ukeys = runs
                gathered = {id(v) for a in dense for v in a.indices}
                cols = {id(v): _entry_column(segments, lv)
                        for lv, v in enumerate(level_vars) if id(v) in gathered}
        self.n = (len(segments[-1][1]) if runs is not None
                  else len(next(iter(cols.values()))))
        if not self.n:
            if lhs_s:
                self.ukeys = np.zeros(0, dtype=np.int64)
            empty, shape = (0,) + self.d_shape, self.shape
            self.entries = lambda: np.zeros(empty)
            self.run = lambda: np.zeros(shape)
            return

        # Entries sharing an output coordinate (reduction vars living in
        # the sparse factor) merge: order them by linearized output key,
        # once, and fold that order into every index array (runs read
        # off the level arrays are in that order already).
        if lhs_s and runs is None:
            keys = 0
            for v in lhs_s:
                keys = keys * dims[v] + cols[id(v)]
            perm, starts, self.ukeys = _scatter_order(keys)
        if lhs_s:
            if starts is not None and len(starts) == self.n:
                starts = None
            s_shape = tuple(dims[v] for v in lhs_s)
            self.buffer_shape = (int(np.prod(s_shape)),) + self.d_shape
            self.sd_shape = s_shape + self.d_shape
            self.axes = [(lhs_s + lhs_d).index(v) for v in present]
            # Sorted, unique and in range: as many keys as rows is
            # every row, in order.
            self.identity = len(self.ukeys) == self.buffer_shape[0]
        if perm is not None:
            cols = {k: c[perm] for k, c in cols.items()}
            factors = [(st, perm if pos is None else pos[perm], blk)
                       for st, pos, blk in factors]
        for st, pos, blk in factors:
            if (pos is not None and len(pos) == st.nnz
                    and np.array_equal(pos, np.arange(len(pos)))):
                pos = None  # a join that kept every entry, in order
            self.factors.append((st, pos, blk))

        # Each dense factor is gathered at the entry coordinates along
        # the modes the sparse factor also indexes; its remaining modes
        # stay as residual axes. When every operand already has the
        # output's axes the product is a pure scale, done in place, and
        # residual axes go *before* the entry axis so that ``reduceat``
        # runs along the contiguous one.
        out = ("e" if lhs_s else "") + sub(lhs_d)
        subs, gathers = [vals_sub], []
        for acc in dense:
            shared = [m for m, v in enumerate(acc.indices)
                      if id(v) in walked]
            residual = [m for m in range(len(acc.indices)) if m not in shared]
            gathers.append((acc, shared, residual))
            subs.append(("e" if shared else "")
                        + sub(acc.indices[m] for m in residual))
        pure = (bool(lhs_s) and vals_sub == "e"
                and subs[1:] == [out] * len(dense))
        self.einsum = None if pure else ",".join(subs) + "->" + out
        self.tail = pure and bool(lhs_d)
        widths = [0]  # values each gather holds per entry
        for acc, shared, residual in gathers:
            st, shape = acc.tensor.storage, [acc.tensor.shape[m]
                                             for m in residual]
            if not shared:
                self.dense.append(_dense_spec(st))
                continue
            # One flat index over the shared modes: one mode's column
            # is that index itself, checked as ``ravel_multi_index``
            # checks it.
            index = (_in_range(cols[id(acc.indices[shared[0]])],
                               acc.tensor.shape[shared[0]])
                     if len(shared) == 1 else np.ravel_multi_index(
                         [cols[id(acc.indices[m])] for m in shared],
                         [acc.tensor.shape[m] for m in shared]))
            widths.append(int(np.prod(shape)))
            axes, shape, axis = ((residual + shared, shape + [-1], -1)
                                 if self.tail else
                                 (shared + residual, [-1] + shape, 0))
            self.dense.append(_dense_spec(st, axes, shape, index, axis))
        # The pure product scales its first operand in place: that must
        # be a fresh gather, never a view of an operand's ``vals``.
        assert self.einsum is not None or all(
            index is not None for *_, index, _ in self.dense)
        # Gathers of at least two blocks' bytes run in blocks, each
        # block's runs summed whole. A term without keys sums every
        # entry into one output and is never blocked: partial sums would
        # reassociate it.
        width = 8 * sum(widths)
        if lhs_s and self.n * width >= 2 * GATHER_BLOCK_BYTES:
            self.blocks = _blocks(self.n, starts,
                                  max(1, GATHER_BLOCK_BYTES // width))
        else:
            self.blocks = [(slice(None), starts)]
        self.entries = self._entries_runner()
        self.run = self._dense_runner()

    def _entries_runner(self):
        """The runner of ``entries``: one pass, or in blocks."""
        values = _values([_reader(st, blk, pos)
                          for st, pos, blk in self.factors],
                         self.literal, self.scalars)
        axis = -1 if self.tail else 0
        if len(self.blocks) > 1:
            run = _in_blocks(
                values, [_layout(*spec[:4]) for spec in self.dense],
                [None if spec[4] is None else spec[4:] for spec in self.dense],
                self.blocks, self.einsum, axis)
        else:
            ((_, starts),) = self.blocks
            run = _one_pass(values, [_gathered(spec) for spec in self.dense],
                            self.einsum, starts, axis)
        if not self.tail:
            return run
        # The entry axis came last (see ``tail``): move it first.
        axes = (len(self.d_shape), *range(len(self.d_shape)))
        return lambda: run().transpose(axes)

    def _einsum_runner(self):
        """A term without a sparse factor: one einsum over the dense
        operands' views, times the scalar (always: the product is a
        fresh array, never an einsum view of an operand)."""
        shape, literal, scalars = self.shape, self.literal, self.scalars
        if not self.dense:
            return lambda: np.full(shape, _scalar(literal, scalars))
        einsum = self.einsum
        layouts = [_layout(*spec[:4]) for spec in self.dense]

        def run():
            ops = [layout() for layout in layouts]
            return (_scalar(literal, scalars) * np.einsum(einsum, *ops)
                    ).reshape(shape)
        return run

    def _dense_runner(self):
        """The term as a dense array: an unkeyed einsum reshaped, a
        keyed term's runs as the rows themselves (``identity``) or
        scattered into zeros, then its axes put back in lhs order."""
        entries, shape = self.entries, self.shape
        if self.ukeys is None:  # einsum already reduced the entry axis
            return lambda: entries().reshape(shape)
        if self.identity:
            # Each row takes its one run, exactly as scattered into
            # zeros: 0.0 + -0.0 is +0.0, and the sum is a fresh array,
            # row-major like the buffer whatever the runs' layout.
            def rows():
                return np.add(entries(), 0.0, order="C")
        else:
            buffer_shape, ukeys = self.buffer_shape, self.ukeys

            def rows():
                contrib = entries()  # before the buffer: a lower peak
                buffer = np.zeros(buffer_shape)
                buffer[ukeys] += contrib
                return buffer
        # Axes are (lhs_s..., lhs_d...); interleave back into lhs order.
        sd_shape, axes = self.sd_shape, self.axes
        return lambda: rows().reshape(sd_shape).transpose(axes).reshape(shape)


class ExecPlan:
    """Everything about running one assignment that its values cannot change.

    Holds the operand tensors with the storages they had at build time
    (``held``, the identity snapshot :meth:`current` revalidates), one
    :class:`_Term` per additive term, the output format and shape, and —
    for a statement that cannot be vectorized — the reason, as
    ``fallback``. ``levels`` is the output's level structure, fixed at
    plan time: all dense for a dense lhs, packed from the terms' keys for
    a compressed one (``slots`` then says where each term's entries land
    in ``vals``), ``None`` for a compressed lhs the terms cannot key,
    whose dense result is packed on every run. ``run`` (not set on a
    fall-back plan) is the compute and post-states, picked here: each
    term's runner written into fresh ``vals`` at its slots, or the
    terms' dense sum stored in the lhs format.
    """

    def __init__(self, a: Assignment) -> None:
        # The lhs matters to ``+=`` only; None otherwise.
        self.lhs = a.lhs.tensor if a.accumulate else None
        # The lhs is read raw: packing an empty output would change
        # whether ``+=`` has something to add.
        self.lhs_storage = getattr(self.lhs, "_storage", None)
        self.held = tuple((t, t.storage)
                          for t in dict.fromkeys(a.rhs.tensors()))
        self.fallback: str | None = None
        self.fmt = a.lhs.tensor.format
        self.out_shape = a.lhs.tensor.shape
        self.levels = self.slots = None
        try:
            dims = infer_dimensions(a)
            if len(dims) > len(_LETTERS):
                raise VectorizeFallback(
                    f"{len(dims)} index variables exceed the einsum alphabet"
                )
            letters = {id(v): _LETTERS[k] for k, v in enumerate(dims)}
            lhs_vars = list(a.lhs.indices)
            self.terms = [(sign, _Term(term, lhs_vars, dims, letters))
                          for sign, term in additive_terms(a.rhs)]
        except VectorizeFallback as exc:
            self.fallback = str(exc)
            return
        self.accumulate = self.lhs_storage is not None
        # Single positive term: the term buffer *is* the result, so skip
        # the output allocation and the full-size += pass (this is the
        # whole cost for tiny-nnz kernels with dense outputs).
        self.direct = (len(self.terms) == 1 and self.terms[0][0] == 1
                       and not self.accumulate)
        if self.fmt.is_all_dense:
            self.levels = [DenseLevel(self.out_shape[m])
                           for m in self.fmt.mode_ordering]
        elif not self.accumulate:
            self._plan_output(lhs_vars)
        self.run = (self._slots_run() if self.slots is not None
                    else self._dense_run())

    def _plan_output(self, lhs_vars) -> None:
        """Pack a compressed output's level arrays, once.

        Every term must key its runs on the same split of all the lhs
        variables; the output coordinates are then the sorted union of
        their keys, times the dense tail. Packing labels each coordinate
        with its number, so ``slots`` records where every term's entries
        land in ``vals`` (``None``: all of it, in order).
        """
        splits = {term.key_vars for _, term in self.terms}
        mode = {id(v): m for m, v in enumerate(lhs_vars)}
        if len(splits) != 1 or None in splits or len(mode) != len(lhs_vars):
            return
        ((s_ids, d_ids),) = splits
        if len(s_ids) + len(d_ids) != len(mode):
            return
        term_keys = [term.ukeys for _, term in self.terms]
        keys = (term_keys[0] if len(term_keys) == 1
                else np.unique(np.concatenate(term_keys)))
        width = math.prod(self.out_shape[mode[v]] for v in d_ids)
        coords = np.empty((len(keys) * width, len(mode)), dtype=np.int64)
        s_cols = np.unravel_index(keys, [self.out_shape[mode[v]]
                                         for v in s_ids])
        for v, col in zip(s_ids, s_cols):
            coords[:, mode[v]] = np.repeat(col, width)
        d_cols = np.indices([self.out_shape[mode[v]] for v in d_ids])
        for v, col in zip(d_ids, d_cols.reshape(len(d_ids), width)):
            coords[:, mode[v]] = np.tile(col, len(keys))
        labelled = pack(coords, np.arange(1, len(coords) + 1),
                        self.out_shape, self.fmt)
        filled = np.flatnonzero(labelled.vals)
        slot = np.empty(len(coords), dtype=np.int64)
        slot[labelled.vals[filled].astype(np.int64) - 1] = filled
        self.levels, self.n_slots = labelled.levels, len(labelled.vals)
        self.slots = []
        for ukeys in term_keys:
            runs = np.searchsorted(keys, ukeys)
            mine = slot[(runs[:, None] * width + np.arange(width)).ravel()]
            self.slots.append(None if np.array_equal(
                mine, np.arange(self.n_slots)) else mine)

    def current(self) -> bool:
        """Whether every operand still holds the storage planned against."""
        if getattr(self.lhs, "_storage", None) is not self.lhs_storage:
            return False
        for t, st in self.held:
            if t.storage is not st:
                return False
        return True

    def _slots_run(self):
        """A compressed lhs with planned level arrays: each term's runs
        go into fresh ``vals`` at its slots. Each slot starts at +0.0
        and takes its terms in order, exactly as the dense sum did:
        0.0 + -0.0 is +0.0 here too."""
        fmt, shape, levels, n = (self.fmt, self.out_shape, self.levels,
                                 self.n_slots)
        writers = [_slot_writer(term, sign, slots)
                   for (sign, term), slots in zip(self.terms, self.slots)]

        def run():
            vals = np.zeros(n)
            for write in writers:
                write(vals)
            return TensorStorage(fmt, shape, list(levels), vals)
        return run

    def _dense_run(self):
        """A dense sum of the terms (the one term's own array when it is
        the result), then stored: in level order for a dense lhs, packed
        for a compressed lhs the terms cannot key."""
        fmt, out_shape, levels = self.fmt, self.out_shape, self.levels
        order = fmt.mode_ordering
        if levels is None:
            def store(out):
                return wrap_dense(out, fmt)
        else:  # a dense lhs: the array, in level order
            def store(out):
                return TensorStorage(fmt, out_shape, list(levels),
                                     out.transpose(order).reshape(-1))
        if self.direct:
            ((_, term),) = self.terms
            term_run = term.run
            if term.shape == out_shape:
                return lambda: store(term_run())
            return lambda: store(np.broadcast_to(term_run(), out_shape).copy())
        steps = [(np.add if sign >= 0 else np.subtract, term.run)
                 for sign, term in self.terms]
        if self.accumulate:
            steps.append((np.add, self.lhs.to_dense))

        def run():
            out = np.zeros(out_shape)
            for op, term_run in steps:
                op(out, term_run(), out=out)
            return store(out)
        return run


def _slot_writer(term: _Term, sign: float, slots):
    """A keyed term's runs added into (``sign`` < 0: subtracted from) the
    output's ``vals``: in place over all of them, or at ``slots``."""
    entries = term.entries
    flat = (lambda: entries().reshape(-1)) if term.d_shape else entries
    if slots is None:
        into = operator.iadd if sign >= 0 else operator.isub
        return lambda vals: into(vals, flat())
    op = np.add if sign >= 0 else np.subtract

    def write(vals):
        vals[slots] = op(vals[slots], flat())
    return write


def run_plan(a: Assignment, strict: bool = False
             ) -> tuple[TensorStorage, str, float | None]:
    """Run ``a`` through its plan: the one path every numpy-engine run
    takes.

    A current plan runs as it is; a missing or stale one is built first
    and published on ``a``. Returns ``(result, plan_state, plan_ms)``:
    the result in the lhs's declared format; ``"reused"``, ``"built"``
    or ``"fallback"`` (a plan that delegates, new or not); what building
    the plan cost in ms, ``None`` when this run reused it. A fall-back
    plan raises :class:`VectorizeFallback` under ``strict`` and runs the
    ``CpuExecutor`` otherwise.
    """
    plan = getattr(a, "_exec_plan", None)
    plan_ms = None
    if plan is None or not plan.current():
        start = time.perf_counter()
        plan = ExecPlan(a)
        plan_ms = (time.perf_counter() - start) * 1e3
        # Built fully, then published by one attribute store: racing
        # threads each build a whole plan and the last one stays.
        object.__setattr__(a, "_exec_plan", plan)
    if plan.fallback is None:
        return plan.run(), "reused" if plan_ms is None else "built", plan_ms
    if strict:
        raise VectorizeFallback(plan.fallback)
    from repro.backends.cpu_exec import CpuExecutor

    return CpuExecutor(a).run(), "fallback", plan_ms


def plan_spread(a: Assignment) -> dict:
    """How a run of ``a``'s current, vectorized plan spreads over the
    CPUs from this thread: ``pieces``, the blocks its terms run in (an
    unblocked term is one), and ``threads``, the most threads one term's
    blocks run on (:func:`repro.parallel.threads_for`)."""
    blocks = [len(term.blocks) for _, term in a._exec_plan.terms]
    return dict(pieces=sum(blocks), threads=threads_for(max(blocks)))


class NumpyExecutor:
    """Vectorized execution of a (scheduled or bare) statement.

    Cheap to construct: :meth:`run` goes through :func:`run_plan`.

    Attributes:
        fell_back: True once :meth:`run` has delegated to the
            ``CpuExecutor`` because the statement shape was not
            vectorizable.
        plan_state: after :meth:`run`, ``"built"``, ``"reused"`` or
            ``"fallback"`` (a plan that delegates, new or not).
        plan_ms: what building the plan cost, when this run built it.
    """

    def __init__(self, stmt: IndexStmt | Assignment) -> None:
        self.assignment = (stmt.assignment if isinstance(stmt, IndexStmt)
                           else stmt)
        self.fell_back = False
        self.plan_state: str | None = None
        self.plan_ms: float | None = None

    def run(self, strict: bool = False) -> TensorStorage:
        """Execute, returning the result in the lhs's declared format.

        ``strict=True`` raises :class:`VectorizeFallback` instead of
        delegating to the ``CpuExecutor`` interpreter.
        """
        result, self.plan_state, self.plan_ms = run_plan(self.assignment,
                                                         strict)
        self.fell_back = self.plan_state == "fallback"
        return result


def execute_numpy(stmt: IndexStmt | Assignment,
                  strict: bool = False) -> TensorStorage:
    """Execute a statement with the vectorized NumPy backend.

    Falls back to :func:`repro.backends.cpu_exec.execute_cpu` for
    non-vectorizable shapes unless ``strict`` is set.
    """
    return NumpyExecutor(stmt).run(strict=strict)
