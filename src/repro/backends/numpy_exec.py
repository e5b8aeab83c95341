"""Vectorized NumPy execution backend: plan once, execute many.

Where the Spatial interpreter and :class:`~repro.backends.cpu_exec.CpuExecutor`
walk the iteration space coordinate by coordinate in Python, this backend
executes an index-notation statement as a handful of whole-array NumPy
operations, split the way the DaCe streaming-SpMV exemplar splits its
SDFG into a pre-state, a compute state and a post-state:

* **pre-state** — an :class:`ExecPlan`, built the first time a statement
  runs against a given set of operand storages. Everything that depends
  only on the statement and on ``pos``/``crd``/dims is decided here, by
  one walk of each sparse operand's levels
  (:func:`~repro.tensor.storage.walk_levels`: each level's ``segments``
  repeat the coordinate columns above it by its children per parent and
  append its own coordinates, so entry ``e`` of the walk is ``vals[e]``;
  **block** levels first validate their static extent). The plan keeps only
  compact index arrays (gather indices per dense operand, positions into
  ``vals``, ``reduceat`` run starts and output keys, join index pairs)
  and einsum strings — no coordinate matrix, no value. For a compressed
  lhs it also packs the output's level arrays once: a term's sorted,
  unique run keys *are* the output coordinates (a multi-term sum merges
  them with one sorted union), so only where each run lands in ``vals``
  is kept;
* **compute state** — :meth:`ExecPlan.run`: gather → multiply/``einsum``
  → ``np.add.reduceat``. It reads live only what values may change: each
  operand's ``vals`` (sparse, dense and scalar), through the storages
  the plan holds. Everything else is fixed at plan time: each dense
  operand's level dims and one permutation (its mode ordering composed
  with its gather's axes; none when that is the identity), and whether
  a keyed term's runs are every row of its output (then the runs,
  ``+ 0.0``, *are* the output: no zeroed buffer, no scatter). A term
  with a dense gather wider than its per-entry output (SDDMM's two
  rank-``K`` rows per entry) runs in blocks of about
  :data:`GATHER_BLOCK_BYTES` of gathers, cut at run starts, so every
  per-output sum sees the same operands in the same order as one pass;
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

The plan hangs on the statement's :class:`Assignment` (never pickled,
freed with it) and is revalidated on every run by **identity** of each
operand's current :class:`TensorStorage`: any re-pack, conversion or
``_storage`` rebinding forces a rebuild, while level arrays and dims of
a packed storage are immutable and values are read live.

Like ``CpuExecutor``, this backend executes the *algorithm* (the original
assignment), not the schedule: schedules are semantics-preserving, so the
result is engine-independent up to floating-point summation order.
"""

from __future__ import annotations

import math
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
from repro.schedule.stmt import IndexStmt
from repro.tensor.ops import infer_dimensions
from repro.tensor.storage import (
    DenseLevel,
    TensorStorage,
    pack,
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
]

#: einsum subscript letters; ``e`` is reserved for the entry axis.
_LETTERS = "abcdfghijklmnopqrstuvwxyz"

#: Bytes of dense gathers one block of entries holds at once, about an
#: L2 cache. Whole, SDDMM's two ``(nnz, 256)`` gathers at scale 0.05 are
#: 14.8 MB each, and a call took 2.3x as long as in 1 MiB blocks.
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


def _blocks(n: int, starts, size: int) -> list:
    """``[(entries, starts)]``: slices of about ``size`` entries, cut only
    at run starts (a run longer than ``size`` stays whole), each with its
    run starts rebased to the slice (``None``: one entry per run)."""
    if starts is None:
        return [(slice(lo, min(lo + size, n)), None)
                for lo in range(0, n, size)]
    cuts = np.unique(starts[np.searchsorted(
        starts, np.arange(0, n, size), side="right") - 1])
    bounds = [*map(int, cuts), n]
    return [(slice(lo, hi), starts[np.searchsorted(starts, lo):
                                   np.searchsorted(starts, hi)] - lo)
            for lo, hi in zip(bounds, bounds[1:])]


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


class _Term:
    """One additive term: index arrays and einsum strings, no values.

    Operands are held as the storages the plan snapshot validates, and
    their ``vals`` are read on every run. ``factors`` holds ``(storage,
    positions, block)`` per sparse factor
    (``positions`` is ``None`` for the identity; ``block`` the extents of
    the format's trailing block levels, kept as dense value axes);
    ``dense`` holds :func:`_dense_spec` per dense operand, with its
    gather index and axis; ``blocks`` the entry slices computed one at a
    time, with their run starts (see :func:`_blocks`). ``identity``: the
    run keys are every row of the buffer, so the runs *are* the buffer.
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
            return "".join(letters[id(v)] for v in ivars)

        in_term = {id(v) for v in term.index_vars()}
        present = [v for v in lhs_vars if id(v) in in_term]
        # Broadcast into full lhs rank: size-1 axes for absent lhs vars.
        self.shape = tuple(dims[v] if id(v) in in_term else 1
                           for v in lhs_vars)
        self.factors, self.dense, self.ukeys, self.n = [], [], None, None
        self.key_vars, self.identity = None, False
        if not sparse:
            self.dense = [_dense_spec(acc.tensor.storage) for acc in dense]
            self.einsum = (",".join(sub(acc.indices) for acc in dense)
                           + "->" + sub(present))
            return

        if len(sparse) == 2:
            cols, factors = _join(*sparse)
            vals_sub = "e"
        else:
            # Trailing block levels are dense inside a block (Chou et
            # al.): enumerate blocks, and keep the tile as value axes.
            (acc,), st = sparse, sparse[0].tensor.storage
            _check_blocks(st)
            n_outer = st.order
            while st.fmt.level_format(n_outer - 1).is_block:
                n_outer -= 1
            tile = range(n_outer, st.order)
            by_mode = walk_levels(st, n_outer)
            cols = {id(acc.indices[m]): c for m, c in by_mode.items()}
            factors = [(st, None, tuple(st.levels[lv].size for lv in tile))]
            vals_sub = "e" + sub(acc.indices[st.fmt.mode_of_level(lv)]
                                 for lv in tile)
        self.n = len(next(iter(cols.values())))
        lhs_s = [v for v in present if id(v) in cols]
        lhs_d = [v for v in present if id(v) not in cols]
        # A keyed term's runs are output coordinates: its sparse lhs
        # variables, linearised into ``ukeys``, times the dense tail.
        self.key_vars = (tuple(map(id, lhs_s)), tuple(map(id, lhs_d))
                         ) if lhs_s else None
        self.d_shape = tuple(dims[v] for v in lhs_d)
        if not self.n:
            if lhs_s:
                self.ukeys = np.zeros(0, dtype=np.int64)
            return

        # Entries sharing an output coordinate (reduction vars living in
        # the sparse factor) merge: order them by linearized output key,
        # once, and fold that order into every index array.
        perm = starts = None
        if lhs_s:
            keys = 0
            for v in lhs_s:
                keys = keys * dims[v] + cols[id(v)]
            perm, starts, self.ukeys = _scatter_order(keys)
            if len(starts) == self.n:
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
            shared = [m for m, v in enumerate(acc.indices) if id(v) in cols]
            residual = [m for m in range(len(acc.indices)) if m not in shared]
            gathers.append((acc, shared, residual))
            subs.append(("e" if shared else "")
                        + sub(acc.indices[m] for m in residual))
        pure = bool(lhs_s) and vals_sub == "e" and all(
            s == out for s in subs[1:])
        self.einsum = None if pure else ",".join(subs) + "->" + out
        self.tail = pure and bool(lhs_d)
        widths = [0]  # values each gather holds per entry
        for acc, shared, residual in gathers:
            st, shape = acc.tensor.storage, [acc.tensor.shape[m]
                                             for m in residual]
            if not shared:
                self.dense.append(_dense_spec(st))
                continue
            # One flat index over the shared modes.
            index = np.ravel_multi_index(
                [cols[id(acc.indices[m])] for m in shared],
                [acc.tensor.shape[m] for m in shared])
            widths.append(int(np.prod(shape)))
            axes, shape, axis = ((residual + shared, shape + [-1], -1)
                                 if self.tail else
                                 (shared + residual, [-1] + shape, 0))
            self.dense.append(_dense_spec(st, axes, shape, index, axis))
        # The pure product scales its first operand in place: that must
        # be a fresh gather, never a view of an operand's ``vals``.
        assert self.einsum is not None or all(
            index is not None for *_, index, _ in self.dense)
        # A gather wider than the per-entry output (the einsum contracts
        # its rows away) runs in blocks. A term without keys sums every
        # entry into one output and is never blocked: partial sums would
        # reassociate it.
        self.blocks = [(slice(None), starts)]
        if lhs_s and max(widths) > int(np.prod(self.d_shape)):
            size = max(1, GATHER_BLOCK_BYTES // (8 * sum(widths)))
            self.blocks = _blocks(self.n, starts, size)

    def _scalar(self) -> float:
        scalar = self.literal
        for st in self.scalars:
            scalar *= float(st.vals[0])
        return scalar

    def _sources(self) -> list:
        """``(values, index, axis)`` per dense operand: its ``vals``, read
        live and laid out for its gather (views, copied only where a
        permutation forces it), with the gather's index and axis."""
        return [(st.vals.reshape(shape) if perm is None
                 else st.vals.reshape(dims).transpose(perm).reshape(shape),
                 index, axis)
                for st, dims, perm, shape, index, axis in self.dense]

    def entries(self) -> np.ndarray:
        """A keyed term's value per run, in ``ukeys`` order, shaped
        ``(runs,) + d_shape`` (an unkeyed one's einsum, the entry axis
        summed away). May be a view of an operand's ``vals``."""
        if self.n == 0:
            return np.zeros((0,) + self.d_shape)
        scalar = self._scalar()
        srcs = self._sources()
        parts = []
        for entries, starts in self.blocks:
            vals = None
            for st, pos, blk in self.factors:
                v = st.vals.reshape((-1,) + blk) if blk else st.vals
                v = v[entries] if pos is None else v[pos[entries]]
                vals = v if vals is None else vals * v
            if scalar != 1.0:
                vals = vals * scalar
            ops = [src if index is None
                   else src.take(index[entries], axis=axis)
                   for src, index, axis in srcs]
            if self.einsum is not None:
                contrib = np.einsum(self.einsum, vals, *ops)
            elif ops:
                contrib = ops[0]  # a fresh gather: safe to scale in place
                for other in ops[1:]:
                    contrib *= other
                contrib *= vals
            else:
                contrib = vals
            if starts is not None:
                contrib = np.add.reduceat(contrib, starts,
                                          axis=-1 if self.tail else 0)
            parts.append(contrib)
        axis = -1 if self.tail else 0
        contrib = parts[0] if len(parts) == 1 else np.concatenate(parts, axis)
        if self.tail:  # the entry axis last: move it first
            return contrib.transpose(contrib.ndim - 1, *range(contrib.ndim - 1))
        return contrib

    def run(self) -> np.ndarray:
        """The term as a fresh dense array that broadcasts to the lhs
        shape."""
        if self.n is None:  # no sparse factor
            scalar = self._scalar()
            ops = [src for src, _, _ in self._sources()]
            if not ops:
                return np.full(self.shape, scalar)
            return (scalar * np.einsum(self.einsum, *ops)).reshape(self.shape)
        if self.n == 0:
            return np.zeros(self.shape)
        contrib = self.entries()
        if self.ukeys is None:  # einsum already reduced the entry axis
            return contrib.reshape(self.shape)
        if self.identity:
            # Each row takes its one run, exactly as scattered into
            # zeros: 0.0 + -0.0 is +0.0, and the sum is a fresh array,
            # row-major like the buffer whatever the runs' layout.
            buffer = np.add(contrib, 0.0, order="C")
        else:
            buffer = np.zeros(self.buffer_shape)
            buffer[self.ukeys] += contrib
        # Axes are (lhs_s..., lhs_d...); interleave back into lhs order.
        return buffer.reshape(self.sd_shape).transpose(self.axes).reshape(
            self.shape)


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
    whose dense result is packed on every run.
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
        return (getattr(self.lhs, "_storage", None) is self.lhs_storage
                and all([t.storage is st for t, st in self.held]))

    def run(self) -> TensorStorage:
        """The compute and post-states: the result in the lhs format."""
        if self.slots is not None:
            # Each slot starts at +0.0 and takes its terms in order,
            # exactly as the dense sum did: 0.0 + -0.0 is +0.0 here too.
            vals = np.zeros(self.n_slots)
            for (sign, term), slots in zip(self.terms, self.slots):
                op = np.add if sign >= 0 else np.subtract
                contrib = term.entries().reshape(-1)
                if slots is None:
                    op(vals, contrib, out=vals)
                else:
                    vals[slots] = op(vals[slots], contrib)
            return TensorStorage(self.fmt, self.out_shape, list(self.levels),
                                 vals)
        if self.direct:
            out = self.terms[0][1].run()
            if out.shape != self.out_shape:
                out = np.broadcast_to(out, self.out_shape).copy()
        else:
            out = np.zeros(self.out_shape)
            for sign, term in self.terms:
                (np.add if sign >= 0 else np.subtract)(out, term.run(),
                                                       out=out)
            if self.accumulate:
                np.add(out, self.lhs.to_dense(), out=out)
        if self.levels is None:  # a compressed lhs the terms cannot key
            return wrap_dense(out, self.fmt)
        # A dense lhs: the array, in level order.
        return TensorStorage(self.fmt, self.out_shape, list(self.levels),
                             out.transpose(self.fmt.mode_ordering).reshape(-1))


class NumpyExecutor:
    """Vectorized execution of a (scheduled or bare) statement.

    Cheap to construct: the :class:`ExecPlan` is looked up on the
    statement's assignment, or built, in :meth:`run`.

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
        plan = getattr(self.assignment, "_exec_plan", None)
        if plan is not None and plan.current():
            self.plan_state = "reused"
        else:
            start = time.perf_counter()
            plan = ExecPlan(self.assignment)
            self.plan_ms = (time.perf_counter() - start) * 1e3
            self.plan_state = "built"
            # Built fully, then published by one attribute store: racing
            # threads each build a whole plan and the last one stays.
            object.__setattr__(self.assignment, "_exec_plan", plan)
        if plan.fallback is None:
            return plan.run()
        self.plan_state = "fallback"
        if strict:
            raise VectorizeFallback(plan.fallback)
        self.fell_back = True
        from repro.backends.cpu_exec import CpuExecutor

        return CpuExecutor(self.assignment).run()


def execute_numpy(stmt: IndexStmt | Assignment,
                  strict: bool = False) -> TensorStorage:
    """Execute a statement with the vectorized NumPy backend.

    Falls back to :func:`repro.backends.cpu_exec.execute_cpu` for
    non-vectorizable shapes unless ``strict`` is set.
    """
    return NumpyExecutor(stmt).run(strict=strict)
