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
  (:func:`~repro.tensor.storage.walk_levels`: **dense** levels multiply
  the position space, **compressed** levels expand ``pos`` segments,
  **singleton** levels gather one coordinate per parent position;
  **block** levels first validate their static extent). The plan keeps only
  compact index arrays (gather indices per dense operand, positions into
  ``vals``, ``reduceat`` run starts and output keys, join index pairs)
  and einsum strings — no coordinate matrix, no keys, no value;
* **compute state** — :meth:`ExecPlan.run`: gather → multiply/``einsum``
  → ``np.add.reduceat`` → scatter, reading ``vals``, dense operands and
  scalars live;
* **post-state** — the dense result in the lhs shape.

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
``_storage`` rebinding forces a rebuild, while level arrays of a packed
storage are immutable and values are read live.

Like ``CpuExecutor``, this backend executes the *algorithm* (the original
assignment), not the schedule: schedules are semantics-preserving, so the
result is engine-independent up to floating-point summation order.
"""

from __future__ import annotations

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
    TensorStorage,
    dense_view,
    unpack,
    walk_levels,
)

__all__ = [
    "ExecPlan",
    "NumpyExecutor",
    "VectorizeFallback",
    "enumerate_entries",
    "execute_numpy",
    "segment_scatter_add",
]

#: einsum subscript letters; ``e`` is reserved for the entry axis.
_LETTERS = "abcdfghijklmnopqrstuvwxyz"


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


def segment_scatter_add(buffer: np.ndarray, keys: np.ndarray,
                        contrib: np.ndarray) -> None:
    """``buffer[keys] += contrib`` with duplicate keys accumulated."""
    if len(keys) == 0:
        return
    perm, starts, ukeys = _scatter_order(keys)
    if perm is not None:
        contrib = contrib[perm]
    buffer[ukeys] += np.add.reduceat(contrib, starts, axis=0)


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
    pos_a, cols_a = walk_levels(a.tensor.storage, a.tensor.order)
    pos_b, cols_b = walk_levels(b.tensor.storage, b.tensor.order)
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
    return cols, [(a.tensor, pos_a[ia], ()), (b.tensor, pos_b[ib], ())]


# ---------------------------------------------------------------------------
# The plan (pre-state) and its compute state
# ---------------------------------------------------------------------------


def _operand(tensor, axes, shape, index, axis) -> np.ndarray:
    """A dense operand, read live: its view, or a fresh gather from it."""
    view = dense_view(tensor.storage)
    if index is None:
        return view
    return np.take(view.transpose(axes).reshape(shape), index, axis=axis)


class _Term:
    """One additive term: index arrays and einsum strings, no values.

    ``factors`` holds ``(tensor, positions, block)`` per sparse factor
    (``positions`` is ``None`` for the identity; ``block`` the extents of
    the format's trailing block levels, kept as dense value axes);
    ``dense`` holds :func:`_operand`'s arguments per dense operand.
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
                self.scalars.append(f.tensor)
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
        if not sparse:
            self.dense = [(acc.tensor, None, None, None, None)
                          for acc in dense]
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
            pos, by_mode = walk_levels(st, n_outer)
            cols = {id(acc.indices[m]): c for m, c in by_mode.items()}
            factors = [(acc.tensor, pos,
                        tuple(st.levels[lv].size for lv in tile))]
            vals_sub = "e" + sub(acc.indices[st.fmt.mode_of_level(lv)]
                                 for lv in tile)
        self.n = len(next(iter(cols.values())))
        if not self.n:
            return

        # Entries sharing an output coordinate (reduction vars living in
        # the sparse factor) merge: order them by linearized output key,
        # once, and fold that order into every index array.
        lhs_s = [v for v in present if id(v) in cols]
        lhs_d = [v for v in present if id(v) not in cols]
        perm = None
        if lhs_s:
            keys = 0
            for v in lhs_s:
                keys = keys * dims[v] + cols[id(v)]
            perm, starts, self.ukeys = _scatter_order(keys)
            self.starts = None if len(starts) == self.n else starts
            s_shape = tuple(dims[v] for v in lhs_s)
            d_shape = tuple(dims[v] for v in lhs_d)
            self.buffer_shape = (int(np.prod(s_shape)),) + d_shape
            self.sd_shape = s_shape + d_shape
            self.axes = [(lhs_s + lhs_d).index(v) for v in present]
        if perm is not None:
            cols = {k: c[perm] for k, c in cols.items()}
            factors = [(t, pos[perm], blk) for t, pos, blk in factors]
        for t, pos, blk in factors:
            identity = (len(pos) * int(np.prod(blk)) == t.storage.nnz
                        and np.array_equal(pos, np.arange(len(pos))))
            self.factors.append((t, None if identity else pos, blk))

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
        for acc, shared, residual in gathers:
            shape = [acc.tensor.shape[m] for m in residual]
            index = None
            if shared:  # one flat index over the shared modes
                index = np.ravel_multi_index(
                    [cols[id(acc.indices[m])] for m in shared],
                    [acc.tensor.shape[m] for m in shared])
            if self.tail:
                self.dense.append((acc.tensor, residual + shared,
                                   shape + [-1], index, -1))
            else:
                self.dense.append((acc.tensor, shared + residual,
                                   [-1] + shape, index, 0))

    def run(self) -> np.ndarray:
        scalar = self.literal
        for t in self.scalars:
            scalar *= t.scalar_value()
        if self.n == 0:
            return np.zeros(self.shape)
        ops = [_operand(*spec) for spec in self.dense]
        if self.n is None:  # no sparse factor
            if not ops:
                return np.full(self.shape, scalar)
            return (scalar * np.einsum(self.einsum, *ops)).reshape(self.shape)
        vals = None
        for t, pos, blk in self.factors:
            v = t.storage.vals.reshape((-1,) + blk) if blk else t.storage.vals
            if pos is not None:
                v = v[pos]
            vals = v if vals is None else vals * v
        if scalar != 1.0:
            vals = vals * scalar
        if self.einsum is not None:
            contrib = np.einsum(self.einsum, vals, *ops)
        elif ops:
            contrib = ops[0]  # a fresh gather: safe to scale in place
            for other in ops[1:]:
                contrib *= other
            contrib *= vals
        else:
            contrib = vals
        if self.ukeys is None:  # einsum already reduced the entry axis
            return contrib.reshape(self.shape)
        if self.starts is not None:
            contrib = np.add.reduceat(contrib, self.starts,
                                      axis=-1 if self.tail else 0)
        if self.tail:
            contrib = np.moveaxis(contrib, -1, 0)
        buffer = np.zeros(self.buffer_shape)
        buffer[self.ukeys] += contrib
        # Axes are (lhs_s..., lhs_d...); interleave back into lhs order.
        return buffer.reshape(self.sd_shape).transpose(self.axes).reshape(
            self.shape)


class ExecPlan:
    """Everything about running one assignment that its values cannot change.

    Holds the operand tensors with the storages they had at build time
    (the identity snapshot :meth:`current` revalidates), one
    :class:`_Term` per additive term, the output shape, and — for a
    statement that cannot be vectorized — the reason, as ``fallback``.
    """

    def __init__(self, a: Assignment) -> None:
        # The lhs matters to ``+=`` only; None otherwise.
        self.lhs = a.lhs.tensor if a.accumulate else None
        self.inputs = tuple(dict.fromkeys(a.rhs.tensors()))
        self.storages = self._snapshot()
        self.fallback: str | None = None
        try:
            dims = infer_dimensions(a)
            if len(dims) > len(_LETTERS):
                raise VectorizeFallback(
                    f"{len(dims)} index variables exceed the einsum alphabet"
                )
            letters = {id(v): _LETTERS[k] for k, v in enumerate(dims)}
            lhs_vars = list(a.lhs.indices)
            self.out_shape = tuple(dims[v] for v in lhs_vars)
            self.terms = [(sign, _Term(term, lhs_vars, dims, letters))
                          for sign, term in additive_terms(a.rhs)]
        except VectorizeFallback as exc:
            self.fallback = str(exc)
            return
        self.accumulate = self.storages[0] is not None
        # Single positive term: the term buffer *is* the result, so skip
        # the output allocation and the full-size += pass (this is the
        # whole cost for tiny-nnz kernels with dense outputs).
        self.direct = (len(self.terms) == 1 and self.terms[0][0] == 1
                       and not self.accumulate)

    def _snapshot(self) -> tuple:
        # The lhs is read raw: packing an empty output would change
        # whether ``+=`` has something to add.
        return (getattr(self.lhs, "_storage", None),
                *(t.storage for t in self.inputs))

    def current(self) -> bool:
        """Whether every operand still holds the storage planned against."""
        return all(now is then for now, then
                   in zip(self._snapshot(), self.storages))

    def run(self) -> np.ndarray:
        """The compute state: the dense result in the lhs shape."""
        if self.direct:
            contrib = self.terms[0][1].run()
            if contrib.shape == self.out_shape:
                return contrib
            return np.broadcast_to(contrib, self.out_shape).copy()
        out = np.zeros(self.out_shape, dtype=np.float64)
        for sign, term in self.terms:
            (np.add if sign >= 0 else np.subtract)(out, term.run(), out=out)
        if self.accumulate:
            np.add(out, self.lhs.to_dense(), out=out)
        return out


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

    def _plan(self) -> ExecPlan:
        plan = getattr(self.assignment, "_exec_plan", None)
        self.plan_state = "reused"
        if plan is None or not plan.current():
            start = time.perf_counter()
            plan = ExecPlan(self.assignment)
            self.plan_ms = (time.perf_counter() - start) * 1e3
            self.plan_state = "built"
            # Built fully, then published by one attribute store: racing
            # threads each build a whole plan and the last one stays.
            object.__setattr__(self.assignment, "_exec_plan", plan)
        if plan.fallback is not None:
            self.plan_state = "fallback"
        return plan

    def run(self, strict: bool = False) -> np.ndarray:
        """Execute, returning the dense result array (lhs shape).

        ``strict=True`` raises :class:`VectorizeFallback` instead of
        delegating to the ``CpuExecutor`` interpreter.
        """
        plan = self._plan()
        if plan.fallback is None:
            return plan.run()
        if strict:
            raise VectorizeFallback(plan.fallback)
        self.fell_back = True
        from repro.backends.cpu_exec import CpuExecutor

        result = CpuExecutor(self.assignment).run()
        return np.asarray(result, dtype=np.float64).reshape(
            self.assignment.lhs.tensor.shape
        )


def execute_numpy(stmt: IndexStmt | Assignment,
                  strict: bool = False) -> np.ndarray:
    """Execute a statement with the vectorized NumPy backend.

    Falls back to :func:`repro.backends.cpu_exec.execute_cpu` for
    non-vectorizable shapes unless ``strict`` is set.
    """
    return NumpyExecutor(stmt).run(strict=strict)
