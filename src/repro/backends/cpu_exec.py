"""Executable CPU backend: direct interpretation of scheduled CIN.

Where :func:`repro.backends.cpu.lower_cpu` *generates* TACO-style C, this
module *executes* the same semantics in Python, iterating the packed
sparse storage the way the generated merge loops would: dense loops walk
the dimension, compressed loops walk position segments, and co-iteration
visits exactly the coordinates of the merge lattice
(:mod:`repro.ir.lattice`). Unlike the Capstan path it has no two-operand
scanner restriction — n-ary unions (Plus3 without its workspace schedule)
execute directly, as TACO's multi-way merges do.

This gives the test suite a third independent implementation to compare
against the Spatial interpreter and the dense reference, and its per-loop
visit counters cross-check the workload statistics the simulator uses.
"""

from __future__ import annotations

import collections
from typing import Optional

import numpy as np

from repro.ir.cin import (
    CinAssign,
    CinSequence,
    CinStmt,
    Forall,
    MapCall,
    SuchThat,
    Where,
)
from repro.ir.index_notation import (
    Access,
    Add,
    Assignment,
    IndexExpr,
    IndexVar,
    Literal,
    Mul,
    Neg,
    Sub,
)
from repro.ir.lattice import MergeLattice, build_lattice, iteration_space
from repro.schedule.stmt import IndexStmt
from repro.tensor.storage import CompressedLevel, TensorStorage, wrap_dense
from repro.tensor.tensor import Tensor


class CpuExecutor:
    """Interprets a (scheduled or bare) statement over packed storage."""

    def __init__(self, stmt: IndexStmt | Assignment) -> None:
        if isinstance(stmt, Assignment):
            stmt = IndexStmt.from_assignment(stmt)
        self.stmt = stmt
        self.cin = stmt.cin
        assigns = self.cin.assignments()
        if not assigns:
            raise ValueError("statement has no assignment")
        ws_ids = {id(a.lhs.tensor) for a in assigns if a.lhs.tensor.is_on_chip}
        self.output: Tensor = next(
            a.lhs.tensor for a in assigns if id(a.lhs.tensor) not in ws_ids
        )
        # Execution state.
        self.coord: dict[int, int] = {}  # id(ivar) -> coordinate
        self.segpos: dict[int, Optional[int]] = {}  # id(access) -> position
        self.dense_vals: dict[int, np.ndarray] = {}
        self.workspaces: dict[int, np.ndarray] = {}
        self.out = np.zeros(self.output.shape or (1,), dtype=np.float64)
        self.visits: collections.Counter[str] = collections.Counter()
        self._lattice_cache: dict[tuple[int, int], MergeLattice] = {}

    # -- values -----------------------------------------------------------------

    def _dense(self, tensor: Tensor) -> np.ndarray:
        arr = self.dense_vals.get(id(tensor))
        if arr is None:
            arr = tensor.to_dense()
            self.dense_vals[id(tensor)] = arr
        return arr

    def value(self, access: Access) -> float:
        t = access.tensor
        if t.is_on_chip:
            buf = self.workspaces.get(id(t))
            if buf is None:
                return 0.0
            if t.order == 0:
                return float(buf[0])
            idx = tuple(self.coord[id(v)] for v in access.indices)
            return float(buf[idx])
        if id(access) in self.segpos and self.segpos[id(access)] is None:
            return 0.0  # absent at this coordinate (union gap)
        if t.order == 0:
            return t.scalar_value()
        idx = tuple(self.coord[id(v)] for v in access.indices)
        return float(self._dense(t)[idx])

    def eval(self, expr: IndexExpr) -> float:
        if isinstance(expr, Literal):
            return float(expr.value)
        if isinstance(expr, Access):
            return self.value(expr)
        if isinstance(expr, Add):
            return self.eval(expr.a) + self.eval(expr.b)
        if isinstance(expr, Sub):
            return self.eval(expr.a) - self.eval(expr.b)
        if isinstance(expr, Mul):
            return self.eval(expr.a) * self.eval(expr.b)
        if isinstance(expr, Neg):
            return -self.eval(expr.a)
        raise TypeError(type(expr).__name__)

    # -- iteration ----------------------------------------------------------------

    def _dim_of(self, ivar: IndexVar) -> int:
        for asg in self.cin.assignments():
            for acc in (asg.lhs, *asg.rhs.accesses()):
                mode = acc.mode_of(ivar)
                if mode is not None:
                    return acc.tensor.shape[mode]
        raise KeyError(f"no dimension for {ivar}")

    def _segment_coords(self, access: Access, ivar: IndexVar):
        """(coords array, coord -> position map) of the access's segment at
        ``ivar``, or None for dense/unpositioned levels."""
        t = access.tensor
        if t.is_on_chip:
            buf = self.workspaces.get(id(t))
            if buf is None:
                return np.zeros(0, dtype=np.int64), {}
            coords = np.nonzero(buf)[0]
            return coords, {int(c): int(c) for c in coords}
        mode = access.mode_of(ivar)
        level = t.format.level_of_mode(mode)
        lvl = t.storage.levels[level]
        if not isinstance(lvl, CompressedLevel):
            return None
        parent = self._parent_position(access, level)
        if parent is None:
            return np.zeros(0, dtype=np.int64), {}
        start, end = lvl.segment(parent)
        coords = lvl.crd[start:end].astype(np.int64)
        return coords, {int(c): start + k for k, c in enumerate(coords)}

    def _parent_position(self, access: Access, level: int) -> Optional[int]:
        """Position of the level's parent from bound coordinates."""
        t = access.tensor
        fmt = t.format
        pos = 0
        for L in range(level):
            lvl = t.storage.levels[L]
            c = self.coord.get(id(access.indices[fmt.mode_of_level(L)]))
            if c is None:
                raise KeyError(
                    f"{t.name} level {L} coordinate unbound at level {level}"
                )
            if isinstance(lvl, CompressedLevel):
                start, end = lvl.segment(pos)
                sub = lvl.crd[start:end]
                k = np.searchsorted(sub, c)
                if k == len(sub) or sub[k] != c:
                    return None  # fiber absent
                pos = start + int(k)
            else:
                pos = pos * lvl.size + c
        return pos

    # -- statement walk --------------------------------------------------------------

    def run(self) -> TensorStorage:
        """Walk the statement; the result in the output's declared format."""
        self.walk(self.cin)
        return wrap_dense(self.out.reshape(self.output.shape),
                          self.output.format)

    def walk(self, stmt: CinStmt) -> None:
        if isinstance(stmt, SuchThat):
            self.walk(stmt.body)
        elif isinstance(stmt, MapCall):
            self.walk(stmt.original)
        elif isinstance(stmt, CinSequence):
            for s in stmt.stmts:
                self.walk(s)
        elif isinstance(stmt, Where):
            # A fresh workspace per where evaluation.
            for asg in stmt.producer.assignments():
                t = asg.lhs.tensor
                if t.is_on_chip:
                    shape = t.shape or (1,)
                    self.workspaces[id(t)] = np.zeros(shape, dtype=np.float64)
            self.walk(stmt.producer)
            self.walk(stmt.consumer)
        elif isinstance(stmt, Forall):
            self.walk_forall(stmt)
        elif isinstance(stmt, CinAssign):
            self.assign(stmt)
        else:  # pragma: no cover - defensive
            raise TypeError(type(stmt).__name__)

    def walk_forall(self, forall: Forall) -> None:
        ivar = forall.ivar
        dim = self._dim_of(ivar)
        assigns = forall.assignments()
        # Gather sparse segments per access and build the merge lattice of
        # the combined expression(s).
        seg: dict[int, tuple] = {}
        coords_of: dict[int, np.ndarray] = {}
        lattice = None
        for asg in assigns:
            lat = self._lattice_for(asg.rhs, ivar)
            if lat.is_neutral:
                continue  # this statement does not involve ivar
            lattice = lat if lattice is None else self._join(lattice, lat)
            for acc in asg.rhs.accesses():
                if acc.mode_of(ivar) is None:
                    continue
                got = self._segment_coords(acc, ivar)
                if got is not None:
                    seg[id(acc)] = got
                    coords_of[id(acc.tensor)] = got[0]
        if lattice is None or lattice.has_universe or not lattice.points:
            space = np.arange(dim, dtype=np.int64)
        else:
            space = iteration_space(lattice, coords_of, dim)
        for c in space:
            c = int(c)
            self.coord[id(ivar)] = c
            self.visits[ivar.name] += 1
            for asg in assigns:
                for acc in asg.rhs.accesses():
                    if id(acc) in seg:
                        self.segpos[id(acc)] = seg[id(acc)][1].get(c)
            self.walk(forall.body)
        self.coord.pop(id(ivar), None)

    def _lattice_for(self, expr: IndexExpr, ivar: IndexVar) -> MergeLattice:
        key = (id(expr), id(ivar))
        lat = self._lattice_cache.get(key)
        if lat is None:
            lat = build_lattice(expr, ivar)
            self._lattice_cache[key] = lat
        return lat

    @staticmethod
    def _join(a: MergeLattice, b: MergeLattice) -> MergeLattice:
        """Union of two statements' iteration requirements."""
        if a.has_universe or b.has_universe:
            return MergeLattice(a.ivar, a.sparse + b.sparse, True, ())
        points = tuple(dict.fromkeys(a.points + b.points))
        return MergeLattice(a.ivar, a.sparse + b.sparse, False, points)

    def assign(self, asg: CinAssign) -> None:
        # Reduction semantics apply per additive term: terms whose segment
        # positions are absent contribute zero (handled by `value`).
        total = self.eval(asg.rhs)
        t = asg.lhs.tensor
        if t.is_on_chip:
            buf = self.workspaces.setdefault(
                id(t), np.zeros(t.shape or (1,), dtype=np.float64)
            )
            idx = tuple(self.coord[id(v)] for v in asg.lhs.indices) or (0,)
            if asg.accumulate:
                buf[idx] += total
            else:
                buf[idx] = total
            return
        idx = tuple(self.coord[id(v)] for v in asg.lhs.indices) or (0,)
        if asg.accumulate:
            self.out[idx] += total
        else:
            self.out[idx] = total


def execute_cpu(stmt: IndexStmt | Assignment) -> TensorStorage:
    """Execute a statement with the CPU interpreter; returns the result
    in the output's declared format (``np.asarray`` densifies it)."""
    return CpuExecutor(stmt).run()
