"""Scheduled-CIN → Spatial lowering (Section 7.2).

The lowerer recursively traverses the scheduled CIN tree and emits Spatial
parallel patterns, driven by two analyses computed up front:

* the per-forall :class:`~repro.core.coiteration.IterationStrategy`
  (Figure 10 rewrite system), deciding dense counters vs. compressed
  position loops vs. bit-vector scanners; and
* the :class:`~repro.core.memory_analysis.MemoryPlan`, deciding which
  physical memory each tensor sub-array occupies and at which loop level
  its allocation and transfer are emitted (Section 6.2).

Naming follows the paper's generated code (Figure 11): ``B2_pos`` is the
position array of B's second storage level, ``B_vals`` its values array,
``*_dram`` the off-chip copies, ``B1_dim`` the dimension of B's first
storage level. Scan pattern-index binders end in ``_p`` (operand
positions); the scan opener records them, and the segment-gating logic
looks parents up in that record to recognise possibly invalid (union)
parents.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional

from repro.formats.memory import MemoryType
from repro.ir.cin import (
    CinAssign,
    CinSequence,
    CinStmt,
    Forall,
    FuseRel,
    MapCall,
    SplitDown,
    SplitUp,
    SuchThat,
    Where,
)
from repro.ir.index_notation import (
    Access,
    Add,
    IndexExpr,
    IndexVar,
    Literal,
    Mul,
    Neg,
    Sub,
)
from repro.core.coiteration import LevelIterator, LoweringError
from repro.core.memory_analysis import (
    KernelAnalysis,
    MemoryPlan,
    analyze,
    plan_memory,
)
from repro.schedule.stmt import BULK_TRANSFER, INNER_PAR, OUTER_PAR, REDUCTION, IndexStmt
from repro.spatial.ir import (
    Assign,
    BitVectorDecl,
    BitVectorOp,
    Counter,
    DenseCounter,
    DramDecl,
    DramWrite,
    Enq,
    FifoDecl,
    Foreach,
    GenBitVector,
    LoadBulk,
    RegDecl,
    RegWrite,
    ReducePat,
    SBin,
    ScanCounter,
    SDeq,
    SExpr,
    SingletonCounter,
    SLit,
    SRead,
    SRegRead,
    SSelect,
    SStmt,
    SValid,
    SVar,
    SpatialProgram,
    SramDecl,
    SramWrite,
    StoreBulk,
    StreamStore,
    TensorLayout,
    sadd,
    smul,
    ssub,
)

#: Default FIFO depth in generated code (matches Figure 11).
FIFO_DEPTH = 16

#: On-chip staging capacity symbol used for SRAM declarations (Figure 11).
NNZ_ACCEL_MAX = "nnz_accel_max"


@dataclasses.dataclass(frozen=True)
class _Loop:
    """What an ``_open_<kind>`` opener hands :meth:`Lowerer.lower_forall`.

    ``counter`` and ``binders`` make the pattern; ``coord`` is the forall
    variable's coordinate inside it. ``out_state`` is the compressed output
    level being assembled (:meth:`Lowerer._begin_output_level`), with
    ``out_idx`` the result's index in its segment and ``count`` the number
    of results. ``par`` overrides the pattern's parallelization factor;
    ``elem_reg`` is a streamed 1-D dense output's element register; and
    ``result_ws`` marks a result written to an on-chip workspace through
    ``ws_out_pos``.
    """

    counter: Counter
    binders: tuple[str, ...]
    coord: SExpr
    out_state: Optional[dict] = None
    out_idx: Optional[SExpr] = None
    count: Optional[SExpr] = None
    par: Optional[int] = None
    elem_reg: Optional[str] = None
    result_ws: bool = False


class Lowerer:
    """Lowers one scheduled statement to a :class:`SpatialProgram`."""

    def __init__(self, stmt: IndexStmt, name: str = "kernel") -> None:
        self.stmt = stmt
        self.name = name
        self.analysis: KernelAnalysis = analyze(stmt)
        self.plan: MemoryPlan = plan_memory(self.analysis)
        self.env = dict(stmt.environment_vars)
        self.symbols: dict[str, None] = {}
        self.dram: list[DramDecl] = []
        self.layouts: dict[str, TensorLayout] = {}
        self.notes: list[str] = []
        self._body_stack: list[list[SStmt]] = []
        self._uid = itertools.count()
        self.coord: dict[int, SExpr] = {}  # id(ivar) -> coordinate value
        self.position: dict[tuple[int, int], SExpr] = {}  # (tensor, level) -> pos
        self.value_of: dict[int, SExpr] = {}  # id(tensor) -> value expr
        self.ws_bitvector: dict[int, str] = {}  # id(tensor) -> bv name
        self.seg_start: dict[tuple[int, int], SExpr] = {}  # scan segment bases
        self._scan_positions: set[str] = set()  # scan operand-position binders
        self.ws_out_pos: Optional[SExpr] = None
        self._declared_regs: set[str] = set()
        self._declared: set[str] = set()
        self._dim_symbol_cache: dict[int, str] = {}
        self._counts: dict[tuple[str, int], SExpr] = {}  # (tensor, level)
        # Where the result values live is the memory plan's binding: a
        # FIFO, a dense-SRAM row, or the whole result in dense SRAM.
        out = self.analysis.output
        self.out_vals = (None if out.is_on_chip
                         else self.plan.get(out.name, "vals"))
        # A result FIFO with no coordinate stream beside it carries a 1-D
        # dense result out, one element per iteration of the loop that
        # completes its coordinate (the root's, or the innermost derived).
        self._stream_at = (
            self.analysis.info(self._access_of(out).indices[0])
            if self.out_vals is not None
            and self.out_vals.memory is MemoryType.FIFO
            and self.plan.get(out.name, f"crd{out.order - 1}") is None
            else None)

    # -- small helpers --------------------------------------------------------

    def fresh(self, base: str) -> str:
        return f"{base}_{next(self._uid)}"

    def emit(self, stmt: SStmt) -> None:
        self._body_stack[-1].append(stmt)

    def emit_parent(self, stmt: SStmt) -> None:
        """Emit into the enclosing buffer (before the pattern being built)."""
        self._body_stack[-2].append(stmt)

    def sym(self, name: str) -> SVar:
        self.symbols[name] = None
        return SVar(name)

    def dim_symbol(self, tensor, level: int) -> SVar:
        return self.sym(f"{tensor.name}{level + 1}_dim")

    def nnz_symbol(self, tensor, level: int) -> SVar:
        return self.sym(f"{tensor.name}{level + 1}_nnz")

    def ivar_dim(self, ivar: IndexVar) -> SVar:
        """Symbolic dimension of an index variable's iteration space."""
        cached = self._dim_symbol_cache.get(id(ivar))
        if cached is not None:
            return SVar(cached)
        candidates: list[tuple[bool, SVar]] = []
        for asg in self.analysis.assignments:
            for acc in (asg.lhs, *asg.rhs.accesses()):
                mode = acc.mode_of(ivar)
                if mode is not None:
                    level = acc.tensor.format.level_of_mode(mode)
                    candidates.append(
                        (acc.tensor.is_on_chip, self.dim_symbol(acc.tensor, level))
                    )
        if not candidates:
            raise LoweringError(f"no access binds a dimension for {ivar}")
        candidates.sort(key=lambda c: c[0])  # prefer off-chip tensors
        sym = candidates[0][1]
        self._dim_symbol_cache[id(ivar)] = sym.name
        return sym

    # -- array / memory names ---------------------------------------------------

    @staticmethod
    def array_name(tensor, level: int, array: str) -> str:
        """``B2_pos``: a level array (``pos``, ``crd``, ``bv``) by name."""
        return f"{tensor.name}{level + 1}_{array}"

    @staticmethod
    def vals_name(tensor) -> str:
        return f"{tensor.name}_vals"

    @staticmethod
    def dram_name(onchip_name: str) -> str:
        return f"{onchip_name}_dram"

    # -- DRAM layout ----------------------------------------------------------

    def _level_count_expr(self, tensor, level: int) -> SExpr:
        """Symbolic number of positions at a storage level (-1 = root)."""
        if level < 0:
            return SLit(1)
        key = (tensor.name, level)
        if key not in self._counts:
            self._counts[key] = tensor.format.level_format(level).count(
                self._level_count_expr(tensor, level - 1),
                lambda: self.dim_symbol(tensor, level),
                lambda: self.nnz_symbol(tensor, level), smul)
        return self._counts[key]

    def _array_size(self, tensor, level: int, array: str) -> SExpr:
        """Length of a level array: ``pos`` bounds each parent's segment,
        every other array holds one entry per position."""
        if array == "pos":
            return sadd(self._level_count_expr(tensor, level - 1), SLit(1))
        return self._level_count_expr(tensor, level)

    def _staged_arrays(self, tensor):
        """``(name, size)`` of each level array the memory plan stages
        whole in SRAM: the one read by parent position."""
        fmt = tensor.format
        for level in range(fmt.order):
            array = fmt.level_format(level).parent_array
            if (array is not None
                    and self.plan.get(tensor.name, f"{array}{level}") is not None):
                yield (self.array_name(tensor, level, array),
                       self._array_size(tensor, level, array))

    def declare_tensor_dram(self, tensor, is_output: bool) -> None:
        if tensor.is_on_chip:
            return
        layout = TensorLayout(tensor.name, tensor.order, {}, is_output)
        if tensor.order == 0:
            if is_output:
                name = self.dram_name(self.vals_name(tensor))
                self.dram.append(DramDecl(name, SLit(1), tensor.name, "vals"))
                layout.arrays["vals"] = name
            else:
                self.sym(tensor.name)  # scalar inputs bind as host symbols
            self.layouts[tensor.name] = layout
            return
        fmt = tensor.format
        for level in range(fmt.order):
            if fmt.level_format(level).is_bit_vector:
                # The host packs and binds pos/crd levels only; a bit
                # vector is an on-chip stream (a workspace's).
                raise LoweringError(
                    f"tensor {tensor.name} stores level {level} as a bit "
                    "vector off-chip; the host cannot bind bit-vector "
                    "arrays — give that level a compressed format")
            for array in fmt.level_format(level).arrays():
                role = f"{array}{level}"
                name = self.dram_name(self.array_name(tensor, level, array))
                self.dram.append(DramDecl(
                    name, self._array_size(tensor, level, array),
                    tensor.name, role))
                layout.arrays[role] = name
        vals_dram = self.dram_name(self.vals_name(tensor))
        self.dram.append(
            DramDecl(vals_dram, self._level_count_expr(tensor, fmt.order - 1),
                     tensor.name, "vals")
        )
        layout.arrays["vals"] = vals_dram
        self.layouts[tensor.name] = layout

    # -- top level --------------------------------------------------------------

    def lower(self) -> SpatialProgram:
        out = self.analysis.output
        if not out.is_on_chip and out.format.has_singleton_level:
            raise LoweringError(
                f"output {out.name} uses a singleton (COO-style) format; "
                "assembling COO outputs on the accelerator is not "
                "supported — give the result a compressed or dense format"
            )
        self.declare_tensor_dram(out, is_output=True)
        for t in self.analysis.inputs:
            self.declare_tensor_dram(t, is_output=False)

        accel: list[SStmt] = []
        self._body_stack.append(accel)
        self.emit_prelude()
        self.lower_stmt(self._strip(self.stmt.cin))
        self.emit_epilogue()
        self._body_stack.pop()

        self.notes.extend(self.plan.report().splitlines())
        for info in self.analysis.foralls:
            self.notes.extend(f"  {t}" for t in info.strategy.trace)
        return SpatialProgram(
            name=self.name,
            env=dict(self.env),
            symbols=tuple(self.symbols),
            dram=tuple(self.dram),
            accel=tuple(accel),
            layouts=self.layouts,
            notes=tuple(self.notes),
        )

    @staticmethod
    def _strip(stmt: CinStmt) -> CinStmt:
        while isinstance(stmt, SuchThat):
            stmt = stmt.body
        return stmt

    def emit_prelude(self) -> None:
        """Kernel-start allocations: position SRAMs, full stages, outputs."""
        out = self.analysis.output
        ip = self.env.get(INNER_PAR, 1)
        if self.out_vals is not None and self.out_vals.staged_full:
            self.emit(SramDecl(self.vals_name(out),
                               self._level_count_expr(out, out.order - 1)))
        for tensor in self.analysis.inputs:
            if tensor.order == 0 or tensor.is_on_chip:
                continue
            for name, size in self._staged_arrays(tensor):
                self.emit(SramDecl(name, size))
                self.emit(LoadBulk(name, self.dram_name(name), SLit(0), size, par=ip))
                self._declared.add(name)
            vb = self.plan.get(tensor.name, "vals")
            if vb is not None and vb.staged_full and vb.memory in (
                MemoryType.SRAM_DENSE, MemoryType.SRAM_SPARSE
            ):
                name = self.vals_name(tensor)
                size = self._level_count_expr(tensor, tensor.order - 1)
                self.emit(SramDecl(name, size,
                                   sparse=vb.memory is MemoryType.SRAM_SPARSE))
                self.emit(LoadBulk(name, self.dram_name(name), SLit(0), size, par=ip))
                self._declared.add(name)
        if not out.is_on_chip:
            for name, size in self._staged_arrays(out):
                self.emit(SramDecl(name, size))
                self._declared.add(name)
        if out.order == 0:
            self._declare_reg(f"{out.name}_reg")
        if self._stream_at is not None:
            name = self.vals_name(out)
            self.emit(FifoDecl(name, FIFO_DEPTH))
            self._declared.add(name)

    def _declare_reg(self, reg: str) -> None:
        self.emit(RegDecl(reg, 0.0))
        self._declared_regs.add(reg)

    def emit_epilogue(self) -> None:
        out = self.analysis.output
        if out.is_on_chip:
            return
        if out.order == 0:
            self.emit(DramWrite(self.dram_name(self.vals_name(out)), SLit(0),
                                SRegRead(f"{out.name}_reg")))
            return
        ip = self.env.get(INNER_PAR, 1)
        for name, size in self._staged_arrays(out):
            self.emit(StoreBulk(self.dram_name(name), name, SLit(0), size, par=ip))
        if self.out_vals.staged_full:
            size = self._level_count_expr(out, out.order - 1)
            self.emit(StoreBulk(self.dram_name(self.vals_name(out)),
                                self.vals_name(out), SLit(0), size, par=ip))
        elif self._stream_at is not None:
            self.emit(StreamStore(self.dram_name(self.vals_name(out)),
                                  self.vals_name(out), SLit(0),
                                  self.dim_symbol(out, 0)))

    # -- recursive statement lowering ---------------------------------------------

    def lower_stmt(self, stmt: CinStmt) -> None:
        if isinstance(stmt, SuchThat):
            self.lower_stmt(stmt.body)
        elif isinstance(stmt, Forall):
            self.lower_forall(stmt)
        elif isinstance(stmt, Where):
            # Scalar workspaces produced on the right reset per evaluation
            # of the where node: declare their registers in this scope.
            for asg in stmt.producer.assignments():
                t = asg.lhs.tensor
                if t.is_on_chip and t.order == 0:
                    reg = f"{t.name}_reg"
                    self._declare_reg(reg)
                    self.value_of[id(t)] = SRegRead(reg)
            self.lower_stmt(stmt.producer)
            self.lower_stmt(stmt.consumer)
        elif isinstance(stmt, CinSequence):
            for s in stmt.stmts:
                self.lower_stmt(s)
        elif isinstance(stmt, MapCall):
            self.lower_mapcall(stmt)
        elif isinstance(stmt, CinAssign):
            self.lower_assign(stmt)
        else:  # pragma: no cover - defensive
            raise LoweringError(f"cannot lower {type(stmt).__name__}")

    def lower_mapcall(self, node: MapCall) -> None:
        if node.func == BULK_TRANSFER:
            self._lower_bulk_transfer(node)
            return
        if node.func != REDUCTION:
            raise LoweringError(
                f"backend function {node.func!r} has no Spatial lowering rule"
            )
        inner = self._strip(node.original)
        if not isinstance(inner, Forall):
            raise LoweringError("Reduction maps a forall with an accumulation")
        assigns = inner.assignments()
        if len(assigns) != 1 or not assigns[0].accumulate:
            raise LoweringError("Reduction requires a single accumulating body")
        target = assigns[0].lhs.tensor
        if not (target.is_on_chip and target.order == 0):
            raise LoweringError(
                "Reduction accumulates into an on-chip scalar workspace"
            )
        reg = f"{target.name}_reg"
        if reg not in self._declared_regs:
            self._declare_reg(reg)
        self.value_of[id(target)] = SRegRead(reg)
        self.lower_forall(inner, reduce_into=reg, reduce_par=node.par)

    def _lower_bulk_transfer(self, node: MapCall) -> None:
        """A ``forall(i) t1(i) = t2(i)`` copy mapped to a bulk load.

        The Section 5.2 automatic pass: instead of a one-element-per-cycle
        loop, emit an SRAM allocation plus a single LoadBulk covering the
        slice (the coordinates above the copied mode are already bound).
        """
        inner = self._strip(node.original)
        if not isinstance(inner, Forall) or not isinstance(
            self._strip(inner.body), CinAssign
        ):
            raise LoweringError("BulkTransfer maps a single-assignment loop")
        asg = self._strip(inner.body)
        dst, src = asg.lhs.tensor, asg.rhs.tensor
        dim = self.dim_symbol(src, src.format.order - 1)
        name = self.vals_name(dst)
        if name not in self._declared:
            self.emit(SramDecl(name, dim))
            self._declared.add(name)
        self.emit(LoadBulk(name, self.dram_name(self.vals_name(src)),
                           SLit(0), dim, par=self.env.get(INNER_PAR, 1)))
        # Consumer reads address the SRAM by the copied mode's coordinate
        # through the normal lower_access slice path.

    # -- foralls -------------------------------------------------------------------

    def _pattern_par(self, info) -> int:
        if info.depth == 0:
            return self.env.get(OUTER_PAR, 1)
        if info.depth == self.analysis.max_depth:
            return self.env.get(INNER_PAR, 1)
        return 1

    def lower_forall(self, forall: Forall, reduce_into: Optional[str] = None,
                     reduce_par: Optional[int] = None) -> None:
        """Lower one forall to one ``Foreach`` (``ReducePat`` when a
        Reduction map accumulates into ``reduce_into``).

        Only the counter depends on the strategy kind: ``_open_<kind>``
        emits what precedes the loop, opens the body and binds the
        coordinate, the positions of the levels it iterates, and values.
        The rest is the same for every kind: the result row buffer, the
        pattern itself, and the compressed output level's bookkeeping.
        Coordinates are scoped to the open loops: once the pattern is
        emitted, the loop's coordinate and those derived inside it are
        dropped, so a later read of them refuses.
        """
        info = self.analysis.info(forall.ivar)
        strategy = info.strategy
        par = reduce_par if reduce_par is not None else self._pattern_par(info)
        saved_ws_out, saved_coord = self.ws_out_pos, dict(self.coord)
        loop = getattr(self, f"_open_{strategy.kind}")(forall.ivar, info, par)
        if loop.par is not None:
            par = loop.par
        result_it = strategy.result_iterator
        row = None
        if result_it is not None and not loop.result_ws:
            if loop.out_state is not None:
                self._bind_output_compressed(loop.out_state, loop.out_idx,
                                             loop.coord)
            row = self._stage_output_row(info.depth, result_it)
        if loop.elem_reg is not None:
            self._declare_reg(loop.elem_reg)
        if reduce_into is None:
            self.lower_stmt(forall.body)
            if loop.elem_reg is not None:
                self.emit(Enq(self.vals_name(self.analysis.output),
                              SRegRead(loop.elem_reg)))
            if row is not None:
                self._store_output_row(row)
            body = tuple(self._body_stack.pop())
            self.emit(Foreach(loop.counter, loop.binders, body, par=par))
        else:
            value = self._reduce_value(forall.body)
            body = tuple(self._body_stack.pop())
            self.emit(ReducePat(reduce_into, loop.counter, loop.binders, body,
                                value, "+", par=par))
        self.ws_out_pos, self.coord = saved_ws_out, saved_coord
        self._end_output_level(loop.out_state, loop.count)

    # .. dense ....................................................................

    def _open_dense(self, ivar: IndexVar, info, par: int) -> _Loop:
        """A counter over the universe (the trip count comes first)."""
        length = self._dense_trip_count(ivar)
        self._stage_slices_for_depth(info.depth)
        self._body_stack.append([])
        coord = SVar(ivar.name)
        self.coord[id(ivar)] = coord
        self._recombine_derived_coords(ivar)
        out = self.analysis.output
        return _Loop(DenseCounter(length), (ivar.name,), coord,
                     elem_reg=f"{out.name}_elem" if info is self._stream_at
                     else None)

    def _recombine_derived_coords(self, ivar: IndexVar) -> None:
        """Recover root coordinates from split/fuse-derived loop variables.

        After ``split_up(i, io, ii, c)``, tensor accesses still index with
        ``i``; once both ``io`` and ``ii`` are bound, ``i = io * c + ii``.
        After ``fuse(io, ii, f)``, ``io = f / trip(ii)`` and
        ``ii = f % trip(ii)``. Applied transitively.
        """
        prov = self.analysis.provenance
        changed = True
        while changed:
            changed = False
            for rel in prov.relations:
                if isinstance(rel, (SplitUp, SplitDown)):
                    outer = self.coord.get(id(rel.outer))
                    inner = self.coord.get(id(rel.inner))
                    if (outer is not None and inner is not None
                            and id(rel.parent) not in self.coord):
                        # The outer loop strides by the inner trip count:
                        # the split factor for split_up, ceil(N/factor)
                        # for split_down.
                        stride = self._dense_trip_count(rel.inner)
                        self.coord[id(rel.parent)] = sadd(
                            smul(outer, stride), inner
                        )
                        changed = True
                elif isinstance(rel, FuseRel):
                    fused = self.coord.get(id(rel.fused))
                    if fused is not None and id(rel.outer) not in self.coord:
                        inner_trip = self._dense_trip_count(rel.inner)
                        self.coord[id(rel.outer)] = SBin("/", fused, inner_trip)
                        self.coord[id(rel.inner)] = SBin("%", fused, inner_trip)
                        changed = True

    def _static_extent(self, ivar: IndexVar) -> Optional[int]:
        """Compile-time extent for variables bound to fixed-size block
        levels (the trip count is a literal, not a host symbol)."""
        for asg in self.analysis.assignments:
            for acc in (asg.lhs, *asg.rhs.accesses()):
                mode = acc.mode_of(ivar)
                if mode is None:
                    continue
                fmt = acc.tensor.format
                lf = fmt.level_format(fmt.level_of_mode(mode))
                if lf.is_block:
                    return int(lf.size)
        return None

    def _dense_trip_count(self, ivar: IndexVar) -> SExpr:
        prov = self.analysis.provenance
        rel = prov.recombine(ivar)
        if rel is None:
            static = self._static_extent(ivar)
            if static is not None:
                return SLit(static)
            return self.ivar_dim(ivar)
        relation, role = rel
        if isinstance(relation, SplitUp):
            if role == "inner":
                return SLit(relation.factor)
            parent = self._dense_trip_count(relation.parent)
            return SBin("/", sadd(parent, SLit(relation.factor - 1)),
                        SLit(relation.factor))
        if isinstance(relation, SplitDown):
            if role == "outer":
                return SLit(relation.factor)
            parent = self._dense_trip_count(relation.parent)
            return SBin("/", sadd(parent, SLit(relation.factor - 1)),
                        SLit(relation.factor))
        assert isinstance(relation, FuseRel)
        return smul(self._dense_trip_count(relation.outer),
                    self._dense_trip_count(relation.inner))

    def _position(self, access: Access, level: int) -> SExpr:
        """The position of storage ``level`` of the tensor ``access``
        reads (0 above the root).

        A level that stores arrays has its position bound by the loop that
        iterates it. A level that stores none (dense, block) is located
        from its parent: ``parent * dim + coord``, with the access's
        coordinate bound at the time of reading, whatever the loop order.
        """
        if level < 0:
            return SLit(0)
        tensor = access.tensor
        bound = self.position.get((id(tensor), level))
        if bound is not None:
            return bound
        fmt = tensor.format
        if fmt.level_format(level).arrays():
            raise LoweringError(
                f"level {level} of {tensor.name} is read before the loop "
                "that iterates it binds its position")
        var = access.indices[fmt.mode_of_level(level)]
        coord = self.coord.get(id(var))
        if coord is None:
            raise LoweringError(
                f"coordinate {var} for {tensor.name} level {level} unbound")
        return sadd(smul(self._position(access, level - 1),
                         self.dim_symbol(tensor, level)), coord)

    @staticmethod
    def _slice_bounds(base: SExpr, dim: SExpr) -> tuple[SExpr, SExpr]:
        """``[base * dim, (base + 1) * dim)``: the ``base``-th row of a
        row-major array with rows of ``dim`` elements."""
        return smul(base, dim), smul(sadd(base, SLit(1)), dim)

    # .. output row buffers (the plan's dense-SRAM result row) ......................

    def _stage_output_row(self, depth: int,
                          result_it: LevelIterator) -> Optional[str]:
        """Allocate the result row in this loop's body when the memory plan
        binds it here; returns its name."""
        vb = self.out_vals
        if (vb is None or vb.staged_full or vb.memory is not MemoryType.SRAM_DENSE
                or vb.alloc_depth != depth + 1
                or result_it.tensor is not self.analysis.output):
            return None
        out = result_it.tensor
        name = f"{out.name}_row"
        self.emit(SramDecl(name, self.dim_symbol(out, out.order - 1)))
        return name

    def _store_output_row(self, row: str) -> None:
        out = self.analysis.output
        start, end = self._slice_bounds(
            self._position(self._access_of(out), out.order - 2),
            self.dim_symbol(out, out.order - 1))
        self.emit(StoreBulk(self.dram_name(self.vals_name(out)), row,
                            start, end, par=self.env.get(INNER_PAR, 1)))

    # .. compressed (single driving iterator) .....................................

    def _access_of(self, tensor) -> Access:
        for asg in self.analysis.assignments:
            for acc in (asg.lhs, *asg.rhs.accesses()):
                if acc.tensor is tensor:
                    return acc
        raise LoweringError(f"tensor {tensor.name} is never accessed")

    def _segment(self, it: LevelIterator) -> tuple[SExpr, SExpr, SExpr]:
        """(start, end, len) of the driving iterator's current segment."""
        tensor = it.tensor
        parent = self._position(it.access, it.level - 1)
        pos_mem = self.array_name(tensor, it.level, "pos")
        prefix = f"{tensor.name}{it.level + 1}"
        start_name = self.fresh(f"{prefix}_start")
        len_name = self.fresh(f"{prefix}_len")
        invalid = self._parent_may_be_invalid(parent)
        gated = self._gate_parent(parent) if invalid else parent
        self.emit(Assign(start_name, SRead(pos_mem, gated)))
        raw_len = ssub(SRead(pos_mem, sadd(gated, SLit(1))), SVar(start_name))
        if invalid:
            raw_len = SSelect(self._parent_valid(parent), raw_len, SLit(0))
        self.emit(Assign(len_name, raw_len))
        start = SVar(start_name)
        length = SVar(len_name)
        return start, sadd(start, length), length

    def _gate_parent(self, parent: SExpr) -> SExpr:
        return SSelect(self._parent_valid(parent), parent, SLit(0))

    def _parent_may_be_invalid(self, parent: SExpr) -> bool:
        return any(isinstance(e, SVar) and e.name in self._scan_positions
                   for e in parent.walk())

    def _parent_valid(self, parent: SExpr) -> SExpr:
        for e in parent.walk():
            if isinstance(e, SVar) and e.name in self._scan_positions:
                return SValid(e)
        raise LoweringError("no scan position in parent expression")

    def _load_segment_stream(
        self, it: LevelIterator, start: SExpr, end: SExpr, want_vals: bool
    ) -> tuple[str, Optional[str]]:
        """Allocate + load the crd (and optionally vals) segment arrays."""
        tensor = it.tensor
        crd = self.array_name(tensor, it.level, "crd")
        self.emit(FifoDecl(crd, FIFO_DEPTH))
        self.emit(LoadBulk(crd, self.dram_name(crd), start, end, par=1))
        vals = None
        if want_vals:
            vals = self.vals_name(tensor)
            vb = self.plan.get(tensor.name, "vals")
            if vb is not None and vb.memory is MemoryType.FIFO:
                self.emit(FifoDecl(vals, FIFO_DEPTH))
            else:
                self.emit(SramDecl(vals, self.sym(NNZ_ACCEL_MAX),
                                   sparse=vb is not None
                                   and vb.memory is MemoryType.SRAM_SPARSE))
            self.emit(LoadBulk(vals, self.dram_name(vals), start, end, par=1))
        return crd, vals

    @staticmethod
    def _is_innermost_level(tensor, level: int) -> bool:
        return level == tensor.format.order - 1

    def _open_compressed(self, ivar: IndexVar, info, par: int) -> _Loop:
        """A position loop over the driving iterator's segment; the
        coordinate is dequeued from its crd stream."""
        it = info.strategy.driving[0]
        tensor = it.tensor
        self._stage_slices_for_depth(info.depth)
        start, end, seg_len = self._segment(it)
        want_vals = tensor.format.streams_vals_at(it.level)
        crd_mem, vals_mem = self._load_segment_stream(it, start, end, want_vals)
        out_state = self._begin_output_level(info)
        idx = SVar(self.fresh(f"{ivar.name}q"))
        self._body_stack.append([])
        coord = SVar(ivar.name)
        self.emit(Assign(coord.name, SDeq(crd_mem)))
        self.coord[id(ivar)] = coord
        if it.level + 1 < tensor.format.order:
            pos_name = self.fresh(f"{tensor.name}{it.level + 1}_abs")
            self.emit(Assign(pos_name, sadd(start, idx)))
            self.position[(id(tensor), it.level)] = SVar(pos_name)
        if vals_mem is not None:
            vb = self.plan.get(tensor.name, "vals")
            if vb is not None and vb.memory is MemoryType.FIFO:
                hoist = f"{tensor.name}_hoisted"
                self.emit(Assign(hoist, SDeq(vals_mem)))
                self.value_of[id(tensor)] = SVar(hoist)
            else:
                self.value_of[id(tensor)] = SRead(vals_mem, idx)
        return _Loop(DenseCounter(seg_len), (idx.name,), coord,
                     out_state=out_state, out_idx=idx, count=seg_len)

    # .. singleton (one coordinate per parent position) ............................

    def _open_singleton(self, ivar: IndexVar, info, par: int) -> _Loop:
        """A singleton-level forall (COO column/tail levels).

        No counter loop runs: the ``Singleton`` scanner yields the one
        coordinate stored at the parent's position, and the position
        passes through unchanged (1:1 with the parent level).
        """
        it = info.strategy.driving[0]
        tensor = it.tensor
        result_it = info.strategy.result_iterator
        if result_it is not None and not result_it.level_format.is_dense:
            raise LoweringError(
                "singleton loops cannot produce compressed output levels"
            )
        self._stage_slices_for_depth(info.depth)
        parent = self._position(it.access, it.level - 1)
        self._body_stack.append([])
        coord = SVar(ivar.name)
        self.coord[id(ivar)] = coord
        self.position[(id(tensor), it.level)] = parent
        if (self.value_of.get(id(tensor)) is None
                and self._is_innermost_level(tensor, it.level)):
            # Parent loops normally hoist the value stream; fall back to a
            # positional read when the values sit in random-access SRAM.
            vb = self.plan.get(tensor.name, "vals")
            if vb is not None and vb.memory in (MemoryType.SRAM_DENSE,
                                                MemoryType.SRAM_SPARSE):
                self.value_of[id(tensor)] = SRead(self.vals_name(tensor),
                                                  parent)
        return _Loop(SingletonCounter(self.array_name(tensor, it.level, "crd"), parent),
                     (ivar.name,), coord, par=1)

    # .. scans (co-iteration) ......................................................

    def _open_scan(self, ivar: IndexVar, info, par: int) -> _Loop:
        """A bit-vector scanner over one or two operands; a compressed
        result is counted by a first scanner loop (Section 7.2)."""
        strategy = info.strategy
        self._stage_slices_for_depth(info.depth)
        dim = self.ivar_dim(ivar)

        bv_names: list[str] = []
        operands: list[tuple[LevelIterator, str]] = []
        for it in strategy.driving:
            if it.symbol == "B" and id(it.tensor) in self.ws_bitvector:
                bv_names.append(self.ws_bitvector[id(it.tensor)])
                operands.append((it, "ws"))
                continue
            start, end, seg_len = self._segment(it)
            want_vals = self._is_innermost_level(it.tensor, it.level)
            crd_mem, _vals = self._load_segment_stream(it, start, end, want_vals)
            bv = self.array_name(it.tensor, it.level, "bv")
            self.emit(BitVectorDecl(bv, dim))
            self.emit(GenBitVector(bv, crd_mem, seg_len))
            bv_names.append(bv)
            operands.append((it, "seg"))
            self.seg_start[(id(it.tensor), it.level)] = start

        op = strategy.op or "and"
        result_it = strategy.result_iterator
        result_ws = result_it is not None and result_it.tensor.is_on_chip
        if result_ws and len(bv_names) == 2:
            out_t = result_it.tensor
            ws_bv = self.array_name(out_t, result_it.level, "bv")
            self.emit(BitVectorDecl(ws_bv, dim))
            self.emit(BitVectorOp(ws_bv, bv_names[0], bv_names[1], op))
            self.ws_bitvector[id(out_t)] = ws_bv

        out_state = self._begin_output_level(info)
        counter = ScanCounter(bv_names[0],
                              bv_names[1] if len(bv_names) > 1 else None,
                              op, dim)
        # Binders: the operand positions, the output position, the coordinate.
        ivars = self._scan_binders(ivar, len(bv_names))
        self._scan_positions.update(ivars[:-2])
        count = None
        if strategy.result_compressed and not result_ws:
            # First scanner loop: count result positions (Section 7.2).
            count_reg = self.fresh(f"{ivar.name}_cnt")
            self.emit(RegDecl(count_reg, 0.0))
            self.emit(ReducePat(count_reg, counter, ivars, (), SLit(1),
                                "+", par=par))
            count = SRegRead(count_reg)
        self._body_stack.append([])
        coord = SVar(ivars[-1])
        self.coord[id(ivar)] = coord
        for k, (it, kind) in enumerate(operands):
            pvar = SVar(ivars[k])
            if kind == "ws" or self._is_innermost_level(it.tensor, it.level):
                self.value_of[id(it.tensor)] = self._gated_value(it, pvar, op)
            if kind == "seg" and it.level + 1 < it.tensor.format.order:
                base = self.seg_start[(id(it.tensor), it.level)]
                self.position[(id(it.tensor), it.level)] = sadd(base, pvar)
        out_idx = SVar(ivars[-2])
        if result_ws:
            self.ws_out_pos = out_idx
        return _Loop(counter, ivars, coord, out_state=out_state,
                     out_idx=out_idx, count=count, result_ws=result_ws)

    @staticmethod
    def _scan_binders(ivar: IndexVar, n_ops: int) -> tuple[str, ...]:
        base = ivar.name
        if n_ops == 1:
            return (f"{base}a_p", f"{base}_out", base)
        return (f"{base}a_p", f"{base}b_p", f"{base}_out", base)

    def _gated_value(self, it: LevelIterator, pvar: SVar, op: str) -> SExpr:
        read = SRead(self.vals_name(it.tensor), pvar)
        if op == "or":
            return SSelect(SValid(pvar), read, SLit(0))
        return read

    # -- output handling ------------------------------------------------------------

    def _begin_output_level(self, info) -> Optional[dict]:
        """Prepare counters/FIFOs for a compressed output level."""
        strategy = info.strategy
        if not strategy.result_compressed:
            return None
        out = strategy.result_iterator.tensor
        if out.is_on_chip:
            return None
        level = strategy.result_iterator.level
        cnt_reg = f"{out.name}{level + 1}_cnt"
        if cnt_reg not in self._declared_regs:
            # Global running counter, declared once at the accel root.
            self._body_stack[0].insert(0, RegDecl(cnt_reg, 0.0))
            self._declared_regs.add(cnt_reg)
        start_name = self.fresh(f"{out.name}{level + 1}_ostart")
        self.emit(Assign(start_name, SRegRead(cnt_reg)))
        crd_fifo = self.array_name(out, level, "crd")
        self.emit(FifoDecl(crd_fifo, FIFO_DEPTH))
        vals_fifo = None
        if self._is_innermost_level(out, level):
            vals_fifo = self.vals_name(out)
            self.emit(FifoDecl(vals_fifo, FIFO_DEPTH))
        return {
            "tensor": out,
            "level": level,
            "cnt_reg": cnt_reg,
            "start": SVar(start_name),
            "crd_fifo": crd_fifo,
            "vals_fifo": vals_fifo,
        }

    def _bind_output_compressed(self, out_state: dict, seg_idx: SExpr,
                                coord: SExpr) -> None:
        level = out_state["level"]
        self.position[(id(out_state["tensor"]), level)] = sadd(
            out_state["start"], seg_idx)
        self.emit(Enq(out_state["crd_fifo"], coord))

    def _end_output_level(self, out_state: Optional[dict],
                          cnt: Optional[SExpr]) -> None:
        """After the loop: update the pos array, stream segments to DRAM."""
        if out_state is None:
            return
        if cnt is None:
            raise LoweringError("compressed output level without a count")
        out = out_state["tensor"]
        level = out_state["level"]
        start = out_state["start"]
        end_name = self.fresh(f"{out.name}{level + 1}_oend")
        self.emit(Assign(end_name, sadd(start, cnt)))
        parent = self._position(self._access_of(out), level - 1)
        self.emit(SramWrite(self.array_name(out, level, "pos"), sadd(parent, SLit(1)),
                            SVar(end_name)))
        self.emit(RegWrite(out_state["cnt_reg"], SVar(end_name)))
        crd_dram = self.dram_name(self.array_name(out, level, "crd"))
        self.emit(StreamStore(crd_dram, out_state["crd_fifo"], start, cnt))
        if out_state["vals_fifo"] is not None:
            vals_dram = self.dram_name(self.vals_name(out))
            self.emit(StreamStore(vals_dram, out_state["vals_fifo"], start, cnt))

    # -- staged dense slices -----------------------------------------------------------

    def _stage_slices_for_depth(self, depth: int) -> None:
        """Emit SRAM staging for dense-slice operands allocated here."""
        for tensor in self.analysis.inputs:
            if tensor.order == 0 or tensor.is_on_chip:
                continue
            vb = self.plan.get(tensor.name, "vals")
            if vb is None or vb.memory is not MemoryType.SRAM_DENSE:
                continue
            if vb.staged_full or vb.alloc_depth != depth:
                continue
            name = self.vals_name(tensor)
            trailing_level = tensor.format.order - 1
            trailing_dim = self.dim_symbol(tensor, trailing_level)
            start, end = self._slice_bounds(
                self._position(self._access_of(tensor), trailing_level - 1),
                trailing_dim)
            self.emit(SramDecl(name, trailing_dim))
            self.emit(LoadBulk(name, self.dram_name(name), start, end,
                               par=self.env.get(INNER_PAR, 1)))
            self._declared.add(name)

    # -- assignments -----------------------------------------------------------------

    def _reduce_value(self, body: CinStmt) -> SExpr:
        body = self._strip(body)
        if not isinstance(body, CinAssign):
            raise LoweringError("Reduce pattern bodies must be assignments")
        return self.lower_expr(body.rhs)

    def lower_assign(self, asg: CinAssign) -> None:
        out = asg.lhs.tensor
        value = self.lower_expr(asg.rhs)
        if out.order == 0:
            reg = f"{out.name}_reg"
            if reg not in self._declared_regs:
                self._declare_reg(reg)
            self.emit(RegWrite(reg, value, accumulate=asg.accumulate))
            self.value_of[id(out)] = SRegRead(reg)
            return
        if out.is_on_chip:
            addr = self.ws_out_pos
            if addr is None:
                mode = out.format.mode_of_level(out.format.order - 1)
                addr = self.coord.get(id(asg.lhs.indices[mode]))
            if addr is None:
                raise LoweringError("workspace write without a bound position")
            name = self.vals_name(out)
            if name not in self._declared:
                memory = self.plan.binding(out.name, "vals").memory
                self.emit_parent(SramDecl(
                    name, self.dim_symbol(out, out.order - 1),
                    sparse=memory is MemoryType.SRAM_SPARSE))
                self._declared.add(name)
            self.emit(SramWrite(name, addr, value, accumulate=asg.accumulate))
            return
        vb = self.out_vals
        if vb.staged_full:
            self.emit(SramWrite(self.vals_name(out),
                                self._position(asg.lhs, out.order - 1),
                                value, accumulate=asg.accumulate,
                                atomic=asg.accumulate))
        elif vb.memory is MemoryType.SRAM_DENSE:
            mode = out.format.mode_of_level(out.order - 1)
            coordv = self.coord.get(id(asg.lhs.indices[mode]))
            if coordv is None:
                raise LoweringError("dense output coordinate unbound")
            self.emit(SramWrite(f"{out.name}_row", coordv, value,
                                accumulate=asg.accumulate,
                                atomic=asg.accumulate))
        elif self._stream_at is not None:
            # Per-element register, enqueued once per iteration of the
            # loop that completes the coordinate (``_open_dense``).
            self.emit(RegWrite(f"{out.name}_elem", value,
                               accumulate=asg.accumulate))
        else:
            self.emit(Enq(self.vals_name(out), value))

    # -- expressions --------------------------------------------------------------------

    def lower_expr(self, expr: IndexExpr) -> SExpr:
        if isinstance(expr, Literal):
            return SLit(expr.value)
        if isinstance(expr, Neg):
            return ssub(SLit(0), self.lower_expr(expr.a))
        if isinstance(expr, Add):
            return sadd(self.lower_expr(expr.a), self.lower_expr(expr.b))
        if isinstance(expr, Sub):
            return ssub(self.lower_expr(expr.a), self.lower_expr(expr.b))
        if isinstance(expr, Mul):
            return smul(self.lower_expr(expr.a), self.lower_expr(expr.b))
        if isinstance(expr, Access):
            return self.lower_access(expr)
        raise LoweringError(f"cannot lower expression {type(expr).__name__}")

    def lower_access(self, access: Access) -> SExpr:
        tensor = access.tensor
        hoisted = self.value_of.get(id(tensor))
        if hoisted is not None:
            return hoisted
        if tensor.order == 0:
            return self.sym(tensor.name)
        vb = self.plan.get(tensor.name, "vals")
        if vb is None:
            raise LoweringError(f"no memory binding for {tensor.name}.vals")
        name = self.vals_name(tensor)
        fmt = tensor.format
        if vb.memory is MemoryType.SRAM_DENSE and not vb.staged_full:
            mode = fmt.mode_of_level(fmt.order - 1)
            coord = self.coord.get(id(access.indices[mode]))
            if coord is None:
                raise LoweringError(f"coordinate for {tensor.name} slice unbound")
            return SRead(name, coord)
        if vb.staged_full:
            return SRead(name, self._position(access, fmt.order - 1))
        raise LoweringError(
            f"access {access} has no value binding at this point "
            f"(vals in {vb.memory})"
        )


def lower(stmt: IndexStmt, name: str = "kernel") -> SpatialProgram:
    """Lower a scheduled statement to a Spatial program."""
    return Lowerer(stmt, name).lower()
