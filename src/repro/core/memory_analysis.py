"""Memory analysis: fine-grained array binding and transfer placement.

Section 6 of the paper: the user pins tensors coarsely (on-/off-chip via
the format language); the compiler then binds every format sub-array —
positions, coordinates, values — to a physical memory type and decides
where allocations and inter-memory transfers are emitted.

The binding preconditions implemented here follow Section 6.1:

* every off-chip tensor's arrays live in host-initialised **dense DRAM**
  (or **sparse DRAM** when accessed randomly with no working set);
* **position arrays** have affine ``addr, addr+1`` access → dense SRAM,
  loaded at kernel start;
* **coordinate arrays** are traversed strictly in order → FIFOs; when the
  level participates in a compressed-compressed co-iteration, the stream
  feeds a generated **bit vector** instead;
* **values arrays** are FIFOs when consumed in order at the innermost mode,
  sparse SRAM when accessed by scan positions (co-iteration) or gathered by
  sparse coordinates (which also engages the shuffle network), and dense
  SRAM when staged as an affine slice of a dense tensor;
* **result values** take one of three placements: a **FIFO** (a
  compressed innermost level, at that level's loop; a 1-D dense stream, at
  L0), a **dense-SRAM row** in the body of the loop over the result's
  second-to-last level, or the **whole result in dense SRAM** at L0
  (``staged_full``) when coordinates repeat, the row loop is derived, or
  the loops do not visit the result's rows (a 1-D result's elements) in
  storage order, once (:meth:`KernelAnalysis.in_order`, the one
  loop-order rule the lowerer and the fusion planner also ask). Lowering
  emits only what the plan binds;
* **scalars** are registers.

Transfer placement follows Section 6.2: each array is allocated at the
loop level just above its first use, with its load immediately after the
allocation (``alloc_depth`` below; depth ``k`` means the statement sits in
the body of loop ``k-1``, i.e. alongside loop ``k``).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.formats.memory import MemoryType
from repro.ir.cin import (
    CinAssign,
    CinSequence,
    CinStmt,
    Forall,
    MapCall,
    SuchThat,
    Where,
    strip_suchthat,
)
from repro.ir.index_notation import Access, IndexVar
from repro.core.coiteration import (
    IterationStrategy,
    LoweringError,
    build_strategy,
)
from repro.schedule.provenance import Provenance
from repro.schedule.stmt import IndexStmt


# ---------------------------------------------------------------------------
# Kernel analysis: loop structure and per-forall strategies
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ForallInfo:
    """Analysis record for one forall."""

    forall: Forall
    enclosing: tuple[ForallInfo, ...]  # the loops around it, outermost first
    strategy: IterationStrategy
    mapped: Optional[MapCall] = None  # the MapCall wrapping it, if any

    @property
    def ivar(self) -> IndexVar:
        return self.forall.ivar

    @property
    def depth(self) -> int:
        return len(self.enclosing)


@dataclasses.dataclass
class KernelAnalysis:
    """Loop structure, strategies, and tensor roles for one kernel."""

    stmt: IndexStmt
    foralls: list[ForallInfo]
    #: Keyed by the variable itself, not its ``id()``: a kernel loaded
    #: from the disk store holds new variable objects (pickling keeps
    #: this map's keys the same objects as the foralls' variables).
    by_ivar: dict[IndexVar, ForallInfo]
    assignments: list[CinAssign]
    output: object  # Tensor
    inputs: list[object]
    workspaces: list[object]
    provenance: Provenance
    max_depth: int

    def info(self, ivar: IndexVar) -> ForallInfo:
        found = self.by_ivar.get(ivar)
        if found is not None:
            return found
        # Derived-variable fallback: after split/fuse, accesses still index
        # with the root variable; its coordinate is bound by the deepest
        # forall derived from it.
        candidates = [
            f for f in self.foralls
            if any(r is ivar for r in self.provenance.roots(f.ivar))
        ]
        if not candidates:
            raise KeyError(f"no forall binds {ivar}")
        return max(candidates, key=lambda f: f.depth)

    def strategy(self, ivar: IndexVar) -> IterationStrategy:
        return self.info(ivar).strategy

    def in_order(self, level_vars, anchor: int) -> bool:
        """True when the loops visit levels ``0..anchor`` of a tensor whose
        storage levels are indexed by ``level_vars`` in storage order, each
        coordinate once: the loops over those levels nest in storage order
        (a split's outer loop around its inner one), only they enclose one
        another, and the innermost of them encloses every loop over a
        deeper level (Section 6.1's condition for a stream)."""
        rank = {v: L for L, v in enumerate(level_vars)}  # -1: no level
        prov = self.provenance

        def levels(f: ForallInfo) -> list[int]:
            return [rank.get(r, -1) for r in prov.roots(f.ivar)]

        mine = [f for f in self.foralls if any(0 <= L <= anchor for L in levels(f))]
        if not mine:
            return True
        inner = max(mine, key=lambda f: f.depth)
        chain = (*inner.enclosing, inner)
        keys = [(rank.get(r, -1), path)
                for f in chain for r, path in prov.digits(f.ivar)]
        if len(chain) != len(mine) or keys != sorted(keys) or keys[0][0] < 0:
            return False
        return all(f is inner or any(g is inner for g in f.enclosing)
                   for f in self.foralls if max(levels(f)) > anchor)

    @property
    def output_scatters(self) -> bool:
        """True when the dense output's coordinates may repeat: a
        non-unique (COO-style) driving level forces scatter accumulation,
        so the output stream is not in coordinate order."""
        out = self.output
        if out.is_on_chip or out.order == 0 or not out.format.is_all_dense:
            return False
        for info in self.foralls:
            st = info.strategy
            if st.result_iterator is None or st.result_iterator.tensor is not out:
                continue
            if any(not it.level_format.unique for it in st.driving):
                return True
        return False


def analyze(stmt: IndexStmt) -> KernelAnalysis:
    """Analyse a scheduled statement: loop depths and iteration strategies."""
    cin, relations = strip_suchthat(stmt.cin)
    provenance = Provenance(relations)
    foralls: list[ForallInfo] = []
    by_ivar: dict[IndexVar, ForallInfo] = {}
    dominated: list[list[CinAssign]] = []  # each forall's assignments

    def visit(s: CinStmt, enclosing: tuple,
              mapped: Optional[MapCall]) -> list[CinAssign]:
        """Record the foralls under ``s``; returns its assignments in
        pre-order."""
        if isinstance(s, SuchThat):
            return visit(s.body, enclosing, mapped)
        if isinstance(s, Forall):
            info = ForallInfo(s, enclosing, None, mapped)
            foralls.append(info)
            by_ivar[s.ivar] = info
            assigns: list[CinAssign] = []
            dominated.append(assigns)
            assigns += visit(s.body, (*enclosing, info), mapped)
            return assigns
        if isinstance(s, Where):
            producer = visit(s.producer, enclosing, mapped)
            return visit(s.consumer, enclosing, mapped) + producer
        if isinstance(s, CinSequence):
            return [a for sub in s.stmts for a in visit(sub, enclosing, mapped)]
        if isinstance(s, MapCall):
            return visit(s.original, enclosing, s)
        if isinstance(s, CinAssign):
            return [s]
        raise LoweringError(  # pragma: no cover - defensive
            f"cannot analyse {type(s).__name__}")

    assignments = visit(cin, (), None)
    # Strategies are built in forall order (outermost first), each over
    # the assignments its forall dominates.
    for info, assigns in zip(foralls, dominated):
        info.strategy = build_strategy(info.ivar, [a.rhs for a in assigns],
                                       [a.lhs for a in assigns])

    if not assignments:
        raise LoweringError("statement contains no assignment")
    seen: dict[int, object] = {}
    for asg in assignments:
        for t in (asg.lhs.tensor, *asg.rhs.tensors()):
            seen.setdefault(id(t), t)
    tensors = tuple(seen.values())
    output = assignments[0].lhs.tensor
    # The root output is the lhs that is not consumed as a workspace.
    workspace_ids = set()
    for asg in assignments:
        if asg.lhs.tensor.is_on_chip:
            workspace_ids.add(id(asg.lhs.tensor))
    for asg in assignments:
        if id(asg.lhs.tensor) not in workspace_ids:
            output = asg.lhs.tensor
            break
    inputs = [
        t
        for t in tensors
        if id(t) != id(output) and id(t) not in workspace_ids
    ]
    workspaces = [t for t in tensors if id(t) in workspace_ids]
    max_depth = max((f.depth for f in foralls), default=-1)
    return KernelAnalysis(
        stmt=stmt,
        foralls=foralls,
        by_ivar=by_ivar,
        assignments=assignments,
        output=output,
        inputs=inputs,
        workspaces=workspaces,
        provenance=provenance,
        max_depth=max_depth,
    )


# ---------------------------------------------------------------------------
# Memory plan
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class ArrayBinding:
    """The physical binding of one tensor sub-array."""

    tensor: str
    array: str  # 'pos{L}', 'crd{L}', 'bv{L}', 'vals', or 'scalar'
    memory: MemoryType
    alloc_depth: int
    reason: str
    uses_shuffle: bool = False
    staged_full: bool = False  # whole array staged on chip (vs. a slice)

    def __str__(self) -> str:
        shuf = ", shuffle" if self.uses_shuffle else ""
        return (
            f"{self.tensor}.{self.array} -> {self.memory.value} "
            f"(alloc@L{self.alloc_depth}{shuf}): {self.reason}"
        )


@dataclasses.dataclass
class MemoryPlan:
    """Complete fine-grained binding table for one kernel."""

    bindings: dict[tuple[str, str], ArrayBinding]
    analysis: KernelAnalysis

    def binding(self, tensor_name: str, array: str) -> ArrayBinding:
        return self.bindings[(tensor_name, array)]

    def get(self, tensor_name: str, array: str) -> Optional[ArrayBinding]:
        return self.bindings.get((tensor_name, array))

    def shuffle_levels(self) -> int:
        """Number of distinct loop levels engaging the shuffle network."""
        depths = {
            b.alloc_depth
            for b in self.bindings.values()
            if b.uses_shuffle
        }
        return len(depths)

    def report(self) -> str:
        lines = ["Memory analysis (Section 6.1 bindings):"]
        for key in sorted(self.bindings):
            lines.append(f"  {self.bindings[key]}")
        return "\n".join(lines)


#: How strong a binding's requirement is: random access beats streaming.
_RANK = {
    MemoryType.FIFO: 0,
    MemoryType.BIT_VECTOR: 1,
    MemoryType.SRAM_DENSE: 2,
    MemoryType.SRAM_SPARSE: 3,
}


def _add(plan: dict, binding: ArrayBinding) -> None:
    key = (binding.tensor, binding.array)
    existing = plan.get(key)
    if existing is None:
        plan[key] = binding
        return
    # Keep the stronger requirement, and the whole array over a slice.
    if ((_RANK.get(binding.memory, -1), binding.staged_full)
            > (_RANK.get(existing.memory, -1), existing.staged_full)):
        plan[key] = dataclasses.replace(
            binding, uses_shuffle=binding.uses_shuffle or existing.uses_shuffle
        )
    elif binding.uses_shuffle and not existing.uses_shuffle:
        plan[key] = dataclasses.replace(existing, uses_shuffle=True)


def plan_memory(analysis: KernelAnalysis) -> MemoryPlan:
    """Bind every tensor sub-array to a physical memory type."""
    plan: dict[tuple[str, str], ArrayBinding] = {}
    out = analysis.output

    for asg in analysis.assignments:
        _plan_access(plan, analysis, asg.lhs, is_output=asg.lhs.tensor is out)
        for acc in asg.rhs.accesses():
            _plan_access(plan, analysis, acc, is_output=False)
    return MemoryPlan(plan, analysis)


def _plan_access(
    plan: dict,
    analysis: KernelAnalysis,
    access: Access,
    is_output: bool,
) -> None:
    tensor = access.tensor
    fmt = tensor.format
    name = tensor.name

    if tensor.order == 0:
        if tensor.is_on_chip or is_output:
            _add(plan, ArrayBinding(
                name, "scalar", MemoryType.REGISTER, 0,
                "on-chip scalar workspaces and results live in registers",
            ))
        else:
            _add(plan, ArrayBinding(
                name, "scalar", MemoryType.REGISTER, 0,
                "scalar input broadcast from the host as a configuration value",
            ))
        return

    # Depth at which each storage level's variable binds.
    level_vars = [access.indices[fmt.mode_of_level(L)] for L in range(fmt.order)]
    level_depths = [analysis.info(v).depth for v in level_vars]
    innermost_level = max(range(fmt.order), key=lambda L: level_depths[L])

    for L in range(fmt.order):
        lf = fmt.level_format(L)
        v = level_vars[L]
        strategy = analysis.strategy(v)
        if lf.is_singleton:
            # One coordinate per parent position, read at the parent's
            # (monotone) position: affine access -> dense SRAM, staged at
            # kernel start alongside the pos arrays.
            _add(plan, ArrayBinding(
                name, f"crd{L}", MemoryType.SRAM_DENSE, 0,
                "singleton coordinates read by parent position (affine) "
                "-> dense SRAM",
            ))
            continue
        if not lf.is_compressed:
            continue
        d = level_depths[L]
        if is_output:
            _add(plan, ArrayBinding(
                name, f"pos{L}", MemoryType.SRAM_DENSE, 0,
                "result positions accumulate in affine-addressed dense SRAM",
            ))
            _add(plan, ArrayBinding(
                name, f"crd{L}", MemoryType.FIFO, d,
                "result coordinates enqueue in order and stream to DRAM",
            ))
            continue
        _add(plan, ArrayBinding(
            name, f"pos{L}", MemoryType.SRAM_DENSE, 0,
            "position arrays are addressed addr,addr+1 (affine) -> dense SRAM",
        ))
        drives_scan = (
            strategy.kind == "scan"
            and any(it.tensor is tensor and it.level == L for it in strategy.driving)
        )
        if drives_scan:
            _add(plan, ArrayBinding(
                name, f"crd{L}", MemoryType.FIFO, d,
                "coordinate segment streams into the bit-vector generator",
            ))
            _add(plan, ArrayBinding(
                name, f"bv{L}", MemoryType.BIT_VECTOR, d,
                "compressed-compressed co-iteration packs occupancy bit vectors",
            ))
        else:
            _add(plan, ArrayBinding(
                name, f"crd{L}", MemoryType.FIFO, d,
                "coordinates are traversed in order, used once -> FIFO",
            ))

    # -- values array ---------------------------------------------------------
    vals_depth = level_depths[innermost_level]
    inner_fmt = fmt.level_format(innermost_level)
    inner_var = level_vars[innermost_level]
    strategy = analysis.strategy(inner_var)

    if is_output:
        _add(plan, _result_vals(analysis, name, fmt, level_vars, level_depths))
        return

    if tensor.is_on_chip:
        # Workspace values: random access with reuse -> sparse SRAM
        # (bit-vector structure carries the coordinates).
        mem = MemoryType.SRAM_SPARSE if fmt.has_compressed_level else MemoryType.SRAM_DENSE
        _add(plan, ArrayBinding(
            name, "vals", mem, vals_depth,
            "on-chip workspace values: small fixed-size array with reuse",
        ))
        return

    if inner_fmt.is_singleton:
        # Values align 1:1 with the parent compressed level's positions
        # and stream through its traversal in order (the COO layout).
        _add(plan, ArrayBinding(
            name, "vals", MemoryType.FIFO, vals_depth,
            "values consumed in order through singleton positions -> FIFO",
        ))
        return

    if inner_fmt.is_compressed:
        in_scan = strategy.kind == "scan" and any(
            it.tensor is tensor for it in strategy.driving
        )
        if in_scan:
            _add(plan, ArrayBinding(
                name, "vals", MemoryType.SRAM_SPARSE, vals_depth,
                "scan pattern indices address values randomly -> sparse SRAM",
                uses_shuffle=(strategy.op == "or"),
            ))
        else:
            _add(plan, ArrayBinding(
                name, "vals", MemoryType.FIFO, vals_depth,
                "values consumed in order at the innermost mode -> FIFO",
            ))
        return

    if fmt.has_compressed_level:
        # Trailing block/dense levels under a compressed level (BCSR):
        # values are addressed by storage position, not affine coordinates,
        # so the whole array stages once and reads positionally.
        _add(plan, ArrayBinding(
            name, "vals", MemoryType.SRAM_DENSE, 0,
            "positional values of a sparse tensor with trailing "
            "block/dense levels: whole array staged once",
            staged_full=True,
        ))
        return

    # Dense tensor: staged slice or coordinate gather. What matters is the
    # *deepest-bound* mode: if its coordinates are produced by a sparse
    # iterator, per-lane addresses are data-dependent (a gather through the
    # shuffle network); otherwise the access is an affine slice whose other
    # coordinates are already bound by enclosing loops.
    deepest_var = level_vars[innermost_level]
    deepest_strategy = analysis.strategy(deepest_var)
    if deepest_strategy.kind in ("compressed", "scan"):
        _add(plan, ArrayBinding(
            name, "vals", MemoryType.SRAM_SPARSE, 0,
            "gathered by sparse coordinates: random access with reuse "
            "-> sparse SRAM via the shuffle network",
            uses_shuffle=True,
            staged_full=True,
        ))
    elif innermost_level == fmt.order - 1:
        # The deepest-bound mode is the trailing storage mode: each slice
        # is contiguous in DRAM and stages per iteration of the loop that
        # binds the other coordinates (SDDMM's C/D row loads, Figure 11).
        other_depths = [
            level_depths[L] for L in range(fmt.order) if L != innermost_level
        ]
        alloc = max(other_depths) + 1 if other_depths else 0
        _add(plan, ArrayBinding(
            name, "vals", MemoryType.SRAM_DENSE, alloc,
            "affine slice of a dense tensor staged to dense SRAM",
        ))
    else:
        # Slices along the deepest mode would be strided in DRAM; stage the
        # whole tensor once and address it affinely (no shuffle needed: the
        # data-dependent coordinate is constant across vector lanes).
        _add(plan, ArrayBinding(
            name, "vals", MemoryType.SRAM_DENSE, 0,
            "strided slices: whole dense tensor staged once, affine access",
            staged_full=True,
        ))


def _result_vals(analysis: KernelAnalysis, name: str, fmt, level_vars,
                 level_depths) -> ArrayBinding:
    """The result values' one placement; lowering emits it as bound."""
    last = fmt.order - 1
    streamed = "result values enqueue in order and stream-store to DRAM"
    if fmt.level_format(last).is_compressed:
        return ArrayBinding(name, "vals", MemoryType.FIFO,
                            level_depths[last], streamed)
    row_loop = analysis.by_ivar.get(level_vars[last - 1]) if last else None
    if analysis.output_scatters:
        why = "result coordinates repeat"
    elif last and row_loop is None:
        why = "the result's row loop is derived (split/fuse)"
    elif not analysis.in_order(level_vars, max(last - 1, 0)):
        why = "the loops do not visit the result in storage order, once"
    elif not last and analysis.strategy(level_vars[0]).driving:
        why = "the loop over the result's coordinate skips coordinates"
    elif not last:
        return ArrayBinding(name, "vals", MemoryType.FIFO, 0, streamed)
    else:
        return ArrayBinding(
            name, "vals", MemoryType.SRAM_DENSE, row_loop.depth + 1,
            "dense result row accumulates in SRAM, bulk-stored per row")
    return ArrayBinding(
        name, "vals", MemoryType.SRAM_DENSE, 0,
        f"{why}: the whole result accumulates in dense SRAM, bulk-stored "
        "at kernel end", staged_full=True)
