"""CPU baseline: TACO-style imperative lowering and a Xeon cost model.

The paper's CPU baseline is TACO-generated C++ (OpenMP, 128 threads on a
four-socket Xeon E7-8890 v3). This module provides both halves of that
baseline:

* :func:`lower_cpu` — an imperative code generator that lowers the same
  scheduled CIN to C-like nested loops (Figure 4a's programming model:
  for-loops from foralls, one element per access, computation in the
  innermost loop, temporally repeated accumulation). Compressed-compressed
  co-iteration lowers to TACO's two-way merge ``while`` loops, in contrast
  to Stardust's bit-vector scanners (Section 9 discusses exactly this
  difference).
* :class:`CpuBackend` — an analytic performance model over the same
  workload statistics the Capstan simulator consumes, calibrated to the
  Section 8.1 machine.
"""

from __future__ import annotations

import dataclasses

from repro.capstan.calibration import DEFAULT_CPU, CpuModel
from repro.capstan.stats import WorkloadStats
from repro.core.compiler import CompiledKernel
from repro.core.coiteration import LoweringError
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
    IndexExpr,
    Literal,
    Mul,
    Neg,
    Sub,
)
from repro.schedule.stmt import IndexStmt

_INDENT = "  "


class CpuCodegen:
    """Emits TACO-style imperative C for a scheduled statement."""

    def __init__(self, stmt: IndexStmt, name: str) -> None:
        from repro.core.memory_analysis import analyze

        self.stmt = stmt
        self.name = name
        self.analysis = analyze(stmt)
        self.lines: list[str] = []
        self.depth = 0
        self._pos: dict[tuple[int, int], str] = {}

    def emit(self, text: str) -> None:
        self.lines.append(f"{_INDENT * self.depth}{text}")

    def generate(self) -> str:
        out = self.analysis.output
        args = sorted({t.name for t in (out, *self.analysis.inputs)})
        self.emit(f"// TACO-style CPU kernel: {self.name}")
        self.emit(f"int compute_{self.name}({', '.join('taco_tensor_t *' + a for a in args)}) {{")
        self.depth += 1
        self.lower(self._strip(self.stmt.cin))
        self.emit("return 0;")
        self.depth -= 1
        self.emit("}")
        return "\n".join(self.lines) + "\n"

    @staticmethod
    def _strip(stmt: CinStmt) -> CinStmt:
        while isinstance(stmt, SuchThat):
            stmt = stmt.body
        return stmt

    # -- statements -----------------------------------------------------------

    def lower(self, stmt: CinStmt) -> None:
        if isinstance(stmt, SuchThat):
            self.lower(stmt.body)
        elif isinstance(stmt, Forall):
            self.lower_forall(stmt)
        elif isinstance(stmt, Where):
            for asg in stmt.producer.assignments():
                t = asg.lhs.tensor
                if t.is_on_chip and t.order == 0:
                    self.emit(f"double {t.name} = 0.0;")
            self.lower(stmt.producer)
            self.lower(stmt.consumer)
        elif isinstance(stmt, CinSequence):
            for s in stmt.stmts:
                self.lower(s)
        elif isinstance(stmt, MapCall):
            # The CPU has no accelerated patterns: lower the original loop.
            self.lower(stmt.original)
        elif isinstance(stmt, CinAssign):
            self.lower_assign(stmt)
        else:  # pragma: no cover - defensive
            raise LoweringError(f"cannot lower {type(stmt).__name__}")

    def lower_forall(self, forall: Forall) -> None:
        info = self.analysis.info(forall.ivar)
        strategy = info.strategy
        v = forall.ivar.name
        if strategy.kind == "dense":
            dim = self._dim_of(forall.ivar)
            omp = "  // #pragma omp parallel for" if info.depth == 0 else ""
            self.emit(f"for (int {v} = 0; {v} < {dim}; {v}++) {{{omp}")
            self.depth += 1
            self.lower(forall.body)
            self.depth -= 1
            self.emit("}")
        elif strategy.kind == "compressed":
            it = strategy.driving[0]
            t, L = it.tensor.name, it.level + 1
            parent = self._position(it.access, it.level - 1)
            p = f"p{t}{L}"
            self.emit(
                f"for (int {p} = {t}{L}_pos[{parent}]; "
                f"{p} < {t}{L}_pos[{parent} + 1]; {p}++) {{"
            )
            self.depth += 1
            self.emit(f"int {v} = {t}{L}_crd[{p}];")
            self._pos[(id(it.tensor), it.level)] = p
            self.lower(forall.body)
            self.depth -= 1
            self.emit("}")
        else:  # scan -> two-way merge while loops (TACO lowering)
            self._lower_merge(forall, strategy)

    def _lower_merge(self, forall: Forall, strategy) -> None:
        v = forall.ivar.name
        its = strategy.driving
        if len(its) != 2:
            raise LoweringError("CPU merge lowering expects two operands")
        names = []
        for it in its:
            t, L = it.tensor.name, it.level + 1
            parent = self._position(it.access, it.level - 1)
            p = f"p{t}{L}"
            self.emit(f"int {p} = {t}{L}_pos[{parent}];")
            self.emit(f"int {p}_end = {t}{L}_pos[{parent} + 1];")
            names.append((p, t, L, it))
        (pa, ta, La, ita), (pb, tb, Lb, itb) = names
        union = strategy.op == "or"
        cond = f"{pa} < {pa}_end && {pb} < {pb}_end"
        self.emit(f"while ({cond}) {{")
        self.depth += 1
        self.emit(f"int {v}_a = {ta}{La}_crd[{pa}];")
        self.emit(f"int {v}_b = {tb}{Lb}_crd[{pb}];")
        self.emit(f"int {v} = {v}_a < {v}_b ? {v}_a : {v}_b;")
        self._pos[(id(ita.tensor), ita.level)] = pa
        self._pos[(id(itb.tensor), itb.level)] = pb
        if union:
            self.emit(f"if ({v}_a == {v} && {v}_b == {v}) {{")
            self.depth += 1
            self.lower(forall.body)
            self.depth -= 1
            self.emit(f"}} else if ({v}_a == {v}) {{")
            self.depth += 1
            self.emit("// b absent: its operand contributes zero")
            self.lower(forall.body)
            self.depth -= 1
            self.emit("} else {")
            self.depth += 1
            self.emit("// a absent: its operand contributes zero")
            self.lower(forall.body)
            self.depth -= 1
            self.emit("}")
        else:
            self.emit(f"if ({v}_a == {v} && {v}_b == {v}) {{")
            self.depth += 1
            self.lower(forall.body)
            self.depth -= 1
            self.emit("}")
        self.emit(f"{pa} += (int)({v}_a == {v});")
        self.emit(f"{pb} += (int)({v}_b == {v});")
        self.depth -= 1
        self.emit("}")
        if union:
            for p, t, L, it in names:
                self.emit(f"while ({p} < {p}_end) {{")
                self.depth += 1
                self.emit(f"int {v} = {t}{L}_crd[{p}];")
                self.lower(forall.body)
                self.emit(f"{p}++;")
                self.depth -= 1
                self.emit("}")

    def lower_assign(self, asg: CinAssign) -> None:
        lhs = self._lhs_ref(asg.lhs)
        op = "+=" if asg.accumulate else "="
        self.emit(f"{lhs} {op} {self._expr(asg.rhs)};")

    # -- expressions / addressing -----------------------------------------------

    def _dim_of(self, ivar) -> str:
        for asg in self.analysis.assignments:
            for acc in (asg.lhs, *asg.rhs.accesses()):
                mode = acc.mode_of(ivar)
                if mode is not None:
                    level = acc.tensor.format.level_of_mode(mode)
                    return f"{acc.tensor.name}{level + 1}_dim"
        raise LoweringError(f"no dimension for {ivar}")

    def _position(self, access: Access, level: int) -> str:
        """The position of ``level`` of the tensor ``access`` reads: the one
        its loop binds, else located from the parent (``parent * dim +
        coord``)."""
        tensor = access.tensor
        fmt = tensor.format
        expr = "0"
        for L in range(level + 1):
            p = self._pos.get((id(tensor), L))
            if p is not None:
                expr = p
                continue
            var = access.indices[fmt.mode_of_level(L)].name
            dim = f"{tensor.name}{L + 1}_dim"
            expr = var if expr == "0" else f"({expr} * {dim} + {var})"
        return expr

    def _lhs_ref(self, access: Access) -> str:
        t = access.tensor
        if t.order == 0:
            return f"{t.name}_val" if not t.is_on_chip else t.name
        return f"{t.name}_vals[{self._position(access, t.order - 1)}]"

    def _expr(self, e: IndexExpr) -> str:
        if isinstance(e, Literal):
            return repr(float(e.value))
        if isinstance(e, Access):
            t = e.tensor
            if t.order == 0:
                return t.name if t.is_on_chip else f"{t.name}_val"
            return f"{t.name}_vals[{self._position(e, t.order - 1)}]"
        if isinstance(e, Add):
            return f"({self._expr(e.a)} + {self._expr(e.b)})"
        if isinstance(e, Sub):
            return f"({self._expr(e.a)} - {self._expr(e.b)})"
        if isinstance(e, Mul):
            return f"({self._expr(e.a)} * {self._expr(e.b)})"
        if isinstance(e, Neg):
            return f"(-{self._expr(e.a)})"
        raise LoweringError(f"cannot lower expression {type(e).__name__}")


def lower_cpu(stmt: IndexStmt, name: str = "kernel") -> str:
    """Generate TACO-style imperative C for a scheduled statement."""
    return CpuCodegen(stmt, name).generate()


@dataclasses.dataclass
class CpuBackend:
    """Performance model of TACO-generated OpenMP code on the Xeon."""

    model: CpuModel = dataclasses.field(default_factory=lambda: DEFAULT_CPU)

    def predict_seconds(self, kernel: CompiledKernel, stats: WorkloadStats) -> float:
        m = self.model
        work_cycles = 0.0
        miss_elems = 0
        merge_elems = 0
        for loop in stats.loops:
            if loop.kind == "scan":
                # TACO lowers co-iteration to branchy two-way merges; the
                # merge visits the union of coordinates regardless of op,
                # and merge branches are latency-bound (tracked apart).
                merge_elems += loop.iters
            elif loop.kind == "compressed":
                work_cycles += loop.iters * m.cycles_per_sparse_elem
                if not loop.is_innermost:
                    # Nested fiber traversal: cold-cache pointer chasing.
                    miss_elems += loop.iters
            elif loop.is_innermost:
                work_cycles += loop.iters / m.dense_elems_per_cycle
            else:
                work_cycles += loop.iters * 2.0
        threads_eff = m.threads * m.parallel_efficiency
        from repro.ir.cin import CinSequence

        if any(isinstance(s, CinSequence) for s in kernel.stmt.cin.walk()):
            # TACO emits compound kernels (init + accumulate statements)
            # without a parallel outer loop.
            threads_eff = m.compound_threads
        work_s = work_cycles / (m.clock_hz * threads_eff)
        gather_s = stats.gather_elems * m.gather_seconds / threads_eff
        # Latency-bound irregular work does not scale across sockets.
        miss_s = miss_elems * m.cache_miss_seconds / m.irregular_threads
        merge_s = (merge_elems * m.cycles_per_merge_elem
                   / (m.clock_hz * m.irregular_threads))
        # Strided slice traffic (e.g. SDDMM's per-nonzero factor columns)
        # does not stream on the CPU: it is a random-access pattern.
        slice_bytes = stats.slice_read_bytes
        stream_bytes = stats.dram_total_bytes - slice_bytes
        bw_s = stream_bytes / (m.bandwidth_gb_s * 1e9) + slice_bytes / (
            m.bandwidth_gb_s * 1e9 * m.slice_bandwidth_fraction
        )
        return max(work_s + gather_s + miss_s + merge_s, bw_s) + m.launch_seconds
