"""CPU baseline: TACO-style imperative lowering and a Xeon cost model.

The paper's CPU baseline is TACO-generated C++ (OpenMP, 128 threads on a
four-socket Xeon E7-8890 v3). This module provides both halves of that
baseline:

* :func:`lower_cpu` — an imperative code generator that lowers the same
  scheduled CIN to C-like nested loops (Figure 4a's programming model:
  for-loops from foralls, one element per access, computation in the
  innermost loop, temporally repeated accumulation). Co-iteration lowers
  to TACO's merge: one ``while`` loop per merge-lattice point, each case
  in it lowering the body without the operands absent at the coordinate,
  in contrast to Stardust's bit-vector scanners (Section 9 discusses
  exactly this difference). It refuses a tensor workspace (Plus3's ``T``),
  a split or fused loop, whose variable indexes no tensor mode, and an
  operand level with arrays read outside the loop that iterates it
  (``y(i) = s(i) + a(i)`` with ``s`` sparse and ``a`` dense), which TACO
  would merge against the dense universe.
* :class:`CpuBackend` — an analytic performance model over the same
  workload statistics the Capstan simulator consumes, calibrated to the
  Section 8.1 machine.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

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
        self.name = name.replace("-", "_")  # a C identifier
        self.analysis = analyze(stmt)
        self.lines: list[str] = []
        self.depth = 0
        self._pos: dict[tuple[int, int], str] = {}
        self._absent: frozenset[int] = frozenset()  # ids of dropped tensors

    def emit(self, *texts: str) -> None:
        self.lines += [f"{_INDENT * self.depth}{text}" for text in texts]

    def generate(self) -> str:
        out = self.analysis.output
        args = sorted({t.name for t in (out, *self.analysis.inputs)})
        self.emit(f"// TACO-style CPU kernel: {self.name}")
        self.emit(f"int compute_{self.name}({', '.join('taco_tensor_t *' + a for a in args)}) {{")
        self.depth += 1
        self.lower(self.stmt.cin)
        self.emit("return 0;")
        self.depth -= 1
        self.emit("}")
        return "\n".join(self.lines) + "\n"

    # -- statements -----------------------------------------------------------

    def lower(self, stmt: CinStmt) -> None:
        if isinstance(stmt, SuchThat):
            self.lower(stmt.body)
        elif isinstance(stmt, Forall):
            self.lower_forall(stmt)
        elif isinstance(stmt, Where):
            for asg in stmt.producer.assignments():
                t = asg.lhs.tensor
                if t.order:
                    raise LoweringError(
                        f"the C emitter declares only scalar workspaces: "
                        f"{t.name} has order {t.order}")
                if t.is_on_chip:
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
            self._block(f"for (int {v} = 0; {v} < {dim}; {v}++) {{{omp}", forall.body)
        elif strategy.kind == "singleton":  # the parent's position binds it
            it = strategy.driving[0]
            parent = self._position(it.access, it.level - 1)
            self.emit(f"int {v} = {it.tensor.name}{it.level + 1}_crd[{parent}];")
            self._pos[(id(it.tensor), it.level)] = parent
            self.lower(forall.body)
        else:
            self._lower_merge(forall, strategy)

    def _block(self, head: str, body: CinStmt, pre=(), post=(),
               drop=frozenset(), close: bool = True) -> None:
        """``head``; one level deeper the ``pre`` lines, ``body`` lowered
        without the tensors ``drop`` names, the ``post`` lines; then the
        closing brace, unless the next ``head`` opens with it."""
        saved, self._absent = self._absent, self._absent | drop
        self.emit(head)
        self.depth += 1
        self.emit(*pre)
        self.lower(body)
        self.emit(*post)
        self.depth -= 1
        if close:
            self.emit("}")
        self._absent = saved

    def _lower_merge(self, forall: Forall, strategy) -> None:
        """TACO's merge: one ``while`` loop per lattice point, top point
        first. A point's loop co-iterates only its operands, and each case
        in it lowers the body without the operands absent at the
        coordinate. With one operand live, the merge is a ``for`` loop."""
        v = forall.ivar.name
        live = [it for it in strategy.driving if id(it.tensor) not in self._absent]
        if len(live) < len(strategy.driving) and strategy.op != "or":
            return  # an absent operand leaves nothing to intersect
        arr = [f"{it.tensor.name}{it.level + 1}" for it in live]
        parents = [self._position(it.access, it.level - 1) for it in live]
        for it, a in zip(live, arr):
            self._pos[(id(it.tensor), it.level)] = f"p{a}"
        if len(live) == 1:
            (a,), (parent,) = arr, parents
            self._block(f"for (int p{a} = {a}_pos[{parent}]; p{a} < {a}_pos[{parent} + 1]; "
                        f"p{a}++) {{", forall.body, [f"int {v} = {a}_crd[p{a}];"])
            return
        for a, parent in zip(arr, parents):
            self.emit(f"int p{a} = {a}_pos[{parent}];", f"int p{a}_end = {a}_pos[{parent} + 1];")
        ids = [id(it.tensor) for it in live]
        sizes = range(len(live), 0, -1) if strategy.op == "or" else [len(live)]
        points = [c for n in sizes for c in itertools.combinations(range(len(live)), n)]
        crd = [f"{v}_{it.tensor.name}" for it in live]
        for point in points:
            head = f"while ({' && '.join(f'p{arr[k]} < p{arr[k]}_end' for k in point)}) {{"
            if len(point) == 1:
                a = arr[point[0]]
                self._block(head, forall.body, [f"int {v} = {a}_crd[p{a}];"], [f"p{a}++;"],
                            frozenset(ids).difference(ids[k] for k in point))
                continue
            self.emit(head)
            self.depth += 1
            self.emit(*(f"int {crd[k]} = {arr[k]}_crd[p{arr[k]}];" for k in point))
            low = functools.reduce(lambda m, c: f"({m} < {c} ? {m} : {c})",
                                   [crd[k] for k in point])
            self.emit(f"int {v} = {low};")
            cases = [c for c in points if set(c) <= set(point)]
            for n, case in enumerate(cases):
                last = n == len(cases) - 1
                cond = " && ".join(f"{crd[k]} == {v}" for k in case)
                head = "{" if n and last else f"if ({cond}) {{"  # the last case is what is left
                self._block(("} else " if n else "") + head, forall.body,
                            drop=frozenset(ids).difference(ids[k] for k in case), close=last)
            self.emit(*(f"p{arr[k]} += (int)({crd[k]} == {v});" for k in point))
            self.depth -= 1
            self.emit("}")

    def lower_assign(self, asg: CinAssign) -> None:
        rhs = self._expr(asg.rhs)
        if rhs is not None:
            op = "+=" if asg.accumulate else "="
            self.emit(f"{self._lhs_ref(asg.lhs)} {op} {rhs};")

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
        coord``). The result is written dense; an operand level that
        stores arrays is never located, since reading it outside its loop
        would need a merge against the universe."""
        tensor = access.tensor
        fmt = tensor.format
        expr = "0"
        for L in range(level + 1):
            p = self._pos.get((id(tensor), L))
            if p is not None:
                expr = p
                continue
            if fmt.level_format(L).arrays() and tensor is not self.analysis.output:
                raise LoweringError(
                    f"level {L} of {tensor.name} is read before the loop "
                    "that iterates it binds its position")
            var = access.indices[fmt.mode_of_level(L)].name
            dim = f"{tensor.name}{L + 1}_dim"
            expr = var if expr == "0" else f"({expr} * {dim} + {var})"
        return expr

    def _lhs_ref(self, access: Access) -> str:
        t = access.tensor
        if t.order == 0:
            return f"{t.name}_val" if not t.is_on_chip else t.name
        return f"{t.name}_vals[{self._position(access, t.order - 1)}]"

    def _expr(self, e: IndexExpr) -> str | None:
        """C for ``e``, or None where an absent operand makes it zero."""
        if isinstance(e, Literal):
            return repr(float(e.value))
        if isinstance(e, Access):
            t = e.tensor
            if id(t) in self._absent:
                return None
            if t.order == 0:
                return t.name if t.is_on_chip else f"{t.name}_val"
            return f"{t.name}_vals[{self._position(e, t.order - 1)}]"
        if isinstance(e, Neg):
            a = self._expr(e.a)
            return None if a is None else f"(-{a})"
        if not isinstance(e, (Add, Sub, Mul)):
            raise LoweringError(f"cannot lower expression {type(e).__name__}")
        a, b = self._expr(e.a), self._expr(e.b)
        if isinstance(e, Mul):
            return None if a is None or b is None else f"({a} * {b})"
        if b is None:
            return a
        if a is None:
            return b if isinstance(e, Add) else f"(-{b})"
        return f"({a} {'+' if isinstance(e, Add) else '-'} {b})"


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
