"""Spatial source-code generation (the Figure 11 output of Stardust).

Renders a :class:`~repro.spatial.ir.SpatialProgram` as Spatial (Scala DSL)
text. The emitted code is what Stardust hands to the Spatial/SARA compiler
chain; here it is also the artefact measured by the Table 3 lines-of-code
comparison, so the generator mirrors the paper's code shape: environment
vals first, DRAM declarations, then the ``Accel`` block with interleaved
memory allocations, bulk transfers, and parallel patterns.
"""

from __future__ import annotations

from repro.spatial.ir import (
    Assign,
    BitVectorDecl,
    BitVectorOp,
    DenseCounter,
    DramWrite,
    Enq,
    FifoDecl,
    Foreach,
    GenBitVector,
    LoadBulk,
    RegDecl,
    RegWrite,
    ReducePat,
    ScanCounter,
    SExpr,
    SBin,
    SDeq,
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
)

_INDENT = "  "


def format_expr(e: SExpr) -> str:
    """Render a scalar expression as Spatial source."""
    if isinstance(e, SLit):
        if isinstance(e.value, float) and not e.value.is_integer():
            return repr(e.value)
        return str(int(e.value))
    if isinstance(e, SVar):
        return e.name
    if isinstance(e, SBin):
        return f"({format_expr(e.a)} {e.op} {format_expr(e.b)})"
    if isinstance(e, SSelect):
        return (
            f"mux({format_expr(e.cond)}, {format_expr(e.a)}, {format_expr(e.b)})"
        )
    if isinstance(e, SValid):
        return f"{e.var.name}.valid"
    if isinstance(e, SRead):
        return f"{e.mem}({format_expr(e.addr)})"
    if isinstance(e, SDeq):
        return f"{e.fifo}.deq"
    if isinstance(e, SRegRead):
        return f"{e.reg}.value"
    raise TypeError(f"cannot format expression {type(e).__name__}")


def _counter_header(counter, par: int) -> str:
    if isinstance(counter, DenseCounter):
        parstr = f" par {par}" if par != 1 else ""
        return f"{format_expr(counter.length)} by 1{parstr}"
    if isinstance(counter, SingletonCounter):
        return f"Singleton({counter.crd_mem}({format_expr(counter.pos)}))"
    assert isinstance(counter, ScanCounter)
    args = [f"par={par}"]
    if counter.length is not None:
        args.append(f"len={format_expr(counter.length)}")
    args.append(f"{counter.bv_a}.deq")
    if counter.bv_b is not None:
        args.append(f"{counter.bv_b}.deq")
        args.append(f"op={counter.op}")
    return f"Scan({', '.join(args)})"


class SpatialCodegen:
    """Stateful line emitter for one program."""

    def __init__(self, program: SpatialProgram) -> None:
        self.program = program
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, text: str = "") -> None:
        self.lines.append(f"{_INDENT * self.depth}{text}" if text else "")

    def generate(self) -> str:
        p = self.program
        self.emit(f"// Spatial kernel generated by Stardust: {p.name}")
        self.emit("import spatial.dsl._")
        self.emit()
        if p.env:
            self.emit("// Environment (scheduling metadata, Table 2)")
            for k, v in p.env.items():
                self.emit(f"val {k} = {v}")
            self.emit()
        if p.symbols:
            self.emit("// Symbolic dimensions bound by the host")
            for s in p.symbols:
                self.emit(f"val {s} = args({s!r}).to[Int]")
            self.emit()
        self.emit("// DRAM arrays (host-initialised, Section 6.1)")
        for d in p.dram:
            kind = "SparseDRAM" if d.sparse else "DRAM"
            self.emit(f"val {d.name} = {kind}[T]({format_expr(d.size)})")
        self.emit()
        self.emit("Accel {")
        self.depth += 1
        for s in p.accel:
            self.stmt(s)
        self.depth -= 1
        self.emit("}")
        return "\n".join(self.lines) + "\n"

    # -- statements ----------------------------------------------------------

    def stmt(self, s: SStmt) -> None:
        if isinstance(s, SramDecl):
            kind = "SparseSRAM" if s.sparse else "SRAM"
            self.emit(f"val {s.name} = {kind}[T]({format_expr(s.size)})")
        elif isinstance(s, FifoDecl):
            self.emit(f"val {s.name} = FIFO[T]({s.depth})")
        elif isinstance(s, RegDecl):
            self.emit(f"val {s.name} = Reg[T]({s.init}.to[T])")
        elif isinstance(s, BitVectorDecl):
            self.emit(f"val {s.name} = BitVector({format_expr(s.length)})")
        elif isinstance(s, GenBitVector):
            self.emit(
                f"{s.dst} = genBitvector({s.crd_mem}, {format_expr(s.count)})"
            )
        elif isinstance(s, BitVectorOp):
            self.emit(f"{s.dst} = {s.a} {s.op} {s.b}")
        elif isinstance(s, LoadBulk):
            parstr = f" par {s.par}" if s.par != 1 else ""
            self.emit(
                f"{s.dst} load {s.src}({format_expr(s.start)}::"
                f"{format_expr(s.end)}{parstr})"
            )
        elif isinstance(s, StoreBulk):
            parstr = f" par {s.par}" if s.par != 1 else ""
            self.emit(
                f"{s.dst}({format_expr(s.start)}::{format_expr(s.end)}"
                f"{parstr}) store {s.src}"
            )
        elif isinstance(s, StreamStore):
            self.emit(
                f"{s.dram} stream_store_vec({format_expr(s.offset)}, "
                f"{s.fifo}, {format_expr(s.length)})"
            )
        elif isinstance(s, Assign):
            self.emit(f"val {s.name} = {format_expr(s.expr)}")
        elif isinstance(s, Enq):
            self.emit(f"{s.fifo}.enq({format_expr(s.expr)})")
        elif isinstance(s, RegWrite):
            op = ":+=" if s.accumulate else ":="
            self.emit(f"{s.reg} {op} {format_expr(s.expr)}")
        elif isinstance(s, SramWrite):
            target = f"{s.mem}({format_expr(s.addr)})"
            if s.atomic and s.accumulate:
                self.emit(f"{target}.atomicAdd({format_expr(s.expr)})")
            elif s.accumulate:
                self.emit(f"{target} += {format_expr(s.expr)}")
            else:
                self.emit(f"{target} = {format_expr(s.expr)}")
        elif isinstance(s, DramWrite):
            self.emit(f"{s.dram}({format_expr(s.addr)}) = {format_expr(s.expr)}")
        elif isinstance(s, Foreach):
            head = _counter_header(s.counter, s.par)
            binder = ", ".join(s.ivars)
            self.emit(f"Foreach({head}) {{ {binder} =>")
            self.depth += 1
            for b in s.body:
                self.stmt(b)
            self.depth -= 1
            self.emit("}")
        elif isinstance(s, ReducePat):
            head = _counter_header(s.counter, s.par)
            binder = ", ".join(s.ivars)
            self.emit(f"Reduce({s.reg})({head}) {{ {binder} =>")
            self.depth += 1
            for b in s.body:
                self.stmt(b)
            self.emit(format_expr(s.value))
            self.depth -= 1
            self.emit(f"}} {{ _ {s.combine} _ }}")
        else:
            raise TypeError(f"cannot generate code for {type(s).__name__}")


def generate(program: SpatialProgram) -> str:
    """Render a program as Spatial source text."""
    return SpatialCodegen(program).generate()


def count_loc(source: str) -> int:
    """Count non-blank, non-comment lines (the Table 3 LoC metric)."""
    count = 0
    for line in source.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            count += 1
    return count
