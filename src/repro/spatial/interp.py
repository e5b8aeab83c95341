"""Functional interpreter for the Spatial IR.

Executes a generated :class:`~repro.spatial.ir.SpatialProgram` element by
element against numpy-backed memories, faithfully modelling the semantics
the hardware provides: FIFOs are strictly in-order use-once queues,
bit-vector scanners yield Figure 7 pattern-index tuples, ``Reduce``
combines lane values through its operator, and re-executing a declaration
re-initialises the memory (which is how per-iteration workspaces reset).

A program is translated per machine, then executed. Translation writes the
source of one Python function, ``_program(m, E, K, data)``: ``m`` is the
run's :class:`Machine`, ``E`` its symbols and environment variables, ``K``
the literals that have no exact source text, ``data`` the host's DRAM
contents. Loop binders and ``Assign``ed values are locals the translator
numbers itself, so every variable read is resolved while the source is
written; a read that no binding reaches looks its name up in ``E`` and
raises ``unbound variable`` there. Memories, FIFOs, registers and bit
vectors live in the per-run :class:`Machine` dicts; the function keeps a
local alias of each SRAM, DRAM and FIFO, rebound wherever a declaration
rebinds the dict entry. A program-supplied name reaches the source only
as a ``repr()`` constant. Per-element work (reads, writes, FIFO traffic)
checks its hardware preconditions inline, and a failed check calls a
helper that raises :class:`InterpError`; segment-sized work (loads,
stores, stream stores, bit vectors, singleton scans) calls a helper that
checks and moves the data.
The compiled function is memoised on its source text, so a re-run or an
equal program lowered again pays only the writing. The text, not the
program value, is the key: ``SLit(1) == SLit(1.0)``, but the two write
an ``int`` and a ``float`` literal.

The interpreter is the correctness oracle for the compiler: every kernel's
generated code is run on small inputs and compared against the dense
reference semantics of :func:`repro.tensor.ops.evaluate_dense`.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import deque

import numpy as np

from repro.tensor.bitvector import (
    INVALID,
    BitVector,
    gen_bitvector,
    scan_columns,
)
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
    SBin,
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
)

_BINOPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": lambda a, b: a // b if isinstance(a, (int, float)) and float(a).is_integer() and float(b).is_integer() else a / b,
    "%": lambda a, b: a % b,
    "min": min,
    "max": max,
}

#: Operators written inline as Python infix operators.
_INFIX = ("+", "-", "*")


class InterpError(RuntimeError):
    """The program violated a hardware precondition (e.g. FIFO underflow)."""


class Machine:
    """Execution state: DRAMs, SRAMs, FIFOs, registers, bit vectors.

    The program is translated when the machine is built; :meth:`run`
    allocates the DRAMs from ``dram_data`` and runs the Accel block."""

    def __init__(
        self,
        program: SpatialProgram,
        dram_data: dict[str, np.ndarray],
        symbols: dict[str, int],
    ) -> None:
        self.program = program
        self.symbols = dict(symbols)
        self.dram: dict[str, np.ndarray] = {}
        self.sram: dict[str, np.ndarray] = {}
        self.fifo: dict[str, deque] = {}
        self.regs: dict[str, float] = {}
        self.bitvec: dict[str, BitVector] = {}
        self.bitvec_len: dict[str, int] = {}
        # Base environment: symbols and environment variables are in scope.
        self.env: dict[str, float] = {}
        self.env.update(symbols)
        self.env.update(program.env)
        source, self._consts = _Writer(program).write()
        self._function = _compiled(source)
        self._data = dram_data

    def run(self) -> None:
        self._function(self, self.env, self._consts, self._data)


def execute(
    program: SpatialProgram,
    dram_data: dict[str, np.ndarray],
    symbols: dict[str, int],
) -> Machine:
    """Run a program to completion and return the final machine state."""
    machine = Machine(program, dram_data, symbols)
    machine.run()
    return machine


# -- run-time support the generated function calls -----------------------------


class _Undeclared:
    """Stands for a memory or FIFO whose declaration has not run yet:
    empty, so every inline check fails into a fault helper, and an
    enqueue raises."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __len__(self) -> int:
        return 0

    def append(self, value) -> None:
        raise InterpError(f"enqueue to undeclared FIFO {self.name!r}")


def _unbound(name):
    raise InterpError(f"unbound variable {name!r}")


def _undeclared(kind, name):
    raise InterpError(f"read of undeclared {kind} {name!r}")


def _deq_fault(fifo, name):
    if isinstance(fifo, _Undeclared):
        raise InterpError(f"dequeue from undeclared FIFO {name!r}")
    raise InterpError(f"FIFO underflow on {name!r}")


def _read_fault(mem, name, addr):
    if isinstance(mem, _Undeclared):
        raise InterpError(f"read from undeclared memory {name!r}")
    raise InterpError(f"out-of-bounds read {name}({addr}), size {len(mem)}")


def _write_fault(mem, name, addr):
    if isinstance(mem, _Undeclared):
        raise InterpError(f"write to undeclared memory {name!r}")
    raise InterpError(f"out-of-bounds write {name}({addr}), size {len(mem)}")


def _dram_range(kind, m, name, start, end):
    """The DRAM ``name``, once ``0 <= start <= end <= size`` holds."""
    arr = m.dram.get(name)
    if arr is None:
        raise InterpError(f"{kind} of undeclared DRAM {name!r}")
    if not 0 <= start <= end <= len(arr):
        raise InterpError(f"out-of-bounds {kind} {name}[{start}:{end}], "
                          f"size {len(arr)}")
    return arr


def _alloc(data, name, size):
    host = data.get(name)
    if host is None:
        return np.zeros(size, dtype=np.float64)
    arr = np.zeros(max(size, len(host)), dtype=np.float64)
    arr[: len(host)] = host
    return arr


def _bitvector_decl(m, name, length):
    m.bitvec_len[name] = length
    m.bitvec[name] = gen_bitvector(np.zeros(0, dtype=np.int64),
                                   max(length, 1))


def _gen_bitvector(m, dst, crd, count):
    length = m.bitvec_len[dst]
    q = m.fifo.get(crd)
    if q is not None:
        if len(q) < count:
            raise InterpError(
                f"genBitvector drains {count} from {crd!r} holding {len(q)}")
        coords = np.array([q.popleft() for _ in range(count)], dtype=np.int64)
    elif crd in m.sram:
        coords = m.sram[crd][:count].astype(np.int64)
    else:
        raise InterpError(f"genBitvector from undeclared memory {crd!r}")
    m.bitvec[dst] = gen_bitvector(coords, max(length, 1))


def _load(m, dst, src, start, end):
    if end < start:
        raise InterpError(f"negative-length load {dst} [{start}:{end}]")
    data = _dram_range("load", m, src, start, end)[start:end]
    mem = m.sram.get(dst)
    if mem is not None:
        if len(data) > len(mem):
            raise InterpError(f"load of {len(data)} words overflows SRAM "
                              f"{dst!r} ({len(mem)} words)")
        mem[: len(data)] = data
    elif dst in m.fifo:
        m.fifo[dst].extend(data.tolist())
    else:
        raise InterpError(f"load into undeclared memory {dst!r}")


def _store(m, dst, src, start, end):
    arr = _dram_range("store", m, dst, start, end)
    mem = m.sram.get(src)
    if mem is None:
        raise InterpError(f"store from undeclared memory {src!r}")
    if end - start > len(mem):
        raise InterpError(f"store of {end - start} words overruns SRAM "
                          f"{src!r} ({len(mem)} words)")
    arr[start:end] = mem[: end - start]


def _stream_store(m, dram, fifo, offset, length):
    q = m.fifo.get(fifo)
    if q is None:
        raise InterpError(f"stream store from undeclared FIFO {fifo!r}")
    if len(q) < length:
        raise InterpError(
            f"stream store of {length} from {fifo!r} holding {len(q)}")
    arr = _dram_range("stream store", m, dram, offset, offset + length)
    arr[offset:offset + length] = [q.popleft() for _ in range(length)]


def _singleton(mem, name, pos):
    # Exactly one iteration: the coordinate stored at the parent's
    # position (COO-style singleton levels).
    if isinstance(mem, _Undeclared):
        raise InterpError(f"singleton scan of undeclared memory {name!r}")
    if not 0 <= pos < len(mem):
        raise InterpError(f"singleton position {pos} out of bounds for "
                          f"{name!r} (size {len(mem)})")
    return int(mem[pos])


def _scan(bv_a, bv_b=None, op="and"):
    """Pattern indices of a scan: ``(pos_a, pos_out, coord)`` per set bit
    of one vector, ``(pos_a, pos_b, pos_out, coord)`` of two."""
    pos_a, pos_b, pos_out, coord = scan_columns(bv_a, bv_b, op)
    if bv_b is None:
        return zip(pos_a, pos_out, coord)
    return zip(pos_a, pos_b, pos_out, coord)


# -- translation --------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _compiled(source: str):
    """The function a program's source defines, compiled once per text;
    its globals are this module's.

    It pays where a text is run again (a re-run, an equal program lowered
    again by an uncached compile or a pipeline stage per request); a
    program run once pays ``compile()`` on top of the writing. 256 texts
    hold the 150 distinct ones a whole test-suite run writes in its own
    process (870 writes)."""
    defined = {}
    exec(compile(source, "<spatial program>", "exec"), globals(), defined)
    return defined["_program"]


def _declared_srams(stmts) -> set[str]:
    """The SRAM names that ``stmts`` declare, at any depth."""
    srams, todo = set(), list(stmts)
    while todo:
        s = todo.pop()
        if type(s) is SramDecl:
            srams.add(s.name)
        elif type(s) in (Foreach, ReducePat):
            todo.extend(s.body)
    return srams


class _Writer:
    """Writes one program's function source.

    Locals are numbered by prefix: ``v`` a variable, ``t`` a temporary,
    ``s`` an SRAM, ``f`` a FIFO, ``d`` a DRAM, ``c`` a literal from
    ``K``. ``scope`` maps each program variable in scope to its local.
    """

    def __init__(self, program: SpatialProgram) -> None:
        self.program = program
        self.dram_names = {d.name for d in program.dram}
        self.srams = _declared_srams(program.accel)
        self.lines: list[str] = []
        self.consts: list = []
        self.aliases: dict[tuple[str, str], str] = {}
        self.count = 0

    def write(self) -> tuple[str, tuple]:
        for d in self.program.dram:
            size = self.int_of(d.size, {})
            self.emit(1, f"{self.alias('d', d.name)} = D[{d.name!r}] = "
                         f"_alloc(data, {d.name!r}, {size})")
        self.block(self.program.accel, {}, 1)
        head = ["def _program(m, E, K, data):",
                "    D, S, F, R, B = m.dram, m.sram, m.fifo, m.regs, m.bitvec"]
        if self.consts:
            head.append("    " + "".join(f"c{i}, " for i in
                                         range(len(self.consts))) + "= K")
        head += [f"    {local} = _Undeclared({name!r})"
                 for (_, name), local in self.aliases.items()]
        return "\n".join(head + self.lines) + "\n", tuple(self.consts)

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def new(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def alias(self, kind: str, name: str) -> str:
        """The local bound to memory ``name`` of kind ``s``, ``f`` or ``d``."""
        local = self.aliases.get((kind, name))
        if local is None:
            local = self.aliases[kind, name] = self.new(kind)
        return local

    def readable(self, name: str) -> str:
        """The local an ``SRead`` of ``name`` reads: the SRAM if one is
        declared under that name, else the DRAM."""
        dram = name in self.dram_names and name not in self.srams
        return self.alias("d" if dram else "s", name)

    def const(self, value) -> str:
        if type(value) in (int, float) and math.isfinite(value):
            return repr(value)
        self.consts.append(value)
        return f"c{len(self.consts) - 1}"

    def int_of(self, e: SExpr, scope: dict[str, str]) -> str:
        return f"int({self.expr(e, scope)})"

    def index(self, e: SExpr, scope: dict[str, str], depth: int) -> str:
        """A local holding ``int(e)``."""
        local = self.new("t")
        self.emit(depth, f"{local} = {self.int_of(e, scope)}")
        return local

    # -- expressions -----------------------------------------------------------

    def expr(self, e: SExpr, scope: dict[str, str]) -> str:
        write = self.EXPRS.get(type(e))
        if write is None:
            raise TypeError(f"cannot evaluate {type(e).__name__}")
        return write(self, e, scope)

    def _lit(self, e: SLit, scope) -> str:
        return self.const(e.value)

    def _var(self, e: SVar, scope) -> str:
        local = scope.get(e.name)
        if local is not None:
            return local
        name = repr(e.name)
        return f"(E[{name}] if {name} in E else _unbound({name}))"

    def _bin(self, e: SBin, scope) -> str:
        a, b = self.expr(e.a, scope), self.expr(e.b, scope)
        if e.op in _INFIX:
            return f"({a} {e.op} {b})"
        _BINOPS[e.op]  # an unknown operator fails translation
        return f"_BINOPS[{e.op!r}]({a}, {b})"

    def _select(self, e: SSelect, scope) -> str:
        # Lazy select: only the chosen branch is evaluated, so invalid
        # scan positions never reach a memory read.
        cond, a, b = (self.expr(x, scope) for x in (e.cond, e.a, e.b))
        return f"({a} if {cond} else {b})"

    def _valid(self, e: SValid, scope) -> str:
        return f"(1.0 if {self.expr(e.var, scope)} != {INVALID!r} else 0.0)"

    def _read(self, e: SRead, scope) -> str:
        addr, mem = self.int_of(e.addr, scope), self.readable(e.mem)
        t = self.new("t")
        return (f"({mem}.item({t}) if 0 <= ({t} := {addr}) < len({mem}) "
                f"else _read_fault({mem}, {e.mem!r}, {t}))")

    def _deq(self, e: SDeq, scope) -> str:
        f = self.alias("f", e.fifo)
        return f"({f}.popleft() if {f} else _deq_fault({f}, {e.fifo!r}))"

    def _reg_read(self, e: SRegRead, scope) -> str:
        return self.declared("R", "register", e.reg)

    @staticmethod
    def declared(table: str, kind: str, name: str) -> str:
        """An inline read of ``name`` from the register (``R``) or bit
        vector (``B``) table, raising when no declaration has run."""
        key = repr(name)
        return (f"({table}[{key}] if {key} in {table} "
                f"else _undeclared({kind!r}, {key}))")

    EXPRS = {SLit: _lit, SVar: _var, SBin: _bin, SSelect: _select,
             SValid: _valid, SRead: _read, SDeq: _deq, SRegRead: _reg_read}

    # -- statements ------------------------------------------------------------

    def block(self, stmts, scope: dict[str, str], depth: int) -> None:
        for s in stmts:
            write = self.STMTS.get(type(s))
            if write is None:
                raise TypeError(f"cannot execute {type(s).__name__}")
            write(self, s, scope, depth)

    def _sram_decl(self, s: SramDecl, scope, depth) -> None:
        self.emit(depth, f"{self.alias('s', s.name)} = S[{s.name!r}] = "
                         f"np.zeros({self.int_of(s.size, scope)}, "
                         f"dtype=np.float64)")

    def _fifo_decl(self, s: FifoDecl, scope, depth) -> None:
        self.emit(depth,
                  f"{self.alias('f', s.name)} = F[{s.name!r}] = deque()")

    def _reg_decl(self, s: RegDecl, scope, depth) -> None:
        self.emit(depth, f"R[{s.name!r}] = {self.const(float(s.init))}")

    def _bitvector_decl(self, s: BitVectorDecl, scope, depth) -> None:
        self.emit(depth, f"_bitvector_decl(m, {s.name!r}, "
                         f"{self.int_of(s.length, scope)})")

    def _gen_bitvector(self, s: GenBitVector, scope, depth) -> None:
        self.emit(depth, f"_gen_bitvector(m, {s.dst!r}, {s.crd_mem!r}, "
                         f"{self.int_of(s.count, scope)})")

    def _bitvector_op(self, s: BitVectorOp, scope, depth) -> None:
        op = "&" if s.op == "and" else "|"
        a = self.declared("B", "bit vector", s.a)
        b = self.declared("B", "bit vector", s.b)
        self.emit(depth, f"B[{s.dst!r}] = {a} {op} {b}")

    def _load(self, s: LoadBulk, scope, depth) -> None:
        self.emit(depth, f"_load(m, {s.dst!r}, {s.src!r}, "
                         f"{self.int_of(s.start, scope)}, "
                         f"{self.int_of(s.end, scope)})")

    def _store(self, s: StoreBulk, scope, depth) -> None:
        self.emit(depth, f"_store(m, {s.dst!r}, {s.src!r}, "
                         f"{self.int_of(s.start, scope)}, "
                         f"{self.int_of(s.end, scope)})")

    def _stream_store(self, s: StreamStore, scope, depth) -> None:
        self.emit(depth, f"_stream_store(m, {s.dram!r}, {s.fifo!r}, "
                         f"{self.int_of(s.offset, scope)}, "
                         f"{self.int_of(s.length, scope)})")

    def _assign(self, s: Assign, scope, depth) -> None:
        value, local = self.expr(s.expr, scope), self.new("v")
        self.emit(depth, f"{local} = {value}")
        scope[s.name] = local

    def _enq(self, s: Enq, scope, depth) -> None:
        self.emit(depth, f"{self.alias('f', s.fifo)}.append("
                         f"{self.expr(s.expr, scope)})")

    def _reg_write(self, s: RegWrite, scope, depth) -> None:
        # An accumulating write reads the register first, as a read does.
        old = (f"{self._reg_read(SRegRead(s.reg), scope)} + "
               if s.accumulate else "")
        self.emit(depth, f"R[{s.reg!r}] = {old}{self.expr(s.expr, scope)}")

    def _sram_write(self, s: SramWrite, scope, depth) -> None:
        mem, t = self.alias("s", s.mem), self.index(s.addr, scope, depth)
        self.emit(depth, f"if not 0 <= {t} < len({mem}): "
                         f"_write_fault({mem}, {s.mem!r}, {t})")
        old = f"{mem}.item({t}) + " if s.accumulate else ""
        self.emit(depth, f"{mem}[{t}] = {old}{self.expr(s.expr, scope)}")

    def _dram_write(self, s: DramWrite, scope, depth) -> None:
        mem, t = self.alias("d", s.dram), self.index(s.addr, scope, depth)
        self.emit(depth, f"if not 0 <= {t} < len({mem}): "
                         f"_dram_range('write', m, {s.dram!r}, {t}, {t} + 1)")
        self.emit(depth, f"{mem}[{t}] = {self.expr(s.expr, scope)}")

    def _foreach(self, s: Foreach, scope, depth) -> None:
        opened = self.loop(s.counter, s.ivars, scope, depth)
        if opened is not None:
            start = len(self.lines)
            self.block(s.body, *opened)
            if len(self.lines) == start:
                self.emit(opened[1], "pass")

    def _reduce(self, s: ReducePat, scope, depth) -> None:
        # Reduce folds lane values into the register's current value; the
        # canonical idiom declares the register (init 0) just before.
        _BINOPS[s.combine]  # an unknown operator fails translation
        total = self.new("t")
        self.emit(depth, f"{total} = R.get({s.reg!r}, 0.0)")
        opened = self.loop(s.counter, s.ivars, scope, depth)
        if opened is None:
            return
        inner, body = opened
        self.block(s.body, inner, body)
        value = self.expr(s.value, inner)
        if s.combine in _INFIX:
            self.emit(body, f"{total} = {total} {s.combine} {value}")
        else:
            self.emit(body, f"{total} = _BINOPS[{s.combine!r}]"
                            f"({total}, {value})")
        self.emit(depth, f"R[{s.reg!r}] = {total}")

    STMTS = {SramDecl: _sram_decl, FifoDecl: _fifo_decl, RegDecl: _reg_decl,
             BitVectorDecl: _bitvector_decl, GenBitVector: _gen_bitvector,
             BitVectorOp: _bitvector_op, LoadBulk: _load, StoreBulk: _store,
             StreamStore: _stream_store, Assign: _assign, Enq: _enq,
             RegWrite: _reg_write, SramWrite: _sram_write,
             DramWrite: _dram_write, Foreach: _foreach, ReducePat: _reduce}

    def loop(self, counter, ivars: tuple[str, ...], scope: dict[str, str],
             depth: int):
        """Open the iteration of ``counter``: ``(body scope, body depth)``,
        or ``None`` where a binder-count check fails as it runs."""
        if isinstance(counter, DenseCounter):
            arity, message = 1, "dense counters bind exactly one index"
        elif isinstance(counter, SingletonCounter):
            arity, message = 1, "singleton counters bind exactly one index"
        elif isinstance(counter, ScanCounter) and counter.bv_b is None:
            arity, message = 3, "single-vector scans bind (pos, out, coord)"
        elif isinstance(counter, ScanCounter):
            arity, message = 4, "two-vector scans bind (a, b, out, coord)"
        else:
            raise TypeError(f"cannot iterate {type(counter).__name__}")
        if len(ivars) != arity:
            self.emit(depth, f"raise InterpError({message!r})")
            return None
        binders = [self.new("v") for _ in ivars]
        inner = {**scope, **dict(zip(ivars, binders))}
        if isinstance(counter, SingletonCounter):
            pos = self.int_of(counter.pos, scope)
            self.emit(depth, f"{binders[0]} = _singleton("
                             f"{self.readable(counter.crd_mem)}, "
                             f"{counter.crd_mem!r}, {pos})")
            return inner, depth
        if isinstance(counter, DenseCounter):
            domain = f"range({self.int_of(counter.length, scope)})"
        elif counter.bv_b is None:
            domain = f"_scan(B[{counter.bv_a!r}])"
        else:
            domain = (f"_scan(B[{counter.bv_a!r}], B[{counter.bv_b!r}], "
                      f"{counter.op!r})")
        self.emit(depth, f"for {', '.join(binders)} in {domain}:")
        return inner, depth + 1
