"""Functional interpreter for the Spatial IR.

Executes a generated :class:`~repro.spatial.ir.SpatialProgram` element by
element against numpy-backed memories, faithfully modelling the semantics
the hardware provides: FIFOs are strictly in-order use-once queues,
bit-vector scanners yield Figure 7 pattern-index tuples, ``Reduce``
combines lane values through its operator, and re-executing a declaration
re-initialises the memory (which is how per-iteration workspaces reset).

A program is translated once, then executed. Translation turns every
expression into a closure ``f(m, env) -> value`` and every statement into
a closure ``f(m, env)``, where ``m`` is the run's :class:`Machine` and
``env`` the scope; a block is a tuple of statement closures. The
translation is cached on the program, so a re-run pays none of it; all
run state (memories, FIFOs, registers, bit vectors) lives on the per-run
:class:`Machine`, and every hardware precondition is checked as the
closures run, raising :class:`InterpError`.

The interpreter is the correctness oracle for the compiler: every kernel's
generated code is run on small inputs and compared against the dense
reference semantics of :func:`repro.tensor.ops.evaluate_dense`.
"""

from __future__ import annotations

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

#: Operators translated to a closure that applies them inline.
_INLINE = {
    "+": lambda fa, fb: lambda m, env: fa(m, env) + fb(m, env),
    "-": lambda fa, fb: lambda m, env: fa(m, env) - fb(m, env),
    "*": lambda fa, fb: lambda m, env: fa(m, env) * fb(m, env),
}


class InterpError(RuntimeError):
    """The program violated a hardware precondition (e.g. FIFO underflow)."""


class Machine:
    """Execution state: DRAMs, SRAMs, FIFOs, registers, bit vectors."""

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
        dram, self._accel = _translate(program)
        for name, size in dram:
            size = int(size(self, self.env))
            data = dram_data.get(name)
            if data is not None:
                arr = np.zeros(max(size, len(data)), dtype=np.float64)
                arr[: len(data)] = data
            else:
                arr = np.zeros(size, dtype=np.float64)
            self.dram[name] = arr

    def run(self) -> None:
        env = dict(self.env)
        for s in self._accel:
            s(self, env)


def execute(
    program: SpatialProgram,
    dram_data: dict[str, np.ndarray],
    symbols: dict[str, int],
) -> Machine:
    """Run a program to completion and return the final machine state."""
    machine = Machine(program, dram_data, symbols)
    machine.run()
    return machine


# -- translation --------------------------------------------------------------


def _translate(program: SpatialProgram) -> tuple[tuple, tuple]:
    """``(dram, accel)`` closures of a program, translated on first use:
    ``(name, size)`` per DRAM declaration, and the Accel block."""
    cached = program.__dict__.get("_interp_code")
    if (cached is not None and cached[0] is program.dram
            and cached[1] is program.accel):
        return cached[2]
    code = (tuple((d.name, _expr(d.size)) for d in program.dram),
            _block(program.accel))
    # Built fully, then published by one attribute store: racing threads
    # each translate the whole program and the last one stays.
    program._interp_code = (program.dram, program.accel, code)
    return code


def _expr(e: SExpr):
    """Translate an expression into ``f(m, env) -> value``."""
    if isinstance(e, SLit):
        value = e.value
        return lambda m, env: value
    if isinstance(e, SVar):
        name = e.name

        def var(m, env):
            try:
                return env[name]
            except KeyError:
                raise InterpError(f"unbound variable {name!r}")
        return var
    if isinstance(e, SBin):
        fa, fb = _expr(e.a), _expr(e.b)
        if e.op in _INLINE:
            return _INLINE[e.op](fa, fb)
        op = _BINOPS[e.op]
        return lambda m, env: op(fa(m, env), fb(m, env))
    if isinstance(e, SSelect):
        # Lazy select: only the chosen branch is evaluated, so invalid
        # scan positions never reach a memory read.
        fc, fa, fb = _expr(e.cond), _expr(e.a), _expr(e.b)
        return lambda m, env: fa(m, env) if fc(m, env) else fb(m, env)
    if isinstance(e, SValid):
        name = e.var.name
        return lambda m, env: 1.0 if env[name] != INVALID else 0.0
    if isinstance(e, SRead):
        mem_name, fa = e.mem, _expr(e.addr)

        def read(m, env):
            addr = int(fa(m, env))
            mem = m.sram.get(mem_name)
            if mem is None:
                mem = m.dram.get(mem_name)
                if mem is None:
                    raise InterpError(
                        f"read from undeclared memory {mem_name!r}")
            if not 0 <= addr < len(mem):
                raise InterpError(
                    f"out-of-bounds read {mem_name}({addr}), size {len(mem)}"
                )
            return mem.item(addr)
        return read
    if isinstance(e, SDeq):
        name = e.fifo

        def deq(m, env):
            try:
                return m.fifo[name].popleft()
            except KeyError:
                raise InterpError(f"dequeue from undeclared FIFO {name!r}")
            except IndexError:
                raise InterpError(f"FIFO underflow on {name!r}")
        return deq
    if isinstance(e, SRegRead):
        name = e.reg

        def reg_read(m, env):
            try:
                return m.regs[name]
            except KeyError:
                raise InterpError(f"read of undeclared register {name!r}")
        return reg_read
    raise TypeError(f"cannot evaluate {type(e).__name__}")


def _block(stmts) -> tuple:
    return tuple(_stmt(s) for s in stmts)


def _stmt(s: SStmt):
    """Translate a statement into ``f(m, env)``."""
    if isinstance(s, SramDecl):
        name, size = s.name, _expr(s.size)

        def sram_decl(m, env):
            m.sram[name] = np.zeros(int(size(m, env)), dtype=np.float64)
        return sram_decl
    if isinstance(s, FifoDecl):
        name = s.name

        def fifo_decl(m, env):
            m.fifo[name] = deque()
        return fifo_decl
    if isinstance(s, RegDecl):
        name, init = s.name, float(s.init)

        def reg_decl(m, env):
            m.regs[name] = init
        return reg_decl
    if isinstance(s, BitVectorDecl):
        return _bitvector_decl(s)
    if isinstance(s, GenBitVector):
        return _gen_bitvector(s)
    if isinstance(s, BitVectorOp):
        dst, a, b, is_and = s.dst, s.a, s.b, s.op == "and"

        def bitvector_op(m, env):
            bv_a, bv_b = m.bitvec[a], m.bitvec[b]
            m.bitvec[dst] = (bv_a & bv_b) if is_and else (bv_a | bv_b)
        return bitvector_op
    if isinstance(s, LoadBulk):
        return _load(s)
    if isinstance(s, StoreBulk):
        dst, src, fstart, fend = s.dst, s.src, _expr(s.start), _expr(s.end)

        def store(m, env):
            start = int(fstart(m, env))
            end = int(fend(m, env))
            m.dram[dst][start:end] = m.sram[src][: end - start]
        return store
    if isinstance(s, StreamStore):
        return _stream_store(s)
    if isinstance(s, Assign):
        name, f = s.name, _expr(s.expr)

        def assign(m, env):
            env[name] = f(m, env)
        return assign
    if isinstance(s, Enq):
        name, f = s.fifo, _expr(s.expr)

        def enq(m, env):
            m.fifo[name].append(f(m, env))
        return enq
    if isinstance(s, RegWrite):
        reg, f, accumulate = s.reg, _expr(s.expr), s.accumulate

        def reg_write(m, env):
            value = f(m, env)
            if accumulate:
                m.regs[reg] += value
            else:
                m.regs[reg] = value
        return reg_write
    if isinstance(s, SramWrite):
        return _sram_write(s)
    if isinstance(s, DramWrite):
        name, faddr, f = s.dram, _expr(s.addr), _expr(s.expr)

        def dram_write(m, env):
            addr = int(faddr(m, env))
            m.dram[name][addr] = f(m, env)
        return dram_write
    if isinstance(s, Foreach):
        return _foreach(s.counter, s.ivars, _block(s.body))
    if isinstance(s, ReducePat):
        return _reduce(s)
    raise TypeError(f"cannot execute {type(s).__name__}")


# -- memory statements --------------------------------------------------------


def _bitvector_decl(s: BitVectorDecl):
    name, flength = s.name, _expr(s.length)

    def bitvector_decl(m, env):
        length = int(flength(m, env))
        m.bitvec_len[name] = length
        m.bitvec[name] = gen_bitvector(np.zeros(0, dtype=np.int64),
                                       max(length, 1))
    return bitvector_decl


def _gen_bitvector(s: GenBitVector):
    dst, crd, fcount = s.dst, s.crd_mem, _expr(s.count)

    def gen(m, env):
        count = int(fcount(m, env))
        length = m.bitvec_len[dst]
        q = m.fifo.get(crd)
        if q is not None:
            if len(q) < count:
                raise InterpError(
                    f"genBitvector drains {count} from {crd!r} holding {len(q)}"
                )
            coords = np.array([q.popleft() for _ in range(count)],
                              dtype=np.int64)
        elif crd in m.sram:
            coords = m.sram[crd][:count].astype(np.int64)
        else:
            raise InterpError(f"genBitvector from undeclared memory {crd!r}")
        m.bitvec[dst] = gen_bitvector(coords, max(length, 1))
    return gen


def _load(s: LoadBulk):
    dst, src, fstart, fend = s.dst, s.src, _expr(s.start), _expr(s.end)

    def load(m, env):
        start = int(fstart(m, env))
        end = int(fend(m, env))
        if end < start:
            raise InterpError(f"negative-length load {dst} [{start}:{end}]")
        if end > len(m.dram[src]):
            raise InterpError(f"out-of-bounds load {src}[{start}:{end}], "
                              f"size {len(m.dram[src])}")
        data = m.dram[src][start:end]
        mem = m.sram.get(dst)
        if mem is not None:
            if len(data) > len(mem):
                raise InterpError(
                    f"load of {len(data)} words overflows SRAM {dst!r} "
                    f"({len(mem)} words)"
                )
            mem[: len(data)] = data
        elif dst in m.fifo:
            m.fifo[dst].extend(data.tolist())
        else:
            raise InterpError(f"load into undeclared memory {dst!r}")
    return load


def _stream_store(s: StreamStore):
    dram, fifo, foffset, flength = (s.dram, s.fifo, _expr(s.offset),
                                    _expr(s.length))

    def stream_store(m, env):
        offset = int(foffset(m, env))
        length = int(flength(m, env))
        q = m.fifo[fifo]
        if len(q) < length:
            raise InterpError(
                f"stream store of {length} from {fifo!r} holding {len(q)}"
            )
        for k in range(length):
            m.dram[dram][offset + k] = q.popleft()
    return stream_store


def _sram_write(s: SramWrite):
    name, faddr, f = s.mem, _expr(s.addr), _expr(s.expr)
    accumulate = s.accumulate

    def sram_write(m, env):
        addr = int(faddr(m, env))
        mem = m.sram[name]
        if not 0 <= addr < len(mem):
            raise InterpError(
                f"out-of-bounds write {name}({addr}), size {len(mem)}"
            )
        value = f(m, env)
        mem[addr] = mem.item(addr) + value if accumulate else value
    return sram_write


# -- patterns -----------------------------------------------------------------


def _domain(counter, ivars: tuple[str, ...]):
    """Translate a counter into ``domain(m, env)``: the values its binders
    take, one int per iteration for a one-index counter, else a tuple."""
    if isinstance(counter, DenseCounter):
        flength = _expr(counter.length)

        def dense(m, env):
            if len(ivars) != 1:
                raise InterpError("dense counters bind exactly one index")
            return range(int(flength(m, env)))
        return dense
    if isinstance(counter, SingletonCounter):
        crd, fpos = counter.crd_mem, _expr(counter.pos)

        def singleton(m, env):
            # Exactly one iteration: the coordinate stored at the parent's
            # position (COO-style singleton levels).
            if len(ivars) != 1:
                raise InterpError("singleton counters bind exactly one index")
            pos = int(fpos(m, env))
            mem = m.sram.get(crd)
            if mem is None:
                mem = m.dram.get(crd)
                if mem is None:
                    raise InterpError(
                        f"singleton scan of undeclared memory {crd!r}")
            if not 0 <= pos < len(mem):
                raise InterpError(
                    f"singleton position {pos} out of bounds for "
                    f"{crd!r} (size {len(mem)})"
                )
            return (int(mem[pos]),)
        return singleton
    if not isinstance(counter, ScanCounter):
        raise TypeError(f"cannot iterate {type(counter).__name__}")
    a, b, op = counter.bv_a, counter.bv_b, counter.op
    if b is None:
        def scan_one(m, env):
            # Single-vector scan binds (pos_a, pos_out, coord).
            bv_a = m.bitvec[a]
            if len(ivars) != 3:
                raise InterpError("single-vector scans bind (pos, out, coord)")
            pos_a, _, pos_out, coord = scan_columns(bv_a)
            return zip(pos_a, pos_out, coord)
        return scan_one

    def scan_two(m, env):
        bv_a, bv_b = m.bitvec[a], m.bitvec[b]
        if len(ivars) != 4:
            raise InterpError("two-vector scans bind (a, b, out, coord)")
        return zip(*scan_columns(bv_a, bv_b, op))
    return scan_two


def _foreach(counter, ivars: tuple[str, ...], body: tuple):
    """A loop running ``body`` in a fresh copy of the scope per iteration."""
    domain = _domain(counter, ivars)
    one = ivars[0] if len(ivars) == 1 else None

    def foreach(m, env):
        for x in domain(m, env):
            inner = env.copy()
            if one is None:
                inner.update(zip(ivars, x))
            else:
                inner[one] = x
            for b in body:
                b(m, inner)
    return foreach


def _reduce(s: ReducePat):
    # Reduce folds lane values into the register's current value; the
    # canonical idiom declares the register (init 0) just before.
    domain = _domain(s.counter, s.ivars)
    body, value = _block(s.body), _expr(s.value)
    reg, ivars, combine = s.reg, s.ivars, _BINOPS[s.combine]
    one = ivars[0] if len(ivars) == 1 else None

    def reduce(m, env):
        total = m.regs.get(reg, 0.0)
        for x in domain(m, env):
            inner = env.copy()
            if one is None:
                inner.update(zip(ivars, x))
            else:
                inner[one] = x
            for b in body:
                b(m, inner)
            total = combine(total, value(m, inner))
        m.regs[reg] = total
    return reduce
