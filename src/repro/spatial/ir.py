"""The Spatial parallel-pattern IR targeted by Stardust.

Spatial (Koeplinger et al. 2018) is a hardware DSL with a map-reduce
abstraction, counter-indexed ``Foreach``/``Reduce`` patterns with explicit
parallelization factors, and a programmer-managed memory hierarchy (DRAM,
SRAM, FIFOs, registers). Capstan extends it with sparse iterator patterns —
bit-vector ``Scan`` counters for compressed and co-iterated levels
(Figure 9 of the paper).

This module defines the IR as plain dataclasses. Three consumers walk it:

* :mod:`repro.spatial.codegen` renders Figure-11-style Spatial source text,
* :mod:`repro.spatial.interp` executes it functionally, and
* :mod:`repro.capstan.simulator` evaluates its cost on the Capstan model.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator
from typing import Optional, Union


# ---------------------------------------------------------------------------
# Scalar expressions
# ---------------------------------------------------------------------------


class SExpr:
    """Base class of scalar Spatial expressions."""

    def walk(self) -> Iterator["SExpr"]:
        yield self
        for c in self.children():
            yield from c.walk()

    def children(self) -> tuple["SExpr", ...]:
        return ()


@dataclasses.dataclass(frozen=True)
class SLit(SExpr):
    """A numeric literal."""

    value: float | int


@dataclasses.dataclass(frozen=True)
class SVar(SExpr):
    """A named value: loop index, pattern index, symbol, or local `val`."""

    name: str


@dataclasses.dataclass(frozen=True)
class SBin(SExpr):
    """Binary arithmetic (`+ - * / min max`)."""

    op: str
    a: SExpr
    b: SExpr

    def children(self) -> tuple[SExpr, ...]:
        return (self.a, self.b)


@dataclasses.dataclass(frozen=True)
class SSelect(SExpr):
    """``mux(cond, a, b)`` — used for union co-iteration operand gating."""

    cond: SExpr
    a: SExpr
    b: SExpr

    def children(self) -> tuple[SExpr, ...]:
        return (self.cond, self.a, self.b)


@dataclasses.dataclass(frozen=True)
class SValid(SExpr):
    """Whether a scan pattern index is valid (operand present)."""

    var: SVar

    def children(self) -> tuple[SExpr, ...]:
        return (self.var,)


@dataclasses.dataclass(frozen=True)
class SRead(SExpr):
    """Random-access read ``mem(addr)`` from SRAM or sparse DRAM."""

    mem: str
    addr: SExpr

    def children(self) -> tuple[SExpr, ...]:
        return (self.addr,)


@dataclasses.dataclass(frozen=True)
class SDeq(SExpr):
    """FIFO dequeue ``fifo.deq`` (strictly in-order, use-once)."""

    fifo: str


@dataclasses.dataclass(frozen=True)
class SRegRead(SExpr):
    """Register read ``reg.value``."""

    reg: str


def _lit(e: SExpr) -> Optional[float]:
    return e.value if isinstance(e, SLit) else None


def sadd(a: SExpr, b: SExpr) -> SExpr:
    """Build ``a + b`` with constant folding (keeps generated code tidy)."""
    la, lb = _lit(a), _lit(b)
    if la is not None and lb is not None:
        return SLit(la + lb)
    if la == 0:
        return b
    if lb == 0:
        return a
    return SBin("+", a, b)


def smul(a: SExpr, b: SExpr) -> SExpr:
    """Build ``a * b`` with constant folding."""
    la, lb = _lit(a), _lit(b)
    if la is not None and lb is not None:
        return SLit(la * lb)
    if la == 0 or lb == 0:
        return SLit(0)
    if la == 1:
        return b
    if lb == 1:
        return a
    return SBin("*", a, b)


def ssub(a: SExpr, b: SExpr) -> SExpr:
    """Build ``a - b`` with constant folding."""
    la, lb = _lit(a), _lit(b)
    if la is not None and lb is not None:
        return SLit(la - lb)
    if lb == 0:
        return a
    return SBin("-", a, b)


# ---------------------------------------------------------------------------
# Counters (iteration domains of patterns)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DenseCounter:
    """``len by 1 par p``: an uncompressed (dense) counter over ``[0, len)``."""

    length: SExpr


@dataclasses.dataclass(frozen=True)
class ScanCounter:
    """``Scan(par=p, len=l, bv_a[, bv_b])``: sparse bit-vector scanner.

    Yields pattern indices per set bit of the (combined) bit vector: one or
    two operand positions, the output position, and the dense coordinate
    (Figure 7). ``op`` is ``and`` (intersection) or ``or`` (union); unused
    for single-vector scans.
    """

    bv_a: str
    bv_b: Optional[str] = None
    op: str = "and"
    length: Optional[SExpr] = None  # dense extent of the scanned space


@dataclasses.dataclass(frozen=True)
class SingletonCounter:
    """``Singleton(crd(parent))``: the singleton-level iterator.

    Yields exactly one iteration per launch, binding the level's single
    coordinate ``crd_mem[pos]`` (one stored coordinate per parent
    position — the COO column/tail levels of Chou et al.). The pattern
    index *is* the coordinate; the position is the parent's position.
    """

    crd_mem: str
    pos: SExpr


Counter = Union[DenseCounter, ScanCounter, SingletonCounter]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class SStmt:
    """Base class of Spatial statements."""

    def body_blocks(self) -> tuple[tuple["SStmt", ...], ...]:
        return ()

    def walk(self) -> Iterator["SStmt"]:
        yield self
        for block in self.body_blocks():
            for s in block:
                yield from s.walk()


@dataclasses.dataclass(frozen=True)
class DramDecl(SStmt):
    """Host-visible DRAM array: ``val X_dram = DRAM[T](size)``.

    ``role`` tags what the array stores (``pos``/``crd``/``vals``/``bv``)
    and ``tensor`` which tensor it belongs to — the interpreter and the
    simulator use these to bind actual data and to attribute traffic.
    """

    name: str
    size: SExpr
    tensor: str = ""
    role: str = "vals"
    sparse: bool = False  # SparseDRAM: random single-element access


@dataclasses.dataclass(frozen=True)
class SramDecl(SStmt):
    """On-chip scratchpad: ``val X = SRAM[T](size)``."""

    name: str
    size: SExpr
    sparse: bool = False  # sparse SRAM: random access + atomics


@dataclasses.dataclass(frozen=True)
class FifoDecl(SStmt):
    """Streaming buffer: ``val X = FIFO[T](depth)``."""

    name: str
    depth: int = 16


@dataclasses.dataclass(frozen=True)
class RegDecl(SStmt):
    """On-chip scalar: ``val X = Reg[T](init)``."""

    name: str
    init: float = 0.0


@dataclasses.dataclass(frozen=True)
class BitVectorDecl(SStmt):
    """A packed bit-vector stream over a dense space of ``length`` slots."""

    name: str
    length: SExpr


@dataclasses.dataclass(frozen=True)
class GenBitVector(SStmt):
    """``bv = genBitvector(crd segment)`` — Capstan's Gen BV block.

    Packs the coordinates in ``crd_mem[start:end)`` (an SRAM/FIFO holding a
    coordinate segment) into the declared bit vector.
    """

    dst: str
    crd_mem: str
    count: SExpr  # number of coordinates in the segment


@dataclasses.dataclass(frozen=True)
class BitVectorOp(SStmt):
    """``dst = a AND/OR b``: combine two bit vectors into a third.

    Used when a workspace's sparse structure is materialised on chip (the
    producer side of a ``where``): the combined vector is kept for the
    consumer's scan instead of being re-generated.
    """

    dst: str
    a: str
    b: str
    op: str  # "and" | "or"


@dataclasses.dataclass(frozen=True)
class LoadBulk(SStmt):
    """Bulk DRAM→on-chip transfer: ``dst load src(start::end par p)``."""

    dst: str
    src: str
    start: SExpr
    end: SExpr
    par: int = 1


@dataclasses.dataclass(frozen=True)
class StoreBulk(SStmt):
    """Bulk on-chip→DRAM transfer: ``dst(start::end par p) store src``."""

    dst: str
    src: str
    start: SExpr
    end: SExpr
    par: int = 1


@dataclasses.dataclass(frozen=True)
class StreamStore(SStmt):
    """``dram stream_store_vec(offset, fifo, len)`` (Figure 11, line 42)."""

    dram: str
    fifo: str
    offset: SExpr
    length: SExpr


@dataclasses.dataclass(frozen=True)
class Assign(SStmt):
    """Local immutable binding: ``val name = expr``."""

    name: str
    expr: SExpr


@dataclasses.dataclass(frozen=True)
class Enq(SStmt):
    """FIFO enqueue: ``fifo.enq(expr)``."""

    fifo: str
    expr: SExpr


@dataclasses.dataclass(frozen=True)
class RegWrite(SStmt):
    """Register update; ``accumulate`` adds instead of overwriting."""

    reg: str
    expr: SExpr
    accumulate: bool = False


@dataclasses.dataclass(frozen=True)
class SramWrite(SStmt):
    """SRAM store; ``atomic`` marks read-modify-write accumulation."""

    mem: str
    addr: SExpr
    expr: SExpr
    accumulate: bool = False
    atomic: bool = False


@dataclasses.dataclass(frozen=True)
class DramWrite(SStmt):
    """Single-element (sparse) DRAM store."""

    dram: str
    addr: SExpr
    expr: SExpr


@dataclasses.dataclass(frozen=True)
class Foreach(SStmt):
    """``Foreach(counter par p) { ivars => body }``.

    For a :class:`DenseCounter`, ``ivars`` is the single loop index.
    For a :class:`ScanCounter`, ``ivars`` binds the pattern indices
    ``(pos_a [, pos_b], pos_out, i_dense)`` in that order (Figure 9).
    """

    counter: Counter
    ivars: tuple[str, ...]
    body: tuple[SStmt, ...]
    par: int = 1

    def body_blocks(self) -> tuple[tuple[SStmt, ...], ...]:
        return (self.body,)


@dataclasses.dataclass(frozen=True)
class ReducePat(SStmt):
    """``Reduce(reg)(counter par p) { ivars => body; value } { _ + _ }``.

    The body statements compute auxiliary values; ``value`` is the lane
    contribution combined by ``combine`` into ``reg`` through Capstan's
    intra-PCU reduction tree.
    """

    reg: str
    counter: Counter
    ivars: tuple[str, ...]
    body: tuple[SStmt, ...]
    value: SExpr
    combine: str = "+"
    par: int = 1

    def body_blocks(self) -> tuple[tuple[SStmt, ...], ...]:
        return (self.body,)


# ---------------------------------------------------------------------------
# Program container
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TensorLayout:
    """How one tensor maps onto DRAM arrays of the program.

    ``arrays`` maps a role key — ``pos{L}``/``crd{L}`` for storage level L,
    or ``vals`` — to the DRAM array name.
    """

    tensor: str
    order: int
    arrays: dict[str, str]
    is_output: bool = False


@dataclasses.dataclass
class SpatialProgram:
    """A complete generated Spatial kernel.

    Attributes:
        name: kernel name.
        env: environment variables emitted at global scope (Table 2).
        symbols: symbolic dimension names the host binds before running
            (e.g. ``B1_dim``, ``nnz_B``); values come from the workload.
        dram: host DRAM array declarations.
        accel: statements inside the ``Accel { ... }`` block.
        layouts: tensor → DRAM array mapping for data binding.
        notes: free-form lowering notes (memory analysis report).
    """

    name: str
    env: dict[str, int]
    symbols: tuple[str, ...]
    dram: tuple[DramDecl, ...]
    accel: tuple[SStmt, ...]
    layouts: dict[str, TensorLayout]
    notes: tuple[str, ...] = ()

    def __getstate__(self) -> dict:
        """Fields only: the interpreter's cached translation (closures)
        is never pickled or copied."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    def all_statements(self) -> Iterator[SStmt]:
        for d in self.dram:
            yield from d.walk()
        for s in self.accel:
            yield from s.walk()

    def patterns(self) -> list[SStmt]:
        """All Foreach/Reduce patterns (outer to inner)."""
        return [s for s in self.all_statements()
                if isinstance(s, (Foreach, ReducePat))]

    def decls_of(self, cls) -> list[SStmt]:
        return [s for s in self.all_statements() if isinstance(s, cls)]
