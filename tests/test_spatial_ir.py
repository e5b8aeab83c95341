"""Unit tests for the Spatial IR and its code generator."""

import pytest

from repro.spatial.codegen import count_loc, format_expr, generate
from repro.spatial.ir import (
    Assign,
    BitVectorDecl,
    BitVectorOp,
    Comment,
    DenseCounter,
    DramDecl,
    Enq,
    FifoDecl,
    Foreach,
    LoadBulk,
    MemReduce,
    RegDecl,
    ReducePat,
    SBin,
    ScanCounter,
    SDeq,
    SLit,
    SRead,
    SRegRead,
    SSelect,
    SValid,
    SVar,
    SpatialProgram,
    SramDecl,
    SramWrite,
    StreamStore,
    sadd,
    smul,
    ssub,
)


class TestExpressionFolding:
    def test_add_zero_dropped(self):
        assert sadd(SLit(0), SVar("x")) == SVar("x")
        assert sadd(SVar("x"), SLit(0)) == SVar("x")

    def test_mul_identity_and_zero(self):
        assert smul(SLit(1), SVar("x")) == SVar("x")
        assert smul(SVar("x"), SLit(0)) == SLit(0)

    def test_constant_folding(self):
        assert sadd(SLit(2), SLit(3)) == SLit(5)
        assert smul(SLit(4), SLit(3)) == SLit(12)
        assert ssub(SLit(4), SLit(3)) == SLit(1)

    def test_sub_zero(self):
        assert ssub(SVar("x"), SLit(0)) == SVar("x")

    def test_no_fold_on_vars(self):
        e = sadd(SVar("a"), SVar("b"))
        assert isinstance(e, SBin) and e.op == "+"

    def test_walk(self):
        e = sadd(smul(SVar("a"), SVar("b")), SLit(1))
        names = [n.name for n in e.walk() if isinstance(n, SVar)]
        assert names == ["a", "b"]


class TestFormatExpr:
    def test_literals(self):
        assert format_expr(SLit(3)) == "3"
        assert format_expr(SLit(2.5)) == "2.5"

    def test_binary(self):
        assert format_expr(SBin("+", SVar("a"), SLit(1))) == "(a + 1)"

    def test_reads(self):
        assert format_expr(SRead("mem", SVar("i"))) == "mem(i)"
        assert format_expr(SDeq("f")) == "f.deq"
        assert format_expr(SRegRead("r")) == "r.value"

    def test_select_and_valid(self):
        e = SSelect(SValid(SVar("p")), SRead("v", SVar("p")), SLit(0))
        assert format_expr(e) == "mux(p.valid, v(p), 0)"

    def test_unknown_rejected(self):
        with pytest.raises(TypeError):
            format_expr(object())


def _program(accel, env=None, dram=()):
    return SpatialProgram("k", env or {}, (), tuple(dram), tuple(accel), {})


class TestCodegen:
    def test_foreach_header(self):
        p = _program([Foreach(DenseCounter(SVar("N")), ("i",), (), par=4)])
        src = generate(p)
        assert "Foreach(N by 1 par 4) { i =>" in src

    def test_foreach_par1_omits_par(self):
        p = _program([Foreach(DenseCounter(SVar("N")), ("i",), ())])
        assert "par" not in generate(p).split("Accel")[1].split("{ i")[0]

    def test_scan_counter_header(self):
        c = ScanCounter("bva", "bvb", "or", SVar("N"))
        p = _program([Foreach(c, ("pa", "pb", "po", "i"), (), par=8)])
        src = generate(p)
        assert "Scan(par=8, len=N, bva.deq, bvb.deq, op=or)" in src

    def test_reduce_block(self):
        r = ReducePat("acc", DenseCounter(SLit(4)), ("i",),
                      (Assign("v", SVar("i")),), SVar("v"), "+", par=2)
        src = generate(_program([RegDecl("acc", 0.0), r]))
        assert "Reduce(acc)(4 by 1 par 2) { i =>" in src
        assert "} { _ + _ }" in src

    def test_memreduce_block(self):
        m = MemReduce("out", DenseCounter(SLit(2)), ("i",), (),
                      "tile", "+", par=1, mem_par=2)
        src = generate(_program([m]))
        assert "MemReduce(out par 2)(2 by 1) { i =>" in src

    def test_memories(self):
        src = generate(_program([
            SramDecl("s", SLit(8)),
            SramDecl("sp", SLit(8), sparse=True),
            FifoDecl("f", 16),
            RegDecl("r", 0.0),
            BitVectorDecl("bv", SLit(64)),
        ]))
        assert "val s = SRAM[T](8)" in src
        assert "val sp = SparseSRAM[T](8)" in src
        assert "val f = FIFO[T](16)" in src
        assert "val r = Reg[T](0.0.to[T])" in src
        assert "val bv = BitVector(64)" in src

    def test_transfers(self):
        src = generate(_program(
            [
                SramDecl("s", SLit(8)),
                LoadBulk("s", "d", SLit(0), SLit(8), par=4),
                StreamStore("d", "f", SVar("off"), SVar("len")),
            ],
            dram=[DramDecl("d", SLit(8))],
        ))
        assert "s load d(0::8 par 4)" in src
        assert "d stream_store_vec(off, f, len)" in src

    def test_atomic_write(self):
        src = generate(_program([
            SramDecl("s", SLit(4)),
            SramWrite("s", SLit(0), SLit(1.0), accumulate=True, atomic=True),
        ]))
        assert "s(0).atomicAdd(1)" in src

    def test_bitvector_op(self):
        src = generate(_program([BitVectorOp("u", "a", "b", "or")]))
        assert "u = a or b" in src

    def test_env_and_sparse_dram(self):
        p = _program([], env={"innerPar": 16},
                     dram=[DramDecl("x", SLit(4), sparse=True)])
        src = generate(p)
        assert "val innerPar = 16" in src
        assert "SparseDRAM[T](4)" in src

    def test_comments_excluded_from_loc(self):
        src = generate(_program([Comment("hello"), Enq("f", SLit(1))]))
        with_comment = src
        assert count_loc(with_comment) == count_loc(
            src.replace("// hello\n", "")
        )


class TestProgramHelpers:
    def test_patterns_enumeration(self):
        inner = Foreach(DenseCounter(SLit(2)), ("j",), ())
        outer = Foreach(DenseCounter(SLit(3)), ("i",), (inner,))
        p = _program([outer])
        pats = p.patterns()
        assert len(pats) == 2
        assert pats[0] is outer

    def test_decls_of(self):
        p = _program([SramDecl("a", SLit(1)), FifoDecl("b")])
        assert len(p.decls_of(SramDecl)) == 1
        assert len(p.decls_of(FifoDecl)) == 1
