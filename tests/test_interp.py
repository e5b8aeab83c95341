"""Unit tests for the Spatial IR interpreter semantics."""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.kernels import KERNELS
from repro.pipeline.fusion import PIPELINES
from repro.spatial.interp import InterpError, execute
from repro.spatial.ir import (
    Assign,
    BitVectorDecl,
    BitVectorOp,
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
    SingletonCounter,
    SLit,
    SRead,
    SRegRead,
    SSelect,
    SValid,
    SVar,
    SpatialProgram,
    SramDecl,
    SramWrite,
    StoreBulk,
    StreamStore,
)
from tests.helpers_kernels import pipeline_checksum, run_dense_digest

EXECUTION_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "execution.json").read_text())


def make_program(accel, dram=(), symbols=(), env=None):
    return SpatialProgram(
        name="t", env=env or {}, symbols=tuple(symbols),
        dram=tuple(dram), accel=tuple(accel), layouts={},
    )


def run(accel, dram_decls=(), data=None, symbols=None):
    program = make_program(accel, dram_decls, symbols or {})
    return execute(program, data or {}, symbols or {})


class TestMemories:
    def test_dram_initialisation(self):
        d = DramDecl("x_dram", SLit(4))
        m = run([], [d], {"x_dram": np.array([1.0, 2.0])})
        assert m.dram["x_dram"].tolist() == [1.0, 2.0, 0.0, 0.0]

    def test_sram_load_and_read(self):
        accel = [
            SramDecl("s", SLit(4)),
            LoadBulk("s", "x_dram", SLit(1), SLit(3)),
            Assign("v", SRead("s", SLit(0))),
            RegDecl("r", 0.0),
            RegWrite("r", SVar("v")),
        ]
        m = run(accel, [DramDecl("x_dram", SLit(4))],
                {"x_dram": np.array([5.0, 6.0, 7.0, 8.0])})
        assert m.regs["r"] == 6.0

    def test_sram_overflow_rejected(self):
        accel = [
            SramDecl("s", SLit(2)),
            LoadBulk("s", "x_dram", SLit(0), SLit(4)),
        ]
        with pytest.raises(InterpError, match="overflows"):
            run(accel, [DramDecl("x_dram", SLit(4))])

    def test_out_of_bounds_read(self):
        accel = [SramDecl("s", SLit(2)), Assign("v", SRead("s", SLit(5)))]
        with pytest.raises(InterpError, match="out-of-bounds"):
            run(accel)

    def test_fifo_order_and_underflow(self):
        accel = [
            FifoDecl("f"),
            Enq("f", SLit(1.0)),
            Enq("f", SLit(2.0)),
            Assign("a", SDeq("f")),
            Assign("b", SDeq("f")),
            RegDecl("r", 0.0),
            RegWrite("r", ssub := SBin("-", SVar("a"), SVar("b"))),
            Assign("c", SDeq("f")),
        ]
        with pytest.raises(InterpError, match="underflow"):
            run(accel)

    def test_redeclaration_resets(self):
        accel = [
            Foreach(DenseCounter(SLit(3)), ("i",), (
                RegDecl("r", 0.0),
                RegWrite("r", SLit(1.0), accumulate=True),
            )),
        ]
        m = run(accel)
        assert m.regs["r"] == 1.0  # reset each iteration

    def test_sram_accumulate_write(self):
        accel = [
            SramDecl("s", SLit(2)),
            SramWrite("s", SLit(0), SLit(2.0)),
            SramWrite("s", SLit(0), SLit(3.0), accumulate=True),
        ]
        m = run(accel)
        assert m.sram["s"][0] == 5.0

    def test_store_bulk_and_dram_write(self):
        accel = [
            SramDecl("s", SLit(3)),
            SramWrite("s", SLit(0), SLit(1.0)),
            SramWrite("s", SLit(1), SLit(2.0)),
            StoreBulk("y_dram", "s", SLit(0), SLit(2)),
            DramWrite("y_dram", SLit(2), SLit(9.0)),
        ]
        m = run(accel, [DramDecl("y_dram", SLit(3))])
        assert m.dram["y_dram"].tolist() == [1.0, 2.0, 9.0]

    def test_stream_store_length_check(self):
        accel = [
            FifoDecl("f"),
            Enq("f", SLit(1.0)),
            StreamStore("y_dram", "f", SLit(0), SLit(2)),
        ]
        with pytest.raises(InterpError, match="stream store"):
            run(accel, [DramDecl("y_dram", SLit(4))])


class TestPatterns:
    def test_foreach_dense_counter(self):
        accel = [
            RegDecl("r", 0.0),
            Foreach(DenseCounter(SLit(5)), ("i",), (
                RegWrite("r", SVar("i"), accumulate=True),
            )),
        ]
        assert run(accel).regs["r"] == 10.0

    def test_reduce_folds_into_register(self):
        accel = [
            RegDecl("acc", 0.0),
            ReducePat("acc", DenseCounter(SLit(4)), ("i",), (),
                      SVar("i"), "+"),
        ]
        assert run(accel).regs["acc"] == 6.0

    def test_reduce_accumulates_across_invocations(self):
        body = ReducePat("acc", DenseCounter(SLit(2)), ("i",), (), SLit(1.0), "+")
        accel = [
            RegDecl("acc", 0.0),
            Foreach(DenseCounter(SLit(3)), ("o",), (body,)),
        ]
        assert run(accel).regs["acc"] == 6.0  # persists without redecl

    def test_symbolic_trip_count(self):
        accel = [
            RegDecl("r", 0.0),
            Foreach(DenseCounter(SVar("N")), ("i",), (
                RegWrite("r", SLit(1.0), accumulate=True),
            )),
        ]
        m = run(accel, symbols={"N": 7})
        assert m.regs["r"] == 7.0

    def test_unbound_symbol_rejected(self):
        accel = [Foreach(DenseCounter(SVar("N")), ("i",), ())]
        with pytest.raises(InterpError, match="unbound"):
            run(accel)


class TestScanPatterns:
    def _bv(self, name, coords, n=16):
        return [
            BitVectorDecl(name, SLit(n)),
            FifoDecl(name + "_src"),
            *[Enq(name + "_src", SLit(float(c))) for c in coords],
            GenBitVector(name, name + "_src", SLit(len(coords))),
        ]

    def test_two_vector_or_scan(self):
        accel = [
            *self._bv("a", [1, 2, 5]),
            *self._bv("b", [0, 2, 3]),
            FifoDecl("out"),
            Foreach(ScanCounter("a", "b", "or", SLit(16)),
                    ("pa", "pb", "po", "c"), (
                Enq("out", SVar("c")),
            )),
        ]
        m = run(accel)
        assert list(m.fifo["out"]) == [0, 1, 2, 3, 5]

    def test_and_scan_positions(self):
        accel = [
            *self._bv("a", [1, 2, 5]),
            *self._bv("b", [0, 2, 3]),
            RegDecl("r", 0.0),
            Foreach(ScanCounter("a", "b", "and", SLit(16)),
                    ("pa", "pb", "po", "c"), (
                RegWrite("r", SBin("+", SVar("pa"), SVar("pb")),
                         accumulate=True),
            )),
        ]
        # Only coord 2 matches: pa=1, pb=1.
        assert run(accel).regs["r"] == 2.0

    def test_select_gates_invalid_positions(self):
        accel = [
            *self._bv("a", [1]),
            *self._bv("b", [3]),
            SramDecl("va", SLit(4)),
            SramWrite("va", SLit(0), SLit(10.0)),
            RegDecl("r", 0.0),
            Foreach(ScanCounter("a", "b", "or", SLit(16)),
                    ("pa", "pb", "po", "c"), (
                RegWrite("r", SSelect(SValid(SVar("pa")),
                                      SRead("va", SVar("pa")), SLit(0.0)),
                         accumulate=True),
            )),
        ]
        # Only the coord-1 entry has a valid pa; the gated read avoids an
        # out-of-bounds access for coord 3.
        assert run(accel).regs["r"] == 10.0

    def test_single_vector_scan(self):
        accel = [
            *self._bv("a", [4, 9]),
            FifoDecl("out"),
            Foreach(ScanCounter("a", None, "and", SLit(16)),
                    ("pa", "po", "c"), (
                Enq("out", SVar("c")),
            )),
        ]
        assert list(run(accel).fifo["out"]) == [4, 9]

    def test_bitvector_op(self):
        accel = [
            *self._bv("a", [1, 2]),
            *self._bv("b", [2, 3]),
            BitVectorDecl("u", SLit(16)),
            BitVectorOp("u", "a", "b", "or"),
            BitVectorDecl("n", SLit(16)),
            BitVectorOp("n", "a", "b", "and"),
        ]
        m = run(accel)
        assert m.bitvec["u"].coordinates().tolist() == [1, 2, 3]
        assert m.bitvec["n"].coordinates().tolist() == [2]

    def test_genbitvector_from_sram(self):
        accel = [
            SramDecl("crd", SLit(4)),
            SramWrite("crd", SLit(0), SLit(2.0)),
            SramWrite("crd", SLit(1), SLit(7.0)),
            BitVectorDecl("a", SLit(16)),
            GenBitVector("a", "crd", SLit(2)),
        ]
        m = run(accel)
        assert m.bitvec["a"].coordinates().tolist() == [2, 7]

    def test_scan_binder_arity_checked(self):
        accel = [
            *self._bv("a", [1]),
            Foreach(ScanCounter("a", None, "and", SLit(16)), ("x",), ()),
        ]
        with pytest.raises(InterpError, match="bind"):
            run(accel)


_X = [DramDecl("x_dram", SLit(4))]


class TestPreconditions:
    """Every hardware precondition the interpreter enforces, one program
    each, with the message it raises."""

    @pytest.mark.parametrize("accel, dram, message", [
        ([Assign("v", SRead("nope", SLit(0)))], (),
         "read from undeclared memory 'nope'"),
        ([Assign("v", SDeq("nope"))], (),
         "dequeue from undeclared FIFO 'nope'"),
        ([Assign("v", SRegRead("nope"))], (),
         "read of undeclared register 'nope'"),
        ([SramDecl("s", SLit(2)), SramWrite("s", SLit(2), SLit(1.0))], (),
         r"out-of-bounds write s\(2\), size 2"),
        ([SramDecl("s", SLit(4)), LoadBulk("s", "x_dram", SLit(3), SLit(1))],
         _X, r"negative-length load s \[3:1\]"),
        ([LoadBulk("nope", "x_dram", SLit(0), SLit(2))], _X,
         "load into undeclared memory 'nope'"),
        ([BitVectorDecl("a", SLit(16)), FifoDecl("f"), Enq("f", SLit(1.0)),
          GenBitVector("a", "f", SLit(2))], (),
         "genBitvector drains 2 from 'f' holding 1"),
        ([BitVectorDecl("a", SLit(16)), GenBitVector("a", "nope", SLit(1))],
         (), "genBitvector from undeclared memory 'nope'"),
        ([SramDecl("crd", SLit(2)),
          Foreach(SingletonCounter("crd", SLit(5)), ("i",), ())], (),
         r"singleton position 5 out of bounds for 'crd' \(size 2\)"),
        ([Foreach(SingletonCounter("nope", SLit(0)), ("i",), ())], (),
         "singleton scan of undeclared memory 'nope'"),
        ([SramDecl("crd", SLit(2)),
          Foreach(SingletonCounter("crd", SLit(0)), ("i", "j"), ())], (),
         "singleton counters bind exactly one index"),
        ([Foreach(DenseCounter(SLit(2)), ("i", "j"), ())], (),
         "dense counters bind exactly one index"),
        ([BitVectorDecl("a", SLit(16)), BitVectorDecl("b", SLit(16)),
          Foreach(ScanCounter("a", "b", "and", SLit(16)), ("x",), ())], (),
         r"two-vector scans bind \(a, b, out, coord\)"),
    ])
    def test_violation_raises(self, accel, dram, message):
        with pytest.raises(InterpError, match=message):
            run(accel, dram)

    def test_singleton_counter_binds_stored_coordinate(self):
        accel = [
            SramDecl("crd", SLit(3)),
            SramWrite("crd", SLit(1), SLit(7.0)),
            RegDecl("r", 0.0),
            Foreach(SingletonCounter("crd", SLit(1)), ("i",), (
                RegWrite("r", SVar("i"), accumulate=True),
            )),
        ]
        assert run(accel).regs["r"] == 7.0

    def test_fifo_load_keeps_python_floats(self):
        accel = [FifoDecl("f"), LoadBulk("f", "x_dram", SLit(1), SLit(3))]
        m = run(accel, _X, {"x_dram": np.array([5.0, 6.0, 7.0, 8.0])})
        assert [type(v) for v in m.fifo["f"]] == [float, float]
        assert list(m.fifo["f"]) == [6.0, 7.0]


class TestTranslation:
    def test_program_translates_once_and_never_pickles_it(self):
        program = make_program([
            RegDecl("r", 0.0), RegWrite("r", SLit(2.0), accumulate=True)])
        execute(program, {}, {})
        code = program._interp_code
        assert execute(program, {}, {}).regs["r"] == 2.0  # state per run
        assert program._interp_code is code
        clone = pickle.loads(pickle.dumps(program))
        assert clone == program and "_interp_code" not in vars(clone)

    def test_replaced_block_is_translated_again(self):
        program = make_program([RegDecl("r", 1.0)])
        execute(program, {}, {})
        program.accel = (RegDecl("r", 5.0),)
        assert execute(program, {}, {}).regs["r"] == 5.0


class TestExecutionGolden:
    """Results are bit-identical to ``tests/golden/execution.json``
    (regenerate with ``python scripts/regen_golden.py`` only for an
    intentional change)."""

    def test_golden_covers_every_record(self):
        assert set(EXECUTION_GOLDEN["run_dense"]) == set(KERNELS)
        assert set(EXECUTION_GOLDEN["pipelines"]) == set(PIPELINES)

    @pytest.mark.parametrize("kernel", list(KERNELS))
    def test_run_dense_matches_golden(self, kernel):
        assert run_dense_digest(kernel) == EXECUTION_GOLDEN["run_dense"][kernel]

    @pytest.mark.parametrize("pipeline", list(PIPELINES))
    def test_pipeline_checksum_matches_golden(self, pipeline):
        assert (pipeline_checksum(pipeline)
                == EXECUTION_GOLDEN["pipelines"][pipeline])
