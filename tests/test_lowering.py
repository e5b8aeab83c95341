"""Structural tests of the Spatial lowering (Section 7.2)."""

import pytest

from repro.core import compile_stmt
from repro.core.coiteration import LoweringError
from repro.formats import (
    CSR,
    DENSE_VECTOR,
    Format,
    bit_vector,
    dense,
    offChip,
)
from repro.ir import index_vars
from repro.spatial.ir import (
    BitVectorOp,
    FifoDecl,
    Foreach,
    GenBitVector,
    LoadBulk,
    ReducePat,
    ScanCounter,
    SramDecl,
    StreamStore,
)
from repro.tensor import Tensor
from tests.helpers_kernels import build_small_kernel_stmt


def compiled(name, **kw):
    stmt, _, _ = build_small_kernel_stmt(name, **kw)
    return compile_stmt(stmt, name.lower())


def nodes(kernel, cls):
    return [s for s in kernel.program.all_statements() if isinstance(s, cls)]


class TestProgramStructure:
    def test_dram_decls_cover_operands(self):
        k = compiled("SDDMM")
        names = {d.name for d in k.program.dram}
        assert {"A_vals_dram", "A2_pos_dram", "A2_crd_dram",
                "B_vals_dram", "B2_pos_dram", "B2_crd_dram",
                "C_vals_dram", "D_vals_dram"} <= names

    def test_layouts_distinguish_output(self):
        k = compiled("SDDMM")
        assert k.program.layouts["A"].is_output
        assert not k.program.layouts["B"].is_output

    def test_symbols_include_dims_and_nnz(self):
        k = compiled("SpMV")
        syms = set(k.program.symbols)
        assert {"A1_dim", "A2_nnz", "x1_dim", "y1_dim"} <= syms

    def test_scalar_inputs_become_symbols(self):
        k = compiled("MatTransMul")
        assert {"alpha", "beta"} <= set(k.program.symbols)

    def test_notes_carry_memory_report(self):
        k = compiled("SpMV")
        text = "\n".join(k.notes)
        assert "Memory analysis" in text
        assert "lowerIter" in text


class TestPatternShapes:
    def test_spmv_reduce_over_segment(self):
        k = compiled("SpMV")
        reduces = nodes(k, ReducePat)
        assert len(reduces) == 1
        assert reduces[0].par == 16  # innerPar through accelerate

    def test_outer_par_on_outermost_foreach(self):
        k = compiled("SDDMM")
        outer = [s for s in k.program.accel if isinstance(s, Foreach)][0]
        assert outer.par == 12

    def test_plus3_bitvector_pipeline(self):
        k = compiled("Plus3")
        assert len(nodes(k, GenBitVector)) == 3  # B, C, then D
        ops = nodes(k, BitVectorOp)
        assert len(ops) == 1 and ops[0].op == "or"  # T = B | C
        scans = [s for s in nodes(k, Foreach)
                 if isinstance(s.counter, ScanCounter)]
        assert len(scans) == 2  # producer scan + consumer value scan

    def test_plus3_count_then_value_scanners(self):
        """Section 7.2: one scanner counts positions, one computes values."""
        k = compiled("Plus3")
        count_reduces = [
            s for s in nodes(k, ReducePat) if isinstance(s.counter, ScanCounter)
        ]
        assert len(count_reduces) == 1

    def test_innerprod_scan_reduce(self):
        k = compiled("InnerProd")
        scan_reduces = [
            s for s in nodes(k, ReducePat) if isinstance(s.counter, ScanCounter)
        ]
        assert len(scan_reduces) == 1
        assert scan_reduces[0].counter.op == "and"

    def test_ttm_row_buffer(self):
        k = compiled("TTM")
        srams = {s.name for s in nodes(k, SramDecl)}
        assert "A_row" in srams

    def test_mttkrp_accumulates_into_row(self):
        from repro.spatial.ir import SramWrite

        k = compiled("MTTKRP")
        writes = [s for s in nodes(k, SramWrite) if s.mem == "A_row"]
        assert writes and all(w.accumulate for w in writes)

    def test_stream_stores_for_compressed_outputs(self):
        k = compiled("TTV")
        stores = nodes(k, StreamStore)
        targets = {s.dram for s in stores}
        assert "A_vals_dram" in targets
        assert "A2_crd_dram" in targets


class TestTransfers:
    def test_pos_arrays_loaded_once_at_top(self):
        k = compiled("SDDMM")
        top_loads = [s for s in k.program.accel if isinstance(s, LoadBulk)]
        assert any(l.dst == "B2_pos" for l in top_loads)

    def test_segment_fifos_inside_outer_loop(self):
        k = compiled("SpMV")
        outer = [s for s in k.program.accel if isinstance(s, Foreach)][0]
        inner_decls = {
            s.name for s in outer.walk() if isinstance(s, FifoDecl)
        }
        assert {"A2_crd", "A_vals"} <= inner_decls

    def test_gathered_vector_staged_at_top(self):
        k = compiled("SpMV")
        top = [s for s in k.program.accel if isinstance(s, SramDecl)]
        assert any(s.name == "x_vals" and s.sparse for s in top)


class TestScanPositions:
    def test_index_variable_named_like_a_scan_position_is_not_gated(self):
        """Only the scan opener's operand-position binders can be invalid;
        a plain counter whose name ends in ``_p`` is not one."""
        A = Tensor("A", (3, 4), CSR(offChip))
        x = Tensor("x", (4,), DENSE_VECTOR(offChip))
        y = Tensor("y", (3,), DENSE_VECTOR(offChip))
        r_p, j = index_vars("r_p j")
        y[r_p] = A[r_p, j] * x[j]
        source = compile_stmt(y.get_index_stmt()).source
        assert "A2_pos(r_p)" in source
        assert ".valid" not in source

    def test_union_scan_positions_still_gate_child_segments(self):
        source = compiled("Plus2").source
        assert "B3_pos(mux(ja_p.valid, (B2_start_0 + ja_p), 0))" in source


class TestErrors:
    def test_unsupported_map_function(self):
        A = Tensor("A", (3, 4), CSR(offChip))
        x = Tensor("x", (4,), DENSE_VECTOR(offChip))
        y = Tensor("y", (3,), DENSE_VECTOR(offChip))
        i, j = index_vars("i j")
        y[i] = A[i, j] * x[j]
        stmt = y.get_index_stmt().map(j, "Spatial", "FancyBlock")
        with pytest.raises(LoweringError, match="FancyBlock"):
            compile_stmt(stmt)

    def test_reduction_requires_accumulation(self):
        B = Tensor("B", (3, 4), CSR(offChip))
        A = Tensor("A", (3, 4), CSR(offChip))
        i, j = index_vars("i j")
        A[i, j] = B[i, j]
        stmt = A.get_index_stmt().map(j, "Spatial", "Reduction")
        with pytest.raises(LoweringError, match="accumulating"):
            compile_stmt(stmt)

    def test_reduction_requires_scalar_workspace(self):
        A = Tensor("A", (3, 4), CSR(offChip))
        x = Tensor("x", (4,), DENSE_VECTOR(offChip))
        y = Tensor("y", (3,), DENSE_VECTOR(offChip))
        i, j = index_vars("i j")
        y[i] = A[i, j] * x[j]
        # Mapping Reduce without the precompute: the target is off-chip y.
        stmt = y.get_index_stmt().map(j, "Spatial", "Reduction")
        with pytest.raises(LoweringError, match="on-chip scalar"):
            compile_stmt(stmt)

    def test_off_chip_bit_vector_level_is_refused(self):
        B = Tensor("B", (3, 4), Format([dense, bit_vector], [0, 1], offChip))
        x = Tensor("x", (4,), DENSE_VECTOR(offChip))
        y = Tensor("y", (3,), DENSE_VECTOR(offChip))
        i, j = index_vars("i j")
        y[i] = B[i, j] * x[j]
        with pytest.raises(LoweringError,
                           match="tensor B stores level 1 as a bit vector"):
            compile_stmt(y.get_index_stmt(), cache=False)


class TestDeterminism:
    def test_same_input_same_code(self):
        a = compiled("SDDMM").source
        b = compiled("SDDMM").source
        assert a == b

    def test_loc_property_consistent(self):
        k = compiled("SpMV")
        from repro.spatial.codegen import count_loc

        assert k.spatial_loc == count_loc(k.source)
