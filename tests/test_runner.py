"""Unit tests for the host-side runner (symbol/DRAM binding, assembly)."""

import pytest

from repro.core import compile_stmt
from repro.core.runner import assemble_output, bind_dram, bind_symbols
from repro.spatial.interp import execute
from tests.conftest import assert_scannable
from tests.helpers_kernels import SMALL_DIMS, build_small_kernel_stmt


@pytest.fixture
def spmv():
    stmt, out, tensors = build_small_kernel_stmt("SpMV")
    kernel = compile_stmt(stmt, "spmv")
    return kernel, out, tensors


class TestBindSymbols:
    def test_dimensions(self, spmv):
        kernel, out, tensors = spmv
        syms = bind_symbols(kernel.program, kernel.tensors, "y")
        assert syms["A1_dim"] == 7
        assert syms["A2_dim"] == 9
        assert syms["x1_dim"] == 9
        assert syms["y1_dim"] == 7

    def test_nnz(self, spmv):
        kernel, out, tensors = spmv
        syms = bind_symbols(kernel.program, kernel.tensors, "y")
        assert syms["A2_nnz"] == tensors["A"].nnz

    def test_staging_capacity_bound(self, spmv):
        kernel, out, tensors = spmv
        syms = bind_symbols(kernel.program, kernel.tensors, "y")
        assert syms["nnz_accel_max"] > max(tensors["A"].nnz, 9)

    def test_scalar_inputs_bound(self):
        stmt, out, tensors = build_small_kernel_stmt("MatTransMul")
        kernel = compile_stmt(stmt, "mtm")
        syms = bind_symbols(kernel.program, kernel.tensors, "y")
        assert syms["alpha"] == 2.0
        assert syms["beta"] == 3.0

    def test_output_nnz_upper_bound(self):
        stmt, out, tensors = build_small_kernel_stmt("Plus3")
        kernel = compile_stmt(stmt, "plus3")
        syms = bind_symbols(kernel.program, kernel.tensors, "A")
        assert syms["A2_nnz"] >= 6 * 8  # dense upper bound


class TestBindDram:
    def test_input_arrays_present(self, spmv):
        kernel, out, tensors = spmv
        data = bind_dram(kernel.program, kernel.tensors)
        assert "A2_pos_dram" in data
        assert "A2_crd_dram" in data
        assert "A_vals_dram" in data
        assert "x_vals_dram" in data

    def test_output_arrays_not_bound(self, spmv):
        kernel, out, tensors = spmv
        data = bind_dram(kernel.program, kernel.tensors)
        assert "y_vals_dram" not in data

    def test_contents_match_storage(self, spmv):
        kernel, out, tensors = spmv
        data = bind_dram(kernel.program, kernel.tensors)
        st = tensors["A"].storage
        assert data["A2_crd_dram"].tolist() == st.levels[1].crd.tolist()
        assert data["A_vals_dram"].tolist() == st.vals.tolist()


class TestAssembleOutput:
    def test_dense_vector_round_trip(self, spmv):
        kernel, out, tensors = spmv
        syms = bind_symbols(kernel.program, kernel.tensors, "y")
        data = bind_dram(kernel.program, kernel.tensors)
        machine = execute(kernel.program, data, syms)
        storage = assemble_output(machine, kernel.program, out)
        assert storage.order == 1
        assert len(storage.vals) == 7

    def test_compressed_output_levels(self):
        stmt, out, tensors = build_small_kernel_stmt("Plus2")
        kernel = compile_stmt(stmt, "plus2")
        storage = kernel.run()
        # UCC output: dense level then two compressed levels.
        from repro.tensor.storage import CompressedLevel, DenseLevel

        assert isinstance(storage.levels[0], DenseLevel)
        assert isinstance(storage.levels[1], CompressedLevel)
        assert isinstance(storage.levels[2], CompressedLevel)
        # pos arrays chain: level-2 parent count = level-1 nnz.
        assert len(storage.levels[2].pos) == storage.levels[1].nnz + 1

    @pytest.mark.parametrize("density", [0.4, 0.0])
    @pytest.mark.parametrize("name", list(SMALL_DIMS))
    def test_outputs_satisfy_the_scan_invariant(self, name, density):
        """The interpreter's assembled output, compressed or not, empty
        or not, is storage a root-down level walk can read."""
        stmt, out, tensors = build_small_kernel_stmt(name, density=density)
        storage = compile_stmt(stmt, name, cache=False).run_engine("interp")
        assert storage.fmt == out.format
        assert_scannable(storage)

    def test_scalar_output(self):
        stmt, out, tensors = build_small_kernel_stmt("InnerProd")
        kernel = compile_stmt(stmt, "innerprod")
        storage = kernel.run()
        assert storage.order == 0
        assert len(storage.vals) == 1
