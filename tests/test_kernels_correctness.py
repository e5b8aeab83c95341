"""End-to-end correctness: every Table 3 kernel through the full compiler
pipeline (schedule → memory analysis → lowering → Spatial interpretation)
against the dense reference semantics."""

import numpy as np
import pytest

from repro.core import compile_stmt
from repro.kernels import FORMAT_KERNEL_ORDER, KERNEL_ORDER, KERNELS
from repro.tensor import evaluate_dense, to_dense
from tests.helpers_kernels import SMALL_DIMS, build_small_kernel_stmt

ALL_KERNELS = list(KERNEL_ORDER)


def run_kernel(name: str, seed: int = 42, density: float = 0.4):
    stmt, out, tensors = build_small_kernel_stmt(name, seed, density)
    kernel = compile_stmt(stmt, name.lower())
    result = to_dense(kernel.run())
    reference = evaluate_dense(out.get_assignment())
    return kernel, result, reference


@pytest.mark.parametrize("name", KERNEL_ORDER + FORMAT_KERNEL_ORDER)
def test_spec_modes_are_the_builders_accesses(name):
    """The record cannot drift from its builder, and ``shapes()`` derives
    the independent ``SMALL_DIMS`` fixture from the sparse operand alone."""
    spec = KERNELS[name]
    modes = {ts.name: ts.modes for ts in spec.tensor_specs}
    assignment = build_small_kernel_stmt(name)[1].get_assignment()
    accessed = {}
    for access in (assignment.lhs, *assignment.rhs.accesses()):
        accessed[access.tensor.name] = tuple(v.name for v in access.indices)
    assert accessed == modes
    extents = {}
    for operand, operand_modes in modes.items():
        for var, extent in zip(operand_modes, SMALL_DIMS[name][operand],
                               strict=True):
            assert extents.setdefault(var, extent) == extent, (operand, var)
    sparse = spec.of_role("sparse")[0]
    free = {n for var, n in extents.items() if var not in sparse.modes}
    assert len(free) <= 1
    assert spec.shapes(SMALL_DIMS[name][sparse.name],
                       free=next(iter(free), None)) == SMALL_DIMS[name]


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_kernel_matches_dense_reference(name):
    _, result, reference = run_kernel(name)
    assert np.allclose(result, reference), f"{name} mismatch"


@pytest.mark.parametrize("name", ALL_KERNELS)
@pytest.mark.parametrize("seed", [1, 7, 123])
def test_kernel_across_seeds(name, seed):
    _, result, reference = run_kernel(name, seed=seed)
    assert np.allclose(result, reference)


@pytest.mark.parametrize("name", ALL_KERNELS)
@pytest.mark.parametrize("density", [0.05, 0.9])
def test_kernel_across_densities(name, density):
    _, result, reference = run_kernel(name, density=density)
    assert np.allclose(result, reference)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_kernel_on_empty_operands(name):
    """All-zero sparse inputs produce the correct (mostly zero) result."""
    _, result, reference = run_kernel(name, density=0.0)
    assert np.allclose(result, reference)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_kernel_fully_dense_operands(name):
    _, result, reference = run_kernel(name, density=1.0)
    assert np.allclose(result, reference)


@pytest.mark.parametrize("name", ["SpMV", "SDDMM", "TTV", "Plus3", "Plus2"])
@pytest.mark.parametrize("outer_par", [1, 4])
def test_parallelization_does_not_change_results(name, outer_par):
    stmt, out, _ = build_small_kernel_stmt(name, outer_par=outer_par)
    kernel = compile_stmt(stmt, name.lower())
    result = to_dense(kernel.run())
    assert np.allclose(result, evaluate_dense(out.get_assignment()))


class TestGeneratedCodeShape:
    """Structural anchors tying generated code to Figure 11."""

    def test_sddmm_matches_figure11_shape(self):
        stmt, _, _ = build_small_kernel_stmt("SDDMM")
        src = compile_stmt(stmt, "sddmm").source
        assert "Accel {" in src
        assert "B2_pos load B2_pos_dram" in src
        assert "val j = B2_crd.deq" in src
        assert "val B_hoisted = B_vals.deq" in src
        assert "Reduce(ws_reg)" in src
        assert "A_vals_dram stream_store_vec" in src
        assert "C_vals load C_vals_dram" in src
        assert "D_vals load D_vals_dram" in src

    def test_spmv_uses_reduce_pattern(self):
        stmt, _, _ = build_small_kernel_stmt("SpMV")
        src = compile_stmt(stmt, "spmv").source
        assert "Reduce(" in src
        assert "x_vals = SparseSRAM" in src  # gathered through shuffle

    def test_plus3_uses_bitvector_scans(self):
        stmt, _, _ = build_small_kernel_stmt("Plus3")
        src = compile_stmt(stmt, "plus3").source
        assert "genBitvector" in src
        assert "Scan(" in src
        assert "op=or" in src

    def test_innerprod_uses_and_scan(self):
        stmt, _, _ = build_small_kernel_stmt("InnerProd")
        src = compile_stmt(stmt, "innerprod").source
        assert "op=and" in src

    def test_environment_emitted_globally(self):
        stmt, _, _ = build_small_kernel_stmt("SpMV")
        src = compile_stmt(stmt, "spmv").source
        head = src.split("Accel")[0]
        assert "val innerPar = 16" in head
        assert "val outerPar = 16" in head

    def test_loc_within_2x_of_paper(self):
        """Generated Spatial LoC lands in the same band as Table 3."""
        for name in ALL_KERNELS:
            stmt, _, _ = build_small_kernel_stmt(name)
            kernel = compile_stmt(stmt, name.lower())
            paper = KERNELS[name].paper_spatial_loc
            assert paper / 2 <= kernel.spatial_loc <= paper * 2, name


class TestOutputFormats:
    def test_sddmm_output_structure_mirrors_b(self):
        stmt, out, tensors = build_small_kernel_stmt("SDDMM")
        kernel = compile_stmt(stmt, "sddmm")
        storage = kernel.run()
        b_storage = tensors["B"].storage
        assert storage.levels[1].crd.tolist() == b_storage.levels[1].crd.tolist()
        assert storage.levels[1].pos.tolist() == b_storage.levels[1].pos.tolist()

    def test_plus3_output_structure_is_union(self):
        stmt, out, tensors = build_small_kernel_stmt("Plus3", density=0.3)
        kernel = compile_stmt(stmt, "plus3")
        storage = kernel.run()
        expected = (
            (tensors["B"].to_dense() != 0)
            | (tensors["C"].to_dense() != 0)
            | (tensors["D"].to_dense() != 0)
        )
        assert storage.levels[1].pos[-1] == expected.sum()

    def test_innerprod_scalar_result(self):
        stmt, out, tensors = build_small_kernel_stmt("InnerProd")
        kernel = compile_stmt(stmt, "innerprod")
        value = float(kernel.run().vals[0])
        expected = float(
            (tensors["B"].to_dense() * tensors["C"].to_dense()).sum()
        )
        assert np.isclose(value, expected)

    def test_run_with_override(self):
        stmt, out, tensors = build_small_kernel_stmt("SpMV")
        kernel = compile_stmt(stmt, "spmv")
        new_x = tensors["x"].copy_structure("x")
        new_x.from_dense(np.ones(tensors["x"].shape))
        result = to_dense(kernel.run(x=new_x))
        expected = tensors["A"].to_dense() @ np.ones(tensors["x"].shape)
        assert np.allclose(result, expected)

    def test_run_with_unknown_override_rejected(self):
        stmt, _, _ = build_small_kernel_stmt("SpMV")
        kernel = compile_stmt(stmt, "spmv")
        with pytest.raises(KeyError):
            kernel.run(nosuch=None)
