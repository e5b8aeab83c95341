"""End-to-end correctness of the format-sweep kernels.

COO-SpMV (singleton column level), DCSR-SpMM (doubly compressed operand),
and BCSR-SpMV (static block tiles) compile through the full pipeline and
run on the Spatial interpreter against the dense reference semantics.
"""

import numpy as np
import pytest

from repro.core import compile_stmt
from repro.core.coiteration import LoweringError
from repro.kernels import FORMAT_KERNEL_ORDER, KERNELS
from repro.tensor import evaluate_dense, to_dense
from tests.helpers_kernels import build_small_kernel_stmt

FORMAT_KERNELS = list(FORMAT_KERNEL_ORDER)


def run_kernel(name: str, seed: int = 42, density: float = 0.4):
    stmt, out, tensors = build_small_kernel_stmt(name, seed, density)
    kernel = compile_stmt(stmt, name.lower(), cache=False)
    result = to_dense(kernel.run())
    reference = evaluate_dense(out.get_assignment())
    return kernel, result, reference


@pytest.mark.parametrize("name", FORMAT_KERNELS)
def test_kernel_matches_dense_reference(name):
    _, result, reference = run_kernel(name)
    assert np.allclose(result, reference), f"{name} mismatch"


@pytest.mark.parametrize("name", FORMAT_KERNELS)
@pytest.mark.parametrize("seed", [1, 7, 123])
def test_kernel_across_seeds(name, seed):
    _, result, reference = run_kernel(name, seed=seed)
    assert np.allclose(result, reference)


@pytest.mark.parametrize("name", FORMAT_KERNELS)
@pytest.mark.parametrize("density", [0.05, 0.9])
def test_kernel_across_densities(name, density):
    _, result, reference = run_kernel(name, density=density)
    assert np.allclose(result, reference)


@pytest.mark.parametrize("name", FORMAT_KERNELS)
def test_kernel_on_empty_operands(name):
    _, result, reference = run_kernel(name, density=0.0)
    assert np.allclose(result, reference)


@pytest.mark.parametrize("name", FORMAT_KERNELS)
def test_kernel_fully_dense_operands(name):
    _, result, reference = run_kernel(name, density=1.0)
    assert np.allclose(result, reference)


def test_kernels_registered_outside_paper_order():
    from repro.kernels import KERNEL_ORDER

    for name in FORMAT_KERNELS:
        assert name in KERNELS
        assert name not in KERNEL_ORDER  # paper tables stay untouched


class TestGeneratedCodeShape:
    def test_coo_spmv_uses_singleton_scanner(self):
        stmt, _, _ = build_small_kernel_stmt("COO-SpMV")
        src = compile_stmt(stmt, "coo-spmv", cache=False).source
        assert "Foreach(Singleton(A2_crd(" in src
        # Scatter accumulation into the whole dense output buffer.
        assert "y_vals(" in src and ".atomicAdd(" in src
        assert "store y_vals" in src

    def test_coo_spmv_stages_singleton_crd(self):
        stmt, _, _ = build_small_kernel_stmt("COO-SpMV")
        src = compile_stmt(stmt, "coo-spmv", cache=False).source
        assert "A2_crd load A2_crd_dram" in src

    def test_bcsr_spmv_has_static_tile_loops(self):
        stmt, _, _ = build_small_kernel_stmt("BCSR-SpMV")
        src = compile_stmt(stmt, "bcsr-spmv", cache=False).source
        # Block levels lower to literal trip counts, not host symbols.
        assert "Foreach(4 by 1" in src
        # Values of the blocked operand are staged whole and addressed
        # positionally (nnz * b * b words).
        assert "A_vals load A_vals_dram" in src

    def test_dcsr_spmm_streams_both_compressed_levels(self):
        stmt, _, _ = build_small_kernel_stmt("DCSR-SpMM")
        src = compile_stmt(stmt, "dcsr-spmm", cache=False).source
        assert "A1_pos load A1_pos_dram" in src
        assert "A2_pos load A2_pos_dram" in src
        assert "val C_row = SRAM" in src

    def test_strategy_traces_name_singleton_rule(self):
        stmt, _, _ = build_small_kernel_stmt("COO-SpMV")
        kernel = compile_stmt(stmt, "coo-spmv", cache=False)
        notes = "\n".join(kernel.notes)
        assert "lowerIter[S1" in notes


class TestSingletonRestrictions:
    def test_singleton_coiteration_rejected(self):
        """Adding two COO matrices would co-iterate singleton levels."""
        from repro.formats import COO, offChip
        from repro.ir import index_vars
        from repro.tensor import Tensor

        A = Tensor("A", (4, 4), COO(offChip))
        B = Tensor("B", (4, 4), COO(offChip))
        C = Tensor("C", (4, 4), COO(offChip))
        for t in (B, C):
            t.from_dense(np.eye(4))
        i, j = index_vars("i j")
        A[i, j] = B[i, j] + C[i, j]
        with pytest.raises(LoweringError):
            compile_stmt(A.get_index_stmt(), "coo_add", cache=False)

    def test_coo_output_rejected(self):
        from repro.formats import COO, CSR, offChip
        from repro.ir import index_vars
        from repro.tensor import Tensor

        A = Tensor("A", (4, 4), COO(offChip))
        B = Tensor("B", (4, 4), CSR(offChip))
        B.from_dense(np.eye(4))
        i, j = index_vars("i j")
        A[i, j] = B[i, j]
        with pytest.raises(LoweringError):
            compile_stmt(A.get_index_stmt(), "coo_out", cache=False)


class TestWorkloadStats:
    def test_coo_spmv_singleton_loop_iters(self):
        from repro.capstan.stats import compute_stats

        stmt, _, tensors = build_small_kernel_stmt("COO-SpMV")
        kernel = compile_stmt(stmt, "coo-spmv", cache=False)
        stats = compute_stats(kernel)
        loops = {l.ivar: l for l in stats.loops}
        nnz = tensors["A"].nnz
        assert loops["i"].kind == "compressed"
        assert loops["i"].iters == nnz
        assert loops["j"].kind == "singleton"
        assert loops["j"].iters == nnz  # one bind per parent position

    def test_bcsr_spmv_resources_estimate(self):
        from repro.capstan.resources import estimate_resources

        stmt, _, _ = build_small_kernel_stmt("BCSR-SpMV")
        kernel = compile_stmt(stmt, "bcsr-spmv", cache=False)
        est = estimate_resources(kernel)
        assert est.pcu > 0 and est.pmu > 0
