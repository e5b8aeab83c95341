"""Tests for the executable CPU backend (CIN interpreter over storage).

Three-way differential testing: the CPU executor, the Spatial interpreter,
and the dense reference must agree on every kernel; the executor's
per-loop visit counts must equal the workload statistics that drive the
Capstan simulator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.cpu_exec import CpuExecutor, execute_cpu
from repro.capstan import compute_stats
from repro.core import compile_stmt
from repro.formats import CSR, offChip
from repro.ir import index_vars
from repro.kernels import KERNEL_ORDER
from repro.tensor import Tensor, evaluate_dense, to_dense
from tests.helpers_kernels import build_small_kernel_stmt


@pytest.mark.parametrize("name", KERNEL_ORDER)
def test_matches_dense_reference(name):
    stmt, out, _ = build_small_kernel_stmt(name)
    result = execute_cpu(stmt)
    assert result.fmt == out.format
    reference = np.atleast_1d(evaluate_dense(out.get_assignment()))
    assert np.allclose(to_dense(result).reshape(reference.shape), reference)


@pytest.mark.parametrize("name", KERNEL_ORDER)
def test_matches_spatial_interpreter(name):
    """Differential: CPU executor vs Spatial interpreter, same statement."""
    stmt, out, _ = build_small_kernel_stmt(name, seed=9, density=0.35)
    cpu = to_dense(execute_cpu(stmt))
    spatial = to_dense(compile_stmt(stmt, name.lower()).run())
    assert np.allclose(cpu.reshape(np.atleast_1d(spatial).shape),
                       np.atleast_1d(spatial))


@pytest.mark.parametrize("name", ["SpMV", "InnerProd", "Plus2", "Plus3", "TTV"])
def test_visit_counts_match_stats(name):
    """The executor's loop visits equal the simulator's workload stats —
    two fully independent derivations of the same iteration spaces."""
    stmt, _, _ = build_small_kernel_stmt(name)
    ex = CpuExecutor(stmt)
    ex.run()
    stats = compute_stats(compile_stmt(stmt, name.lower()))
    for loop in stats.loops:
        assert ex.visits[loop.ivar] == loop.iters, loop.ivar


class TestNaryUnion:
    """TACO's multi-way merge path: no two-operand scanner restriction."""

    def _three(self, rng, density=0.3):
        def sp(name):
            m = (rng.random((6, 8)) < density) * rng.random((6, 8))
            return Tensor(name, (6, 8), CSR(offChip)).from_dense(m)

        return sp("B"), sp("C"), sp("D")

    def test_unscheduled_plus3(self, rng):
        B, C, D = self._three(rng)
        A = Tensor("A", (6, 8), CSR(offChip))
        i, j = index_vars("i j")
        A[i, j] = B[i, j] + C[i, j] + D[i, j]
        result = execute_cpu(A.get_index_stmt())
        assert np.allclose(result, B.to_dense() + C.to_dense() + D.to_dense())

    def test_unscheduled_plus3_rejected_by_capstan(self, rng):
        """The same statement cannot lower to Capstan (two-input scanners),
        which is exactly why the paper schedules Plus3 as iterated
        two-input additions."""
        from repro.core.coiteration import LoweringError

        B, C, D = self._three(rng)
        A = Tensor("A", (6, 8), CSR(offChip))
        i, j = index_vars("i j")
        A[i, j] = B[i, j] + C[i, j] + D[i, j]
        with pytest.raises(LoweringError, match="two-input"):
            compile_stmt(A.get_index_stmt())

    def test_mixed_product_union(self, rng):
        B, C, D = self._three(rng)
        A = Tensor("A", (6, 8), CSR(offChip))
        i, j = index_vars("i j")
        A[i, j] = B[i, j] * C[i, j] + D[i, j]
        result = execute_cpu(A.get_index_stmt())
        expected = B.to_dense() * C.to_dense() + D.to_dense()
        assert np.allclose(result, expected)

    def test_visit_count_is_merge_union(self, rng):
        B, C, D = self._three(rng)
        A = Tensor("A", (6, 8), CSR(offChip))
        i, j = index_vars("i j")
        A[i, j] = B[i, j] + C[i, j] + D[i, j]
        ex = CpuExecutor(A.get_index_stmt())
        ex.run()
        either = (B.to_dense() != 0) | (C.to_dense() != 0) | (D.to_dense() != 0)
        assert ex.visits["j"] == int(either.sum())


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 1.0))
@settings(max_examples=20, deadline=None)
def test_three_way_agreement_spmv(seed, density):
    """Property: dense reference == CPU executor == Spatial interpreter."""
    stmt, out, _ = build_small_kernel_stmt("SpMV", seed=seed, density=density)
    reference = evaluate_dense(out.get_assignment())
    cpu = execute_cpu(stmt)
    spatial = to_dense(compile_stmt(stmt, "spmv").run())
    assert np.allclose(cpu, reference)
    assert np.allclose(spatial, reference)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=15, deadline=None)
def test_three_way_agreement_plus2(seed):
    stmt, out, _ = build_small_kernel_stmt("Plus2", seed=seed, density=0.4)
    reference = evaluate_dense(out.get_assignment())
    assert np.allclose(execute_cpu(stmt), reference)
    assert np.allclose(to_dense(compile_stmt(stmt, "p2").run()), reference)
