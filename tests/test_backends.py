"""Unit tests for the CPU/GPU/handwritten comparison backends."""

import shutil

import numpy as np
import pytest

from repro import DENSE_VECTOR, SPARSE_VECTOR, Tensor, index_vars, offChip
from repro.backends import (
    CpuBackend,
    GpuBackend,
    HANDWRITTEN_CAPSTAN_SPMV,
    HandwrittenCapstanSpMV,
    HandwrittenPlasticineSpMV,
    handwritten_capstan_loc,
    lower_cpu,
)
from repro.capstan import HBM2E, CapstanSimulator, compute_stats
from repro.core import compile_stmt
from repro.kernels import KERNEL_ORDER, KERNELS
from repro.tensor import evaluate_dense
from tests.conftest import random_sparse
from tests.helpers_kernels import (assert_emitted_c_matches,
                                  build_small_kernel_stmt)


def kernel_and_stats(name: str):
    stmt, _, _ = build_small_kernel_stmt(name)
    kernel = compile_stmt(stmt, name)
    return kernel, compute_stats(kernel)


#: The one record whose emitted C refuses, with the message it refuses with.
C_REFUSING_RECORDS = {
    "Plus3": "the C emitter declares only scalar workspaces: T has order 1",
}


class TestCpuCodegen:
    @pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
    @pytest.mark.parametrize("name", list(KERNELS))
    def test_generates_for_all_kernels(self, name):
        """Every record's emitted C, built with AddressSanitizer and run on
        its small operands, computes the dense reference, or refuses with
        its listed reason (``C_REFUSALS`` says why)."""
        stmt, out, _ = build_small_kernel_stmt(name)
        refused = assert_emitted_c_matches(
            stmt, evaluate_dense(out.get_assignment()), name.lower())
        assert refused in (None, C_REFUSING_RECORDS.get(name))

    def test_a_sparse_operand_of_a_dense_loop_refuses(self):
        """``y = s + a``: the loop over ``i`` is dense, and ``s``'s level
        has no position there; locating it as if dense ran off
        ``s_vals`` under AddressSanitizer. The emitter refuses before
        anything is built."""
        i, = index_vars("i")
        rng = np.random.default_rng(7)
        s = Tensor("s", (8,), SPARSE_VECTOR(offChip)).from_dense(
            random_sparse(rng, (8,)))
        a = Tensor("a", (8,), DENSE_VECTOR(offChip)).from_dense(rng.random(8))
        y = Tensor("y", (8,), DENSE_VECTOR(offChip))
        y[i] = s[i] + a[i]
        refused = assert_emitted_c_matches(
            y.get_index_stmt(), evaluate_dense(y.get_assignment()))
        assert refused == ("level 0 of s is read before the loop that "
                           "iterates it binds its position")

    def test_spmv_imperative_shape(self):
        """Figure 4a: for-loops, element accesses, innermost accumulate."""
        stmt, _, _ = build_small_kernel_stmt("SpMV")
        src = lower_cpu(stmt, "spmv")
        assert "for (int i = 0; i <" in src
        assert "for (int pA2 = A2_pos[i]; pA2 < A2_pos[i + 1]; pA2++)" in src
        assert "int j = A2_crd[pA2];" in src
        assert "ws +=" in src
        assert "y_vals[i] = ws;" in src

    def test_mapcall_lowered_as_plain_loop(self):
        """The CPU has no Reduce pattern: accelerate() falls back."""
        stmt, _, _ = build_small_kernel_stmt("SDDMM")
        src = lower_cpu(stmt, "sddmm")
        assert "Reduce" not in src
        assert "for (int k" in src

    def test_union_emits_two_way_merge(self):
        """TACO lowers co-iteration to while-loop merges, not scanners."""
        stmt, _, _ = build_small_kernel_stmt("Plus2")
        src = lower_cpu(stmt, "plus2")
        assert "while (" in src
        assert "genBitvector" not in src
        # Union tails drain each operand.
        assert src.count("while (") >= 3

    def test_intersection_single_merge_loop(self):
        stmt, _, _ = build_small_kernel_stmt("InnerProd")
        src = lower_cpu(stmt, "innerprod")
        assert "while (" in src
        # Intersections need no tail loops at the innermost level.


class TestCpuModel:
    @pytest.mark.parametrize("name", KERNEL_ORDER)
    def test_positive_predictions(self, name):
        kernel, stats = kernel_and_stats(name)
        assert CpuBackend().predict_seconds(kernel, stats) > 0

    def test_cpu_slower_than_capstan_on_typical_kernels(self):
        kernel, stats = kernel_and_stats("SpMV")
        cpu = CpuBackend().predict_seconds(kernel, stats)
        cap = CapstanSimulator().simulate(kernel, dram=HBM2E, stats=stats).seconds
        assert cpu > cap

    def test_more_work_costs_more(self):
        k_small, s_small = kernel_and_stats("SpMV")
        stmt, _, _ = build_small_kernel_stmt("SpMV", density=1.0)
        k_big = compile_stmt(stmt, "spmv")
        s_big = compute_stats(k_big)
        assert (CpuBackend().predict_seconds(k_big, s_big)
                >= CpuBackend().predict_seconds(k_small, s_small))


class TestGpuModel:
    @pytest.mark.parametrize("name", KERNEL_ORDER)
    def test_positive_predictions(self, name):
        kernel, stats = kernel_and_stats(name)
        assert GpuBackend().predict_seconds(kernel, stats) > 0

    def test_densify_detection(self):
        sddmm, _ = kernel_and_stats("SDDMM")
        spmv, _ = kernel_and_stats("SpMV")
        backend = GpuBackend()
        assert backend.output_needs_densify(sddmm)  # CSR output
        assert not backend.output_needs_densify(spmv)  # dense vector

    def test_dense_output_bytes(self):
        sddmm, _ = kernel_and_stats("SDDMM")
        assert GpuBackend().dense_output_bytes(sddmm) == 6 * 8 * 4

    def test_sparse_output_penalty_dominates(self):
        """Sparse-output kernels pay the dense zero-init (Section 8.4)."""
        backend = GpuBackend()
        sddmm, s_stats = kernel_and_stats("SDDMM")
        t = backend.predict_seconds(sddmm, s_stats)
        init = backend.dense_output_bytes(sddmm) / (
            backend.model.dense_init_gb_s * 1e9
        )
        assert t >= init


class TestHandwritten:
    def test_loc_near_paper_52(self):
        loc = handwritten_capstan_loc()
        assert 40 <= loc <= 60  # paper reports 52

    def test_source_is_spatial(self):
        assert "Accel {" in HANDWRITTEN_CAPSTAN_SPMV
        assert "Reduce(" in HANDWRITTEN_CAPSTAN_SPMV

    def test_handwritten_capstan_faster_than_compiled(self):
        kernel, stats = kernel_and_stats("SpMV")
        compiled = CapstanSimulator().simulate(kernel, dram=HBM2E, stats=stats)
        hand = HandwrittenCapstanSpMV().predict_seconds(stats, HBM2E)
        assert hand <= compiled.seconds

    @staticmethod
    def _sized_spmv():
        """A moderately sized SpMV where asymptotics dominate fill costs."""
        dims = {"A": (300, 300), "x": (300,), "y": (300,)}
        from tests.helpers_kernels import make_small_tensors
        from repro.kernels import KERNELS

        tensors = make_small_tensors("SpMV", seed=3, density=0.1, dims=dims)
        stmt, _ = KERNELS["SpMV"].build(tensors)
        kernel = compile_stmt(stmt, "SpMV")
        return kernel, compute_stats(kernel)

    def test_plasticine_slower_than_compiled(self):
        kernel, stats = self._sized_spmv()
        compiled = CapstanSimulator().simulate(kernel, dram=HBM2E, stats=stats)
        plast = HandwrittenPlasticineSpMV().predict_seconds(stats, HBM2E)
        assert plast > compiled.seconds

    def test_ordering_capstan_hand_lt_compiled_lt_plasticine(self):
        kernel, stats = self._sized_spmv()
        compiled = CapstanSimulator().simulate(kernel, dram=HBM2E, stats=stats)
        hand = HandwrittenCapstanSpMV().predict_seconds(stats, HBM2E)
        plast = HandwrittenPlasticineSpMV().predict_seconds(stats, HBM2E)
        assert hand <= compiled.seconds < plast
