"""Unit tests for the memory analysis (Section 6 bindings)."""

import pytest

from repro import Tensor, index_vars
from repro.core import analyze, plan_memory
from repro.core.lowering import Lowerer
from repro.formats import MemoryType
from repro.kernels import KERNELS
from repro.spatial.ir import FifoDecl, Foreach, ReducePat, SramDecl
from tests.helpers_kernels import build_small_kernel_stmt


def plan_for(name: str):
    stmt, out, tensors = build_small_kernel_stmt(name)
    analysis = analyze(stmt)
    return plan_memory(analysis), analysis


class TestSddmmBindings:
    """The Figure 8 / Figure 11 narrative for the running example."""

    def setup_method(self):
        self.plan, self.analysis = plan_for("SDDMM")

    def test_b_pos_dense_sram_at_top(self):
        b = self.plan.binding("B", "pos1")
        assert b.memory is MemoryType.SRAM_DENSE
        assert b.alloc_depth == 0

    def test_b_crd_fifo_in_i_body(self):
        b = self.plan.binding("B", "crd1")
        assert b.memory is MemoryType.FIFO
        assert b.alloc_depth == 1  # allocated alongside the j loop

    def test_b_vals_fifo_in_order(self):
        b = self.plan.binding("B", "vals")
        assert b.memory is MemoryType.FIFO
        assert b.alloc_depth == 1

    def test_c_dense_slice_per_row(self):
        b = self.plan.binding("C", "vals")
        assert b.memory is MemoryType.SRAM_DENSE
        assert not b.staged_full
        assert b.alloc_depth == 1  # row i slice

    def test_d_dense_slice_per_column(self):
        b = self.plan.binding("D", "vals")
        assert b.memory is MemoryType.SRAM_DENSE
        assert b.alloc_depth == 2  # column j slice (Figure 11 line 30)

    def test_output_streams(self):
        assert self.plan.binding("A", "vals").memory is MemoryType.FIFO
        assert self.plan.binding("A", "crd1").memory is MemoryType.FIFO
        assert self.plan.binding("A", "pos1").memory is MemoryType.SRAM_DENSE

    def test_workspace_register(self):
        assert self.plan.binding("ws", "scalar").memory is MemoryType.REGISTER

    def test_no_shuffle(self):
        assert not any(b.uses_shuffle for b in self.plan.bindings.values())


class TestSpmvBindings:
    def setup_method(self):
        self.plan, self.analysis = plan_for("SpMV")

    def test_x_gathered_through_shuffle(self):
        b = self.plan.binding("x", "vals")
        assert b.memory is MemoryType.SRAM_SPARSE
        assert b.uses_shuffle
        assert b.staged_full

    def test_a_vals_fifo(self):
        assert self.plan.binding("A", "vals").memory is MemoryType.FIFO

    def test_output_vector_fifo(self):
        assert self.plan.binding("y", "vals").memory is MemoryType.FIFO


class TestCoiterationBindings:
    def test_innerprod_vals_sparse_sram(self):
        plan, _ = plan_for("InnerProd")
        for t in ("B", "C"):
            b = plan.binding(t, "vals")
            assert b.memory is MemoryType.SRAM_SPARSE
            # AND scans do not cross lanes.
            assert not b.uses_shuffle

    def test_innerprod_bitvectors(self):
        plan, _ = plan_for("InnerProd")
        assert plan.get("B", "bv1") is not None
        assert plan.get("B", "bv2") is not None
        assert plan.binding("B", "bv1").memory is MemoryType.BIT_VECTOR

    def test_plus2_union_uses_shuffle(self):
        plan, _ = plan_for("Plus2")
        assert plan.binding("B", "vals").uses_shuffle
        assert plan.binding("C", "vals").uses_shuffle
        assert plan.shuffle_levels() >= 1

    def test_plus3_workspace_sram(self):
        plan, _ = plan_for("Plus3")
        b = plan.binding("T", "vals")
        assert b.memory is MemoryType.SRAM_SPARSE


class TestDenseOperandStaging:
    def test_mttkrp_factors_staged_full(self):
        plan, _ = plan_for("MTTKRP")
        for t in ("C", "D"):
            b = plan.binding(t, "vals")
            assert b.memory is MemoryType.SRAM_DENSE
            assert b.staged_full  # strided slices: whole tensor once
            assert not b.uses_shuffle

    def test_ttm_factor_staged_full(self):
        plan, _ = plan_for("TTM")
        b = plan.binding("C", "vals")
        assert b.staged_full
        assert not b.uses_shuffle

    def test_ttv_vector_gathered(self):
        plan, _ = plan_for("TTV")
        b = plan.binding("c", "vals")
        assert b.memory is MemoryType.SRAM_SPARSE
        assert b.uses_shuffle


class TestAnalysisStructure:
    def test_sddmm_depths(self):
        _, analysis = plan_for("SDDMM")
        depths = {f.ivar.name: f.depth for f in analysis.foralls}
        assert depths == {"i": 0, "j": 1, "k": 2}

    def test_sddmm_roles(self):
        _, analysis = plan_for("SDDMM")
        assert analysis.output.name == "A"
        assert {t.name for t in analysis.inputs} == {"B", "C", "D"}
        assert {t.name for t in analysis.workspaces} == {"ws"}

    def test_mapcall_recorded(self):
        _, analysis = plan_for("SDDMM")
        k_info = [f for f in analysis.foralls if f.ivar.name == "k"][0]
        assert k_info.mapped is not None
        assert k_info.mapped.func == "Reduction"

    def test_plus3_producer_consumer_depths(self):
        _, analysis = plan_for("Plus3")
        depths = {f.ivar.name: f.depth for f in analysis.foralls}
        assert depths["i"] == 0
        assert depths["j"] == 1 and depths["jw"] == 1

    def test_report_mentions_every_tensor(self):
        plan, analysis = plan_for("SDDMM")
        report = plan.report()
        for name in ("A", "B", "C", "D", "ws"):
            assert name in report


# -- the result is placed once: lowering emits it where the plan binds it ------


def _fused_stmt():
    i, j, f = index_vars("i j f")
    C, D, Z = (Tensor(name, (8, 9)) for name in "CDZ")
    Z[i, j] = C[i, j] * D[i, j]
    return Z.get_index_stmt().fuse(i, j, f)


def _split_stmt():
    i, j, jo, ji = index_vars("i j jo ji")
    C, Z = Tensor("C", (8, 4)), Tensor("Z", (8, 4))
    Z[i, j] = C[i, j] * 2
    return Z.get_index_stmt().split_up(j, jo, ji, 4)


PLACEMENT_CASES = [
    *(pytest.param(lambda name=name: build_small_kernel_stmt(name)[0], id=name)
      for name, spec in KERNELS.items()
      if any(t.role == "output" and t.modes for t in spec.tensor_specs)),
    pytest.param(_fused_stmt, id="fuse"),
    pytest.param(_split_stmt, id="split_up"),
]


def _declarations(stmts, depth=0):
    """Every FIFO and SRAM declaration with its depth: the number of
    enclosing ``Foreach`` / ``ReducePat`` patterns."""
    for stmt in stmts:
        if isinstance(stmt, (FifoDecl, SramDecl)):
            yield stmt, depth
        elif isinstance(stmt, (Foreach, ReducePat)):
            yield from _declarations(stmt.body, depth + 1)


@pytest.mark.parametrize("build", PLACEMENT_CASES)
def test_lowering_emits_the_result_where_the_plan_binds_it(build):
    lowerer = Lowerer(build())
    program = lowerer.lower()
    out = lowerer.analysis.output
    whole, row = f"{out.name}_vals", f"{out.name}_row"
    placed = [
        (MemoryType.FIFO if isinstance(decl, FifoDecl)
         else MemoryType.SRAM_SPARSE if decl.sparse else MemoryType.SRAM_DENSE,
         depth, isinstance(decl, SramDecl) and decl.name == whole)
        for decl, depth in _declarations(program.accel)
        if decl.name in (whole, row)]
    vals = lowerer.plan.binding(out.name, "vals")
    assert placed == [(vals.memory, vals.alloc_depth, vals.staged_full)]
