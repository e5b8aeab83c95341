"""Handwritten Spatial SpMV kernels (Section 8.3, Table 6 "Compiled = No").

SpMV is the only kernel with pre-existing handwritten Spatial
implementations: the Capstan paper's hand-tuned kernel and Plasticine's.
The paper compares them against Stardust-compiled code:

* the **handwritten Capstan** kernel duplicates the input vector across
  PMUs instead of coordinating accesses through the shuffle network, which
  removes shuffle contention and lets it outer-parallelise beyond 16 —
  about 1.5x faster than the compiled kernel (0.65 in Table 6);
* the **handwritten Plasticine** kernel has no sparse iteration support
  (no bit-vector scanners, no sparse fetch units), so compressed streams
  are walked with scalar address arithmetic — about 8.7x slower.

The handwritten Capstan source below is the LoC comparison artefact for
Section 8.3 (52 lines of Spatial vs. 10 lines of Stardust input).
"""

from __future__ import annotations

import dataclasses

from repro.capstan.arch import DEFAULT_CONFIG, CapstanConfig
from repro.capstan.calibration import DEFAULT_COST, CapstanCostModel
from repro.capstan.dram import HBM2E, DramModel
from repro.capstan.simulator import compute_cycles
from repro.capstan.stats import WorkloadStats
from repro.spatial.codegen import count_loc

#: Hand-tuned Capstan SpMV (Rucker et al.): the input vector is duplicated
#: into every outer-parallel partition's PMUs, so gathers stay lane-local.
HANDWRITTEN_CAPSTAN_SPMV = """\
// Handwritten Capstan SpMV (Rucker et al., MICRO '21 artefact style)
import spatial.dsl._
val ip = 16
val op = 32
val N = args("N").to[Int]
val nnz = args("nnz").to[Int]
val A_pos_dram = DRAM[T](N + 1)
val A_crd_dram = DRAM[T](nnz)
val A_vals_dram = DRAM[T](nnz)
val x_dram = DRAM[T](N)
val y_dram = DRAM[T](N)
Accel {
  val A_pos = SRAM[T](N + 1)
  A_pos load A_pos_dram(0 :: N + 1 par ip)
  Foreach(N by 1 par op) { i =>
    // Every partition keeps a private duplicate of x: no shuffle network,
    // so outer parallelism is not capped at 16.
    val x_dup = SRAM[T](N)
    x_dup load x_dram(0 :: N par ip)
    val row_start = A_pos(i)
    val row_end = A_pos(i + 1)
    val row_len = row_end - row_start
    val crd = FIFO[T](16)
    crd load A_crd_dram(row_start :: row_end par 1)
    val vals = FIFO[T](16)
    vals load A_vals_dram(row_start :: row_end par 1)
    val acc = Reg[T](0.to[T])
    Reduce(acc)(row_len by 1 par ip) { p =>
      val j = crd.deq
      val v = vals.deq
      v * x_dup(j)
    } { _ + _ }
    val y_out = FIFO[T](16)
    y_out.enq(acc.value)
    y_dram stream_store_vec(i, y_out, 1)
  }
}
// Host-side driver
val y = getMem(y_dram)
val A_pos_h = loadCSR(args("matrix"))._1
val A_crd_h = loadCSR(args("matrix"))._2
val A_vals_h = loadCSR(args("matrix"))._3
setMem(A_pos_dram, A_pos_h)
setMem(A_crd_dram, A_crd_h)
setMem(A_vals_dram, A_vals_h)
setMem(x_dram, x_h)
assert(checkGold(y))
"""


def handwritten_capstan_loc() -> int:
    """LoC of the handwritten kernel (the paper reports 52)."""
    return count_loc(HANDWRITTEN_CAPSTAN_SPMV)


@dataclasses.dataclass
class HandwrittenCapstanSpMV:
    """Performance model of the hand-tuned Capstan SpMV.

    Same machine model as the compiled kernel, but vector duplication
    removes the gather term and lifts the outer-parallel cap to the full
    PCU budget (the paper's kernel uses 32 partitions).
    """

    config: CapstanConfig = dataclasses.field(default=DEFAULT_CONFIG)
    cost: CapstanCostModel = dataclasses.field(default=DEFAULT_COST)
    outer_par: int = 32

    def predict_seconds(self, stats: WorkloadStats, dram: DramModel = HBM2E) -> float:
        compute_s = compute_cycles(
            stats.loops, self.cost, self.cost.segment_ii_cycles,
            self.outer_par) / self.config.clock_hz
        # Duplicated vectors turn shuffle gathers into pure streams, which
        # also raises sustained DRAM efficiency.
        better = dataclasses.replace(
            dram, stream_efficiency=min(0.75, dram.stream_efficiency * 1.45)
        )
        dram_s = better.transfer_seconds(stats.dram_total_bytes, stats.dram_bursts)
        return max(compute_s, dram_s) * (1.0 + self.cost.serial_fraction)


@dataclasses.dataclass
class HandwrittenPlasticineSpMV:
    """Performance model of the Plasticine (MICRO '17) handwritten SpMV.

    Plasticine predates Capstan's sparse support: no bit-vector scanners
    and no vectorised sparse fetch, so compressed streams advance with
    scalar address arithmetic on the pattern units.
    """

    config: CapstanConfig = dataclasses.field(default=DEFAULT_CONFIG)
    cost: CapstanCostModel = dataclasses.field(default=DEFAULT_COST)
    outer_par: int = 16
    #: Cycles per sparse element without sparse fetch units (calibrated).
    cycles_per_elem: float = 2.0

    def predict_seconds(self, stats: WorkloadStats, dram: DramModel = HBM2E) -> float:
        par = self.outer_par
        compute_cycles = 0.0
        for loop in stats.loops:
            if loop.is_innermost:
                compute_cycles += loop.iters * self.cycles_per_elem / par
            else:
                compute_cycles += loop.iters * self.cost.mid_loop_cycles / par
            # Without sparse fetch units, each segment restart stalls the
            # scalar address pipeline.
            compute_cycles += loop.launches * 4.0 / par
            compute_cycles += self.cost.pattern_fill_cycles
        compute_s = compute_cycles / self.config.clock_hz
        dram_s = dram.transfer_seconds(stats.dram_total_bytes, stats.dram_bursts)
        return max(compute_s, dram_s) * (1.0 + self.cost.serial_fraction)


def handwritten_models(kernel_name: str, stats: WorkloadStats) -> dict:
    """Table 6 platform -> runtime predictor (a thunk) for the kernels
    with a handwritten baseline: SpMV, and nothing else."""
    if kernel_name != "SpMV":
        return {}
    return {
        "Capstan (HBM2E, handwritten)":
            lambda: HandwrittenCapstanSpMV().predict_seconds(stats, HBM2E),
        "Plasticine (HBM2E, handwritten)":
            lambda: HandwrittenPlasticineSpMV().predict_seconds(stats, HBM2E),
    }
