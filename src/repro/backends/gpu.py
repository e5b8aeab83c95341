"""GPU baseline: a V100 model of TACO-generated CUDA (Section 8.1).

TACO's GPU backend does not support sparse tensor outputs, so result
tensors are fully dense on the device; the paper observes that "most of
the time is spent zero initializing the fully dense result tensor — which
is often extremely large — in device memory" (Section 8.4). The model
therefore charges:

* a slow dense-output initialisation for kernels whose result format is
  compressed (what TACO must densify),
* memory traffic at HBM2 bandwidth with a sparse-efficiency factor,
* irregular-access time for gathers/merges (warp divergence, atomics), and
* kernel launch overhead.

Kernels with naturally dense (and small) outputs — SpMV, MatTransMul,
Residual, MTTKRP, InnerProd — avoid the initialisation penalty, which is
why their GPU slowdowns in Table 6 are single-digit.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.capstan.calibration import DEFAULT_GPU, GpuModel
from repro.capstan.stats import WorkloadStats
from repro.core.compiler import CompiledKernel


@dataclasses.dataclass
class GpuBackend:
    """Performance model of TACO-generated CUDA on a V100."""

    model: GpuModel = dataclasses.field(default_factory=lambda: DEFAULT_GPU)

    def dense_output_bytes(self, kernel: CompiledKernel) -> int:
        """Size of the densified result TACO's GPU backend materialises."""
        out = kernel.output
        if out.order == 0:
            return 4
        return int(np.prod(out.shape)) * 4

    def output_needs_densify(self, kernel: CompiledKernel) -> bool:
        return kernel.output.format.has_compressed_level

    def predict_seconds(self, kernel: CompiledKernel, stats: WorkloadStats) -> float:
        m = self.model
        dense_out = self.dense_output_bytes(kernel)
        densify = self.output_needs_densify(kernel)
        if densify:
            init_s = dense_out / (m.dense_init_gb_s * 1e9)
        else:
            # Naturally dense output: initialised at full memset bandwidth.
            init_s = dense_out / (m.bandwidth_gb_s * 1e9)
        traffic = stats.dram_read_bytes + dense_out
        mem_s = traffic / (m.bandwidth_gb_s * 1e9 * m.efficiency)
        irr_s = stats.gather_elems * m.irregular_seconds
        # Sparse innermost loops writing a densified result take TACO's
        # warp-serial merge/scatter path; co-iterations pay a two-way merge
        # over both operands' coordinates; nested sparse traversal pays a
        # warp-divergence cost.
        serial_s = 0.0
        for loop in stats.loops:
            if loop.kind == "scan":
                serial_s += loop.bv_coords * m.merge_seconds
                if densify:
                    serial_s += loop.iters * m.serial_sparse_seconds
            elif loop.kind == "compressed":
                if densify and loop.is_innermost:
                    serial_s += loop.iters * m.serial_sparse_seconds
                elif not loop.is_innermost:
                    serial_s += loop.iters * m.divergence_seconds
        flop_s = stats.flops / (m.peak_flops * m.efficiency)
        return max(mem_s, irr_s, flop_s) + serial_s + init_s + m.launch_seconds
