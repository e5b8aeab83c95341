"""The cycle-approximate Capstan simulator.

Combines workload statistics (:mod:`repro.capstan.stats`) with the
architecture model to predict kernel runtime under a DRAM configuration.
The model is a bottleneck (roofline-style) composition of four terms that
the Capstan design overlaps against each other:

* **compute** — innermost pattern iterations at ``min(innerPar, 16)``
  lanes across ``outerPar`` replicas, plus control loop iterations and a
  pipeline-fill cost per pattern launch (short sparse segments make this
  term matter, exactly as on the real machine);
* **scan** — packed bit-vector words streamed through the scanners plus
  coordinates packed by the Gen BV blocks (this is why Capstan's
  bit-vector format wants densities above ~5%, Section 8.1);
* **gather** — shuffle-network traffic, capped at 16 networks;
* **DRAM** — bulk transfer bytes and per-burst latency under the selected
  memory model (DDR4 / HBM-2E / Ideal / Figure 12 sweep points).

The bottleneck term dominates; a small serial fraction is added on top.
"""

from __future__ import annotations

import dataclasses

from repro.capstan.arch import DEFAULT_CONFIG, CapstanConfig
from repro.capstan.calibration import DEFAULT_COST, CapstanCostModel
from repro.capstan.dram import HBM2E, DramModel
from repro.capstan.network import NetworkModel
from repro.capstan.resources import ResourceEstimate, estimate_resources
from repro.capstan.stats import WorkloadStats, compute_stats
from repro.core.compiler import CompiledKernel
from repro.tensor.tensor import Tensor


@dataclasses.dataclass
class SimResult:
    """Predicted execution of one kernel on one dataset + memory config."""

    kernel: str
    dram: str
    cycles: float
    seconds: float
    bottleneck: str
    breakdown: dict[str, float]  # seconds per term
    resources: ResourceEstimate
    stats: WorkloadStats

    def speedup_over(self, other: "SimResult") -> float:
        return other.seconds / self.seconds


def compute_cycles(loops, cost: CapstanCostModel, segment_ii: float,
                   par: int) -> float:
    """The compute term: a pipelined pattern is bound by the slower of
    its element throughput and its per-segment initiation interval
    (segments stream back-to-back in the declarative-sparse model),
    spread over ``par`` replicas, plus a pipeline fill per pattern."""
    cycles = 0.0
    for loop in loops:
        lanes = max(1, loop.vector_par) if loop.is_innermost else 1
        per_elem = 1.0 / lanes if loop.is_innermost else cost.mid_loop_cycles
        cycles += max(loop.iters * per_elem, loop.launches * segment_ii) / par
        cycles += cost.pattern_fill_cycles
    return cycles


class CapstanSimulator:
    """Evaluates compiled kernels on the Capstan model."""

    def __init__(
        self,
        config: CapstanConfig = DEFAULT_CONFIG,
        cost: CapstanCostModel = DEFAULT_COST,
    ) -> None:
        self.config = config
        self.cost = cost
        self.network = NetworkModel(config, cost)

    def simulate(
        self,
        kernel: CompiledKernel,
        tensors: dict[str, Tensor] | None = None,
        dram: DramModel = HBM2E,
        stats: WorkloadStats | None = None,
        resources: ResourceEstimate | None = None,
    ) -> SimResult:
        if stats is None:
            stats = compute_stats(kernel, tensors)
        if resources is None:
            resources = estimate_resources(kernel, self.config)
        cfg = self.config
        cost = self.cost

        outer_par = kernel.stmt.environment_vars.get("outerPar", 1)
        uses_shuffle = resources.shuffle > 0
        par = self.network.effective_outer_par(outer_par, uses_shuffle)
        segment_ii = cost.segment_ii_cycles * (
            cost.ideal_overhead_fraction if dram.is_ideal else 1.0
        )

        scan_cycles = 0.0
        for loop in stats.loops:
            if loop.scan_words:
                scan_cycles += loop.scan_words / (cost.scan_words_per_cycle * par)
            if loop.bv_coords:
                scan_cycles += loop.bv_coords / (cost.bv_coords_per_cycle * par)

        gather_cycles = self.network.gather_cycles(
            stats.gather_elems, resources.shuffle
        )

        compute_s = cfg.cycles_to_seconds(
            compute_cycles(stats.loops, cost, segment_ii, par))
        scan_s = cfg.cycles_to_seconds(scan_cycles)
        gather_s = cfg.cycles_to_seconds(gather_cycles)
        dram_s = dram.transfer_seconds(stats.dram_total_bytes, stats.dram_bursts)

        breakdown = {
            "compute": compute_s,
            "scan": scan_s,
            "gather": gather_s,
            "dram": dram_s,
        }
        bottleneck = max(breakdown, key=breakdown.get)
        total = max(breakdown.values()) * (1.0 + cost.serial_fraction)
        return SimResult(
            kernel=kernel.name,
            dram=dram.name,
            cycles=total * cfg.clock_hz,
            seconds=total,
            bottleneck=bottleneck,
            breakdown=breakdown,
            resources=resources,
            stats=stats,
        )

    def sweep_bandwidth(
        self,
        kernel: CompiledKernel,
        tensors: dict[str, Tensor] | None,
        bandwidths_gb_s,
        stats: WorkloadStats | None = None,
    ) -> dict[float, SimResult]:
        """Figure 12: runtime across DRAM bandwidth points."""
        from repro.capstan.dram import custom_bandwidth

        if stats is None:
            stats = compute_stats(kernel, tensors)
        resources = estimate_resources(kernel, self.config)
        return {
            bw: self.simulate(kernel, tensors, custom_bandwidth(bw), stats,
                              resources)
            for bw in bandwidths_gb_s
        }
