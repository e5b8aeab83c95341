"""Calibration constants for the cycle-approximate models.

The paper evaluates with the Capstan authors' cycle-accurate simulator
(Ramulator DRAM + the ISCA'19 network model), which is not public. This
reproduction replaces it with analytic models whose free constants are
gathered here, so every knob is visible and documented. ``results/``
(as written by ``scripts/run_experiments.py``) records the paper-vs-model
deltas these constants produce.

Constants marked *calibrated* were tuned (once, against Table 6's shape)
rather than derived from the architecture description.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class CapstanCostModel:
    """Cost-model constants for the Capstan simulator."""

    #: Steady-state initiation interval between consecutive segment
    #: launches of a pipelined pattern (the declarative-sparse model
    #: streams segments; there is no per-segment control overhead).
    segment_ii_cycles: float = 1.5

    #: One-time pipeline fill per pattern in the program (fill + drain).
    pattern_fill_cycles: float = 300.0

    #: Cycles per iteration of a non-innermost (control/address) loop.
    mid_loop_cycles: float = 1.0

    #: Packed bit-vector words a scanner consumes per cycle per replica.
    scan_words_per_cycle: float = 16.0

    #: Coordinates packed per cycle per replica by the Gen BV block.
    bv_coords_per_cycle: float = 16.0

    #: Elements per cycle served by one shuffle network (16-lane crossbar).
    gather_per_shuffle_per_cycle: float = 16.0

    #: Fraction of per-segment initiation cost that remains under the
    #: ideal network and memory configuration (no transfer-issue stalls).
    ideal_overhead_fraction: float = 0.5

    #: Serial fraction added on top of the bottleneck term (host control).
    serial_fraction: float = 0.02


@dataclasses.dataclass(frozen=True)
class ResourceModel:
    """Structural resource-estimate constants (Table 5)."""

    #: PCU fraction charged per bulk-transfer address generator.
    pcu_per_transfer: float = 0.6

    #: PCU fraction charged per Gen BV packer.
    pcu_per_genbv: float = 1.0

    #: PMUs charged per SRAM buffer / per FIFO / per bit-vector stream.
    pmu_per_sram: float = 2.0
    pmu_per_fifo: float = 1.0
    pmu_per_bv: float = 1.0

    #: Fraction of replicated DRAM streams concurrently demanding an MC
    #: (calibrated: streams are staggered in time).
    mc_concurrency: float = 0.7


@dataclasses.dataclass(frozen=True)
class CpuModel:
    """128-thread Xeon E7-8890 v3 model (Section 8.1 baseline)."""

    threads: int = 128
    clock_hz: float = 2.494e9
    #: Sustained aggregate memory bandwidth (4-socket NUMA, calibrated).
    bandwidth_gb_s: float = 85.0
    #: Cycles per element for in-order compressed iteration (pointer
    #: chasing + branch per element in TACO's generated loops).
    cycles_per_sparse_elem: float = 6.0
    #: Cycles per element for multi-way merge co-iteration (TACO lowers
    #: unions to branchy while-loops; calibrated).
    cycles_per_merge_elem: float = 40.0
    #: Effective dense-inner-loop elements per cycle per core (AVX).
    dense_elems_per_cycle: float = 8.0
    #: Seconds per random gather after memory-level parallelism.
    gather_seconds: float = 4e-9
    #: Parallel efficiency across 128 threads on sparse kernels
    #: (NUMA traffic, load imbalance; calibrated).
    parallel_efficiency: float = 0.22
    #: Per-kernel OpenMP fork/join plus cold-cache warmup.
    launch_seconds: float = 5e-5
    #: Seconds per non-innermost compressed iteration (CSF pointer chasing
    #: with cold-cache misses; calibrated).
    cache_miss_seconds: float = 6e-8
    #: Fraction of peak bandwidth sustained on strided slice traffic
    #: (random column/row fetches across NUMA nodes; calibrated).
    slice_bandwidth_fraction: float = 0.08
    #: Effective thread count on latency-bound irregular work (merges and
    #: cold-cache fiber traversal do not scale on the 4-socket box).
    irregular_threads: float = 4.0
    #: Effective thread count when TACO emits a compound (multi-statement)
    #: kernel it cannot parallelise (MatTransMul/Residual-style axpy).
    compound_threads: float = 1.5


@dataclasses.dataclass(frozen=True)
class GpuModel:
    """NVIDIA V100 SXM-2 model running TACO-generated CUDA (Section 8.1)."""

    bandwidth_gb_s: float = 900.0
    peak_flops: float = 14e12
    #: Kernel launch + driver overhead per kernel.
    launch_seconds: float = 8e-6
    #: Effective rate of TACO's dense-output zero-initialisation, which the
    #: paper identifies as dominating GPU time for sparse-output kernels
    #: ("most of the time is spent zero initializing the fully dense result
    #: tensor"). Far below memset speed because TACO's initialisation is a
    #: generated scalar loop + allocation (calibrated to Table 6's shape).
    dense_init_gb_s: float = 30.0
    #: Seconds per irregular (gather/atomic) element (cache-amortised).
    irregular_seconds: float = 5e-11
    #: Seconds per element of a *serialised* sparse innermost loop feeding
    #: a densified output (warp-serial merge path in TACO CUDA).
    serial_sparse_seconds: float = 4e-9
    #: Seconds per coordinate of a two-way merge (TACO CUDA co-iteration).
    merge_seconds: float = 2e-10
    #: Seconds per non-innermost compressed iteration (warp divergence on
    #: nested sparse traversal).
    divergence_seconds: float = 1e-9
    #: Parallel efficiency on sparse TACO kernels (warp divergence).
    efficiency: float = 0.5


DEFAULT_COST = CapstanCostModel()
DEFAULT_RESOURCES = ResourceModel()
DEFAULT_CPU = CpuModel()
DEFAULT_GPU = GpuModel()
