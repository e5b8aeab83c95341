"""Capstan resource allocation (the Table 5 estimate).

Counts the physical resources a compiled Spatial program occupies, the
role SARA's placement plays in the paper's toolchain. The estimate is
structural: it walks the generated IR, charging

* **PCUs** for parallel patterns (one per ~6 pipeline arithmetic stages,
  replicated by the parallelization factor) and fractional PCUs for
  transfer address generators and bit-vector packers,
* **PMUs** for SRAM buffers, FIFOs, and bit-vector streams,
* **MCs** for concurrently active DRAM streams (replicated streams are
  staggered, so a concurrency factor applies), and
* **shuffle networks** for coordinate-indexed gathers and union-scan value
  accesses — the two access patterns whose per-lane addresses cannot be
  served by a single PMU's banks.

Statements outside the outermost pattern are shared; statements inside it
replicate ``outerPar`` times. Totals clamp at the chip's capacity, which is
how the "limiting resource" column of Table 5 is identified.
"""

from __future__ import annotations

import dataclasses
import math

from repro.capstan.arch import DEFAULT_CONFIG, CapstanConfig
from repro.capstan.calibration import DEFAULT_RESOURCES, ResourceModel
from repro.core.compiler import CompiledKernel
from repro.formats.memory import MemoryType
from repro.spatial.ir import (
    BitVectorDecl,
    Foreach,
    GenBitVector,
    LoadBulk,
    ReducePat,
    SBin,
    SExpr,
    SStmt,
    SramDecl,
    FifoDecl,
    StoreBulk,
    StreamStore,
)


@dataclasses.dataclass
class ResourceEstimate:
    """Estimated occupancy of one kernel configuration (Table 5 row)."""

    kernel: str
    par: int
    pcu: int
    pmu: int
    mc: int
    shuffle: int
    config: CapstanConfig = dataclasses.field(default=DEFAULT_CONFIG)

    @property
    def pcu_pct(self) -> float:
        return 100.0 * self.pcu / self.config.n_pcu

    @property
    def pmu_pct(self) -> float:
        return 100.0 * self.pmu / self.config.n_pmu

    @property
    def mc_pct(self) -> float:
        return 100.0 * self.mc / self.config.n_mc

    @property
    def shuffle_pct(self) -> float:
        return 100.0 * self.shuffle / self.config.n_shuffle

    def utilizations(self) -> dict[str, float]:
        return {
            "PCU": self.pcu_pct,
            "PMU": self.pmu_pct,
            "MC": self.mc_pct,
            "Shuf": self.shuffle_pct,
        }

    @property
    def limiting(self) -> tuple[str, ...]:
        """The resource(s) closest to capacity (Table 5 bold entries)."""
        utils = self.utilizations()
        best = max(utils.values())
        return tuple(name for name, pct in utils.items() if pct >= best - 1e-9)

    def row(self) -> str:
        u = self.utilizations()
        cells = "  ".join(
            f"{name}={count:4d} ({u[name]:5.1f}%)"
            for name, count in (
                ("PCU", self.pcu), ("PMU", self.pmu),
                ("MC", self.mc), ("Shuf", self.shuffle),
            )
        )
        return f"{self.kernel:12s} par={self.par:3d}  {cells}  limit={','.join(self.limiting)}"


def _expr_ops(e: SExpr) -> int:
    return sum(1 for n in e.walk() if isinstance(n, SBin))


@dataclasses.dataclass
class _Tally:
    pcu: float = 0.0
    pmu: float = 0.0
    mc: float = 0.0

    def __iadd__(self, other: "_Tally") -> "_Tally":
        self.pcu += other.pcu
        self.pmu += other.pmu
        self.mc += other.mc
        return self


def _count_block(stmts, model: ResourceModel) -> _Tally:
    tally = _Tally()
    for s in stmts:
        tally += _count_stmt(s, model)
    return tally


def _count_stmt(s: SStmt, model: ResourceModel) -> _Tally:
    t = _Tally()
    if isinstance(s, SramDecl):
        t.pmu += model.pmu_per_sram
    elif isinstance(s, FifoDecl):
        t.pmu += model.pmu_per_fifo
    elif isinstance(s, BitVectorDecl):
        t.pmu += model.pmu_per_bv
    elif isinstance(s, GenBitVector):
        t.pcu += model.pcu_per_genbv
    elif isinstance(s, (LoadBulk, StoreBulk, StreamStore)):
        t.mc += 1.0
        t.pcu += model.pcu_per_transfer
    elif isinstance(s, (Foreach, ReducePat)):
        ops = 2  # counter + control
        for b in s.body:
            for node in getattr(b, "__dict__", {}).values():
                if isinstance(node, SExpr):
                    ops += _expr_ops(node)
        if isinstance(s, ReducePat):
            ops += _expr_ops(s.value) + 1  # reduction tree stage
        t.pcu += math.ceil(ops / 6)
        inner = _count_block(s.body, model)
        t += inner
    return t


def _consumer_or_scan_levels(kernel: CompiledKernel) -> int:
    """Union-scan loop levels whose values feed off-chip results."""
    count = 0
    for info in kernel.analysis.foralls:
        st = info.strategy
        if st.kind != "scan" or st.op != "or":
            continue
        lhs = [a.lhs.tensor for a in info.forall.assignments()]
        if any(not t.is_on_chip for t in lhs):
            count += 1
    return count


def _gather_tensor_count(kernel: CompiledKernel) -> int:
    names = {
        b.tensor
        for b in kernel.plan.bindings.values()
        if b.uses_shuffle and b.memory is MemoryType.SRAM_SPARSE and b.staged_full
    }
    return len(names)


def estimate_resources(
    kernel: CompiledKernel,
    config: CapstanConfig = DEFAULT_CONFIG,
    model: ResourceModel = DEFAULT_RESOURCES,
) -> ResourceEstimate:
    """Structural Table 5 resource estimate for a compiled kernel."""
    program = kernel.program
    outer_par = kernel.stmt.environment_vars.get("outerPar", 1)

    shared = _Tally()
    replicated = _Tally()
    seen_outer = False
    for s in program.accel:
        if isinstance(s, (Foreach, ReducePat)) and not seen_outer:
            seen_outer = True
            # The outermost pattern itself is control (one PCU per replica);
            # everything inside replicates.
            replicated.pcu += 1
            replicated += _count_block(s.body, model)
        else:
            shared += _count_stmt(s, model)

    pcu = shared.pcu + outer_par * replicated.pcu
    pmu = shared.pmu + outer_par * replicated.pmu
    mc = shared.mc + outer_par * replicated.mc * model.mc_concurrency

    shuffle_levels = _consumer_or_scan_levels(kernel) + _gather_tensor_count(kernel)
    shuffle = min(config.n_shuffle, outer_par * shuffle_levels)

    return ResourceEstimate(
        kernel=kernel.name,
        par=outer_par,
        pcu=min(config.n_pcu, math.ceil(pcu)),
        pmu=min(config.n_pmu, math.ceil(pmu)),
        mc=min(config.n_mc, math.ceil(mc)),
        shuffle=shuffle,
        config=config,
    )


def estimate_resources_cached(
    kernel: CompiledKernel,
    use_cache: bool | None = None,
) -> ResourceEstimate:
    """:func:`estimate_resources` memoized under the ``resources`` stage.

    The estimate reads only the program, so it is keyed by the key its
    program was stored under in the ``program`` stage: every dataset and
    scale of one kernel configuration, Table 5 rows and Table 6
    simulations alike, shares one entry. A program lowered outside that
    stage has no key and is estimated without the store.
    """
    from repro.pipeline.cache import memoize_stage

    key = kernel.compiled.key
    return memoize_stage("resources", (key,),
                         lambda: estimate_resources(kernel),
                         False if key is None else use_cache)
