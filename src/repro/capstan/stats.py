"""Workload statistics: what a kernel actually does on a dataset.

The cycle-approximate simulator does not interpret the Spatial program
element by element (full Table 4 datasets would take hours in Python).
Instead, this module derives the quantities the cost model needs directly
from the kernel's loop structure and the packed tensor storages, fully
vectorised:

* per-loop totals: how many times each forall launches and iterates,
* DRAM traffic: bytes moved per array, split into streams and bursts,
* co-iteration work: bit-vector words scanned and coordinates packed,
* shuffle-network gathers, and
* arithmetic operations at the innermost loops.

Union/intersection iteration counts are exact: they are computed as sizes
of unions/intersections of linearised coordinate-prefix sets, which is
precisely what the hardware's scanners enumerate (Figure 7).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.core.compiler import CompiledKernel
from repro.core.memory_analysis import ForallInfo
from repro.formats.memory import MemoryType
from repro.ir.cin import (
    CinAssign,
    CinSequence,
    CinStmt,
    Forall,
    MapCall,
    SuchThat,
    Where,
)
from repro.ir.index_notation import Add, IndexExpr, Mul, Neg, Sub
from repro.tensor.bitvector import WORD_BITS
from repro.tensor.storage import CompressedLevel, SingletonLevel, unpack
from repro.tensor.tensor import Tensor

WORD_BYTES = 4


@dataclasses.dataclass
class LoopStats:
    """Aggregate behaviour of one forall over the whole kernel run."""

    ivar: str
    kind: str  # dense | compressed | scan
    depth: int
    launches: int  # times the loop starts
    iters: int  # total iterations across all launches
    is_innermost: bool
    vector_par: int  # lanes applied to this loop
    scan_words: int = 0  # bit-vector words processed (scan loops)
    bv_coords: int = 0  # coordinates packed into bit vectors


@dataclasses.dataclass
class WorkloadStats:
    """Everything the Capstan cost model needs about one kernel run."""

    kernel: str
    loops: list[LoopStats]
    flops: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    dram_bursts: int = 0
    gather_elems: int = 0
    output_entries: int = 0
    slice_read_bytes: int = 0  # subset of reads from per-iteration slices

    @property
    def dram_total_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def total_scan_words(self) -> int:
        return sum(l.scan_words for l in self.loops)

    @property
    def total_bv_coords(self) -> int:
        return sum(l.bv_coords for l in self.loops)

    @property
    def innermost_iters(self) -> int:
        return sum(l.iters for l in self.loops if l.is_innermost)

    def loop(self, ivar_name: str) -> LoopStats:
        for l in self.loops:
            if l.ivar == ivar_name:
                return l
        raise KeyError(ivar_name)


class _TensorKeys:
    """Linearised storage-prefix coordinate keys of a sparse tensor."""

    def __init__(self, tensor: Tensor) -> None:
        self.tensor = tensor
        coords, _ = unpack(tensor.storage)
        fmt = tensor.format
        # ``unpack`` walks the levels in storage order, so when every
        # level is declared ``ordered`` the prefix keys come back
        # non-decreasing and equal keys are adjacent; only a format with
        # an unordered level has to sort them first.
        presorted = all(mf.ordered for mf in fmt.mode_formats)
        # Storage-order coordinates and progressive Horner keys per level.
        self.level_keys: list[np.ndarray] = []
        key = np.zeros(len(coords), dtype=np.int64)
        for level in range(fmt.order):
            mode = fmt.mode_of_level(level)
            key = key * tensor.shape[mode] + coords[:, mode]
            sorted_key = key if presorted else np.sort(key)
            first = np.ones(len(key), dtype=bool)
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
            self.level_keys.append(sorted_key[first])

    def keys(self, level: int) -> np.ndarray:
        """Unique prefix keys at a storage level (level -1 = the root)."""
        if level < 0:
            return np.zeros(1, dtype=np.int64)
        return self.level_keys[level]


def _count_ops(expr: IndexExpr) -> int:
    if isinstance(expr, (Add, Sub, Mul)):
        return 1 + _count_ops(expr.a) + _count_ops(expr.b)
    if isinstance(expr, Neg):
        return 1 + _count_ops(expr.a)
    return 0


def _restrict(keys: np.ndarray, parents: Optional[np.ndarray], dim: int) -> np.ndarray:
    """Keep only keys whose parent prefix (key // dim) is in ``parents``."""
    if parents is None:
        return keys
    return keys[np.isin(keys // dim, parents, assume_unique=False)]


class StatsBuilder:
    """Walks the scheduled CIN once, accumulating workload statistics."""

    def __init__(
        self,
        kernel: CompiledKernel,
        tensors: dict[str, Tensor],
        stream_inputs: frozenset[str] = frozenset(),
        stream_output: bool = False,
    ) -> None:
        self.kernel = kernel
        self.analysis = kernel.analysis
        self.plan = kernel.plan
        self.tensors = tensors
        # Fused-pipeline connections: operands arriving over an on-fabric
        # stream (and an output leaving on one) never touch DRAM, so their
        # segment/static transfers are elided from the traffic model.
        self.stream_inputs = frozenset(stream_inputs)
        self.stream_output = bool(stream_output)
        self.env = kernel.stmt.environment_vars
        self.stats = WorkloadStats(kernel.name, [])
        self._keys_cache: dict[int, _TensorKeys] = {}
        self._ws_keys: dict[int, np.ndarray] = {}  # workspace key sets
        # Per-(tensor, level) parent restriction during intersection descent.
        self._restriction: dict[tuple[int, int], np.ndarray] = {}
        self._max_depth = self.analysis.max_depth

    # -- helpers ----------------------------------------------------------------

    def tensor_of(self, t) -> Tensor:
        return self.tensors.get(t.name, t)

    def keys_of(self, t) -> _TensorKeys:
        bound = self.tensor_of(t)
        tk = self._keys_cache.get(id(bound))
        if tk is None:
            tk = _TensorKeys(bound)
            self._keys_cache[id(bound)] = tk
        return tk

    def dim_of(self, ivar) -> int:
        for asg in self.analysis.assignments:
            for acc in (asg.lhs, *asg.rhs.accesses()):
                mode = acc.mode_of(ivar)
                if mode is not None:
                    return self.tensor_of(acc.tensor).shape[mode]
        raise KeyError(f"no dimension for {ivar}")

    def _vector_par(self, info: ForallInfo) -> int:
        if info.mapped is not None:
            return min(info.mapped.par, 16)
        if info.depth == self._max_depth:
            return min(self.env.get("innerPar", 1), 16)
        return 1

    # -- level key-set computation -------------------------------------------------

    def _operand_keys(self, it, level: int) -> np.ndarray:
        """Reachable prefix keys of a scan operand at its level."""
        t = it.tensor
        if t.is_on_chip:
            keys = self._ws_keys.get(id(t))
            if keys is None:
                raise KeyError(f"workspace {t.name} scanned before production")
            return keys
        keys = self.keys_of(t).keys(level)
        restriction = self._restriction.get((id(t), level - 1))
        if restriction is not None:
            dim = self.tensor_of(t).shape[t.format.mode_of_level(level)]
            keys = _restrict(keys, restriction, dim)
        return keys

    # -- main walk ---------------------------------------------------------------

    def build(self) -> WorkloadStats:
        cin = self.kernel.stmt.cin
        self.walk(cin, launches=1)
        self._add_static_traffic()
        return self.stats

    def walk(self, stmt: CinStmt, launches: int) -> int:
        """Returns total iterations contributed at this nesting level."""
        if isinstance(stmt, SuchThat):
            return self.walk(stmt.body, launches)
        if isinstance(stmt, MapCall):
            return self.walk(stmt.original, launches)
        if isinstance(stmt, Where):
            self.walk(stmt.producer, launches)
            self.walk(stmt.consumer, launches)
            return launches
        if isinstance(stmt, CinSequence):
            for s in stmt.stmts:
                self.walk(s, launches)
            return launches
        if isinstance(stmt, CinAssign):
            self._account_assign(stmt, launches)
            return launches
        if isinstance(stmt, Forall):
            return self._walk_forall(stmt, launches)
        raise TypeError(type(stmt).__name__)

    def _walk_forall(self, forall: Forall, launches: int) -> int:
        info = self.analysis.info(forall.ivar)
        strategy = info.strategy
        kind = strategy.kind
        is_innermost = not any(
            isinstance(s, Forall) for s in forall.body.walk()
        )
        scan_words = 0
        bv_coords = 0
        saved_restrictions = dict(self._restriction)

        if kind == "dense":
            trip = self.dim_of(forall.ivar)
            iters = launches * trip
        elif kind == "singleton":
            # One stored coordinate per parent position: the loop body runs
            # exactly once per launch (the crd array itself is a staged
            # whole-array transfer, accounted statically).
            iters = launches
        elif kind == "compressed":
            it = strategy.driving[0]
            keys = self._operand_keys(it, it.level)
            if not it.level_format.unique and not it.tensor.is_on_chip:
                # Non-unique (COO root) levels store one position per
                # entry; unique prefix keys undercount the traversal.
                lvl = self.tensor_of(it.tensor).storage.levels[it.level]
                iters = int(getattr(lvl, "nnz", len(keys)))
            else:
                iters = len(keys)
            # Segment transfers: crd (+vals at innermost level) stream once.
            self._add_segment_traffic(it, iters, launches)
        else:  # scan
            dim = self.dim_of(forall.ivar)
            op = strategy.op or "and"
            key_sets = []
            for it in strategy.driving:
                keys = self._operand_keys(it, it.level)
                key_sets.append(keys)
                if not it.tensor.is_on_chip:
                    bv_coords += len(keys)
                    self._add_segment_traffic(it, len(keys), launches)
            if len(key_sets) == 2:
                if op == "and":
                    merged = np.intersect1d(key_sets[0], key_sets[1],
                                            assume_unique=True)
                else:
                    merged = np.union1d(key_sets[0], key_sets[1])
            else:
                merged = key_sets[0]
            iters = len(merged)
            # The scanner streams the packed words of both operands for
            # every launch (one pass per the two scanner loops would double
            # this; Capstan fuses position and value scans per Figure 7).
            words = math.ceil(dim / WORD_BITS)
            scan_words = launches * words * max(1, len(key_sets))
            # Record the result key set for workspaces, restrictions for
            # intersection descent.
            result_it = strategy.result_iterator
            if result_it is not None and result_it.tensor.is_on_chip:
                self._ws_keys[id(result_it.tensor)] = merged
            if op == "and":
                for it in strategy.driving:
                    if not it.tensor.is_on_chip:
                        self._restriction[(id(it.tensor), it.level)] = merged

        self.stats.loops.append(LoopStats(
            ivar=forall.ivar.name,
            kind=kind,
            depth=info.depth,
            launches=launches,
            iters=iters,
            is_innermost=is_innermost,
            vector_par=self._vector_par(info),
            scan_words=scan_words,
            bv_coords=bv_coords,
        ))
        self.walk(forall.body, iters)
        self._restriction = saved_restrictions
        return iters

    # -- per-assignment accounting ---------------------------------------------------

    def _account_assign(self, asg: CinAssign, launches: int) -> None:
        self.stats.flops += launches * max(1, _count_ops(asg.rhs))
        out = asg.lhs.tensor
        if out is self.analysis.output:
            self.stats.output_entries += launches
        # Gathers: staged-full sparse SRAM reads go through the shuffle net.
        for acc in asg.rhs.accesses():
            vb = self.plan.get(acc.tensor.name, "vals")
            if vb is not None and vb.memory is MemoryType.SRAM_SPARSE and vb.uses_shuffle:
                self.stats.gather_elems += launches

    # -- traffic -----------------------------------------------------------------------

    def _add_segment_traffic(self, it, elements: int, launches: int) -> None:
        """crd (and innermost vals) segments stream exactly once overall."""
        if it.tensor.name in self.stream_inputs:
            return  # fed by the producer stage's stream, not DRAM
        # Consecutive segments of one traversal are contiguous in DRAM, so
        # a loop's loads form one long stream per replica (the decoupled
        # access-execute point of Section 8.2), not per-segment bursts.
        bytes_ = elements * WORD_BYTES
        self.stats.dram_read_bytes += bytes_  # crd
        self.stats.dram_bursts += 1
        if it.tensor.format.streams_vals_at(it.level):
            vb = self.plan.get(it.tensor.name, "vals")
            if vb is not None and not vb.staged_full:
                self.stats.dram_read_bytes += bytes_  # vals
                self.stats.dram_bursts += 1

    def _add_static_traffic(self) -> None:
        """Whole-array transfers: pos loads, full stages, slices, outputs."""
        loops_by_depth: dict[int, LoopStats] = {}
        for l in self.stats.loops:
            loops_by_depth.setdefault(l.depth, l)

        def launches_at_depth(depth: int) -> int:
            if depth <= 0:
                return 1
            # A statement at alloc depth d executes once per iteration of
            # the loop at depth d-1 (best effort: first chain).
            loop = loops_by_depth.get(depth - 1)
            return loop.iters if loop is not None else 1

        for t in self.analysis.inputs:
            if t.order == 0 or t.is_on_chip:
                continue
            if t.name in self.stream_inputs:
                continue  # pos/crd/vals all arrive over the fused stream
            bound = self.tensor_of(t)
            storage = bound.storage
            fmt = t.format
            for level, lvl in enumerate(storage.levels):
                if isinstance(lvl, CompressedLevel):
                    self.stats.dram_read_bytes += len(lvl.pos) * WORD_BYTES
                    self.stats.dram_bursts += 1
                elif isinstance(lvl, SingletonLevel):
                    # Singleton crd arrays stage whole, like pos arrays.
                    self.stats.dram_read_bytes += len(lvl.crd) * WORD_BYTES
                    self.stats.dram_bursts += 1
            vb = self.plan.get(t.name, "vals")
            if vb is None:
                continue
            if vb.staged_full:
                self.stats.dram_read_bytes += len(storage.vals) * WORD_BYTES
                self.stats.dram_bursts += 1
            elif vb.memory is MemoryType.SRAM_DENSE:
                # Slice staged per launch of its allocation site.
                trailing_dim = bound.shape[fmt.mode_of_level(fmt.order - 1)]
                n = launches_at_depth(vb.alloc_depth)
                self.stats.dram_read_bytes += n * trailing_dim * WORD_BYTES
                self.stats.slice_read_bytes += n * trailing_dim * WORD_BYTES
                # Slice loads are large contiguous transfers; latency
                # overlaps across replicas (memory-level parallelism).
                self.stats.dram_bursts += max(1, n // 64)
            # FIFO vals traffic is accounted per segment in the walk.

        out = self.analysis.output
        if self.stream_output:
            return  # consumed downstream by the fused consumer, never stored
        if out.order == 0:
            self.stats.dram_write_bytes += WORD_BYTES
            return
        fmt = out.format
        entries = self.stats.output_entries
        # Values and innermost coordinates stream out once.
        self.stats.dram_write_bytes += entries * WORD_BYTES
        bursts = 0
        for level in range(fmt.order):
            if fmt.level_format(level).is_compressed:
                # Coordinate stream (bounded by the entry count) + pos store.
                self.stats.dram_write_bytes += entries * WORD_BYTES
                self.stats.dram_write_bytes += WORD_BYTES
                bursts += 1
        self.stats.dram_bursts += bursts + 1


def compute_stats(
    kernel: CompiledKernel,
    tensors: dict[str, Tensor] | None = None,
    *,
    stream_inputs: frozenset[str] = frozenset(),
    stream_output: bool = False,
) -> WorkloadStats:
    """Workload statistics for a compiled kernel on its bound tensors.

    ``stream_inputs`` names operands that a fused pipeline streams in from
    a producer stage; ``stream_output`` marks the output as streaming into
    a consumer stage. Both elide the corresponding DRAM transfers.
    """
    bound = dict(kernel.tensors)
    if tensors:
        bound.update(tensors)
    return StatsBuilder(kernel, bound, stream_inputs=stream_inputs,
                        stream_output=stream_output).build()


def compute_stats_cached(
    kernel: CompiledKernel,
    key: tuple | None = None,
    use_cache: bool | None = None,
) -> WorkloadStats:
    """:func:`compute_stats` memoized under the pipeline's ``stats`` stage.

    ``key`` is the evaluation coordinate tuple, e.g. ``(kernel, dataset,
    scale, seed)``; callers that share coordinates (Table 6 cells and the
    Figure 12 bandwidth sweep) then share one stats entry per cell instead
    of re-deriving it per artefact. Without ``key`` the statement
    fingerprint is used, which still dedupes identical kernels.
    """
    from repro.pipeline.cache import fingerprint_stmt, memoize_stage

    parts = key if key is not None else (fingerprint_stmt(kernel.stmt,
                                                          kernel.name),)
    return memoize_stage("stats", tuple(parts),
                         lambda: compute_stats(kernel), use_cache)
