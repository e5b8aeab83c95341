"""Single-kernel distribution: SpDISTAL-style row-block partitioning.

The dispatcher shards *job lists*, so one large kernel is still bounded
by one worker. SpDISTAL (Yadav et al.) schedules *one* compiled sparse
kernel over partitioned tensors instead; this module does that for the
kernels :data:`PARTITION_FORMATS` derives from the ``KERNELS`` records:
CSR SpMV and DCSR SpMM (README, "Distributed single-kernel execution"):

* :class:`PartitionPlan` cuts one kernel into ``count`` sub-kernels.
  The operand is staged once per run (:class:`StagedOperands`); a
  ``row`` block's sparse operand is a position-range *view* of it
  (:func:`repro.convert.slice_positions`), a ``sum`` block's a column
  filter (:func:`repro.convert.slice_rows`) with the matching dense
  rows. Either way the block is the ordinary ``KERNELS[kernel]``
  statement, compiled and run on the chosen engine.
* The plan is named ``partition:<kernel>:<dataset>:p<P>:<mode>`` on
  command lines and in manifests; :func:`repro.pipeline.batch.
  resolve_artifact` parses that name once, and the plan then offers the
  interface of a registry :class:`~repro.pipeline.batch.Artefact`
  (``jobs`` / ``assemble`` / ``render`` / ``encode`` / ``decode``), so
  batch, shard, dispatch and every transport lease and resume its
  blocks like sweep chunks.
* :meth:`PartitionPlan.assemble` concatenates ``row`` blocks
  (byte-identical to the unpartitioned run, its P=1 case) or sums
  ``sum`` partials, and checks either against an independent
  unpartitioned oracle.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import hashlib

import numpy as np

from repro import obs
from repro.convert import position_sliceable
from repro.engines import default_engine, oracle_maxerr
from repro.formats import format_of
from repro.kernels.suite import KERNELS, KernelSpec
from repro.pipeline.batch import PARTITION_PREFIX, is_partition_artifact
from repro.pipeline.cache import memoize_stage
from repro.pipeline.executor import Job, run_jobs
from repro.service.api import DEFAULT_SCALE

__all__ = [
    "PARTITION_FORMATS",
    "PARTITION_MODES",
    "PARTITION_PREFIX",
    "PARTITION_SEED",
    "PartitionError",
    "PartitionPlan",
    "StagedOperands",
    "block_range",
    "format_partition",
    "is_partition_artifact",
    "parse_partition",
    "partition_artifact",
    "partition_cell",
    "reduce_partials",
    "serial_report",
]

#: Supported iteration-space splits.
PARTITION_MODES = ("row", "sum")


def _partition_format(spec: KernelSpec) -> str | None:
    """The format ``spec``'s sparse operand stages in when the kernel has
    the shape :func:`_run_kernel` assembles and the oracle checks: one
    sparse matrix ``A(i, k)`` whose position-sliceable root stores ``i``,
    one dense operand led by ``k``, an output led by ``i``. ``row`` cuts
    ``i`` and ``sum`` cuts ``k``, so nothing else may carry either."""
    roles = [spec.of_role(role) for role in ("sparse", "dense", "output")]
    if len(spec.tensor_specs) != 3 or any(len(r) != 1 for r in roles):
        return None
    (sparse,), (dense,), (out,) = roles
    fmt = format_of(sparse.format)
    fits = (len(sparse.modes) == 2 and position_sliceable(fmt)
            and fmt.mode_of_level(0) == 0
            and dense.modes[:1] == sparse.modes[1:]
            and out.modes[:1] == sparse.modes[:1])
    return sparse.format if fits else None


#: Partitionable kernels and the format their sparse operand stages in.
PARTITION_FORMATS = {name: fmt for name, spec in KERNELS.items()
                     if (fmt := _partition_format(spec)) is not None}

#: Dataset seed (the harness's fixed evaluation seed).
PARTITION_SEED = 7


class PartitionError(ValueError):
    """A partition plan is malformed or its partials do not reduce."""


# ---------------------------------------------------------------------------
# Pseudo-artifact naming
# ---------------------------------------------------------------------------


def partition_artifact(kernel: str, dataset: str, count: int,
                       mode: str = "row") -> str:
    """The pseudo-artifact string addressing one partition plan."""
    return f"{PARTITION_PREFIX}{kernel}:{dataset}:p{count}:{mode}"


@dataclasses.dataclass(frozen=True)
class PartitionPlan:
    """Row-block decomposition of one kernel into ``count`` sub-kernels."""

    kernel: str
    dataset: str
    count: int
    mode: str = "row"

    def __post_init__(self) -> None:
        if self.kernel not in PARTITION_FORMATS:
            raise PartitionError(
                f"kernel {self.kernel!r} is not partitionable; choose from "
                f"{sorted(PARTITION_FORMATS)}"
            )
        if self.mode not in PARTITION_MODES:
            raise PartitionError(
                f"unknown partition mode {self.mode!r}; choose from "
                f"{PARTITION_MODES}"
            )
        if self.count < 1:
            raise PartitionError(
                f"partition count must be >= 1, got {self.count}"
            )
        from repro.data.datasets import DATASETS_BY_NAME

        dspec = DATASETS_BY_NAME.get(self.dataset)
        if dspec is None or dspec.kind != "matrix":
            raise PartitionError(
                f"{self.dataset!r} is not a matrix dataset; partitioning "
                f"needs one"
            )

    #: The rest of the :class:`repro.pipeline.batch.Artefact` interface.
    default_scale = DEFAULT_SCALE
    uses_engine = True
    task_prefix = "part"

    @property
    def artifact(self) -> str:
        return partition_artifact(self.kernel, self.dataset, self.count,
                                  self.mode)

    name = artifact

    def jobs(self, scale: float, use_cache: bool | None = None,
             engine: str | None = None) -> list:
        """One executor job per block (keys feed the dispatcher's cost table),
        all sharing the :class:`StagedOperands` the reduce reads back."""
        operands = StagedOperands(self, scale, use_cache)
        return [
            Job((self.kernel, self.dataset,
                 f"part{index}of{self.count}:{self.mode}"),
                partition_cell, (operands, index), {"engine": engine})
            for index in range(self.count)
        ]

    def assemble(self, results: list) -> dict:
        return reduce_partials(self, results)

    def render(self, data: dict) -> str:
        return format_partition(data)

    def encode(self, value: dict) -> dict:
        """One block's partial as a JSON-safe manifest payload: the array
        crosses the wire as raw little-endian float64 bytes, digest
        alongside."""
        array = np.ascontiguousarray(value["values"], dtype="<f8")
        raw = array.tobytes()
        return dict(value, shape=list(array.shape),
                    values=base64.b64encode(raw).decode("ascii"),
                    sha256=hashlib.sha256(raw).hexdigest())

    def decode(self, payload: dict) -> dict:
        """Invert :meth:`encode`, refusing a partial whose bytes changed."""
        try:
            raw = base64.b64decode(payload["values"], validate=True)
        except ValueError:  # a damaged character is damage like any other
            raw = b""
        if hashlib.sha256(raw).hexdigest() != payload["sha256"]:
            raise PartitionError(
                f"{self.artifact}: partial of block {payload['block']} is "
                f"corrupt (sha256 mismatch over its values)")
        out = {k: v for k, v in payload.items()
               if k not in ("shape", "sha256")}
        out["values"] = np.frombuffer(raw, dtype="<f8").reshape(
            payload["shape"])
        return out


def parse_partition(name: str) -> PartitionPlan:
    """Parse a pseudo-artifact string back into its plan."""
    if not is_partition_artifact(name):
        raise PartitionError(f"not a partition artefact: {name!r}")
    parts = name[len(PARTITION_PREFIX):].split(":")
    if len(parts) != 4 or not parts[2].startswith("p"):
        raise PartitionError(
            f"malformed partition artefact {name!r}; expected "
            f"partition:<kernel>:<dataset>:p<P>:<mode>"
        )
    kernel, dataset, count_spec, mode = parts
    try:
        count = int(count_spec[1:])
    except ValueError:
        raise PartitionError(
            f"malformed partition count {count_spec!r} in {name!r}"
        ) from None
    return PartitionPlan(kernel, dataset, count, mode)


def block_range(extent: int, count: int, index: int) -> tuple[int, int]:
    """Half-open range of block ``index`` in an even split of ``extent``.

    The first ``extent % count`` blocks take one extra element; blocks
    past the extent are empty (``lo == hi``), which slices and reduces
    losslessly.
    """
    if not 0 <= index < count:
        raise PartitionError(f"block {index} outside plan of {count}")
    base, rem = divmod(extent, count)
    lo = index * base + min(index, rem)
    hi = lo + base + (1 if index < rem else 0)
    return lo, hi


# ---------------------------------------------------------------------------
# Operands and the per-block cell
# ---------------------------------------------------------------------------


@dataclasses.dataclass(eq=False)
class StagedOperands:
    """One run's operands, staged on first use, then shared by its blocks,
    reduce and oracle: once per run and process (threads racing to be
    first at worst both stage). ``use_cache`` says whether the
    ``convert`` stage may answer, not how often we ask.
    """

    plan: PartitionPlan
    scale: float
    use_cache: bool | None = None

    @functools.cached_property
    def full(self):
        """The full sparse operand (``TensorStorage``)."""
        from repro.convert import staged_matrix_storage

        return staged_matrix_storage(
            self.plan.dataset, self.scale, PARTITION_SEED,
            PARTITION_FORMATS[self.plan.kernel], self.use_cache)

    @functools.cached_property
    def dense(self) -> np.ndarray:
        """The full dense operand array, regenerated deterministically
        from the seed: broadcast by reference, every worker rebuilds the
        same array the way the dataset stage regenerates matrices."""
        spec = KERNELS[self.plan.kernel]
        (dense,) = spec.of_role("dense")
        rng = np.random.default_rng(PARTITION_SEED)
        return rng.random(spec.shapes(self.full.dims)[dense.name])


def _run_kernel(kernel: str, sparse, dense: np.ndarray,
                engine: str) -> np.ndarray:
    """Compile ``KERNELS[kernel]`` over the given operands and run it.

    ``strict``: a silent fallback would pass for a partition slowdown.
    Uncached: the statement embeds the block's data, and the block
    *result* is what the ``partition`` stage keeps.
    """
    from repro.core.compiler import compile_stmt

    spec = KERNELS[kernel]
    # A block keeps the run's factor rank (the dense operand's trailing
    # extent), not the clamp of its own row count.
    shapes = spec.shapes(sparse.dims, free=dense.shape[-1])
    stmt, _out = spec.build(spec.operands(shapes, [sparse],
                                          lambda _shape: dense))
    return compile_stmt(stmt, kernel, cache=False).run_engine(engine,
                                                              strict=True)


def partition_cell(operands: StagedOperands, index: int,
                   engine: str | None = None) -> dict:
    """Compute one block's partial output on the compiled kernel.

    The result memoizes under the ``partition`` stage (keyed by engine),
    so a re-leased block (worker death, retry) is answered by whichever
    worker computed it first, without staging anything.
    """
    from repro.convert import slice_positions, slice_rows

    plan, scale = operands.plan, operands.scale
    engine = default_engine() if engine is None else engine
    where = dict(kernel=plan.kernel, dataset=plan.dataset, mode=plan.mode,
                 block=index, count=plan.count)

    def compute() -> dict:
        full = operands.full
        row = plan.mode == "row"
        lo, hi = block_range(full.dims[0 if row else 1], plan.count, index)
        with obs.span("partition:slice", **where) as sp:
            sliced = (slice_positions(full, lo, hi) if row
                      else slice_rows(full, lo, hi, axis=1))
            dense = operands.dense if row else operands.dense[lo:hi]
            sp.set(lo=lo, hi=hi, nnz=int(sliced.nnz))
        with obs.span("partition:compute", nnz=int(sliced.nnz),
                      engine=engine, **where):
            partial = _run_kernel(plan.kernel, sliced, dense, engine)
        obs.counter("repro_partition_blocks_total",
                    "Partition blocks sliced and computed").inc()
        return dict(where, lo=lo, hi=hi, scale=scale, seed=PARTITION_SEED,
                    nnz=int(sliced.nnz), values=partial)

    return memoize_stage(
        "partition", ("cell", plan.artifact, scale, PARTITION_SEED, index,
                      engine), compute, operands.use_cache)


# ---------------------------------------------------------------------------
# Reducing merge + oracle validation
# ---------------------------------------------------------------------------


def _validate_against_oracle(operands: StagedOperands,
                             out: np.ndarray) -> float:
    """Check ``out`` against an *independent* unpartitioned accumulation:
    ``np.add.at`` scatters every nonzero's contribution in storage order
    over the operands the blocks were cut from, a different association
    of the same sums than any engine's, so agreement is a real check.
    """
    from repro.tensor.storage import unpack

    coords, vals = unpack(operands.full)
    dense = operands.dense
    oracle = np.zeros(out.shape, dtype=np.float64)
    contrib = (vals[:, None] * dense[coords[:, 1]]
               if dense.ndim == 2 else vals * dense[coords[:, 1]])
    np.add.at(oracle, coords[:, 0], contrib)
    return oracle_maxerr(
        out, oracle, PartitionError,
        f"{operands.plan.artifact}: merged output disagrees with the "
        f"unpartitioned oracle")


def reduce_partials(plan: PartitionPlan | str, results: list) -> dict:
    """Fold per-block job results into the merged output (reducing merge).

    Row blocks concatenate in block order; contraction-split partials
    sum; the merged array is validated against the unpartitioned oracle.
    The operands come off the jobs (:meth:`PartitionPlan.jobs` shares
    them), so the reduce reads what the blocks read, same ``use_cache``.
    ``plan`` may be given by its artefact name.
    """
    if isinstance(plan, str):
        plan = parse_partition(plan)
    artifact = plan.artifact
    operands = results[0].job.args[0] if results else None
    if not isinstance(operands, StagedOperands) or operands.plan != plan:
        raise PartitionError(
            f"{artifact}: results do not come from this plan's jobs")
    partials = sorted((res.unwrap() for res in results),
                      key=lambda p: p["block"])
    if [p["block"] for p in partials] != list(range(plan.count)):
        raise PartitionError(
            f"{artifact}: expected blocks 0..{plan.count - 1}, got "
            f"{[p['block'] for p in partials]}"
        )
    with obs.span("partition:reduce", artifact=artifact, mode=plan.mode,
                  blocks=plan.count) as sp:
        arrays = [np.asarray(p["values"], dtype=np.float64) for p in partials]
        if plan.mode == "row":
            edges = [(p["lo"], p["hi"]) for p in partials]
            for (lo, hi), (nlo, _) in zip(edges, edges[1:]):
                if hi != nlo:
                    raise PartitionError(
                        f"{artifact}: row blocks are not contiguous at "
                        f"[{lo}, {hi}) -> [{nlo}, ...)"
                    )
            out = np.concatenate(arrays, axis=0)
        else:
            out = functools.reduce(np.add, arrays)
        nnz_total = sum(p["nnz"] for p in partials)
        if nnz_total != int(operands.full.nnz):
            raise PartitionError(
                f"{artifact}: blocks cover {nnz_total} nonzeros but the "
                f"full operand holds {int(operands.full.nnz)} (lost or "
                f"duplicated work)"
            )
        maxerr = _validate_against_oracle(operands, out)
        sp.set(nnz=nnz_total, maxerr=maxerr)
    obs.counter("repro_partition_reduces_total",
                "Partition reducing merges performed").inc()
    return _report_data(plan, operands.scale, out, nnz_total, maxerr)


def _report_data(plan: PartitionPlan, scale: float, out: np.ndarray,
                 nnz_total: int, maxerr: float) -> dict:
    """The artefact data dict (shared by merged and serial paths).

    Deliberately excludes the block count: a row-mode report depends
    only on the merged array, so serial and any ``P`` byte-diff equal.
    """
    flat = out.reshape(-1)
    samples = {}
    if flat.size:
        for label, idx in (("first", 0), ("mid", flat.size // 2),
                           ("last", flat.size - 1)):
            samples[label] = repr(float(flat[idx]))
    return {
        "kernel": plan.kernel,
        "dataset": plan.dataset,
        "mode": plan.mode,
        "scale": repr(float(scale)),
        "shape": list(out.shape),
        "nnz": nnz_total,
        "sha256": hashlib.sha256(out.tobytes()).hexdigest(),
        "sum": repr(float(flat.sum())),
        "samples": samples,
        "oracle_maxerr": repr(maxerr),
    }


def format_partition(data: dict) -> str:
    """Render the partition report (the dispatch/serial comparison surface)."""
    lines = [
        f"# distributed kernel: {data['kernel']} on {data['dataset']} "
        f"(scale {data['scale']}, mode {data['mode']})",
        f"output shape = {tuple(data['shape'])}",
        f"operand nnz  = {data['nnz']}",
        f"sha256       = {data['sha256']}",
        f"sum          = {data['sum']}",
    ]
    for label, value in data["samples"].items():
        lines.append(f"sample {label:<5} = {value}")
    lines.append(f"oracle maxerr = {data['oracle_maxerr']}")
    return "\n".join(lines)


def serial_report(kernel: str, dataset: str, scale: float,
                  mode: str = "row", use_cache: bool | None = None,
                  engine: str | None = None) -> str:
    """The unpartitioned run's report text (the byte-identity reference).

    The P=1 case of the partitioned path, in-process, so ``diff`` against
    any row-partitioned dispatch on the same engine is empty.
    """
    plan = PartitionPlan(kernel, dataset, 1, mode)
    return plan.render(plan.assemble(
        run_jobs(plan.jobs(scale, use_cache, engine))))
