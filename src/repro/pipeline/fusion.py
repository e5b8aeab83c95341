"""Fused multi-kernel expression pipelines (FuseFlow-style).

A :class:`PipelineRequest` is an ordered list of einsum stages sharing
named intermediates — SDDMM→SpMM sparse attention, repeated SpMV in
PageRank/CG. The planner fuses each producer→consumer connection when the
producer's output levels can stream directly into the consumer's
co-iterators without materializing the intermediate in DRAM, and inserts
a materializing **cut** when formats or reuse patterns force one:

* multi-consumer intermediates (a stream can be consumed once);
* format mismatch between the produced levels and the consumer iterator
  (via :func:`repro.core.coiteration.stream_compatible`);
* unordered or non-unique producer levels;
* a producer that stores its result whole at its end (its memory plan
  stages the result values in full: coordinates repeat, or its loops
  revisit them);
* gathered reuse — the consumer re-reads the intermediate out of
  production order (its loops do not visit the intermediate in storage
  order, once: :meth:`KernelAnalysis.in_order`), so a stream would need
  unbounded buffering.

Fusion is a traffic model. Execution is stage-by-stage with the selected
engine, every stage validated cell-by-cell against the interpreter
oracle, and fused and unfused runs compile and run the same programs:
the cut decisions reach only :func:`repro.capstan.stats.compute_stats`,
whose ``stream_inputs`` / ``stream_output`` marks drop a streamed
connection's DRAM bytes. Those bytes — intermediate traffic elided and
the end-to-end reduction — are the headline numbers; the CI
fusion-transparency gate byte-diffs the values across ``--no-fuse``.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Mapping

import numpy as np

from repro.capstan.stats import compute_stats
from repro.core.compiler import compile_stmt, default_engine
from repro.core.coiteration import stream_compatible
from repro.core.memory_analysis import KernelAnalysis, analyze, plan_memory
from repro.formats import (
    CSR,
    DENSE_MATRIX,
    DENSE_MATRIX_CM,
    DENSE_VECTOR,
    Format,
    offChip,
    onChip,
)
from repro.ir import index_vars
from repro.schedule.stmt import INNER_PAR, OUTER_PAR, REDUCTION, SPATIAL, IndexStmt
from repro.tensor import Tensor, scalar
from repro.tensor.storage import oracle_maxerr

__all__ = [
    "ATTENTION_RANK",
    "CutDecision",
    "FusionError",
    "PIPELINES",
    "PIPELINE_ORDER",
    "PipelineRequest",
    "PipelineStage",
    "run_pipeline",
]

#: Attention head rank for the SDDMM→SpMM pipeline. A low-rank head keeps
#: the dense Q/K/V slice traffic from swamping the sparse intermediate —
#: the regime cross-expression fusion targets (the modeled reduction
#: asymptote is ``16 / (16 + 8*rank)`` of total traffic).
ATTENTION_RANK = 2


class FusionError(RuntimeError):
    """A pipeline failed to plan, execute, or validate."""


@dataclasses.dataclass(frozen=True)
class PipelineStage:
    """One einsum statement in a pipeline.

    ``build(env)`` receives the bound operand tensors by name (leaf inputs
    plus intermediates produced by earlier stages) and returns the
    scheduled :class:`IndexStmt` and its output tensor. It is called once
    per run, before any stage executes: an intermediate is still empty
    then, and is filled in place before this stage compiles.
    ``input_formats`` optionally pins an operand to a format different
    from what the producer stores — a declared mismatch the planner must
    cut.
    """

    name: str
    output: str
    inputs: tuple[str, ...]
    build: Callable[[dict[str, Tensor]], tuple[IndexStmt, Tensor]]
    input_formats: Mapping[str, Format] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class PipelineRequest:
    """An ordered list of einsum stages sharing named intermediates.

    ``setup(dims, coords, vals, rng)`` materialises the leaf input tensors
    from one matrix dataset; each stage's output becomes available to
    later stages under its ``output`` name.
    """

    name: str
    description: str
    stages: tuple[PipelineStage, ...]
    datasets: tuple[str, ...]
    setup: Callable[..., dict[str, Tensor]]


@dataclasses.dataclass(frozen=True)
class CutDecision:
    """The planner's verdict for one producer→consumer connection."""

    intermediate: str
    producer: str
    consumer: str
    streamed: bool
    reason: str  # "streamed" when fused, else the cut reason

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# Cut planning
# ---------------------------------------------------------------------------


def _ordered_consumption(analysis: KernelAnalysis, name: str) -> bool:
    """True when the consumer reads ``name`` exactly in production order:
    its loops visit every level of the access in storage order, once, so
    one streamed pass suffices."""
    access = next((acc for asg in analysis.assignments
                   for acc in asg.rhs.accesses() if acc.tensor.name == name),
                  None)
    if access is None:
        return False
    fmt = access.tensor.format
    level_vars = [access.indices[fmt.mode_of_level(L)] for L in range(fmt.order)]
    return analysis.in_order(level_vars, fmt.order - 1)


def _plan(
    spec: PipelineRequest,
    outs: dict[str, Tensor],
    analyses: dict[str, KernelAnalysis],
    fuse: bool,
) -> list[CutDecision]:
    """Decide stream-vs-cut for every intermediate connection."""
    decisions: list[CutDecision] = []
    for idx, stage in enumerate(spec.stages):
        consumers = [
            s for s in spec.stages[idx + 1:] if stage.output in s.inputs
        ]
        if not consumers:
            continue  # final (or unused) output: always materialized
        producer_fmt = outs[stage.output].format
        consumer_names = "+".join(s.name for s in consumers)
        if not fuse:
            reason = "fusion disabled (--no-fuse)"
        elif len(consumers) > 1:
            reason = (
                f"multi-consumer intermediate ({len(consumers)} consumers: "
                f"{consumer_names}); a stream can be consumed once"
            )
        else:
            consumer = consumers[0]
            required = consumer.input_formats.get(stage.output, producer_fmt)
            reason = stream_compatible(producer_fmt, required)
            if reason is None:
                vals = plan_memory(analyses[stage.name]).get(stage.output, "vals")
                if vals is not None and vals.staged_full:
                    reason = f"producer stores {stage.output} at its end: {vals.reason}"
            if reason is None and not _ordered_consumption(
                analyses[consumer.name], stage.output
            ):
                reason = (
                    f"reuse: consumer {consumer.name} gathers {stage.output} "
                    "out of production order (its loops do not visit it in "
                    "storage order, once)"
                )
        decisions.append(CutDecision(
            intermediate=stage.output,
            producer=stage.name,
            consumer=consumer_names,
            streamed=reason is None,
            reason="streamed" if reason is None else reason,
        ))
    return decisions


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _checksum(array: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(array.shape).encode())
    h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def run_pipeline(
    pipeline: str | PipelineRequest,
    dataset: str,
    scale: float = 0.25,
    seed: int = 7,
    *,
    fuse: bool = True,
    engine: str | None = None,
    use_cache: bool | None = None,
) -> dict:
    """Compile and execute one pipeline on one dataset.

    Returns a plain-dict report: the cut decisions, per-stage modeled
    traffic (fused and unfused), the end-to-end reduction, and a checksum
    per stage output. Fused and unfused runs share the numeric path, so
    the output checksums are byte-identical across ``fuse`` settings —
    the property the CI fusion-transparency gate enforces.
    """
    from repro.data.datasets import load_matrix_coo

    spec = PIPELINES[pipeline] if isinstance(pipeline, str) else pipeline
    if dataset not in spec.datasets:
        raise FusionError(
            f"pipeline {spec.name!r} is not evaluated on {dataset!r}; "
            f"choose from {spec.datasets}"
        )
    eng = default_engine() if engine is None else engine

    dims, coords, vals = load_matrix_coo(dataset, scale, seed)
    rng = np.random.default_rng([seed, 1])
    env: dict[str, Tensor] = dict(spec.setup(dims, coords, vals, rng))

    # Build every stage once. A stage output stays empty until its stage
    # runs; a declared ``input_formats`` copy of a leaf is filled now from
    # the leaf's data, a copy of an intermediate when its producer runs.
    stmts: dict[str, IndexStmt] = {}
    analyses: dict[str, KernelAnalysis] = {}
    outs: dict[str, Tensor] = {}
    copies: dict[str, list[Tensor]] = {}
    for stage in spec.stages:
        view = dict(env)
        for name, fmt in stage.input_formats.items():
            if env[name].format == fmt:
                continue
            view[name] = Tensor(name, env[name].shape, fmt)
            if name in outs:
                copies.setdefault(name, []).append(view[name])
            else:
                view[name].from_dense(env[name].to_dense())
        stmts[stage.name], outs[stage.output] = stage.build(view)
        analyses[stage.name] = analyze(stmts[stage.name])
        env[stage.output] = outs[stage.output]
    decisions = _plan(spec, outs, analyses, fuse)
    streamed = {d.intermediate for d in decisions if d.streamed}

    # Execute stage by stage with the chosen engine, validating each stage
    # cell-by-cell against the interpreter oracle. Fusion only changes
    # which bytes the traffic model charges to DRAM.
    stage_rows: list[dict] = []
    outputs: dict[str, dict] = {}
    unfused_total = 0
    fused_total = 0
    for stage in spec.stages:
        streams = {n for n in (*stage.inputs, stage.output) if n in streamed}
        kernel = compile_stmt(stmts[stage.name],
                              name=f"{spec.name}-{stage.name}",
                              cache=use_cache)
        expected = kernel.run()
        if eng == "interp":
            got = expected
        else:
            got = kernel.run_engine(eng)
            oracle_maxerr(got, expected, FusionError,
                          f"stage {stage.name} of {spec.name}: engine {eng} "
                          f"diverged from the oracle")
        dense = np.asarray(got)
        stage_unfused = stage_fused = compute_stats(kernel).dram_total_bytes
        if streams:
            stage_fused = compute_stats(
                kernel, stream_inputs=frozenset(streams - {stage.output}),
                stream_output=stage.output in streams).dram_total_bytes
        unfused_total += stage_unfused
        fused_total += stage_fused

        # The engine's storage is already in the output's format; only a
        # copy pinned to another format is packed from the dense array.
        for t in (outs[stage.output], *copies.get(stage.output, ())):
            if t.format == got.fmt:
                t.install(got)
            else:
                t.from_dense(dense)
        outputs[stage.output] = {
            "shape": [int(s) for s in dense.shape],
            "checksum": _checksum(dense),
        }
        stage_rows.append({
            "stage": stage.name,
            "output": stage.output,
            "spatial_loc": kernel.spatial_loc,
            "unfused_bytes": int(stage_unfused),
            "fused_bytes": int(stage_fused),
            "streams": sorted(streams),
        })

    final = spec.stages[-1].output
    reduction = (100.0 * (1.0 - fused_total / unfused_total)
                 if unfused_total else 0.0)
    return {
        "pipeline": spec.name,
        "dataset": dataset,
        "scale": scale,
        "seed": seed,
        "fused": bool(fuse),
        "engine": eng,
        "decisions": [d.to_dict() for d in decisions],
        "stages": stage_rows,
        "unfused_bytes": int(unfused_total),
        "fused_bytes": int(fused_total),
        "elided_bytes": int(unfused_total - fused_total),
        "reduction_pct": round(reduction, 2),
        "output": final,
        "checksum": outputs[final]["checksum"],
        "outputs": outputs,
    }


# ---------------------------------------------------------------------------
# The shipped pipeline registry (the pipeline_sweep artefact family)
# ---------------------------------------------------------------------------


def _env_pars(stmt: IndexStmt, ip: int, op: int) -> IndexStmt:
    return stmt.environment(INNER_PAR, ip).environment(OUTER_PAR, op)


def _attention_setup(dims, coords, vals, rng) -> dict[str, Tensor]:
    rows, cols = dims
    r = ATTENTION_RANK
    M = Tensor("M", dims, CSR(offChip)).from_coo(coords, vals)
    Q = Tensor("Q", (rows, r), DENSE_MATRIX(offChip)).from_dense(
        rng.random((rows, r)))
    Kt = Tensor("Kt", (r, cols), DENSE_MATRIX_CM(offChip)).from_dense(
        rng.random((r, cols)))
    V = Tensor("V", (cols, r), DENSE_MATRIX(offChip)).from_dense(
        rng.random((cols, r)))
    return {"M": M, "Q": Q, "Kt": Kt, "V": V}


def _attention_scores(env):
    """Masked scores: SDDMM over the sparse attention mask."""
    M, Q, Kt = env["M"], env["Q"], env["Kt"]
    S = Tensor("S", M.shape, CSR(offChip))
    i, j, k = index_vars("i j k")
    S[i, j] = M[i, j] * Q[i, k] * Kt[k, j]
    ws = scalar("ws", onChip)
    stmt = _env_pars(S.get_index_stmt(), 16, 4)
    stmt = stmt.precompute(M[i, j] * Q[i, k] * Kt[k, j], [], [], ws)
    stmt = stmt.accelerate(k, SPATIAL, REDUCTION, par=INNER_PAR)
    return stmt, S


def _attention_mix(env):
    """Value mix: SpMM of the sparse scores with the dense values."""
    S, V = env["S"], env["V"]
    O = Tensor("O", (S.shape[0], V.shape[1]), DENSE_MATRIX(offChip))
    i, j, c = index_vars("i j c")
    O[i, c] = S[i, j] * V[j, c]
    stmt = _env_pars(O.get_index_stmt(), 16, 4)
    stmt = stmt.reorder(i, j, c)
    return stmt, O


def _spmv_setup(dims, coords, vals, rng) -> dict[str, Tensor]:
    rows, cols = dims
    A = Tensor("A", dims, CSR(offChip)).from_coo(coords, vals)
    x = Tensor("x", (cols,), DENSE_VECTOR(offChip)).from_dense(
        rng.random(cols))
    return {"A": A, "x": x}


def _spmv_stage(matrix: str, vector: str, output: str):
    def build(env):
        A, x = env[matrix], env[vector]
        y = Tensor(output, (A.shape[0],), DENSE_VECTOR(offChip))
        i, j = index_vars("i j")
        y[i] = A[i, j] * x[j]
        ws = scalar("ws", onChip)
        stmt = _env_pars(y.get_index_stmt(), 16, 4)
        stmt = stmt.precompute(A[i, j] * x[j], [], [], ws)
        stmt = stmt.accelerate(j, SPATIAL, REDUCTION, par=INNER_PAR)
        return stmt, y

    return build


def _cg_setup(dims, coords, vals, rng) -> dict[str, Tensor]:
    tensors = _spmv_setup(dims, coords, vals, rng)
    p = tensors.pop("x")
    p.name = "p"
    r = Tensor("r", (dims[0],), DENSE_VECTOR(offChip)).from_dense(
        rng.random(dims[0]))
    alpha = scalar("alpha", offChip)
    alpha.insert((), 0.5)
    return {"A": tensors["A"], "p": p, "r": r, "alpha": alpha}


def _cg_update(env):
    """The CG/PageRank vector update: z = alpha*q + r (q streamed in)."""
    q, r, alpha = env["q"], env["r"], env["alpha"]
    z = Tensor("z", q.shape, DENSE_VECTOR(offChip))
    i, = index_vars("i")
    z[i] = alpha[()] * q[i] + r[i]
    stmt = _env_pars(z.get_index_stmt(), 16, 4)
    return stmt, z


#: Matrix datasets every shipped pipeline is evaluated on.
_PIPELINE_DATASETS = ("random-10pct", "random-50pct", "Trefethen_20000")


def _registry() -> dict[str, PipelineRequest]:
    attention = PipelineRequest(
        name="attention",
        description="Sparse attention: SDDMM scores stream into the SpMM "
                    "value mix (the FuseFlow headline chain)",
        stages=(
            PipelineStage("scores", "S", ("M", "Q", "Kt"), _attention_scores),
            PipelineStage("mix", "O", ("S", "V"), _attention_mix),
        ),
        datasets=_PIPELINE_DATASETS,
        setup=_attention_setup,
    )
    twohop = PipelineRequest(
        name="twohop",
        description="2-hop graph propagation: y = A*x then z = A*y; the "
                    "consumer gathers y by column, forcing a cut",
        stages=(
            PipelineStage("hop1", "y", ("A", "x"), _spmv_stage("A", "x", "y")),
            PipelineStage("hop2", "z", ("A", "y"), _spmv_stage("A", "y", "z")),
        ),
        datasets=_PIPELINE_DATASETS,
        setup=_spmv_setup,
    )
    cgstep = PipelineRequest(
        name="cgstep",
        description="One CG/PageRank step: q = A*p streams into the "
                    "z = alpha*q + r vector update",
        stages=(
            PipelineStage("spmv", "q", ("A", "p"), _spmv_stage("A", "p", "q")),
            PipelineStage("update", "z", ("q", "r", "alpha"), _cg_update),
        ),
        datasets=_PIPELINE_DATASETS,
        setup=_cg_setup,
    )
    return {spec.name: spec for spec in (attention, twohop, cgstep)}


PIPELINES: dict[str, PipelineRequest] = _registry()
PIPELINE_ORDER: tuple[str, ...] = tuple(PIPELINES)
