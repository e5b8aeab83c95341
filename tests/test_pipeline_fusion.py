"""Fused expression pipelines: cut heuristics, transparency, traffic."""

import dataclasses

import numpy as np
import pytest

from repro.capstan.stats import compute_stats
from repro.core.compiler import compile_stmt
from repro.core.coiteration import stream_compatible
from repro.formats import (
    CSC,
    CSR,
    DENSE_VECTOR,
    SPARSE_VECTOR,
    Format,
    compressed,
    dense,
    offChip,
)
from repro.ir import index_vars
from repro.pipeline.fusion import (
    PIPELINE_ORDER,
    PIPELINES,
    FusionError,
    PipelineRequest,
    PipelineStage,
    run_pipeline,
)
from repro.schedule.stmt import INNER_PAR, OUTER_PAR
from repro.tensor import Tensor

TINY = 0.05
DATASET = "random-10pct"


def _run(spec_or_name, **kw):
    kw.setdefault("scale", TINY)
    kw.setdefault("use_cache", False)
    return run_pipeline(spec_or_name, DATASET, **kw)


def _decisions(row):
    return {d["intermediate"]: d for d in row["decisions"]}


# ---------------------------------------------------------------------------
# The shipped registry
# ---------------------------------------------------------------------------


def test_attention_streams_the_scores():
    row = _run("attention")
    d = _decisions(row)["S"]
    assert d["streamed"] and d["reason"] == "streamed"
    assert row["elided_bytes"] > 0
    assert row["reduction_pct"] > 0


def test_twohop_cuts_on_gathered_reuse():
    row = _run("twohop")
    d = _decisions(row)["y"]
    assert not d["streamed"]
    assert "reuse" in d["reason"]
    assert row["elided_bytes"] == 0


def test_cgstep_streams_the_spmv_result():
    row = _run("cgstep")
    d = _decisions(row)["q"]
    assert d["streamed"]
    assert row["reduction_pct"] > 0


def test_best_pipeline_saves_a_third_of_modeled_traffic():
    """The FuseFlow headline on the densest matrix, exact: the traffic
    model is deterministic (modeled bytes, fixed seed)."""
    best = max(run_pipeline(name, "random-50pct", TINY,
                            use_cache=False)["reduction_pct"]
               for name in PIPELINE_ORDER)
    assert best >= 30.0


@pytest.mark.parametrize("name", PIPELINE_ORDER)
def test_fusion_is_numerically_transparent(name):
    """Fused and --no-fuse runs must agree bit-for-bit (the CI gate)."""
    fused = _run(name, fuse=True)
    unfused = _run(name, fuse=False)
    assert fused["outputs"] == unfused["outputs"]
    assert unfused["reduction_pct"] == 0.0
    assert all(d["reason"] == "fusion disabled (--no-fuse)"
               for d in unfused["decisions"])


def test_vectorized_engine_validates_against_oracle():
    """Every stage of a numpy-engine run passes the 1e-8 oracle check
    (bitwise equality across engines is NOT guaranteed — summation order
    differs — which is why artefact rows are computed on the oracle)."""
    row = _run("attention", engine="numpy")
    assert row["engine"] == "numpy"
    assert row["outputs"].keys() == _run("attention",
                                         engine="interp")["outputs"].keys()


def test_unknown_dataset_is_rejected():
    with pytest.raises(FusionError, match="not evaluated"):
        run_pipeline("attention", "no-such-matrix", use_cache=False)


# ---------------------------------------------------------------------------
# Cut heuristics that must refuse to fuse
# ---------------------------------------------------------------------------


def _ewise_stage(name, out_name, a, b):
    """out[i] = a[i] + b[i]: consumes its inputs in production order."""

    def build(env):
        ta, tb = env[a], env[b]
        t = Tensor(out_name, ta.shape, DENSE_VECTOR(offChip))
        i, = index_vars("i")
        t[i] = ta[i] + tb[i]
        stmt = (t.get_index_stmt().environment(INNER_PAR, 16)
                .environment(OUTER_PAR, 4))
        return stmt, t

    return build


def _vec_setup(dims, coords, vals, rng):
    n = dims[0]
    a = Tensor("a", (n,), DENSE_VECTOR(offChip)).from_dense(rng.random(n))
    b = Tensor("b", (n,), DENSE_VECTOR(offChip)).from_dense(rng.random(n))
    mask = rng.random(n) < 0.5
    s = Tensor("s", (n,), SPARSE_VECTOR(offChip)).from_dense(
        rng.random(n) * mask)
    return {"a": a, "b": b, "s": s}


def _chain(stages):
    return PipelineRequest(
        name="custom",
        description="test pipeline",
        stages=tuple(stages),
        datasets=(DATASET,),
        setup=_vec_setup,
    )


def test_multi_consumer_intermediate_is_cut():
    spec = _chain([
        PipelineStage("make", "m", ("a", "b"), _ewise_stage("make", "m", "a", "b")),
        PipelineStage("use1", "u", ("m", "a"), _ewise_stage("use1", "u", "m", "a")),
        PipelineStage("use2", "v", ("m", "u"), _ewise_stage("use2", "v", "m", "u")),
    ])
    fused = _run(spec, fuse=True)
    d = _decisions(fused)["m"]
    assert not d["streamed"]
    assert "multi-consumer" in d["reason"]
    assert d["consumer"] == "use1+use2"
    # u has one consumer and ordered consumption: it still streams.
    assert _decisions(fused)["u"]["streamed"]
    assert fused["outputs"] == _run(spec, fuse=False)["outputs"]


def test_format_mismatch_is_cut():
    def consume(env):
        m, b = env["m"], env["b"]
        t = Tensor("u", b.shape, SPARSE_VECTOR(offChip))
        i, = index_vars("i")
        t[i] = m[i] * b[i]
        stmt = (t.get_index_stmt().environment(INNER_PAR, 16)
                .environment(OUTER_PAR, 4))
        return stmt, t

    spec = _chain([
        PipelineStage("make", "m", ("a", "b"), _ewise_stage("make", "m", "a", "b")),
        PipelineStage("use", "u", ("m", "b"), consume,
                      input_formats={"m": SPARSE_VECTOR(offChip)}),
    ])
    fused = _run(spec, fuse=True)
    d = _decisions(fused)["m"]
    assert not d["streamed"]
    assert "format mismatch" in d["reason"]
    assert fused["outputs"] == _run(spec, fuse=False)["outputs"]


def test_unordered_producer_is_cut():
    assert stream_compatible(CSR(offChip), CSC(offChip)) is not None
    unordered_csr = Format(
        [dense, dataclasses.replace(compressed, ordered=False)], offChip)
    reason = stream_compatible(unordered_csr, unordered_csr)
    assert reason is not None and "unordered producer" in reason
    ordered = CSR(offChip)
    assert stream_compatible(ordered, ordered) is None


def test_unordered_vector_producer_forces_pipeline_cut():
    unordered_vec = Format(
        [dataclasses.replace(compressed, ordered=False)], offChip)

    def make_sparse(env):
        s, a = env["s"], env["a"]
        t = Tensor("m", s.shape, unordered_vec)
        i, = index_vars("i")
        t[i] = s[i] * a[i]
        stmt = (t.get_index_stmt().environment(INNER_PAR, 16)
                .environment(OUTER_PAR, 4))
        return stmt, t

    def consume(env):
        m, b = env["m"], env["b"]
        t = Tensor("u", b.shape, SPARSE_VECTOR(offChip))
        i, = index_vars("i")
        t[i] = m[i] * b[i]
        stmt = (t.get_index_stmt().environment(INNER_PAR, 16)
                .environment(OUTER_PAR, 4))
        return stmt, t

    spec = _chain([
        PipelineStage("make", "m", ("s", "a"), make_sparse),
        PipelineStage("use", "u", ("m", "b"), consume,
                      input_formats={"m": unordered_vec}),
    ])
    fused = _run(spec, fuse=True)
    d = _decisions(fused)["m"]
    assert not d["streamed"]
    assert "unordered producer" in d["reason"]
    assert fused["outputs"] == _run(spec, fuse=False)["outputs"]


# ---------------------------------------------------------------------------
# Traffic accounting for streamed connections
# ---------------------------------------------------------------------------


def test_stream_marks_elide_traffic():
    A = Tensor("A", (8, 8), CSR(offChip))
    A.from_dense(np.eye(8))
    x = Tensor("x", (8,), DENSE_VECTOR(offChip)).from_dense(np.ones(8))
    y = Tensor("y", (8,), DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * x[j]
    kernel = compile_stmt(y.get_index_stmt(), name="stream-probe",
                          cache=False)
    base = compute_stats(kernel)
    elided_in = compute_stats(kernel, stream_inputs=frozenset({"x"}))
    elided_out = compute_stats(kernel, stream_output=True)
    assert elided_in.dram_total_bytes < base.dram_total_bytes
    assert elided_out.dram_write_bytes == 0
    assert elided_out.dram_read_bytes == base.dram_read_bytes


def test_streamed_compile_notes_and_source():
    A = Tensor("A", (8, 8), CSR(offChip))
    A.from_dense(np.eye(8))
    x = Tensor("x", (8,), DENSE_VECTOR(offChip)).from_dense(np.ones(8))
    y = Tensor("y", (8,), DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * x[j]
    stmt = y.get_index_stmt()
    plain = compile_stmt(stmt, name="probe", cache=False)
    fused = compile_stmt(stmt, name="probe", cache=False,
                         streamed=frozenset({"x"}))
    assert "stream: x" in fused.source
    assert "stream:" not in plain.source
    # The stream marks change the model, never the executable program.
    np.testing.assert_allclose(fused.run_dense(), plain.run_dense())


# ---------------------------------------------------------------------------
# The typed API surface
# ---------------------------------------------------------------------------


def test_pipeline_request_round_trip():
    from repro.api import CompileRequest

    req = CompileRequest(action="pipeline", kernel="attention",
                         scale=TINY, fuse=False).resolved()
    assert req.dataset == PIPELINES["attention"].datasets[0]
    assert req.stage == "pipeline"
    as_json = req.canonical_json()
    assert '"fuse":false' in as_json
    import json

    back = CompileRequest.from_dict(json.loads(as_json))
    assert back.canonical_json() == as_json


def test_non_pipeline_canonical_has_no_fuse_key():
    """Cache-key stability: existing compile/evaluate keys must not move."""
    from repro.api import CompileRequest

    for action in ("compile", "evaluate"):
        req = CompileRequest(action=action, kernel="SpMV").resolved()
        assert "fuse" not in req.canonical_json()


def test_pipeline_api_verb(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.api import CompileRequest, execute

    req = CompileRequest(action="pipeline", kernel="cgstep", scale=TINY)
    result = execute(req)
    assert result.pipeline["pipeline"] == "cgstep"
    assert result.pipeline["decisions"]
    again = execute(req)
    assert again.to_json() == result.to_json()
