"""Tests for the vectorized NumPy execution backend.

Three-way differential testing again, now with the numpy engine in the
loop: for every evaluation kernel and every format in the registry, the
vectorized executor must agree with the dense reference, the Spatial
interpreter (the oracle — it handles every format), and — where the
merge-lattice walker supports the format — the ``CpuExecutor``.
Singleton-bearing formats (COO family) are skipped for the cpu
comparison only: ``CpuExecutor``'s single-parent-position walker cannot
enumerate singleton levels, which is exactly why the interpreter stays
the universal oracle.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backends.numpy_exec as numpy_exec
import repro.tensor.storage as storage_mod
from repro import obs
from repro.backends.cpu_exec import execute_cpu
from repro.backends.numpy_exec import (
    NumpyExecutor,
    VectorizeFallback,
    enumerate_entries,
    execute_numpy,
)
from repro.core import compile_stmt
from repro.core.compiler import ENGINES, default_engine
from repro.formats import (
    BCSR,
    COO,
    CSC,
    CSR,
    DCSR,
    DENSE_MATRIX,
    DENSE_VECTOR,
    SPARSE_VECTOR,
    format_of,
    offChip,
    registered_formats,
)
from repro.ir import index_vars
from repro.obs.metrics import MetricsRegistry
from repro.tensor import Tensor, evaluate_dense, to_dense
from repro.tensor.storage import DenseLevel, dense_view
from tests.conftest import assert_scannable, random_sparse
from tests.helpers_kernels import (
    NUMPY_GOLDEN_CASES,
    SMALL_DIMS,
    _golden_kernel,
    build_small_kernel_stmt,
    numpy_digest,
    numpy_golden_key,
)

ALL_KERNELS = tuple(SMALL_DIMS)

NUMPY_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "execution.json")
    .read_text())["numpy"]

#: Small per-order operand shapes for the format-registry sweep. Block
#: formats (BCSR) need the two inner dims to equal the static 4x4 tile.
DIMS_BY_ORDER = {1: (9,), 2: (7, 9), 3: (4, 5, 6), 4: (3, 5, 4, 4)}


def _cpu_walkable(fmt) -> bool:
    """Can ``CpuExecutor``'s merge-lattice walker enumerate this format?

    Two documented structural gaps: singleton levels (the COO family) have
    no per-coordinate segment the walker can seek, and compressed
    column-major layouts (CSC) need the inner mode's coordinate bound
    before the outer one, which a row-major forall nest never does. Both
    are exactly why the Spatial interpreter remains the universal oracle.
    """
    if any(mf.kind.value == "singleton" for mf in fmt.mode_formats):
        return False
    if fmt.is_all_dense:
        return True
    return tuple(fmt.mode_ordering) == tuple(range(fmt.order))


def _registry_stmt(format_name: str, rng):
    """A contraction exercising one registered format as the sparse operand."""
    fmt = format_of(format_name)
    dims = DIMS_BY_ORDER[fmt.order]
    A = Tensor("A", dims, fmt).from_dense(random_sparse(rng, dims))
    if fmt.order == 1:
        (i,) = index_vars("i")
        x = Tensor("x", dims, DENSE_VECTOR(offChip)).from_dense(
            rng.random(dims))
        y = Tensor("y", dims, DENSE_VECTOR(offChip))
        y[i] = A[i] * x[i]
    elif fmt.order == 2:
        i, j = index_vars("i j")
        x = Tensor("x", (dims[1],), DENSE_VECTOR(offChip)).from_dense(
            rng.random(dims[1]))
        y = Tensor("y", (dims[0],), DENSE_VECTOR(offChip))
        y[i] = A[i, j] * x[j]
    elif fmt.order == 3:
        i, j, k = index_vars("i j k")
        c = Tensor("c", (dims[2],), DENSE_VECTOR(offChip)).from_dense(
            rng.random(dims[2]))
        y = Tensor("y", dims[:2], DENSE_MATRIX(offChip))
        y[i, j] = A[i, j, k] * c[k]
    else:  # order 4: the BCSR-SpMV shape
        I, J, bi, bj = index_vars("I J bi bj")
        x = Tensor("x", (dims[1], dims[3]), DENSE_MATRIX(offChip)).from_dense(
            rng.random((dims[1], dims[3])))
        y = Tensor("y", (dims[0], dims[2]), DENSE_MATRIX(offChip))
        y[I, bi] = A[I, J, bi, bj] * x[J, bj]
    return y


# ---------------------------------------------------------------------------
# Differential testing: every kernel, every engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_matches_dense_reference(name):
    """Vectorized (strict: no fallback) vs the dense reference."""
    stmt, out, _ = build_small_kernel_stmt(name)
    executor = NumpyExecutor(stmt)
    result = executor.run(strict=True)
    assert not executor.fell_back
    assert result.fmt == out.format  # the declared format, not dense
    reference = np.atleast_1d(evaluate_dense(out.get_assignment()))
    assert np.allclose(to_dense(result).reshape(reference.shape), reference)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_matches_spatial_interpreter(name):
    """Differential: numpy engine vs Spatial interpreter, same statement."""
    stmt, _, _ = build_small_kernel_stmt(name, seed=9, density=0.35)
    result = to_dense(execute_numpy(stmt, strict=True))
    spatial = np.atleast_1d(to_dense(compile_stmt(stmt, name.lower()).run()))
    assert np.allclose(result.reshape(spatial.shape), spatial)


@pytest.mark.parametrize("format_name", sorted(registered_formats()))
def test_format_registry_cross_validation(format_name, rng):
    """Every registered format: numpy vs dense reference vs CpuExecutor."""
    y = _registry_stmt(format_name, rng)
    executor = NumpyExecutor(y.get_index_stmt())
    result = executor.run(strict=True)
    assert not executor.fell_back
    reference = np.atleast_1d(evaluate_dense(y.get_assignment()))
    assert np.allclose(to_dense(result).reshape(reference.shape), reference)
    if _cpu_walkable(format_of(format_name)):
        cpu = execute_cpu(y.get_index_stmt())
        assert np.allclose(np.asarray(cpu).reshape(reference.shape),
                           reference)


def test_numpy_golden_covers_every_case():
    assert set(NUMPY_GOLDEN) == {numpy_golden_key(k, s)
                                 for k, s in NUMPY_GOLDEN_CASES}


@pytest.mark.parametrize("kernel,scale", NUMPY_GOLDEN_CASES)
def test_numpy_result_matches_golden(kernel, scale, cpus):
    """The densified result is bit-identical to ``tests/golden/
    execution.json`` (signed zeros included), on blocked gathers too,
    on the CPUs the process has, then pinned at one and at two."""
    for n in (None, 1, 2):
        if n:
            cpus(n)
        assert (numpy_digest(kernel, scale)
                == NUMPY_GOLDEN[numpy_golden_key(kernel, scale)]), n


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), density=st.floats(0.05, 0.9))
def test_property_spmv_three_way(seed, density):
    """Property: numpy == cpu == dense reference on random CSR SpMV."""
    rng = np.random.default_rng(seed)
    A = Tensor("A", (6, 8), CSR(offChip)).from_dense(
        random_sparse(rng, (6, 8), density))
    x = Tensor("x", (8,), DENSE_VECTOR(offChip)).from_dense(rng.random(8))
    y = Tensor("y", (6,), DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * x[j]
    stmt = y.get_index_stmt()
    reference = evaluate_dense(y.get_assignment())
    assert np.allclose(execute_numpy(stmt, strict=True), reference)
    assert np.allclose(to_dense(execute_cpu(stmt)).reshape(reference.shape),
                       reference)


# ---------------------------------------------------------------------------
# The fall-back path
# ---------------------------------------------------------------------------


def _sparse_vec(name: str, rng, n: int = 8) -> Tensor:
    return Tensor(name, (n,), SPARSE_VECTOR(offChip)).from_dense(
        random_sparse(rng, (n,)))


def _assert_falls_back_every_call(stmt, reference):
    """A fall-back plan raises under strict, and delegates otherwise, on
    the call that builds it and on every call that reuses it."""
    for _ in range(2):
        with pytest.raises(VectorizeFallback):
            NumpyExecutor(stmt).run(strict=True)
    for expected_state in ("fallback", "fallback"):
        executor = NumpyExecutor(stmt)
        result = executor.run()
        assert executor.fell_back
        assert executor.plan_state == expected_state
        assert np.allclose(result, reference)
    assert _plan_of(stmt).fallback


def test_fallback_three_sparse_factors(rng):
    """Three sparse factors exceed the vectorizer; CpuExecutor takes over."""
    B, C, D = (_sparse_vec(n, rng) for n in "BCD")
    y = Tensor("y", (8,), DENSE_VECTOR(offChip))
    (i,) = index_vars("i")
    y[i] = B[i] * C[i] * D[i]
    stmt = y.get_index_stmt()
    _assert_falls_back_every_call(stmt, evaluate_dense(y.get_assignment()))


def test_fallback_sparse_join_differing_vars(rng):
    """Sparse-sparse join over differing index-variable sets falls back."""
    A = Tensor("A", (6, 8), CSR(offChip)).from_dense(
        random_sparse(rng, (6, 8)))
    b = _sparse_vec("b", rng)
    y = Tensor("y", (6,), DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * b[j]
    stmt = y.get_index_stmt()
    _assert_falls_back_every_call(stmt, evaluate_dense(y.get_assignment()))


def test_fallback_nested_union_in_product(rng):
    """A union nested inside an intersection is the CpuExecutor's domain."""
    A = _sparse_vec("A", rng)
    b = Tensor("b", (8,), DENSE_VECTOR(offChip)).from_dense(rng.random(8))
    c = Tensor("c", (8,), DENSE_VECTOR(offChip)).from_dense(rng.random(8))
    y = Tensor("y", (8,), DENSE_VECTOR(offChip))
    (i,) = index_vars("i")
    y[i] = A[i] * (b[i] + c[i])
    stmt = y.get_index_stmt()
    _assert_falls_back_every_call(stmt, evaluate_dense(y.get_assignment()))


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("format_name", sorted(registered_formats()))
def test_enumerate_entries_round_trip(format_name, rng):
    """Per-level-format emitters reconstruct the dense tensor exactly."""
    fmt = format_of(format_name)
    dims = DIMS_BY_ORDER[fmt.order]
    dense = random_sparse(rng, dims)
    storage = Tensor("A", dims, fmt).from_dense(dense).storage
    coords, vals = enumerate_entries(storage)
    rebuilt = np.zeros(dims)
    np.add.at(rebuilt, tuple(coords[:, m] for m in range(len(dims))), vals)
    assert np.allclose(rebuilt, dense)


# ---------------------------------------------------------------------------
# The sparse post-state and blocked gathers
# ---------------------------------------------------------------------------


def test_ttv_result_stays_sparse(fresh_cache):
    """At scale 0.25 TTV's dense output would be 51 MB. The engine writes
    the interpreter's level arrays instead, within the oracle tolerance,
    and allocates a small fraction of that dense buffer, plan included."""
    import tracemalloc

    from repro.api import CompileRequest, build
    from repro.tensor.storage import oracle_maxerr

    kernel = build(CompileRequest(kernel="TTV", scale=0.25, seed=7))
    expected = kernel.run()
    dense_bytes = 8 * int(np.prod(expected.shape))
    tracemalloc.start()
    try:
        result = kernel.run_engine("numpy", strict=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.fmt == kernel.analysis.output.format
    assert peak < dense_bytes // 8
    for got, want in zip(result.levels, expected.levels):
        assert type(got) is type(want)
        for name in ("pos", "crd"):
            if hasattr(want, name):
                assert np.array_equal(getattr(got, name), getattr(want, name))
    assert oracle_maxerr(result, expected, AssertionError, "TTV") < 1e-12


def test_sparse_result_keeps_the_dense_sums_signed_zeros(rng):
    """An entry that computes to -0.0 reads +0.0, as it did when the
    result was summed into a zeroed dense buffer."""
    B = Tensor("B", (6, 8), CSR(offChip)).from_dense(
        random_sparse(rng, (6, 8), 0.6))
    x = rng.random(8)
    x[::2] = -0.0
    c = Tensor("c", (8,), DENSE_VECTOR(offChip)).from_dense(x)
    A = Tensor("A", (6, 8), CSR(offChip))
    i, j = index_vars("i j")
    A[i, j] = B[i, j] * c[j]
    result = execute_numpy(A.get_index_stmt(), strict=True)
    expected = 0.0 + B.to_dense() * x
    assert not np.signbit(expected).any()
    assert np.asarray(result).tobytes() == expected.tobytes()


@pytest.mark.parametrize("empty_row", [None, 4])
def test_dense_result_keeps_the_dense_sums_signed_zeros(rng, empty_row):
    """A dense-lhs SpMV row whose products are all -0.0 reads +0.0, when
    every row has a run (the runs are the result) and when one row is
    empty (the runs are scattered into zeros)."""
    dense = random_sparse(rng, (6, 8), 0.5)
    dense[:, 1] = rng.random(6) + 0.5  # every row stored
    dense[2] = 0.0
    dense[2, [0, 2]] = (1.5, 2.5)  # row 2 meets only x's -0.0 entries
    if empty_row is not None:
        dense[empty_row] = 0.0
    x = rng.random(8) + 0.5
    x[[0, 2]] = -0.0
    A = Tensor("A", (6, 8), CSR(offChip)).from_dense(dense)
    xt = Tensor("x", (8,), DENSE_VECTOR(offChip)).from_dense(x)
    y = Tensor("y", (6,), DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * xt[j]
    stmt = y.get_index_stmt()
    result = np.asarray(execute_numpy(stmt, strict=True))
    assert _plan_of(stmt).terms[0][1].identity is (empty_row is None)
    assert np.allclose(result, dense @ x)
    assert result[2] == 0.0 and not np.signbit(result).any()


def test_compressed_lhs_without_shared_keys_packs_the_dense_sum(rng):
    """A compressed lhs whose terms do not share keys (a sparse term plus
    a dense one) is summed dense and packed into its format."""
    B = Tensor("B", (6, 8), CSR(offChip)).from_dense(
        random_sparse(rng, (6, 8)))
    C = Tensor("C", (6, 8), DENSE_MATRIX(offChip)).from_dense(
        rng.random((6, 8)))
    A = Tensor("A", (6, 8), CSR(offChip))
    i, j = index_vars("i j")
    A[i, j] = B[i, j] + C[i, j]
    stmt = A.get_index_stmt()
    result = execute_numpy(stmt, strict=True)
    assert result.fmt == A.format and _plan_of(stmt).levels is None
    assert np.allclose(result, B.to_dense() + C.to_dense())


def test_oracle_maxerr_on_coordinates_equals_dense(fresh_cache):
    """Comparing two storages on their coordinates gives the maxerr their
    dense arrays give, for every engine pair the exec stage compares."""
    from repro.api import CompileRequest, build
    from repro.tensor.storage import oracle_maxerr

    for name in ("SDDMM", "TTM", "Plus3", "SpMV", "InnerProd"):
        kernel = build(CompileRequest(kernel=name, scale=0.02, seed=7))
        expected = kernel.run()
        for engine in ENGINES:
            got = kernel.run_engine(engine)
            assert oracle_maxerr(got, expected, AssertionError, name) == (
                oracle_maxerr(np.asarray(got), np.asarray(expected),
                              AssertionError, name))


def _rowsum_sddmm(seed: int, rank: int = 48):
    """``y(i) = B(i,j) * C(i,k) * D(k,j)``: SDDMM's two rank-``rank``
    gathers, reduced over each row's run of entries."""
    rng = np.random.default_rng(seed)
    B = Tensor("B", (9, 30), CSR(offChip)).from_dense(
        random_sparse(rng, (9, 30), 0.6))
    C = Tensor("C", (9, rank), DENSE_MATRIX(offChip)).from_dense(
        rng.random((9, rank)) - 0.5)
    D = Tensor("D", (rank, 30), DENSE_MATRIX(offChip)).from_dense(
        rng.random((rank, 30)) - 0.5)
    y = Tensor("y", (9,), DENSE_VECTOR(offChip))
    i, j, k = index_vars("i j k")
    y[i] = B[i, j] * C[i, k] * D[k, j]
    return y.get_index_stmt()


def _small_sddmm(seed: int):
    return build_small_kernel_stmt("SDDMM", seed=seed, density=0.7)[0]


def _record(name: str):
    """A builder of the kernel record ``name``'s statement on its default
    dataset at scale 0.25 (the seed is the golden one)."""
    def build(seed: int):
        return _golden_kernel(name, 0.25).stmt
    build.__name__ = f"record_{name}"
    return build


# (statement, budget): one entry per block, a few entries per block, runs
# longer than a block, several runs per block; then a tail term (the
# residual axis before the entry axis, DCSR-SpMM) and pure products
# (COO-SpMV, Residual's matrix-vector term) at scale 0.25.
@pytest.mark.parametrize("build,budget", [
    (_small_sddmm, 8), (_small_sddmm, 800),
    (_rowsum_sddmm, 8), (_rowsum_sddmm, 1536), (_rowsum_sddmm, 30_000),
    (_record("DCSR-SpMM"), 1 << 12), (_record("DCSR-SpMM"), 1 << 20),
    (_record("COO-SpMV"), 64), (_record("COO-SpMV"), 1 << 16),
    (_record("Residual"), 1 << 16)])
def test_blocked_gathers_are_bit_identical(build, budget, monkeypatch, cpus):
    """Blocks cut at run starts reproduce the one-pass result bit for
    bit, on the CPUs the process has, then pinned at one and at two."""
    monkeypatch.setattr(numpy_exec, "GATHER_BLOCK_BYTES", 1 << 60)
    stmt = build(3)
    whole = np.asarray(execute_numpy(stmt, strict=True)).tobytes()
    assert all(len(term.blocks) == 1 for _, term in _plan_of(stmt).terms)
    monkeypatch.setattr(numpy_exec, "GATHER_BLOCK_BYTES", budget)
    stmt = build(3)
    for n in (None, 1, 2):
        if n:
            cpus(n)
        blocked = execute_numpy(stmt, strict=True)
        assert max(len(term.blocks) for _, term in _plan_of(stmt).terms) > 1
        assert np.asarray(blocked).tobytes() == whole, n


# ---------------------------------------------------------------------------
# Engine selection and the exec cache stage
# ---------------------------------------------------------------------------


def test_run_engine_all_engines_agree():
    stmt, out, _ = build_small_kernel_stmt("SpMV")
    kernel = compile_stmt(stmt, "spmv")
    reference = np.atleast_1d(evaluate_dense(out.get_assignment()))
    for engine in ENGINES:
        result = np.atleast_1d(kernel.run_engine(engine))
        assert np.allclose(result.reshape(reference.shape), reference), engine


def test_default_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert default_engine() == "numpy"
    monkeypatch.setenv("REPRO_ENGINE", "interp")
    assert default_engine() == "interp"
    monkeypatch.setenv("REPRO_ENGINE", "turbo")
    with pytest.raises(ValueError):
        default_engine()


def test_exec_stage_cache_key_separation(fresh_cache):
    """Engines never share exec-stage cache entries; reruns replay."""
    from repro.api import CompileRequest, exec_check

    def request(engine):
        return CompileRequest(kernel="SpMV", dataset="bcsstk30", scale=0.02,
                              engine=engine)

    first = exec_check(request("numpy"))
    second = exec_check(request("cpu"))
    assert first["engine"] == "numpy"
    assert first["fell_back"] is False
    assert second["engine"] == "cpu"
    assert fresh_cache.stats.stage_misses["exec"] == 2
    replay = exec_check(request("numpy"))
    assert fresh_cache.stats.stage_hits["exec"] == 1
    assert replay == first


def test_exec_check_validates_against_oracle(fresh_cache):
    """exec_check returns a passing summary for every engine."""
    from repro.api import CompileRequest, exec_check

    for engine in ENGINES:
        summary = exec_check(CompileRequest(kernel="SpMV", dataset="bcsstk30",
                                            scale=0.02, engine=engine))
        assert summary["kernel"] == "SpMV"
        assert summary["elements"] > 0
        assert summary["maxerr"] <= 1e-8


# ---------------------------------------------------------------------------
# Plan once, execute many
# ---------------------------------------------------------------------------


def _plan_of(stmt):
    return stmt.assignment._exec_plan


def _plans_built() -> float:
    return obs.counter("repro_exec_plans_total", "",
                       ("outcome",)).value(outcome="built")


def _spmv(rng, fmt=CSR, dims=(6, 8)):
    A = Tensor("A", dims, fmt(offChip)).from_dense(random_sparse(rng, dims))
    x = Tensor("x", dims[1:], DENSE_VECTOR(offChip)).from_dense(
        rng.random(dims[1]))
    y = Tensor("y", dims[:1], DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * x[j]
    return A, x, y


def _assert_repeatable(build_stmt, runner):
    """Runs two and three reuse run one's plan and match it bit for bit,
    and so does a fresh statement built from the same inputs."""
    stmt = build_stmt()
    run = runner(stmt)
    first = run()
    plan = _plan_of(stmt)
    for _ in range(2):
        assert np.array_equal(run(), first)
    assert _plan_of(stmt) is plan
    assert np.array_equal(runner(build_stmt())(), first)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_repeated_runs_are_identical(name):
    def runner(stmt):
        kernel = compile_stmt(stmt, name, cache=False)
        return lambda: kernel.run_engine("numpy", strict=True)

    before = _plans_built()
    _assert_repeatable(lambda: build_small_kernel_stmt(name)[0], runner)
    assert _plans_built() == before + 2  # one per statement, not per run


@pytest.mark.parametrize("format_name", sorted(registered_formats()))
def test_repeated_runs_are_identical_per_format(format_name):
    _assert_repeatable(
        lambda: _registry_stmt(format_name,
                               np.random.default_rng(5)).get_index_stmt(),
        lambda stmt: lambda: execute_numpy(stmt, strict=True))


@pytest.mark.parametrize("density", [0.4, 0.0])
@pytest.mark.parametrize("name", ALL_KERNELS)
def test_results_satisfy_the_scan_invariant(name, density):
    """An engine result, compressed or not, empty or not, is storage a
    root-down level walk can read (``assert_scannable``)."""
    stmt, out, _ = build_small_kernel_stmt(name, density=density)
    result = execute_numpy(stmt, strict=True)
    assert result.fmt == out.format
    assert_scannable(result)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_reused_plan_derives_nothing_again(name, monkeypatch):
    """After the first call no structure is re-derived: the plan-time
    primitives may all raise."""
    stmt, _, _ = build_small_kernel_stmt(name)
    first = execute_numpy(stmt, strict=True)

    def boom(*args, **kwargs):
        raise AssertionError("structure re-derived on a reused plan")

    for primitive in ("enumerate_entries", "walk_levels", "unpack", "_scatter_order",
                      "_join", "infer_dimensions", "additive_terms", "pack",
                      "_blocks"):
        monkeypatch.setattr(numpy_exec, primitive, boom)
    executor = NumpyExecutor(stmt)
    assert np.array_equal(executor.run(strict=True), first)
    assert executor.plan_state == "reused" and executor.plan_ms is None


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_reused_plan_looks_nothing_up_again(name, monkeypatch):
    """After the first call a run through ``run_engine`` resolves no
    metric by name and builds no dense view: the counters and every
    dense operand's layout are fixed by then."""
    stmt, _, _ = build_small_kernel_stmt(name)
    kernel = compile_stmt(stmt, name, cache=False)
    first = kernel.run_engine("numpy", strict=True)

    def boom(*args, **kwargs):
        raise AssertionError("looked up again on a reused plan")

    monkeypatch.setattr(MetricsRegistry, "_get_or_create", boom)
    for helper in ("dense_view", "_mode_order_view"):
        monkeypatch.setattr(storage_mod, helper, boom)
    again = kernel.run_engine("numpy", strict=True)
    assert again.vals.tobytes() == first.vals.tobytes()


#: Per-record ceilings on the Python calls into ``repro`` one reused-plan
#: run makes. A ceiling may only go down, to the highest count any
#: supported Python gives (3.12 inlines comprehensions and counts fewer).
ENGINE_CALLS = json.loads(
    (Path(__file__).resolve().parent / "engine_calls.json").read_text())


def test_engine_call_ceilings_cover_every_record():
    assert set(ENGINE_CALLS) == set(ALL_KERNELS)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_reused_run_stays_under_its_call_ceiling(name, monkeypatch,
                                                 count_calls):
    """A reused-plan ``run_engine("numpy")`` makes no more Python calls
    into ``repro`` than its committed ceiling, on every thread: per-call
    bookkeeping that creeps back in fails here."""
    monkeypatch.delenv(obs.TRACE_ENV, raising=False)
    kernel = compile_stmt(build_small_kernel_stmt(name)[0], name, cache=False)
    kernel.run_engine("numpy", strict=True)
    root = str(Path(numpy_exec.__file__).resolve().parents[1]) + os.sep
    with count_calls(root) as codes:
        kernel.run_engine("numpy", strict=True)
    calls = len(codes)
    assert calls <= ENGINE_CALLS[name], (
        f"{name}: {calls} calls into repro per reused run, ceiling "
        f"{ENGINE_CALLS[name]}")


def test_plan_rebuilt_when_a_storage_is_replaced(rng):
    """from_coo, from_dense, insert + access and rebinding ``_storage``
    each install a new TensorStorage, and each forces a rebuild."""
    A, x, y = _spmv(rng)
    stmt = y.get_index_stmt()

    def run_and_check():
        executor = NumpyExecutor(stmt)
        result = executor.run(strict=True)
        assert np.allclose(result, A.to_dense() @ x.to_dense())
        return executor.plan_state

    assert run_and_check() == "built"
    assert run_and_check() == "reused"
    A.from_coo(np.array([[0, 1], [5, 7]]), np.array([2.0, 3.0]))
    assert run_and_check() == "built"
    x.from_dense(rng.random(8))
    assert run_and_check() == "built"
    A.insert((3, 2), 4.0)
    assert run_and_check() == "built"
    other = Tensor("A2", (6, 8), CSR(offChip)).from_dense(
        random_sparse(rng, (6, 8)))
    A._storage = other.storage
    assert run_and_check() == "built"
    assert run_and_check() == "reused"


def test_values_are_read_live(rng):
    """An in-place update of vals (sparse, dense or scalar) shows in the
    next result without a rebuild."""
    stmt, out, tensors = build_small_kernel_stmt("MatTransMul")
    first = to_dense(execute_numpy(stmt, strict=True))
    plan = _plan_of(stmt)
    tensors["A"].storage.vals *= 2
    tensors["z"].storage.vals *= 2
    assert np.allclose(execute_numpy(stmt, strict=True), 2 * first)
    tensors["alpha"].storage.vals *= 0.5
    tensors["beta"].storage.vals *= 0.5
    assert np.allclose(execute_numpy(stmt, strict=True), first)
    assert _plan_of(stmt) is plan


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_engine_never_writes_an_operand(name):
    """The engine only reads operands' ``vals`` and scales only fresh
    gathers in place: no operand's values change across runs."""
    stmt, _, tensors = build_small_kernel_stmt(name)
    inputs = [t for t in tensors.values() if t._storage is not None]
    before = [t.storage.vals.tobytes() for t in inputs]
    for _ in range(2):
        execute_numpy(stmt, strict=True)
    assert [t.storage.vals.tobytes() for t in inputs] == before


def test_dense_view_is_read_only_and_aliases(rng):
    from repro.formats import DENSE_MATRIX_CM

    array = rng.random((3, 5))
    for fmt in (DENSE_MATRIX, DENSE_MATRIX_CM):
        storage = Tensor("D", (3, 5), fmt(offChip)).from_dense(array).storage
        view = dense_view(storage)
        assert np.array_equal(view, array)
        assert np.shares_memory(view, storage.vals)
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
        storage.vals[0] = -1.0  # the view is live
        assert view[0, 0] == -1.0
        storage.vals[0] = array[0, 0]
    # to_dense: a view for identity order, a copy for any other order.
    row = Tensor("D", (3, 5), DENSE_MATRIX(offChip)).from_dense(array).storage
    col = Tensor("D", (3, 5), DENSE_MATRIX_CM(offChip)).from_dense(
        array).storage
    assert np.shares_memory(to_dense(row), row.vals)
    assert not np.shares_memory(to_dense(col), col.vals)
    with pytest.raises(ValueError):
        dense_view(Tensor("A", (3, 5), CSR(offChip)).from_dense(array).storage)


def test_kernel_pickles_the_same_after_a_run():
    stmt, _, _ = build_small_kernel_stmt("SpMV")
    kernel = compile_stmt(stmt, "spmv", cache=False)
    before = pickle.dumps(kernel)
    kernel.run_engine("numpy")
    assert _plan_of(kernel.stmt) is not None
    assert pickle.dumps(kernel) == before
    clone = pickle.loads(before)
    assert not hasattr(clone.stmt.assignment, "_exec_plan")
    assert np.array_equal(clone.run_engine("numpy"),
                          kernel.run_engine("numpy"))


def test_block_extent_mismatch_is_rejected(rng):
    """A block level that disagrees with the format's static size plans
    to fall back, on the block path as on the per-entry one."""
    y = _registry_stmt("bcsr", rng)
    stmt = y.get_index_stmt()
    A = next(t for t in stmt.assignment.rhs.tensors() if t.name == "A")
    A.storage.levels[3] = DenseLevel(3)
    for _ in range(2):
        with pytest.raises(VectorizeFallback,
                           match="block level extent 3 != static size 4"):
            execute_numpy(stmt, strict=True)
    with pytest.raises(VectorizeFallback,
                       match="block level extent 3 != static size 4"):
        enumerate_entries(A.storage)


def test_racing_threads_build_and_share_one_plan(rng):
    """serve pool threads may race to plan one statement: every run is
    right, and a whole plan is what stays published."""
    A, x, y = _spmv(rng, dims=(40, 30))
    stmt = y.get_index_stmt()
    expected = A.to_dense() @ x.to_dense()
    results, errors = [], []
    barrier = threading.Barrier(8)

    def work():
        try:
            barrier.wait(timeout=10)
            for _ in range(20):
                results.append(execute_numpy(stmt, strict=True))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(results) == 160
    assert all(np.allclose(r, expected) for r in results)
    assert _plan_of(stmt).current() and _plan_of(stmt).fallback is None


#: (format, row-major cpu walker can enumerate it)
_MATRIX_FORMATS = {"csr": (CSR, True), "csc": (CSC, False),
                   "dcsr": (DCSR, True), "coo": (COO, False)}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), density=st.floats(0.0, 0.7),
       fmt_a=st.sampled_from(sorted(_MATRIX_FORMATS)),
       fmt_b=st.sampled_from(sorted(_MATRIX_FORMATS)),
       shape=st.sampled_from(["spmv", "spmm", "join", "bcsr"]))
def test_property_planned_matches_references(seed, density, fmt_a, fmt_b,
                                             shape):
    """Property: random CSR / CSC / DCSR / COO / BCSR operands with empty
    rows and blocks, unsorted output keys (CSC under a row-major lhs) and
    duplicate-free joins; the planned result equals the dense reference
    (and the cpu walker where it can enumerate the format), twice."""
    rng = np.random.default_rng(seed)
    make, walkable = _MATRIX_FORMATS[fmt_a]
    i, j, k = index_vars("i j k")
    dense = random_sparse(rng, (6, 8), density)
    dense[rng.integers(0, 6)] = 0.0  # at least one empty row
    A = Tensor("A", (6, 8), make(offChip)).from_dense(dense)
    if shape == "spmv":
        x = Tensor("x", (8,), DENSE_VECTOR(offChip)).from_dense(rng.random(8))
        y = Tensor("y", (6,), DENSE_VECTOR(offChip))
        y[i] = A[i, j] * x[j]
    elif shape == "spmm":
        B = Tensor("B", (8, 3), DENSE_MATRIX(offChip)).from_dense(
            rng.random((8, 3)))
        y = Tensor("y", (6, 3), DENSE_MATRIX(offChip))
        y[i, k] = A[i, j] * B[j, k]
    elif shape == "join":
        make_b, walkable_b = _MATRIX_FORMATS[fmt_b]
        walkable = walkable and walkable_b
        B = Tensor("B", (6, 8), make_b(offChip)).from_dense(
            random_sparse(rng, (6, 8), 0.5))
        y = Tensor("y", (6,), DENSE_VECTOR(offChip))
        y[i] = A[i, j] * B[i, j]
    else:  # BCSR-SpMV with empty blocks and an empty block row
        blocks = (rng.random((3, 5, 1, 1)) < density) * (
            rng.random((3, 5, 4, 4)) + 0.5)
        blocks[rng.integers(0, 3)] = 0.0
        A = Tensor("A", (3, 5, 4, 4), BCSR(offChip)).from_dense(blocks)
        bi, bj = index_vars("bi bj")
        x = Tensor("x", (5, 4), DENSE_MATRIX(offChip)).from_dense(
            rng.random((5, 4)))
        y = Tensor("y", (3, 4), DENSE_MATRIX(offChip))
        y[i, bi] = A[i, j, bi, bj] * x[j, bj]
        walkable = True
    stmt = y.get_index_stmt()
    reference = evaluate_dense(y.get_assignment())
    for _ in range(2):
        got = execute_numpy(stmt, strict=True)
        assert np.allclose(got, reference, rtol=1e-10, atol=1e-10)
    if walkable:
        cpu = np.asarray(execute_cpu(stmt)).reshape(reference.shape)
        assert np.allclose(got, cpu, rtol=1e-10, atol=1e-10)


# ---------------------------------------------------------------------------
# Runs read off the level arrays: the plan the sort gives, without it
# ---------------------------------------------------------------------------


def _record_level_reads(m) -> list[bool]:
    """Patch ``_prefix_runs`` through ``m`` to record, per term of a
    single sparse factor, whether its runs were read off the levels."""
    level_read = []
    prefix_runs = numpy_exec._prefix_runs

    def spy(*args):
        runs = prefix_runs(*args)
        level_read.append(runs is not None)
        return runs

    m.setattr(numpy_exec, "_prefix_runs", spy)
    return level_read


def _plans(assignment, monkeypatch):
    """``(plan, reference, level_read)``: the plan as built, the plan of
    the walked keys (every term sorted through ``_scatter_order``, every
    gather index through ``np.ravel_multi_index``), and per term of the
    first whether its runs were read off the level arrays."""
    with monkeypatch.context() as m:
        level_read = _record_level_reads(m)
        plan = numpy_exec.ExecPlan(assignment)
    with monkeypatch.context() as m:
        m.setattr(numpy_exec, "_prefix_runs", lambda *args: None)
        m.setattr(numpy_exec, "_in_range", lambda index, extent:
                  np.ravel_multi_index([index], [extent]))
        reference = numpy_exec.ExecPlan(assignment)
    assert plan.fallback is None and reference.fallback is None
    return plan, reference, level_read


def _same_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and np.array_equal(a, b)


def _assert_same_terms(plan, reference):
    """Every term's entry count, run starts (per block), output keys,
    identity flag, value positions and gather indexes: equal values of
    equal dtypes."""
    for (_, got), (_, want) in zip(plan.terms, reference.terms,
                                   strict=True):
        assert got.n == want.n
        assert _same_array(got.ukeys, want.ukeys)
        assert got.identity == want.identity
        got_blocks = getattr(got, "blocks", [])
        want_blocks = getattr(want, "blocks", [])
        assert len(got_blocks) == len(want_blocks)
        for (got_entries, got_starts), (want_entries, want_starts) in zip(
                got_blocks, want_blocks):
            assert got_entries == want_entries
            assert _same_array(got_starts, want_starts)
        assert len(got.factors) == len(want.factors)
        for (_, got_pos, _), (_, want_pos, _) in zip(got.factors,
                                                     want.factors):
            assert _same_array(got_pos, want_pos)
        assert len(got.dense) == len(want.dense)
        for got_spec, want_spec in zip(got.dense, want.dense):
            assert _same_array(got_spec[4], want_spec[4])
            assert got_spec[:4] == want_spec[:4] and got_spec[5] == want_spec[5]


#: Records none of whose terms reads its runs off the level arrays:
#: MTTKRP keys on one of three levels, InnerProd joins two sparse
#: factors, and COO's root is non-unique.
SORTED_KERNELS = ("MTTKRP", "InnerProd", "COO-SpMV")


@pytest.mark.parametrize("scale", [None, 0.05], ids=["small", "0.05"])
@pytest.mark.parametrize("name", ALL_KERNELS)
def test_level_read_runs_equal_the_sorted_walk(name, scale, monkeypatch):
    """Every record, on ``SMALL_DIMS`` and at the ``exec_small`` scale:
    the runs and gathers read off the level arrays are exactly the
    sorted walk's."""
    if scale is None:
        stmt = build_small_kernel_stmt(name)[0]
    else:
        from repro.api import CompileRequest, build

        stmt = build(CompileRequest(kernel=name, scale=scale)).stmt
    plan, reference, level_read = _plans(stmt.assignment, monkeypatch)
    _assert_same_terms(plan, reference)
    assert any(level_read) == (name not in SORTED_KERNELS)


def _empty_rows(rng, shape=(11, 9)) -> np.ndarray:
    dense = random_sparse(rng, shape, 0.3)
    dense[[0, 4, 5, shape[0] - 1]] = 0.0  # empty rows, first and last too
    return dense


@pytest.mark.parametrize("blocks", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("fmt", [CSR, DCSR], ids=["csr", "dcsr"])
def test_level_read_runs_of_every_position_slice(fmt, blocks, monkeypatch):
    """Every ``slice_positions`` block of a CSR (SpMV) or DCSR (SpMM)
    matrix with empty rows, empty blocks included, reads its runs off
    its level arrays and plans what the sorted walk plans."""
    from repro.convert import slice_positions
    from repro.pipeline.partition import block_range

    rng = np.random.default_rng(blocks)
    dense = _empty_rows(rng, (6, 9)) if blocks == 7 else _empty_rows(rng)
    full = Tensor("A", dense.shape, fmt(offChip)).from_dense(dense).storage
    i, j, k = index_vars("i j k")
    x = rng.random((9, 3))
    for index in range(blocks):
        lo, hi = block_range(dense.shape[0], blocks, index)
        sliced = slice_positions(full, lo, hi)
        A = Tensor("A", sliced.dims, fmt(offChip)).install(sliced)
        if fmt is CSR:
            X = Tensor("x", (9,), DENSE_VECTOR(offChip)).from_dense(x[:, 0])
            y = Tensor("y", (hi - lo,), DENSE_VECTOR(offChip))
            y[i] = A[i, j] * X[j]
        else:
            X = Tensor("B", (9, 3), DENSE_MATRIX(offChip)).from_dense(x)
            y = Tensor("C", (hi - lo, 3), DENSE_MATRIX(offChip))
            y[i, k] = A[i, j] * X[j, k]
        plan, reference, level_read = _plans(y.get_assignment(), monkeypatch)
        assert level_read == [True]
        _assert_same_terms(plan, reference)
        got = execute_numpy(y.get_index_stmt(), strict=True)
        assert np.allclose(got, evaluate_dense(y.get_assignment()))
    assert (lo == hi) if blocks == 7 else (lo < hi)  # P = 7: the last is empty


def _hand_built(fmt, dims, levels, rng) -> Tensor:
    nnz = len(levels[-1].crd)
    return Tensor("A", dims, fmt).install(
        storage_mod.TensorStorage(fmt, dims, levels, rng.random(nnz) + 0.5))


def _compressed(pos, crd) -> storage_mod.CompressedLevel:
    return storage_mod.CompressedLevel(pos=np.array(pos, dtype=np.int64),
                                       crd=np.array(crd, dtype=np.int32))


def _sorted_cases(rng):
    """Terms whose runs need the sort: ``(name, lhs tensor)``."""
    from tests.test_canonical_order import UNORDERED_CSR

    i, j = index_vars("i j")
    x = Tensor("x", (9,), DENSE_VECTOR(offChip)).from_dense(rng.random(9))
    cases = []
    for name, fmt in (("coo", COO(offChip)), ("csc", CSC(offChip))):
        A = Tensor("A", (7, 9), fmt).from_dense(_empty_rows(rng, (7, 9)))
        y = Tensor("y", (7,), DENSE_VECTOR(offChip))
        y[i] = A[i, j] * x[j]
        cases.append((name, y))
    # A term keyed on an unordered level.
    A = Tensor("A", (7, 9), UNORDERED_CSR).from_dense(_empty_rows(rng, (7, 9)))
    Y = Tensor("Y", (7, 9), DENSE_MATRIX(offChip))
    Y[i, j] = A[i, j] * x[j]
    cases.append(("unordered", Y))
    # A compressed root that the format declares ordered, stored
    # descending: the root keys are checked, not trusted.
    A = _hand_built(DCSR(offChip), (7, 9), [
        _compressed([0, 3], [5, 2, 0]),
        _compressed([0, 2, 3, 5], [1, 8, 4, 0, 3])], rng)
    y = Tensor("y", (7,), DENSE_VECTOR(offChip))
    y[i] = A[i, j] * x[j]
    cases.append(("descending-root", y))
    # A term keyed on both levels of a CSR whose row 1 descends.
    A = _hand_built(CSR(offChip), (3, 9), [
        DenseLevel(3), _compressed([0, 2, 5, 6], [0, 7, 6, 2, 1, 8])], rng)
    D = Tensor("D", (3, 9), DENSE_MATRIX(offChip)).from_dense(
        rng.random((3, 9)))
    Y = Tensor("Y", (3, 9), DENSE_MATRIX(offChip))
    Y[i, j] = A[i, j] * D[i, j]
    cases.append(("descending-row", Y))
    return cases


def test_sort_path_terms_match_the_dense_reference(monkeypatch):
    """A key on an unordered level, a non-unique root (COO), a key that
    is not a storage prefix (CSC under a row-major lhs) and stored keys
    that descend against an ordered declaration all take the sort, and
    compute what the dense reference does."""
    for name, y in _sorted_cases(np.random.default_rng(3)):
        _, _, level_read = _plans(y.get_assignment(), monkeypatch)
        assert level_read == [False], name
        got = execute_numpy(y.get_index_stmt(), strict=True)
        assert np.allclose(got, evaluate_dense(y.get_assignment())), name


def test_an_unordered_level_below_the_key_is_read_off(monkeypatch):
    """Only the key levels' declarations matter: an unordered level
    below a row key keeps each row's entries together, so SpMV on an
    unordered-column CSR reads its runs off the levels, as sorted."""
    from tests.test_canonical_order import UNORDERED_CSR

    rng = np.random.default_rng(4)
    A = Tensor("A", (7, 9), UNORDERED_CSR).from_dense(_empty_rows(rng, (7, 9)))
    x = Tensor("x", (9,), DENSE_VECTOR(offChip)).from_dense(rng.random(9))
    y = Tensor("y", (7,), DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * x[j]
    plan, reference, level_read = _plans(y.get_assignment(), monkeypatch)
    assert level_read == [True]
    _assert_same_terms(plan, reference)


@pytest.mark.parametrize("coord", [9, -1])
@pytest.mark.parametrize("ordered", [True, False],
                         ids=["level-read", "sorted"])
def test_gather_outside_the_dense_operand_is_refused(ordered, coord,
                                                     monkeypatch):
    """A stored coordinate outside the dense operand it gathers from is
    refused when the plan is built, as ``np.ravel_multi_index`` refused
    it, whether the runs are read off the levels or sorted."""
    rng = np.random.default_rng(0)
    root = [0, 1, 2] if ordered else [2, 1, 0]  # a DCSR root; descending
    A = _hand_built(DCSR(offChip), (3, 9), [
        _compressed([0, 3], root),
        _compressed([0, 2, 2, 3], [1, coord, 4])], rng)
    x = Tensor("x", (9,), DENSE_VECTOR(offChip)).from_dense(rng.random(9))
    y = Tensor("y", (3,), DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * x[j]
    level_read = _record_level_reads(monkeypatch)
    with pytest.raises(ValueError, match="invalid entry in coordinates array"):
        numpy_exec.ExecPlan(y.get_assignment())
    assert level_read == [ordered]
