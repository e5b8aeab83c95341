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

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.backends.numpy_exec as numpy_exec
from repro import obs
from repro.backends.cpu_exec import execute_cpu
from repro.backends.numpy_exec import (
    NumpyExecutor,
    VectorizeFallback,
    enumerate_entries,
    execute_numpy,
    segment_scatter_add,
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
from repro.tensor import Tensor, evaluate_dense, to_dense
from repro.tensor.storage import DenseLevel, dense_view
from tests.conftest import random_sparse
from tests.helpers_kernels import SMALL_DIMS, build_small_kernel_stmt

ALL_KERNELS = tuple(SMALL_DIMS)

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
    reference = np.atleast_1d(evaluate_dense(out.get_assignment()))
    assert np.allclose(result.reshape(reference.shape), reference)


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_matches_spatial_interpreter(name):
    """Differential: numpy engine vs Spatial interpreter, same statement."""
    stmt, _, _ = build_small_kernel_stmt(name, seed=9, density=0.35)
    result = execute_numpy(stmt, strict=True)
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
    assert np.allclose(result.reshape(reference.shape), reference)
    if _cpu_walkable(format_of(format_name)):
        cpu = execute_cpu(y.get_index_stmt())
        assert np.allclose(np.asarray(cpu).reshape(reference.shape),
                           reference)


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
    assert np.allclose(execute_cpu(stmt).reshape(reference.shape), reference)


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


def test_segment_scatter_add_matches_add_at(rng):
    """Duplicate and unsorted keys accumulate exactly like np.add.at."""
    keys = rng.integers(0, 20, size=200)
    contrib = rng.random((200, 3))
    buffer = np.zeros((20, 3))
    segment_scatter_add(buffer, keys, contrib)
    reference = np.zeros((20, 3))
    np.add.at(reference, keys, contrib)
    assert np.allclose(buffer, reference)


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


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_reused_plan_derives_nothing_again(name, monkeypatch):
    """After the first call no structure is re-derived: the plan-time
    primitives may all raise."""
    stmt, _, _ = build_small_kernel_stmt(name)
    first = execute_numpy(stmt, strict=True)

    def boom(*args, **kwargs):
        raise AssertionError("structure re-derived on a reused plan")

    for primitive in ("enumerate_entries", "walk_levels", "unpack", "_scatter_order",
                      "_join", "infer_dimensions", "additive_terms"):
        monkeypatch.setattr(numpy_exec, primitive, boom)
    executor = NumpyExecutor(stmt)
    assert np.array_equal(executor.run(strict=True), first)
    assert executor.plan_state == "reused" and executor.plan_ms is None


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
    first = execute_numpy(stmt, strict=True)
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
    """The engine reads operands through read-only views and fresh
    gathers: no operand's values change across runs."""
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
