"""Loop order is a schedule choice, never a correctness one.

Every ``reorder`` permutation of a few dense, CSR and 3-tensor statements
(and of split and fuse schedules) either refuses at compile time
(``LoweringError``) or computes the dense reference on the Spatial
interpreter (the oracle), on the numpy engine and in the emitted C, built
with AddressSanitizer (which may instead refuse with a reason on the
written ``C_REFUSALS`` list). A level located from its
parent must read the parent's position whatever the loop order, and the
result placement must respect the loops around the row it binds.
"""

import itertools
import shutil

import numpy as np
import pytest

from repro import (
    CSR,
    DENSE_MATRIX,
    DENSE_VECTOR,
    SPARSE_VECTOR,
    Format,
    Tensor,
    compile_stmt,
    compressed,
    dense,
    evaluate_dense,
    index_vars,
    offChip,
    to_dense,
)
from repro.core.coiteration import LoweringError
from repro.core.lowering import Lowerer
from repro.core.runner import run_program
from repro.spatial.interp import InterpError

from tests.conftest import random_sparse
from tests.helpers_kernels import assert_emitted_c_matches


def _matrix(rng, name, shape, fmt):
    return Tensor(name, shape, fmt(offChip)).from_dense(random_sparse(rng, shape))


def _spmv(rng, fmt, rows=5):
    i, j = index_vars("i j")
    A = _matrix(rng, "A", (rows, 6), fmt)
    x = _matrix(rng, "x", (6,), DENSE_VECTOR)
    y = Tensor("y", (rows,), DENSE_VECTOR(offChip))
    y[i] = A[i, j] * x[j]
    return y, y.get_index_stmt(), (i, j)


def _split_rows(rng, rows=6):
    """Dense SpMV with the (1-D) result's loop split: the result streams
    only when the outer loop sits around the inner one, outside ``j``."""
    y, stmt, (i, j) = _spmv(rng, DENSE_MATRIX, rows)
    io, ii = index_vars("io ii")
    return y, stmt.split_up(i, io, ii, 2), (io, ii, j)


def _fuse_rows(rng, order="ij"):
    """Dense SpMV with ``i`` and ``j`` fused: the one loop visits each
    result element once per column."""
    y, stmt, (i, j) = _spmv(rng, DENSE_MATRIX, 4)
    outer, inner = (i, j) if order == "ij" else (j, i)
    f, = index_vars("f")
    return y, stmt.reorder(outer, inner).fuse(outer, inner, f), (f,)


def _elementwise(rng, b_fmt):
    i, j = index_vars("i j")
    A = _matrix(rng, "A", (5, 6), DENSE_MATRIX)
    B = _matrix(rng, "B", (5, 6), b_fmt)
    C = Tensor("C", (5, 6), DENSE_MATRIX(offChip))
    C[i, j] = A[i, j] * B[i, j]
    return C, C.get_index_stmt(), (i, j)


def _transpose_product(rng):
    """One tensor read through two accesses: each locates its own values."""
    i, j = index_vars("i j")
    A = _matrix(rng, "A", (4, 4), DENSE_MATRIX)
    C = Tensor("C", (4, 4), DENSE_MATRIX(offChip))
    C[i, j] = A[j, i] * A[i, j]
    return C, C.get_index_stmt(), (i, j)


def _split_columns(rng):
    """The element-wise product with the result's last level split."""
    C, stmt, (i, j) = _elementwise(rng, DENSE_MATRIX)
    jo, ji = index_vars("jo ji")
    return C, stmt.split_up(j, jo, ji, 2), (i, jo, ji)


def _elementwise3(rng):
    i, j, k = index_vars("i j k")
    fmt = Format([dense] * 3, offChip)
    A = Tensor("A", (2, 3, 4), fmt).from_dense(random_sparse(rng, (2, 3, 4)))
    B = Tensor("B", (2, 3, 4), fmt).from_dense(random_sparse(rng, (2, 3, 4)))
    C = Tensor("C", (2, 3, 4), fmt)
    C[i, j, k] = A[i, j, k] * B[i, j, k]
    return C, C.get_index_stmt(), (i, j, k)


def _gemm(rng):
    i, j, k = index_vars("i j k")
    A = _matrix(rng, "A", (4, 5), DENSE_MATRIX)
    B = _matrix(rng, "B", (5, 3), DENSE_MATRIX)
    E = Tensor("E", (4, 3), DENSE_MATRIX(offChip))
    E[i, j] = A[i, k] * B[k, j]
    return E, E.get_index_stmt(), (i, j, k)


def _sparse_vector(rng, t_fmt):
    """``y = s * t`` with ``t`` dense, ``y = s + t`` with ``t`` sparse: the
    loop over the dense result's coordinate visits only nonzeros."""
    i, = index_vars("i")
    s = _matrix(rng, "s", (8,), SPARSE_VECTOR)
    t = _matrix(rng, "t", (8,), t_fmt)
    y = Tensor("y", (8,), DENSE_VECTOR(offChip))
    y[i] = s[i] + t[i] if t_fmt is SPARSE_VECTOR else s[i] * t[i]
    return y, y.get_index_stmt(), (i,)


def _sparse_plus_spmv(rng):
    """``y = s + B * x`` with ``s`` sparse and ``B`` doubly compressed: the
    union over ``i`` runs ``B``'s row loop only where ``B`` has the row."""
    i, j = index_vars("i j")
    s = _matrix(rng, "s", (5,), SPARSE_VECTOR)
    B = Tensor("B", (5, 6), Format([compressed] * 2, offChip)).from_dense(
        random_sparse(rng, (5, 6)))
    x = _matrix(rng, "x", (6,), DENSE_VECTOR)
    y = Tensor("y", (5,), DENSE_VECTOR(offChip))
    y[i] = s[i] + B[i, j] * x[j]
    return y, y.get_index_stmt(), (i,)  # j's loop is in one term only


def _ttv(rng, levels):
    i, j, k = index_vars("i j k")
    T = Tensor("T", (3, 4, 5), Format(levels, offChip)).from_dense(
        random_sparse(rng, (3, 4, 5)))
    c = _matrix(rng, "c", (5,), DENSE_VECTOR)
    D = Tensor("D", (3, 4), DENSE_MATRIX(offChip))
    D[i, j] = T[i, j, k] * c[k]
    return D, D.get_index_stmt(), (i, j, k)


STATEMENTS = {
    "dense-spmv": lambda rng: _spmv(rng, DENSE_MATRIX),
    "csr-spmv": lambda rng: _spmv(rng, CSR),
    "dense-x-dense": lambda rng: _elementwise(rng, DENSE_MATRIX),
    "dense-x-csr": lambda rng: _elementwise(rng, CSR),
    "transpose-product": _transpose_product,
    "split-columns": _split_columns,
    "split-rows": _split_rows,
    "fuse-rows": _fuse_rows,
    "fuse-columns-first": lambda rng: _fuse_rows(rng, order="ji"),
    "dense-3d": _elementwise3,
    "dense-gemm": _gemm,
    "ttv-ddc": lambda rng: _ttv(rng, [dense, dense, compressed]),
    "ttv-ccc": lambda rng: _ttv(rng, [compressed] * 3),
    "sparse-times-dense-vector": lambda rng: _sparse_vector(rng, DENSE_VECTOR),
    "sparse-plus-sparse-vector": lambda rng: _sparse_vector(rng, SPARSE_VECTOR),
    "sparse-plus-dcsr-spmv": _sparse_plus_spmv,
}

CASES = [(name, order)
         for name, build in STATEMENTS.items()
         for order in itertools.permutations(
             range(len(build(np.random.default_rng(0))[2])))]


@pytest.mark.parametrize("name,order", CASES,
                         ids=[f"{n}-{''.join(map(str, o))}" for n, o in CASES])
def test_every_loop_order_refuses_or_matches_the_reference(name, order):
    out, stmt, ivars = STATEMENTS[name](np.random.default_rng(7))
    stmt = stmt.reorder(*(ivars[k] for k in order))
    try:
        kernel = compile_stmt(stmt, "loop_order", cache=False)
    except LoweringError:
        return
    reference = evaluate_dense(out.get_assignment())
    assert np.allclose(to_dense(kernel.run()), reference), "interp"
    assert np.allclose(to_dense(kernel.run_engine("numpy")), reference), "numpy"
    if shutil.which("gcc") is not None:
        assert_emitted_c_matches(stmt, reference)


def _ragged_columns(rng, factor):
    """``C = A * B`` on 5x6 with ``j`` split by a factor that leaves a tail."""
    C, stmt, (i, j) = _elementwise(rng, DENSE_MATRIX)
    jo, ji = index_vars("jo ji")
    return C, stmt.split_up(j, jo, ji, factor), (i, jo, ji)


RAGGED = {
    "split-rows-on-5": lambda rng: _split_rows(rng, rows=5),
    "split-columns-by-4": lambda rng: _ragged_columns(rng, 4),
    "split-columns-by-5": lambda rng: _ragged_columns(rng, 5),
}


@pytest.mark.parametrize("name", RAGGED)
def test_a_split_that_leaves_a_tail_is_refused_before_the_interpreter(name):
    """The Spatial IR has no conditional, so the program has no tail guard;
    the other engines still compute the reference."""
    out, stmt, ivars = RAGGED[name](np.random.default_rng(7))
    for order in itertools.permutations(ivars):
        kernel = compile_stmt(stmt.reorder(*order), "loop_order", cache=False)
        with pytest.raises(ValueError, match=r"split_up\(.*\) does not "
                                             r"divide the extent [56]"):
            kernel.run()
        assert np.allclose(to_dense(kernel.run_engine("numpy")),
                           evaluate_dense(out.get_assignment()))


def test_a_load_past_the_end_of_a_dram_array_raises():
    """Without the refusal, order ``(io, ii, j)`` on 5 rows loads row 5 of
    ``A`` (words 30..36 of 30): the oracle raises instead of keeping the
    stale words in SRAM."""
    out, stmt, _ = _split_rows(np.random.default_rng(7), rows=5)
    kernel = compile_stmt(stmt, "loop_order", cache=False)
    with pytest.raises(InterpError, match=r"out-of-bounds load A_vals_dram"):
        run_program(kernel.program, kernel.tensors, out.name)


def test_a_closed_loops_coordinate_is_out_of_scope(monkeypatch):
    """Once a forall's body is lowered, its coordinate and those derived
    inside it are dropped: a read through them refuses instead of emitting
    a stale variable, while the loops still open keep theirs."""
    _out, stmt, _ivars = _split_rows(np.random.default_rng(7))
    A = next(acc for acc in stmt.assignment.rhs.accesses()
             if acc.tensor.name == "A")
    seen = []
    lower_forall = Lowerer.lower_forall

    def probe(self, forall, *args, **kwargs):
        lower_forall(self, forall, *args, **kwargs)
        if forall.ivar.name == "ii":  # closed inside io's loop
            ivars = (*A.indices, *(f.ivar for f in self.analysis.foralls))
            seen.append(sorted({v.name for v in ivars if id(v) in self.coord}))
            with pytest.raises(LoweringError, match="coordinate i for A "
                                                    "level 0 unbound"):
                self._position(A, 0)

    monkeypatch.setattr(Lowerer, "lower_forall", probe)
    Lowerer(stmt, "loop_order").lower()
    assert seen == [["io"]]
