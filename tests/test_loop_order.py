"""Loop order is a schedule choice, never a correctness one.

Every ``reorder`` permutation of a few dense, CSR and 3-tensor statements
(and of one split schedule) either refuses at compile time
(``LoweringError``) or computes the dense reference on both the Spatial
interpreter (the oracle) and the numpy engine. A level located from its
parent must read the parent's position whatever the loop order, and the
result placement must respect the loops around the row it binds.
"""

import itertools

import numpy as np
import pytest

from repro import (
    CSR,
    DENSE_MATRIX,
    DENSE_VECTOR,
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

from tests.conftest import random_sparse


def _matrix(rng, name, shape, fmt):
    return Tensor(name, shape, fmt(offChip)).from_dense(random_sparse(rng, shape))


def _spmv(rng, fmt):
    i, j = index_vars("i j")
    A = _matrix(rng, "A", (5, 6), fmt)
    x = _matrix(rng, "x", (6,), DENSE_VECTOR)
    y = Tensor("y", (5,), DENSE_VECTOR(offChip))
    y[i] = A[i, j] * x[j]
    return y, y.get_index_stmt(), (i, j)


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
    "dense-3d": _elementwise3,
    "dense-gemm": _gemm,
    "ttv-ddc": lambda rng: _ttv(rng, [dense, dense, compressed]),
    "ttv-ccc": lambda rng: _ttv(rng, [compressed] * 3),
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
