"""Independent references for what the benchmark verifies.

Pure NumPy/SciPy over plain operands — nothing here imports ``repro``,
so no reference can come from the compiler under test. A sparse operand
is a ``(coords, vals, shape)`` triple (see :func:`coo`), a dense one an
``ndarray``, a scalar a ``float``; ``workloads.operands_of`` turns a
kernel's bound tensors into that form from their storage arrays.

Matrix kernels go through ``scipy.sparse``; the 3-tensor kernels
scatter per-nonzero contributions with ``np.add.at``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def coo(coords, vals, shape):
    """A sparse operand: ``(nnz, order)`` coordinates, values, shape."""
    coords = np.asarray(coords, dtype=np.int64).reshape(len(vals), len(shape))
    return coords, np.asarray(vals, dtype=np.float64), tuple(shape)


def _csr(operand) -> sp.csr_matrix:
    coords, vals, shape = operand
    return sp.coo_matrix((vals, (coords[:, 0], coords[:, 1])),
                         shape=shape).tocsr()


def _scatter(operand, out_shape, out_modes, weights) -> np.ndarray:
    """``out[coords[out_modes]] += vals * weights`` for every nonzero."""
    coords, vals, _ = operand
    out = np.zeros(out_shape)
    contrib = vals.reshape((-1,) + (1,) * (weights.ndim - 1)) * weights
    np.add.at(out, tuple(coords[:, m] for m in out_modes), contrib)
    return out


def spmv(o):
    return _csr(o["A"]) @ o["x"]


def plus3(o):
    return (_csr(o["B"]) + _csr(o["C"]) + _csr(o["D"])).toarray()


def sddmm(o):
    coords, _, shape = o["B"]
    i, j = coords[:, 0], coords[:, 1]
    dots = np.einsum("nk,kn->n", o["C"][i], o["D"][:, j])
    return _scatter(o["B"], shape, (0, 1), dots)


def mattransmul(o):
    return o["alpha"] * (_csr(o["A"]).T @ o["x"]) + o["beta"] * o["z"]


def residual(o):
    return o["b"] - _csr(o["A"]) @ o["x"]


def ttv(o):
    coords, _, shape = o["B"]
    return _scatter(o["B"], shape[:2], (0, 1), o["c"][coords[:, 2]])


def ttm(o):
    coords, _, shape = o["B"]
    rank = o["C"].shape[0]
    return _scatter(o["B"], shape[:2] + (rank,), (0, 1),
                    o["C"][:, coords[:, 2]].T)


def mttkrp(o):
    coords, _, shape = o["B"]
    rank = o["C"].shape[0]
    weights = o["C"][:, coords[:, 1]].T * o["D"][:, coords[:, 2]].T
    return _scatter(o["B"], (shape[0], rank), (0,), weights)


def innerprod(o):
    (bc, bv, shape), (cc, cv, _) = o["B"], o["C"]
    flat_b = np.ravel_multi_index(tuple(bc.T), shape)
    flat_c = np.ravel_multi_index(tuple(cc.T), shape)
    _, ib, ic = np.intersect1d(flat_b, flat_c, return_indices=True)
    return np.asarray(float(np.dot(bv[ib], cv[ic])))


def plus2(o):
    shape = o["B"][2]
    ones = np.ones(1)
    return (_scatter(o["B"], shape, (0, 1, 2), ones)
            + _scatter(o["C"], shape, (0, 1, 2), ones))


def spmm(o):
    return _csr(o["A"]) @ o["B"]


def bcsr_spmv(o):
    coords, _, shape = o["A"]
    return _scatter(o["A"], (shape[0], shape[2]), (0, 2),
                    o["x"][coords[:, 1], coords[:, 3]])


#: Reference per kernel name (the 13 kernels; SpMV and DCSR-SpMM also
#: serve the two partition kernels).
KERNEL_REFERENCES = {
    "SpMV": spmv, "Plus3": plus3, "SDDMM": sddmm, "MatTransMul": mattransmul,
    "Residual": residual, "TTV": ttv, "TTM": ttm, "MTTKRP": mttkrp,
    "InnerProd": innerprod, "Plus2": plus2, "COO-SpMV": spmv,
    "DCSR-SpMM": spmm, "BCSR-SpMV": bcsr_spmv,
}


def attention(o):
    """``O = (M . (Q Kt)) V``: masked scores, then the value mix."""
    coords, vals, shape = o["M"]
    i, j = coords[:, 0], coords[:, 1]
    scores = vals * np.einsum("nk,kn->n", o["Q"][i], o["Kt"][:, j])
    return _csr((coords, scores, shape)) @ o["V"]


def twohop(o):
    a = _csr(o["A"])
    return a @ (a @ o["x"])


def cgstep(o):
    return o["alpha"] * (_csr(o["A"]) @ o["p"]) + o["r"]


#: Reference for each pipeline's final output.
PIPELINE_REFERENCES = {"attention": attention, "twohop": twohop,
                       "cgstep": cgstep}


def close(expected, got, rtol: float) -> bool:
    """``max |got - expected| <= rtol * max(1, max |expected|)``."""
    expected = np.asarray(expected, dtype=np.float64)
    got = np.asarray(got, dtype=np.float64)
    if got.shape != expected.shape or not np.all(np.isfinite(got)):
        return False
    if not expected.size:
        return True
    scale = max(1.0, float(np.max(np.abs(expected))))
    return float(np.max(np.abs(got - expected))) <= rtol * scale
