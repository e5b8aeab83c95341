"""Self-test of the benchmark's references and failure accounting.

Run with ``python -m pytest benchmarks/e2e -q`` (tier-1 collects only
``tests/``). Every reference is checked on a hand-written 3x3 (or
3x3x3) case against dense arithmetic spelled out here, and a
deliberately corrupted output must raise ``fail_share``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import references as ref  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

A = np.array([[1.0, 0.0, 2.0],
              [0.0, 0.0, 3.0],
              [4.0, 5.0, 0.0]])
B = np.array([[0.0, 1.0, 0.0],
              [2.0, 0.0, 0.0],
              [0.0, 3.0, 4.0]])
C = np.array([[1.0, 2.0, 3.0],
              [4.0, 5.0, 6.0],
              [7.0, 8.0, 9.0]])
X = np.array([1.0, 2.0, 3.0])
Z = np.array([0.5, -1.0, 2.0])

T = np.zeros((3, 3, 3))
T[0, 0, 1], T[0, 2, 2], T[1, 1, 0], T[2, 0, 0], T[2, 0, 2] = 1, 2, 3, 4, 5
U = np.zeros((3, 3, 3))
U[0, 0, 1], U[1, 1, 0], U[1, 2, 2], U[2, 0, 2] = 6, 7, 8, 9


def sparse(dense: np.ndarray):
    coords = np.argwhere(dense != 0)
    return ref.coo(coords, dense[tuple(coords.T)], dense.shape)


def test_spmv_by_hand():
    # Rows of A dotted with X, worked out on paper.
    assert np.allclose(ref.spmv({"A": sparse(A), "x": X}), [7.0, 9.0, 14.0])


CASES = {
    "SpMV": ({"A": sparse(A), "x": X}, A @ X),
    "COO-SpMV": ({"A": sparse(A), "x": X}, A @ X),
    "Plus3": ({"B": sparse(A), "C": sparse(B), "D": sparse(A.T)},
              A + B + A.T),
    "SDDMM": ({"B": sparse(A), "C": C, "D": C.T}, A * (C @ C.T)),
    "MatTransMul": ({"A": sparse(A), "x": X, "z": Z, "alpha": 2.0,
                     "beta": 3.0}, 2.0 * (A.T @ X) + 3.0 * Z),
    "Residual": ({"A": sparse(A), "x": X, "b": Z}, Z - A @ X),
    "TTV": ({"B": sparse(T), "c": X}, np.einsum("ijk,k->ij", T, X)),
    "TTM": ({"B": sparse(T), "C": C[:2]},
            np.einsum("ijl,kl->ijk", T, C[:2])),
    "MTTKRP": ({"B": sparse(T), "C": C[:2], "D": C[1:]},
               np.einsum("ikl,jk,jl->ij", T, C[:2], C[1:])),
    "InnerProd": ({"B": sparse(T), "C": sparse(U)}, np.sum(T * U)),
    "Plus2": ({"B": sparse(T), "C": sparse(U)}, T + U),
    "DCSR-SpMM": ({"A": sparse(A), "B": C[:, :2]}, A @ C[:, :2]),
}


@pytest.mark.parametrize("kernel", sorted(CASES))
def test_kernel_reference_on_small_case(kernel):
    operands, expected = CASES[kernel]
    got = ref.KERNEL_REFERENCES[kernel](operands)
    assert ref.close(expected, np.asarray(got).reshape(np.shape(expected)),
                     1e-12)


def test_bcsr_reference_on_small_case():
    blocks = np.zeros((2, 2, 2, 2))
    blocks[0, 1] = [[1.0, 2.0], [0.0, 3.0]]
    blocks[1, 0] = [[0.0, 4.0], [5.0, 0.0]]
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    expected = np.einsum("IJab,Jb->Ia", blocks, x)
    assert ref.close(expected, ref.bcsr_spmv({"A": sparse(blocks), "x": x}),
                     1e-12)


def test_every_kernel_has_a_reference():
    assert set(ref.KERNEL_REFERENCES) == set(spec.KERNELS)
    assert set(ref.PIPELINE_REFERENCES) == set(spec.FUSE_OPS)


def test_pipeline_references_on_small_case():
    assert ref.close(
        (A * (C[:, :2] @ C[:2])) @ C[:, 1:],
        ref.attention({"M": sparse(A), "Q": C[:, :2], "Kt": C[:2],
                       "V": C[:, 1:]}), 1e-12)
    assert ref.close(A @ (A @ X), ref.twohop({"A": sparse(A), "x": X}),
                     1e-12)
    assert ref.close(0.5 * (A @ X) + Z, ref.cgstep(
        {"A": sparse(A), "p": X, "r": Z, "alpha": 0.5}), 1e-12)


def test_close_rejects_corruption_shape_and_nan():
    expected = A @ X
    assert ref.close(expected, expected.copy(), spec.RTOL)
    corrupted = expected.copy()
    corrupted[1] += 1e-6
    assert not ref.close(expected, corrupted, spec.RTOL)
    assert not ref.close(expected, expected[:2], spec.RTOL)
    assert not ref.close(expected, np.full(3, np.nan), spec.RTOL)


def test_corrupted_output_raises_fail_share(tmp_path, monkeypatch):
    """A wrong engine output must surface as a failure, end to end."""
    monkeypatch.setenv("E2E_SCRATCH", str(tmp_path))
    workload = workloads.Exec("exec_small", spec.COMPILE_SCALE, {}, {}, 1)
    rec = measure.Recorder(measure.Tracer(enabled=False), workload.name)
    workload.setup(spec.DEFAULT_SEED)
    workload.run_pass(0, rec)
    workload.verify(rec)
    assert rec.failures == []

    workload.outputs["SpMV"] = workload.outputs["SpMV"] + 1e-3
    workload.verify(rec)
    assert len(rec.failures) == 1 and "SpMV" in rec.failures[0]

    summary = run.summarize(workload.name, [{
        "setup_s": 1.0, "pass_ms": [1.0], "ops": rec.ops, "rss_mb": 1.0,
        "attempted": rec.attempted, "failures": rec.failures,
        "digests": {}, "short_samples": 0,
        "reference_ms": {k: [v] for k, v in
                         spec.REFERENCE_NOMINAL_MS.items()}}])
    assert summary["fail_share"] == pytest.approx(1 / (rec.attempted + 1))


def test_benchmark_json_matches_spec():
    import json

    declared = json.loads((measure.REPO / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names
