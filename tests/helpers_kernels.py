"""Shared kernel-construction helpers for tests.

Builds each Table 3 kernel on small random data, returning the scheduled
statement, the output tensor, and the full operand dictionary.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.kernels import FORMAT_KERNEL_ORDER, KERNEL_ORDER, KERNELS
from repro.tensor import Tensor

#: Small operand shapes per kernel (distinct dims catch mode mix-ups).
SMALL_DIMS = {
    "SpMV": {"A": (7, 9), "x": (9,), "y": (7,)},
    "Plus3": {"A": (6, 8), "B": (6, 8), "C": (6, 8), "D": (6, 8)},
    "SDDMM": {"A": (6, 8), "B": (6, 8), "C": (6, 5), "D": (5, 8)},
    "MatTransMul": {"A": (9, 7), "x": (9,), "z": (7,), "y": (7,),
                    "alpha": (), "beta": ()},
    "Residual": {"A": (7, 9), "x": (9,), "b": (7,), "y": (7,)},
    "TTV": {"A": (4, 5), "B": (4, 5, 6), "c": (6,)},
    "TTM": {"A": (4, 5, 3), "B": (4, 5, 6), "C": (3, 6)},
    "MTTKRP": {"A": (4, 3), "B": (4, 5, 6), "C": (3, 5), "D": (3, 6)},
    "InnerProd": {"alpha_out": (), "B": (4, 5, 6), "C": (4, 5, 6)},
    "Plus2": {"A": (4, 5, 6), "B": (4, 5, 6), "C": (4, 5, 6)},
    # Format-sweep kernels (COO / DCSR / blocked layouts).
    "COO-SpMV": {"A": (7, 9), "x": (9,), "y": (7,)},
    "DCSR-SpMM": {"A": (7, 9), "B": (9, 5), "C": (7, 5)},
    "BCSR-SpMV": {"A": (3, 5, 4, 4), "x": (5, 4), "y": (3, 4)},
}


def make_small_tensors(name: str, seed: int = 42, density: float = 0.4,
                       dims: dict | None = None) -> dict[str, Tensor]:
    """Small random operand tensors for one kernel."""
    rng = np.random.default_rng(seed)
    spec = KERNELS[name]
    shapes = dims or SMALL_DIMS[name]
    tensors: dict[str, Tensor] = {}
    for ts in spec.tensor_specs:
        shape = shapes[ts.name]
        t = ts.make(shape)
        if ts.role == "scalar":
            t.insert((), 2.0 if "alpha" in ts.name else 3.0)
        elif ts.role == "sparse":
            dense = (rng.random(shape) < density) * (rng.random(shape) + 0.5)
            t.from_dense(dense)
        elif ts.role == "dense":
            t.from_dense(rng.random(shape))
        tensors[ts.name] = t
    return tensors


def build_small_kernel_stmt(name: str, seed: int = 42, density: float = 0.4,
                            inner_par: int = 16, outer_par: int | None = None):
    """(scheduled IndexStmt, output Tensor, operand dict) on small data."""
    tensors = make_small_tensors(name, seed, density)
    spec = KERNELS[name]
    stmt, out = spec.build(tensors, inner_par=inner_par, outer_par=outer_par)
    return stmt, out, tensors


#: Scales and seed pinned by ``tests/golden/datasets.json``.
DATASET_GOLDEN_SCALES = (0.02, 0.05)
DATASET_GOLDEN_SEED = 7


def dataset_pairs() -> list[tuple[str, str]]:
    """Every (kernel, dataset) pair of Table 6 and the format sweep."""
    from repro.data import datasets_for

    return [(kernel, dspec.name)
            for kernel in KERNEL_ORDER + FORMAT_KERNEL_ORDER
            for dspec in datasets_for(kernel)]


def dataset_digest(kernel: str, dataset: str, scale: float,
                   seed: int = DATASET_GOLDEN_SEED) -> str:
    """sha256 over every operand's level arrays and ``vals``, as
    ``data.load`` packs them: dtype and bytes, in operand and level order."""
    from repro.data import load

    h = hashlib.sha256()
    for name, tensor in load(kernel, dataset, scale=scale, seed=seed).items():
        storage = tensor.storage
        h.update(f"{name}:{storage.dims}".encode())
        for lvl in storage.levels:
            h.update(type(lvl).__name__.encode())
            for field in ("size", "pos", "crd"):
                if hasattr(lvl, field):
                    arr = np.asarray(getattr(lvl, field))
                    h.update(f"{field}:{arr.dtype}".encode())
                    h.update(arr.tobytes())
        h.update(f"vals:{storage.vals.dtype}".encode())
        h.update(storage.vals.tobytes())
    return h.hexdigest()


def dataset_digests() -> dict[str, dict[str, str]]:
    """``{scale: {"kernel/dataset": digest}}`` for the dataset golden."""
    return {
        str(scale): {f"{k}/{d}": dataset_digest(k, d, scale)
                     for k, d in dataset_pairs()}
        for scale in DATASET_GOLDEN_SCALES
    }


#: Scale of the two shard manifests pinned by ``tests/golden/requests.json``.
REQUEST_GOLDEN_SCALE = 0.02

#: Every field spelled out, the ones an action canonicalises away included.
_GOLDEN_FULL = {
    "scale": 0.02, "seed": 3, "platforms": ("V100 GPU", "Capstan (HBM2E)"),
    "engine": "cpu", "fuse": False, "partition": 4, "split": "sum",
}

#: Per action: a minimal request and a fully spelled-out one.
GOLDEN_REQUESTS = {
    "compile": ({"kernel": "SpMV"},
                {**_GOLDEN_FULL, "kernel": "SDDMM", "dataset": "ckt11752_dc_1"}),
    "evaluate": ({"kernel": "SpMV"},
                 {**_GOLDEN_FULL, "kernel": "SDDMM",
                  "dataset": "ckt11752_dc_1"}),
    "pipeline": ({"kernel": "attention"},
                 {**_GOLDEN_FULL, "kernel": "twohop",
                  "dataset": "random-50pct"}),
    # Partition requests run on the fixed evaluation seed.
    "partition": ({"kernel": "SpMV"},
                  {**_GOLDEN_FULL, "kernel": "DCSR-SpMM",
                   "dataset": "ckt11752_dc_1", "seed": 7}),
}

#: The manifests pinned next to them: one registry artefact, one plan.
_GOLDEN_MANIFESTS = (("table3", "1/2"),
                     ("partition:SpMV:bcsstk30:p2:row", "1/1"))


def request_goldens() -> dict:
    """The bytes ``tests/golden/requests.json`` pins: every action's
    canonical request JSON (hence every result cache key) and two shard
    manifests minus their per-run fields."""
    import contextlib
    import io
    import json

    from repro.__main__ import main
    from repro.api import CompileRequest

    canonical = {}
    for action, (minimal, full) in GOLDEN_REQUESTS.items():
        for label, fields in (("minimal", minimal), ("full", full)):
            request = CompileRequest(action=action, **fields)
            canonical[f"{action}/{label}"] = request.canonical_json()
    manifests = {}
    for artifact, shard in _GOLDEN_MANIFESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["batch", artifact, "--scale",
                         str(REQUEST_GOLDEN_SCALE), "--shard", shard,
                         "--out", "-"])
        assert code == 0, (artifact, code)
        manifest = json.loads(out.getvalue())
        del manifest["compiler"]
        for job in manifest["jobs"]:
            del job["seconds"], job["computed"]
        manifests[artifact] = manifest
    return {"canonical": canonical, "manifests": manifests}
