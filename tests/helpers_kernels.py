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

#: Kernels with a ``tests/golden/<name>.spatial`` snapshot: every record.
SPATIAL_GOLDEN_KERNELS = tuple(KERNELS)


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


def _hash_storage(h, storage) -> None:
    """Feed one storage's level arrays and ``vals`` (dtype and bytes, in
    level order) to the sha256 ``h``."""
    for lvl in storage.levels:
        h.update(type(lvl).__name__.encode())
        for field in ("size", "pos", "crd"):
            if hasattr(lvl, field):
                arr = np.asarray(getattr(lvl, field))
                h.update(f"{field}:{arr.dtype}".encode())
                h.update(arr.tobytes())
    h.update(f"vals:{storage.vals.dtype}".encode())
    h.update(storage.vals.tobytes())


def dataset_digest(kernel: str, dataset: str, scale: float,
                   seed: int = DATASET_GOLDEN_SEED) -> str:
    """sha256 over every operand's level arrays and ``vals``, as
    ``data.load`` packs them: dtype and bytes, in operand and level order."""
    from repro.data import load

    h = hashlib.sha256()
    for name, tensor in load(kernel, dataset, scale=scale, seed=seed).items():
        storage = tensor.storage
        h.update(f"{name}:{storage.dims}".encode())
        _hash_storage(h, storage)
    return h.hexdigest()


def dataset_digests() -> dict[str, dict[str, str]]:
    """``{scale: {"kernel/dataset": digest}}`` for the dataset golden."""
    return {
        str(scale): {f"{k}/{d}": dataset_digest(k, d, scale)
                     for k, d in dataset_pairs()}
        for scale in DATASET_GOLDEN_SCALES
    }


#: Flat input shape per tensor order for ``tests/golden/conversions.json``
#: (a blocked format blocks the order-2 shape; 6 and 9 are not tile
#: multiples, so tiles pad).
CONVERSION_SHAPES = {1: (9,), 2: (6, 9), 3: (4, 5, 6)}


def conversion_input(fmt):
    """``(storage, flat dims)``: a small input packed into ``fmt``, with an
    explicit ``0.0`` and a ``-0.0`` among its entries."""
    from repro.convert import block_coords, blocked_dims
    from repro.tensor.storage import pack

    sizes = tuple(mf.size for mf in fmt.mode_formats if mf.is_block)
    dims = CONVERSION_SHAPES[fmt.order - len(sizes)]
    rng = np.random.default_rng(len(dims))
    dense = (rng.random(dims) < 0.4) * (rng.random(dims) + 0.5)
    coords = np.argwhere(dense)
    vals = dense[tuple(coords.T)]
    vals[0], vals[-1] = 0.0, -0.0
    if sizes:
        return pack(block_coords(coords, sizes), vals,
                    blocked_dims(dims, sizes), fmt), dims
    return pack(coords, vals, dims, fmt), dims


def conversion_digests() -> dict[str, dict[str, str]]:
    """``{"source->target[@dims]": {"plan" | "error": text, "sha256": ...}}``
    over every ordered pair of registered formats, with and without the
    input's flat dims pinned: what ``tests/golden/conversions.json`` pins."""
    from repro.convert import plan_conversion
    from repro.formats import format_of
    from repro.formats.format import registered_formats

    cases = {}
    names = sorted(registered_formats())
    for src in names:
        storage, flat = conversion_input(format_of(src))
        for dst in names:
            for dims in (None, flat):
                key = f"{src}->{dst}" + ("" if dims is None else f"@{dims}")
                try:
                    plan = plan_conversion(storage.fmt, format_of(dst), dims)
                    out = plan.run(storage)
                except ValueError as exc:  # ConversionError, or pack's
                    cases[key] = {"error": f"{type(exc).__name__}: {exc}"}
                    continue
                h = hashlib.sha256(str(out.dims).encode())
                _hash_storage(h, out)
                cases[key] = {"plan": plan.describe(),
                              "sha256": h.hexdigest()}
    return cases


def reference_pack(coords, vals, dims, fmt):
    """``pack`` as a per-level Horner-key walk: each compressed level ranks
    the distinct ``parent * dim + coordinate`` keys of the sorted,
    duplicate-free entries. Slower than ``pack``'s one walk, and the
    arrays it builds must be equal to ``pack``'s."""
    from repro.tensor.storage import (
        CompressedLevel,
        DenseLevel,
        SingletonLevel,
        TensorStorage,
        _dedupe_coo,
    )

    coords = np.asarray(coords, dtype=np.int64).reshape(-1, len(dims))
    coords, vals = _dedupe_coo(coords, np.asarray(vals, dtype=np.float64),
                               fmt.mode_ordering)
    n = coords.shape[0]
    levels = []
    parent_pos = np.zeros(n, dtype=np.int64)
    num_parents = 1
    for lvl_idx in range(len(dims)):
        mode = fmt.mode_of_level(lvl_idx)
        dim = dims[mode]
        lvl_coords = coords[:, mode]
        lf = fmt.level_format(lvl_idx)
        if lf.is_dense:
            levels.append(DenseLevel(dim))
            parent_pos = parent_pos * dim + lvl_coords
            num_parents *= dim
        elif lf.is_singleton:
            if n != num_parents or (parent_pos[1:] == parent_pos[:-1]).any():
                raise ValueError("singleton level needs one entry per parent")
            crd = np.zeros(num_parents, dtype=np.int32)
            crd[parent_pos] = lvl_coords
            levels.append(SingletonLevel(crd=crd))
        else:
            key = parent_pos * dim + lvl_coords
            new_group = np.ones(n, dtype=bool)
            if lf.unique:
                new_group[1:] = key[1:] != key[:-1]
            group_rank = np.cumsum(new_group) - 1
            uniq_parent = parent_pos[new_group]
            uniq_crd = (key[new_group] % dim).astype(np.int32)
            pos = np.bincount(uniq_parent + 1, minlength=num_parents + 1
                              ).astype(np.int64, copy=False)
            np.cumsum(pos, out=pos)
            levels.append(CompressedLevel(pos=pos, crd=uniq_crd))
            parent_pos = group_rank
            num_parents = len(uniq_crd)
    out_vals = np.zeros(num_parents, dtype=np.float64)
    out_vals[parent_pos] = vals
    return TensorStorage(fmt, tuple(dims), levels, out_vals)


#: Scale of ``tests/golden/table6-1.0.txt``: the paper's datasets.
TABLE6_GOLDEN_SCALE = 1.0

#: Artefacts whose text does not depend on the scale, pinned whole as
#: ``tests/golden/<name>.txt`` at their default scale.
STRUCTURAL_GOLDENS = ("table3", "table5")


def artifact_text(name: str, scale: float | None = None) -> str:
    """``tables NAME --scale S`` stdout (S defaults to the artefact's
    own), rendered cold: serially, into a fresh memory-only default
    cache that is swapped back afterwards."""
    from repro.pipeline import cache as cache_mod
    from repro.pipeline.batch import (format_artifact, resolve_artifact,
                                      run_artifact)

    if scale is None:
        scale = resolve_artifact(name).default_scale
    saved = cache_mod._default_cache
    cache_mod._default_cache = cache_mod.CompilationCache(disk=False)
    try:
        return format_artifact(name, run_artifact(name, scale, jobs=1)) + "\n"
    finally:
        cache_mod._default_cache = saved


#: Scales pinned by ``tests/golden/execution.json`` (seed: the dataset one).
EXECUTION_GOLDEN_SCALE = 0.01
PIPELINE_GOLDEN_SCALE = 0.05


#: Records whose run keys cover every output row at the benchmark's
#: scales: each run's sum lands in its own row, in key order.
IDENTITY_KEYED_KERNELS = ("SpMV", "MatTransMul", "Residual", "COO-SpMV",
                          "BCSR-SpMV", "DCSR-SpMM")

#: ``(kernel, scale)`` pairs pinned for the numpy engine: every record at
#: the execution scale and at 0.05 (the ``exec_small`` scale, where
#: SDDMM's gathers span several blocks), plus the identity-keyed records
#: at 0.25, whose runs are long enough for ``reduceat``'s SIMD order.
NUMPY_GOLDEN_CASES = (*((k, EXECUTION_GOLDEN_SCALE) for k in KERNELS),
                      *((k, 0.05) for k in KERNELS),
                      *((k, 0.25) for k in IDENTITY_KEYED_KERNELS))


def _golden_kernel(kernel: str, scale: float = EXECUTION_GOLDEN_SCALE):
    from repro.api import CompileRequest, build

    return build(CompileRequest(kernel=kernel, scale=scale,
                                seed=DATASET_GOLDEN_SEED))


def _array_digest(result) -> str:
    result = np.asarray(result, dtype=np.float64)
    h = hashlib.sha256(str(result.shape).encode())
    h.update(np.ascontiguousarray(result).tobytes())
    return h.hexdigest()


def run_dense_digest(kernel: str) -> str:
    """sha256 over the shape and float64 bytes of ``run_dense()`` for one
    kernel record on its default dataset: the interpreter's output."""
    return _array_digest(_golden_kernel(kernel).run_dense())


def numpy_digest(kernel: str, scale: float) -> str:
    """The same digest over the numpy engine's result, densified."""
    return _array_digest(_golden_kernel(kernel, scale).run_engine("numpy"))


def numpy_golden_key(kernel: str, scale: float) -> str:
    return f"{kernel}@{scale}"


def pipeline_checksum(name: str) -> str:
    """``run_pipeline``'s final checksum for one registered pipeline on its
    first dataset, numpy engine (every stage is checked against the
    interpreter on the way)."""
    from repro.pipeline.fusion import PIPELINES, run_pipeline

    return run_pipeline(name, PIPELINES[name].datasets[0],
                        scale=PIPELINE_GOLDEN_SCALE, seed=DATASET_GOLDEN_SEED,
                        engine="numpy")["checksum"]


#: Scale of the partition reports pinned by ``tests/golden/execution.json``.
PARTITION_GOLDEN_SCALE = 0.25

#: Partition plans whose reports are pinned: the serial reference and a
#: row split of each kernel, a contraction (``sum``) split, and a matrix
#: with hub rows.
PARTITION_GOLDEN_PLANS = (
    "partition:SpMV:bcsstk30:p1:row",
    "partition:SpMV:bcsstk30:p4:row",
    "partition:DCSR-SpMM:bcsstk30:p4:row",
    "partition:DCSR-SpMM:bcsstk30:p2:sum",
    "partition:SpMV:ckt11752_dc_1:p3:row",
)


def partition_report(artifact: str) -> str:
    """``tables ARTEFACT --scale 0.25 --engine numpy`` text, computed
    serially without the cache; ``oracle maxerr`` included."""
    from repro.pipeline.batch import format_artifact, run_artifact

    return format_artifact(artifact, run_artifact(
        artifact, PARTITION_GOLDEN_SCALE, jobs=1, use_cache=False,
        engine="numpy"))


def execution_digests() -> dict[str, dict[str, str]]:
    """Everything ``tests/golden/execution.json`` pins."""
    from repro.pipeline.fusion import PIPELINES

    return {"run_dense": {k: run_dense_digest(k) for k in KERNELS},
            "numpy": {numpy_golden_key(k, s): numpy_digest(k, s)
                      for k, s in NUMPY_GOLDEN_CASES},
            "pipelines": {p: pipeline_checksum(p) for p in PIPELINES},
            "partitions": {a: partition_report(a)
                           for a in PARTITION_GOLDEN_PLANS}}


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


#: argv the CLI refuses, pinned by ``tests/golden/cli.json``. None names
#: a temp path, and the trace row runs with ``REPRO_TRACE_DIR`` unset.
#: ``compile COO-SpMV --cpu`` stays pinned at exit 0: its C once refused.
CLI_REFUSALS = (
    ["tables", "nope"],
    ["batch", "table3"],
    ["merge"],
    ["pipeline"],
    ["pipeline", "nosuch"],
    ["compile", "NoSuch"],
    ["simulate", "Plus3", "--dataset", "bcsstk30"],
    ["convert", "csr", "nosuch"],
    ["dispatch", "table3", "--workers", "carrier-pigeon:2"],
    ["trace", "summary"],
    ["compile", "COO-SpMV", "--cpu"],
    ["compile", "Plus3", "--cpu"],
    ["serve", "--port", "70000"],
    ["worker", "queue-dir", "--poll", "-1"],
    ["worker", "queue-dir", "--poll", "0"],
    ["worker", "queue-dir", "--max-chunks", "0"],
)


def cli_goldens() -> dict:
    """The bytes ``tests/golden/cli.json`` pins: each subcommand's sorted
    option strings and positional names, and for each ``CLI_REFUSALS``
    argv its exit code and stderr. A refusal ``main`` returns keeps its
    whole stderr; an argparse refusal keeps only its last line, the
    error, because the usage lines above it may reorder."""
    import argparse
    import contextlib
    import io
    import os

    from repro.__main__ import build_parser, main
    from repro.obs import TRACE_ENV

    commands = {}
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        commands[name] = {
            "options": sorted(option for action in parser._actions
                              for option in action.option_strings),
            "positionals": [action.dest for action in parser._actions
                            if not action.option_strings],
        }
    refusals = {}
    saved = os.environ.pop(TRACE_ENV, None)
    try:
        for argv in CLI_REFUSALS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(list(argv))
                    stderr = err.getvalue()
                except SystemExit as exc:
                    code = exc.code
                    stderr = err.getvalue().splitlines()[-1] + "\n"
            refusals[" ".join(argv)] = {"code": code, "stderr": stderr}
    finally:
        if saved is not None:
            os.environ[TRACE_ENV] = saved
    return {"commands": commands, "refusals": refusals}


#: Every ``LoweringError`` the emitted C may raise, by message fragment,
#: with the reason: a schedule or record that refuses with one of these is
#: not lowered to C, and any other refusal is a fault.
C_REFUSALS = {
    "the C emitter declares only scalar workspaces":
        "a tensor workspace (Plus3's T) would need level arrays of its own",
    "no dimension for":
        "a split or fused loop's variable indexes no tensor mode, and the "
        "C emitter lowers no split or fuse",
    "is read before the loop that iterates it binds its position":
        "a dense loop reads a compressed operand (y = s + a, s sparse) "
        "only by merging it against the universe, which the C emitter, "
        "like the Spatial lowering, does not do",
}


def _c_array(ctype: str, name: str, values) -> str:
    return (f"{ctype} {name}[{len(values)}] = "
            f"{{{', '.join(repr(v) for v in values.tolist())}}};")


def run_emitted_c(stmt, name: str = "kernel"):
    """The emitted TACO-style C of ``stmt``, run: each operand's level
    arrays and values are C globals named as the emitter names them
    (``A2_pos``, ``A2_crd``, ``A2_dim``, ``A_vals``, ``alpha_val``), the
    output is a zeroed dense ``vals``, and ``gcc -fsanitize=address``
    builds it. Returns the output densified; the emitter's
    ``LoweringError`` propagates. A compile error, a non-zero exit or any
    stderr (where AddressSanitizer reports) fails the caller."""
    import math
    import subprocess
    import tempfile
    from pathlib import Path

    from repro.backends.cpu import CpuCodegen

    codegen = CpuCodegen(stmt, name)
    kernel = codegen.generate()
    out = codegen.analysis.output
    lines = ["#include <stdio.h>",
             "typedef struct taco_tensor_t taco_tensor_t;"]
    for t in (out, *codegen.analysis.inputs):
        if t.order == 0:
            value = 0.0 if t is out else t.scalar_value()
            lines.append(f"double {t.name}_val = {value!r};")
            continue
        dims = [t.shape[t.format.mode_of_level(L)] for L in range(t.order)]
        lines += [f"int {t.name}{L + 1}_dim = {d};" for L, d in enumerate(dims)]
        if t is out:
            lines.append(f"double {t.name}_vals[{math.prod(dims)}];")
            continue
        for L, level in enumerate(t.storage.levels):
            lines += [_c_array("int", f"{t.name}{L + 1}_{array}", values)
                      for array, values in level.arrays.items()]
        lines.append(_c_array("double", f"{t.name}_vals", t.storage.vals))
    size = math.prod(out.shape)
    result = f"{out.name}_val" if out.order == 0 else f"{out.name}_vals[n]"
    args = ", ".join(["0"] * kernel.splitlines()[1].count("taco_tensor_t *"))
    lines += [kernel, "int main(void) {",
              f"  compute_{codegen.name}({args});",
              f"  for (int n = 0; n < {size}; n++) "
              f"printf(\"%.17g\\n\", {result});",
              "  return 0;", "}"]
    with tempfile.TemporaryDirectory() as tmp:
        source, exe = Path(tmp) / f"{codegen.name}.c", Path(tmp) / "kernel"
        source.write_text("\n".join(lines) + "\n")
        build = subprocess.run(["gcc", "-g", "-fsanitize=address", "-o",
                                str(exe), str(source)],
                               capture_output=True, text=True)
        assert build.returncode == 0, build.stderr + kernel
        run = subprocess.run([str(exe)], capture_output=True, text=True,
                             timeout=60)
    assert run.returncode == 0 and not run.stderr, run.stderr + kernel
    values = np.array(run.stdout.split(), dtype=np.float64)
    if out.order == 0:
        return values[0]
    levels = values.reshape([out.shape[out.format.mode_of_level(L)]
                             for L in range(out.order)])
    return levels.transpose([out.format.level_of_mode(m)
                             for m in range(out.order)])


def assert_emitted_c_matches(stmt, reference, name: str = "kernel"):
    """The emitted C of ``stmt`` computes ``reference``, or refuses with a
    message on the written ``C_REFUSALS`` list; returns that message."""
    from repro.core.coiteration import LoweringError

    try:
        result = run_emitted_c(stmt, name)
    except LoweringError as exc:
        assert any(f in str(exc) for f in C_REFUSALS), str(exc)
        return str(exc)
    assert np.allclose(result, reference), ("C", result, reference)
    return None
