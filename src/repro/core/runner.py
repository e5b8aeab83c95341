"""Host-side runtime: bind tensor data to a generated program and run it.

The host (in the paper, the CPU driving Capstan) initialises DRAM from the
packed tensor storages, binds the program's symbolic dimensions, launches
the accelerator, and reassembles the result tensor from the output DRAM
arrays. This module implements that contract around the functional Spatial
interpreter; the Capstan simulator reuses the same symbol binding for its
cost evaluation.
"""

from __future__ import annotations


import numpy as np

from repro.spatial.interp import Machine, execute
from repro.spatial.ir import SpatialProgram
from repro.tensor.storage import (
    CompressedLevel,
    DenseLevel,
    SingletonLevel,
    TensorStorage,
)
from repro.tensor.tensor import Tensor

#: Name of the staging-capacity symbol emitted by the lowerer.
from repro.core.lowering import NNZ_ACCEL_MAX


def bind_symbols(
    program: SpatialProgram,
    tensors: dict[str, Tensor],
    output_name: str,
) -> dict[str, int]:
    """Compute values for every symbol the program declares.

    Dimension symbols come from tensor shapes; nnz symbols from packed
    storage (for the output, a safe upper bound: the dense size, capped by
    the total input nnz budget when all inputs are sparse is not sound for
    unions, so the dense size is used).
    """
    values: dict[str, int] = {}
    max_extent = 1
    for t in tensors.values():
        fmt = t.format
        for level in range(fmt.order):
            dim = t.shape[fmt.mode_of_level(level)]
            values[f"{t.name}{level + 1}_dim"] = dim
            max_extent = max(max_extent, dim)
        if t.name == output_name:
            continue
        if t.order == 0:
            values[t.name] = t.scalar_value()
            continue
        storage = t.storage
        for level, lvl in enumerate(storage.levels):
            if isinstance(lvl, (CompressedLevel, SingletonLevel)):
                values[f"{t.name}{level + 1}_nnz"] = lvl.nnz
                max_extent = max(max_extent, lvl.nnz)
        max_extent = max(max_extent, len(storage.vals))
    # Output nnz bounds: dense size per level prefix.
    out = tensors.get(output_name)
    if out is not None and out.order > 0:
        prefix = 1
        fmt = out.format
        for level in range(fmt.order):
            prefix *= out.shape[fmt.mode_of_level(level)]
            if fmt.level_format(level).is_compressed:
                values.setdefault(f"{out.name}{level + 1}_nnz", prefix)
            max_extent = max(max_extent, prefix)
    values[NNZ_ACCEL_MAX] = max_extent + 1
    return values


def bind_dram(program: SpatialProgram, tensors: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """DRAM initial contents from packed input storages."""
    data: dict[str, np.ndarray] = {}
    for layout in program.layouts.values():
        if layout.is_output:
            continue
        t = tensors[layout.tensor]
        if t.order == 0:
            continue
        storage = t.storage
        for role, dram_name in layout.arrays.items():
            if role == "vals":
                data[dram_name] = storage.vals.astype(np.float64)
            elif role.startswith("pos"):
                level = int(role[3:])
                data[dram_name] = storage.array(level, "pos").astype(np.float64)
            elif role.startswith("crd"):
                level = int(role[3:])
                data[dram_name] = storage.array(level, "crd").astype(np.float64)
    return data


def assemble_output(
    machine: Machine, program: SpatialProgram, output: Tensor
) -> TensorStorage:
    """Rebuild the output tensor's storage from the final DRAM state."""
    layout = program.layouts[output.name]
    fmt = output.format
    if output.order == 0:
        vals = machine.dram[layout.arrays["vals"]][:1].copy()
        return TensorStorage(fmt, (), [], vals)
    levels: list[DenseLevel | CompressedLevel] = []
    num_parents = 1
    for level in range(fmt.order):
        dim = output.shape[fmt.mode_of_level(level)]
        if fmt.level_format(level).is_dense:
            levels.append(DenseLevel(dim))
            num_parents *= dim
        else:
            pos_arr = machine.dram[layout.arrays[f"pos{level}"]]
            pos = pos_arr[: num_parents + 1].astype(np.int64)
            nnz = int(pos[num_parents])
            crd = machine.dram[layout.arrays[f"crd{level}"]][:nnz].astype(np.int32)
            levels.append(CompressedLevel(pos=pos, crd=crd))
            num_parents = nnz
    vals = machine.dram[layout.arrays["vals"]][:num_parents].copy()
    return TensorStorage(fmt, output.shape, levels, vals)


def run_program(
    program: SpatialProgram,
    tensors: dict[str, Tensor],
    output_name: str,
) -> TensorStorage:
    """Bind data, execute functionally, and assemble the result."""
    symbols = bind_symbols(program, tensors, output_name)
    dram = bind_dram(program, tensors)
    machine = execute(program, dram, symbols)
    return assemble_output(machine, program, tensors[output_name])
