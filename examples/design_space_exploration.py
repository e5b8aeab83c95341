"""Design-space exploration through the environment command (Section 5.2).

The paper argues that the ``environment`` scheduling command lets an end
programmer "perform design-space exploration of the backend hardware
schedules and tensor-algebra kernels ... without direct knowledge of the
backend architecture". This example sweeps the two parallelization factors
for SpMV and SDDMM on a mid-size workload, reporting predicted cycles and
resource usage per configuration — exactly the auto-scheduling loop the
paper envisions.

Run:  python examples/design_space_exploration.py
"""

import numpy as np

from repro.capstan import HBM2E, CapstanSimulator
from repro.core import compile_stmt
from repro.formats import format_of
from repro.kernels import KERNELS
from repro.tensor.storage import from_dense


def make_tensors(kernel_name: str, n: int, density: float, rng):
    spec = KERNELS[kernel_name]
    shapes = spec.shapes((n, n), free=16)
    sparse = []
    for ts in spec.of_role("sparse"):
        shape = shapes[ts.name]
        dense = (rng.random(shape) < density) * rng.random(shape)
        sparse.append(from_dense(dense, format_of(ts.format)))
    return spec.operands(shapes, sparse, rng.random)


def explore(kernel_name: str, n: int = 512, density: float = 0.05) -> None:
    rng = np.random.default_rng(7)
    sim = CapstanSimulator()
    spec = KERNELS[kernel_name]
    print(f"--- {kernel_name}: {n}x{n} at {density:.0%} density ---")
    print(f"{'inner':>6s}{'outer':>6s}{'us':>10s}{'bottleneck':>12s}"
          f"{'PCU':>6s}{'PMU':>6s}{'MC':>5s}{'Shuf':>6s}")
    best = None
    for inner_par in (4, 8, 16):
        for outer_par in (1, 4, 8, 16, 32):
            tensors = make_tensors(kernel_name, n, density, rng)
            stmt, _ = spec.build(tensors, inner_par=inner_par,
                                 outer_par=outer_par)
            kernel = compile_stmt(stmt, kernel_name.lower())
            res = sim.simulate(kernel, dram=HBM2E)
            r = res.resources
            print(f"{inner_par:6d}{outer_par:6d}{res.seconds * 1e6:10.2f}"
                  f"{res.bottleneck:>12s}{r.pcu:6d}{r.pmu:6d}{r.mc:5d}"
                  f"{r.shuffle:6d}")
            if best is None or res.seconds < best[0]:
                best = (res.seconds, inner_par, outer_par)
    _, bi, bo = best
    print(f"best configuration: innerPar={bi}, outerPar={bo}\n")


if __name__ == "__main__":
    explore("SpMV")
    explore("SDDMM")
