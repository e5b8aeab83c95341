"""Profile the numpy engine's per-call floor over reused plans.

Builds every kernel record at ``SCALE`` (``exec_small``'s 0.05), runs
each once through ``run_engine("numpy")`` so its ``ExecPlan`` is built,
then profiles ``CALLS`` more runs of each under cProfile and prints the
``TOP`` functions by own time (``tottime``). A plan-time decision that
slipped back into the run shows up here as a function called once per
run.

Usage:  PYTHONPATH=src python scripts/profile_engine_floor.py
"""

from __future__ import annotations

import cProfile
import pstats
import sys

SCALE = 0.05
CALLS = 500
TOP = 30


def main() -> int:
    from repro.api import CompileRequest, build
    from repro.kernels import KERNELS

    kernels = [build(CompileRequest(kernel=name, scale=SCALE))
               for name in KERNELS]
    for kernel in kernels:
        kernel.run_engine("numpy")
    profile = cProfile.Profile()
    profile.enable()
    for kernel in kernels:
        for _ in range(CALLS):
            kernel.run_engine("numpy")
    profile.disable()
    print(f"{CALLS} reused-plan run_engine('numpy') calls of each of "
          f"{len(kernels)} kernel records at scale {SCALE}")
    pstats.Stats(profile, stream=sys.stdout).sort_stats("tottime").print_stats(TOP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
