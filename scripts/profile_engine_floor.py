"""Profile the numpy engine's per-call floor over reused plans.

Builds every kernel record at ``SCALE`` (``exec_small``'s 0.05), runs
each once through ``run_engine("numpy")`` so its ``ExecPlan`` is built,
then prints the floor table, one row per record: what building its
``ExecPlan`` costs in µs (the first run's share, paid once per statement
and by every one-shot caller: a partition block, a fusion stage); a
reused-plan ``run_engine``, the engine's ``run_plan`` under it and the
plan's own ``ExecPlan.run`` in µs (each the best of ``ROUNDS`` rounds of
``TIMED`` calls); the two gaps between them, ``run_engine - run_plan``
(the kernel's wrapper: the tracing check and the counters) and
``run_plan - ExecPlan.run`` (the plan lookup and its revalidation); and
the Python calls into ``repro`` one run makes. A floor that creeps up
shows in the gap it lands in, with no clock-based gate.
Then it profiles ``CALLS`` more runs of each under cProfile and prints
the ``TOP`` functions by own time (``tottime``). A plan-time decision
that slipped back into the run shows up here as a function called once
per run.

Usage:  PYTHONPATH=src python scripts/profile_engine_floor.py
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import sys
import timeit
from pathlib import Path

SCALE = 0.05
CALLS = 500
TOP = 30
TIMED = 50
ROUNDS = 5


def best_us(fn) -> float:
    return min(timeit.repeat(fn, number=TIMED, repeat=ROUNDS)) / TIMED * 1e6


def repro_calls(fn) -> int:
    """Python calls into the ``repro`` package one ``fn()`` makes."""
    import repro

    root = str(Path(repro.__file__).resolve().parent) + os.sep
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def main() -> int:
    from repro.api import CompileRequest, build
    from repro.backends.numpy_exec import ExecPlan, run_plan
    from repro.kernels import KERNELS

    kernels = [build(CompileRequest(kernel=name, scale=SCALE))
               for name in KERNELS]
    for kernel in kernels:
        kernel.run_engine("numpy")
    print(f"plan builds and reused-plan runs at scale {SCALE}, best of "
          f"{ROUNDS} x {TIMED}")
    print(f"{'kernel':<12} {'ExecPlan() us':>14} {'run_engine us':>14} "
          f"{'run_plan us':>12} {'ExecPlan.run us':>16} "
          f"{'engine-plan us':>15} {'plan-run us':>12} {'repro calls':>12}")
    for kernel in kernels:
        assignment = kernel.stmt.assignment
        build_plan = best_us(functools.partial(ExecPlan, assignment))
        run = functools.partial(kernel.run_engine, "numpy")
        engine = best_us(run)
        planned = best_us(functools.partial(run_plan, assignment))
        plan = best_us(assignment._exec_plan.run)
        print(f"{kernel.name:<12} {build_plan:>14.2f} {engine:>14.2f} "
              f"{planned:>12.2f} {plan:>16.2f} {engine - planned:>15.2f} "
              f"{planned - plan:>12.2f} {repro_calls(run):>12}")
    print()
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
