"""Profile where one partition request spends its time.

Runs each partition request of the ``partition_fuse`` workload
(``REQUESTS`` at ``SCALE``, as ``api.execute(..., use_cache=False)``)
once to warm the process, then ``ROUNDS`` more times with the phases
timed, and prints one row per request: the median ms spent in

* ``stage``  -- staging the full sparse operand and the dense operand;
* ``slice``  -- cutting the blocks' operands;
* ``lower``  -- lowering (``core.compiler._lower``);
* ``plan``   -- building numpy-engine ``ExecPlan``s;
* ``run``    -- the blocks' engine runs, plan builds excluded;
* ``oracle`` -- the reduce's unpartitioned oracle;
* ``report`` -- the report data (sha256, samples) and its text;

then the request's total, what no phase covers (statement builds,
concatenation, the executor, the API), its lowerings and its minor page
faults (``ru_minflt`` of the process: heap the allocator grows and
trims under the request). A per-request cost that is paid once per
block shows up as a phase that grows with the block count.

Usage:  PYTHONPATH=src python scripts/profile_partition.py
"""

from __future__ import annotations

import collections
import functools
import resource
import statistics
import sys
import time

#: The partition requests of ``partition_fuse``: (kernel, blocks).
REQUESTS = (("SpMV", 1), ("SpMV", 4), ("DCSR-SpMM", 4))
SCALE = 0.25
ROUNDS = 9
PHASES = ("stage", "slice", "lower", "plan", "run", "oracle", "report")

spent: collections.Counter = collections.Counter()
calls: collections.Counter = collections.Counter()


def timed(phase: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[phase] += time.perf_counter() - start
            calls[phase] += 1
    return wrapper


def instrument() -> None:
    """Wrap each phase's entry point with a timer."""
    from repro import convert
    from repro.backends import numpy_exec
    from repro.core import compiler
    from repro.pipeline import partition

    for prop in (partition.StagedOperands.full, partition.StagedOperands.dense):
        prop.func = timed("stage", prop.func)
    for name in ("slice_positions", "slice_rows"):
        setattr(convert, name, timed("slice", getattr(convert, name)))
    compiler._lower = timed("lower", compiler._lower)
    numpy_exec.ExecPlan.__init__ = timed("plan", numpy_exec.ExecPlan.__init__)
    compiler.CompiledKernel.run_engine_report = timed(
        "engine", compiler.CompiledKernel.run_engine_report)
    partition._validate_against_oracle = timed(
        "oracle", partition._validate_against_oracle)
    for name in ("_report_data", "format_partition"):
        setattr(partition, name, timed("report", getattr(partition, name)))


def profile(request) -> dict[str, float]:
    """One request's ms per phase, its total, its lowerings and its
    minor page faults."""
    from repro import api

    spent.clear()
    calls.clear()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    api.execute(request, use_cache=False)
    total = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    ms = {phase: spent[phase] * 1e3 for phase in PHASES}
    ms["run"] = (spent["engine"] - spent["plan"]) * 1e3
    ms["total"] = total * 1e3
    ms["other"] = ms["total"] - sum(ms[phase] for phase in PHASES)
    ms["lowerings"] = calls["lower"]
    ms["faults"] = faults
    return ms


def main() -> int:
    from repro import api

    instrument()
    columns = (*PHASES, "total", "other")
    print(f"partition requests at scale {SCALE}, use_cache=False, median "
          f"ms of {ROUNDS} runs after one warm-up")
    print(f"{'request':<14}" + "".join(f"{c:>8}" for c in columns)
          + f"{'lowerings':>11}{'faults':>8}")
    for kernel, blocks in REQUESTS:
        request = api.CompileRequest(kernel=kernel, scale=SCALE,
                                     partition=blocks, action="partition")
        profile(request)
        runs = [profile(request) for _ in range(ROUNDS)]
        row = {key: statistics.median(run[key] for run in runs)
               for key in runs[0]}
        print(f"{f'{kernel} p{blocks}':<14}"
              + "".join(f"{row[c]:>8.2f}" for c in columns)
              + f"{row['lowerings']:>11.0f}{row['faults']:>8.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
