"""Distributed single-kernel scaling: partition blocks vs worker count.

Measures, for the partitionable kernels (``repro.pipeline.partition``)
on the bench dataset, the cost of row-blocking one kernel into P
independent sub-kernels (the compiled kernel over position-range views
of the once-staged operand) and reducing the partials back: per-P wall
clocks for the stage, slice, compute, and reduce phases, the end-to-end
speedup over the unpartitioned serial run, and — the gated invariants —
whether the reducing merge is byte-identical to serial (``merge_exact``)
and whether the blocks cover exactly the full operand's nonzeros
(``work_inflation``). Wall clocks are context only; CI's perf gate
(``scripts/check_bench_regression.py``) enforces just the two
deterministic invariants, which cannot flake on shared runners.

Runs as a pytest suite or standalone for CI's smoke configuration::

    python -m benchmarks.bench_partition --scale 0.05
"""

from __future__ import annotations

import time

#: Measurement scale: small enough for a per-PR smoke run; the gated
#: invariants (byte-identity, work conservation) are scale-independent.
SMOKE_SCALE = 0.05

#: The dataset the numbers are taken on (matrix kernels only).
BENCH_DATASET = "bcsstk30"

#: Worker/block counts on the scaling curve.
BENCH_COUNTS = (1, 2, 4)


def _phase_times(plan, scale: float) -> dict:
    """Stage/slice/compute/reduce wall clocks for one plan, cache-cold.

    ``stage_s`` and ``slice_s`` time the two operand steps on their own
    (one full staging; P position-range views). ``compute_s`` is the
    plan's jobs end to end, so it contains the run's own single staging
    and its views as well as compile + exec; ``total_s`` is therefore
    ``compute_s + reduce_s``.
    """
    from repro.convert import slice_positions
    from repro.pipeline.executor import run_jobs
    from repro.pipeline.partition import (
        StagedOperands,
        block_range,
        format_partition,
        reduce_partials,
    )

    t0 = time.perf_counter()
    full = StagedOperands(plan, scale, use_cache=False).full
    stage_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    sliced_nnz = 0
    for index in range(plan.count):
        lo, hi = block_range(full.dims[0], plan.count, index)
        sliced_nnz += int(slice_positions(full, lo, hi).nnz)
    slice_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    results = run_jobs(plan.jobs(scale, use_cache=False),
                       max_workers=plan.count)
    compute_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    data = reduce_partials(plan.artifact, results)
    reduce_s = time.perf_counter() - t0

    return {
        "stage_s": stage_s,
        "slice_s": slice_s,
        "compute_s": compute_s,
        "reduce_s": reduce_s,
        "total_s": compute_s + reduce_s,
        "work_inflation": sliced_nnz / int(full.nnz) if full.nnz else 1.0,
        "text": format_partition(data),
    }


def collect_metrics(scale: float = SMOKE_SCALE) -> dict:
    """Scaling curve per kernel: one entry per block count P.

    Returns the metrics dict for ``BENCH_partition.json``: under each
    kernel, ``p<P>`` entries with phase wall clocks, ``merge_exact``
    (the reduced report byte-equals the serial one), ``work_inflation``
    (sliced nonzeros over full nonzeros; 1.0 means no lost or
    duplicated work), and ``speedup`` over the serial run.
    """
    from repro.pipeline.partition import (
        PARTITION_FORMATS,
        PartitionPlan,
        serial_report,
    )

    metrics: dict[str, dict] = {}
    all_exact = True
    for kernel in sorted(PARTITION_FORMATS):
        t0 = time.perf_counter()
        serial = serial_report(kernel, BENCH_DATASET, scale,
                               use_cache=False)
        serial_s = time.perf_counter() - t0

        entry: dict[str, dict | float] = {"serial_s": serial_s}
        for count in BENCH_COUNTS:
            plan = PartitionPlan(kernel, BENCH_DATASET, count)
            timed = _phase_times(plan, scale)
            exact = timed.pop("text") == serial
            all_exact = all_exact and exact
            entry[f"p{count}"] = {
                **timed,
                "merge_exact": exact,
                "speedup": serial_s / timed["total_s"]
                if timed["total_s"] else 0.0,
            }
        metrics[kernel] = entry
    metrics["summary"] = {
        "merge_exact_all": all_exact,
        "counts": list(BENCH_COUNTS),
        "dataset": BENCH_DATASET,
    }
    return metrics


def run_smoke(scale: float = SMOKE_SCALE) -> dict:
    """Collect the metrics and write ``BENCH_partition.json``."""
    from benchmarks.bench_utils import write_bench_json

    metrics = collect_metrics(scale)
    path = write_bench_json("partition", metrics, scale=scale)
    print(f"wrote {path}")
    return metrics


def test_partition_merge_invariants():
    """Acceptance: byte-identical merges, no lost or duplicated work."""
    metrics = run_smoke()
    assert metrics["summary"]["merge_exact_all"]
    for kernel, entry in metrics.items():
        if kernel == "summary":
            continue
        for key, timed in entry.items():
            if not isinstance(timed, dict):
                continue
            assert timed["merge_exact"], f"{kernel} {key} not byte-exact"
            assert timed["work_inflation"] == 1.0, (
                f"{kernel} {key}: work inflation {timed['work_inflation']}")


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Single-kernel partition scaling smoke benchmark")
    parser.add_argument("--scale", type=float, default=SMOKE_SCALE)
    args = parser.parse_args(argv)
    metrics = run_smoke(args.scale)
    ok = True
    for kernel, entry in sorted(metrics.items()):
        if kernel == "summary":
            continue
        print(f"{kernel}: serial {entry['serial_s'] * 1e3:7.1f}ms")
        for key in sorted(k for k in entry if k.startswith("p")):
            timed = entry[key]
            ok = ok and timed["merge_exact"] and (
                timed["work_inflation"] == 1.0)
            print(f"  {key:4s} stage={timed['stage_s'] * 1e3:7.1f}ms "
                  f"slice={timed['slice_s'] * 1e3:7.1f}ms "
                  f"compute={timed['compute_s'] * 1e3:7.1f}ms "
                  f"reduce={timed['reduce_s'] * 1e3:7.1f}ms "
                  f"speedup={timed['speedup']:5.2f}x "
                  f"exact={timed['merge_exact']} "
                  f"inflation={timed['work_inflation']:.3f}")
    print(f"merge_exact_all={metrics['summary']['merge_exact_all']}")
    return 0 if ok and metrics["summary"]["merge_exact_all"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
