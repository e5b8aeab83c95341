"""One command for every metric: ``python benchmarks/e2e/run.py``.

With no ``--workload`` it runs all seven, round-robin and rotated by one
each round so VM drift lands on every workload, prints every end-to-end
metric by name with its unit, verifies outputs, then makes the traced
round and prints the per-layer metrics. The driver that gates later PRs
calls it one workload at a time::

    run.py --workload W --seed N --seconds S --trace 0|1

and reads the last line of standard output: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import spec  # noqa: E402

TRACE_PATH = measure.OUT / "trace.json"


# -- children ---------------------------------------------------------------


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("what")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)
    if args.what == "layers":
        import layers

        result = layers.run(args.seed)
    else:
        import workloads

        result = measure.run_workload(workloads.make(args.what), args.seed,
                                      args.passes, args.spawned, args.trace)
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


# -- aggregation ------------------------------------------------------------


def host_factor(reference_ms: dict[str, list[float]]) -> float:
    """How much slower than nominal the host ran during one child."""
    return measure.geomean(
        measure.median(samples) / spec.REFERENCE_NOMINAL_MS[kind]
        for kind, samples in reference_ms.items())


def summarize(name: str, rounds: list[dict]) -> dict:
    """Fold one workload's rounds into its end-to-end metrics.

    Every timing of a round is first divided by that round's host
    factor, so a slow spell of the VM is not read as a slow program.
    """
    factors = [host_factor(r["reference_ms"]) for r in rounds]
    passes = [ms / f for r, f in zip(rounds, factors) for ms in r["pass_ms"]]
    ops: dict[str, list[float]] = {}
    for r, f in zip(rounds, factors):
        for op, samples in r["ops"].items():
            ops.setdefault(op, []).extend(ms / f for ms in samples)
    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(r["attempted"] for r in rounds)
    # Deterministic outputs must also agree between rounds.
    attempted += 1
    if any(r["digests"] != rounds[0]["digests"] for r in rounds):
        failures.append(f"{name}: output digests differ between rounds")
    op_rows = {op: {"n": len(s), "median_ms": measure.median(s),
                    "p90_ms": measure.quantile(s, 0.9)}
               for op, s in ops.items()}
    return {
        "metrics": {
            "setup_s": measure.median(
                r["setup_s"] / f for r, f in zip(rounds, factors)),
            "pass_ms": measure.median(passes),
            "geomean_ms": measure.geomean(
                row["median_ms"] for row in op_rows.values()),
            "peak_rss_mb": max(r["rss_mb"] for r in rounds),
        },
        "fail_share": len(failures) / attempted,
        "attempted": attempted,
        "failures": failures,
        "passes": len(passes),
        "ops": op_rows,
        "digests": rounds[0]["digests"],
        "short_samples": sum(r["short_samples"] for r in rounds),
        "host_factor": measure.median(factors),
        "raw_pass_ms": measure.median(
            ms for r in rounds for ms in r["pass_ms"]),
    }


def measure_untraced(scratch, names, seed, rounds, passes) -> dict:
    """``rounds`` fresh children per workload, round-robin, rotated."""
    results: dict[str, list[dict]] = {n: [] for n in names}
    for index in range(rounds):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            results[name].append(
                scratch.run_child(name, seed, passes[name]))
    return {name: summarize(name, results[name]) for name in names}


def measure_traced(scratch, names, seed, passes) -> dict:
    """The traced round: per-layer metrics, spans to ``out/trace.json``.

    One ``layers`` child times each layer's public functions; one child
    per workload alternates traced and untraced passes, which gives the
    benchmark's own tracing overhead. Returns the per-layer metrics.
    """
    layer = scratch.run_child("layers", seed)
    processes = {"layers": layer.pop("spans")}
    overheads = []
    for name in names:
        traced = scratch.run_child(
            name, seed, max(2, 2 * (passes[name] // 2)), trace=True)
        processes[name] = traced["spans"]
        overheads.append(100.0 * (measure.median(traced["traced_pass_ms"])
                                  / measure.median(traced["pass_ms"]) - 1.0))
        layer["failures"] += traced["failures"]
        layer["attempted"] += traced["attempted"]
    layer["metrics"]["obs.bench_trace_overhead_pct"] = measure.median(
        overheads)
    TRACE_PATH.write_text(json.dumps({
        "provenance": provenance(seed),
        "self_ms": {process: measure.self_times_ms(spans)
                    for process, spans in processes.items()},
        "spans": [dict(span, process=process)
                  for process, spans in processes.items() for span in spans],
    }))
    return layer


# -- reporting --------------------------------------------------------------


def provenance(seed: int) -> dict:
    from importlib.metadata import version

    head = measure.REPO / ".git" / "HEAD"
    sha = None
    if head.exists():
        ref = head.read_text().strip()
        target = (measure.REPO / ".git" / ref[5:] if ref.startswith("ref: ")
                  else None)
        sha = (target.read_text().strip() if target and target.exists()
               else ref)
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "scratch": str(measure.OUT.relative_to(measure.REPO)),
        "scratch_fs": filesystem_of(measure.OUT),
        "seed": seed,
        "rounds": spec.ROUNDS,
    }


def filesystem_of(path: Path) -> str:
    """The filesystem type ``path`` lives on (``tmpfs`` or a disk)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return kind
    for line in mounts:
        _, mount, fstype, *_ = line.split()
        if str(path).startswith(mount) and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def workload_lines(name: str, summary: dict) -> list[str]:
    units = {m.name: m.unit for m in spec.END_TO_END}
    return [
        f"\n== {name}: {summary['passes']} passes, "
        f"{summary['attempted']} ops/checks attempted ==",
        *(f"  {name}.{metric:<12} {value:>12.4f} {units[metric]}"
          for metric, value in summary["metrics"].items()),
        f"  {name}.{'fail_share':<12} {summary['fail_share']:>12.4f} ratio",
        f"  host factor {summary['host_factor']:.3f} "
        f"(uncorrected pass {summary['raw_pass_ms']:.3f} ms); "
        f"{summary['short_samples']} samples under "
        f"{spec.MIN_SAMPLE_MS:g} ms",
        f"  {'op':<34}{'n':>5}{'median ms':>12}{'p90 ms':>12}",
        *(f"  {op:<34}{row['n']:>5}{row['median_ms']:>12.3f}"
          f"{row['p90_ms']:>12.3f}" for op, row in summary["ops"].items()),
        *(f"  sha256 {op:<27} {digest[:16]}"
          for op, digest in summary["digests"].items()),
        *(f"  FAILED {failure}" for failure in summary["failures"][:10]),
    ]


def layer_lines(layer: dict) -> list[str]:
    return [
        "\n== per-layer metrics (traced round) ==",
        *(f"  {m.name:<44} {layer['metrics'][m.name]:>14.4f} {m.unit:<6}"
          f" -> {m.moves}" for m in spec.PER_LAYER),
        *(f"  FAILED {failure}" for failure in layer["failures"][:10]),
        f"  spans written to {TRACE_PATH.relative_to(measure.REPO)}",
    ]


def result_line(metrics: dict[str, tuple[float, str]], attempted: int,
                failed: int) -> str:
    """The driver's last line; ``metrics`` maps name to (value, unit)."""
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# -- entry point ------------------------------------------------------------


def check_smoke(lines: list[str], names: list[str]) -> list[str]:
    """Every BENCHMARK.json metric printed once per workload, with unit."""
    problems = []
    declared = json.loads((measure.REPO / "BENCHMARK.json").read_text())
    if declared != spec.benchmark_json():
        problems.append("BENCHMARK.json differs from spec.benchmark_json()")
    words = [line.split() for line in lines]
    expected = [(f"{name}.{m['name']}", m["unit"])
                for name in names for m in declared["end_to_end"]]
    expected += [(m["name"], m["unit"]) for m in declared["per_layer"]]
    for label, unit in expected:
        hits = [w for w in words if w[:1] == [label]]
        if len(hits) != 1 or hits[0][2] != unit:
            problems.append(f"{label}: printed {len(hits)} times")
    return problems


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        return child_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: the traced round only; "
                             "default: both")
    parser.add_argument("--smoke", action="store_true",
                        help="1 round, 2 passes, all workloads and the "
                             "traced round; asserts every metric in "
                             "BENCHMARK.json is printed once per workload")
    parser.add_argument("--json", metavar="FILE",
                        help="also write the full result (history format)")
    args = parser.parse_args(argv)
    if not (measure.SRC / "repro" / "__init__.py").exists():
        print(f"error: {measure.SRC}/repro is missing; the benchmark runs "
              f"from a checkout of the repository", file=sys.stderr)
        return 2

    if args.smoke and (args.workload or args.trace is not None):
        parser.error("--smoke runs everything; drop --workload and --trace")
    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    rounds = 1 if args.smoke else spec.ROUNDS
    passes = {n: 2 if args.smoke else spec.passes_for(n, args.seconds)
              for n in names}
    started = time.time()
    summaries, layer, lines = {}, None, []
    print(f"provenance: {json.dumps(provenance(args.seed))}")
    with measure.Scratch() as scratch:
        if args.trace != 1:
            summaries = measure_untraced(scratch, names, args.seed, rounds,
                                         passes)
            for name, summary in summaries.items():
                lines += workload_lines(name, summary)
        if args.trace != 0:
            layer = measure_traced(scratch, names, args.seed, passes)
            lines += layer_lines(layer)
    print("\n".join(lines))
    print(f"\nwall time {time.time() - started:.1f} s")

    attempted = sum(s["attempted"] for s in summaries.values())
    failures = [f for s in summaries.values() for f in s["failures"]]
    if layer is not None:
        attempted += layer["attempted"]
        failures += layer["failures"]
    if args.smoke:
        problems = check_smoke(
            [ln for text in lines for ln in text.splitlines()], names)
        for problem in problems:
            print(f"SMOKE {problem}")
        attempted += 1
        failures += problems
    if args.json:
        Path(args.json).write_text(json.dumps({
            "provenance": provenance(args.seed),
            "seconds": args.seconds,
            "workloads": summaries,
            "per_layer": layer["metrics"] if layer else None,
        }, indent=2, sort_keys=True) + "\n")

    if args.trace == 1:
        metrics = {m.name: (layer["metrics"][m.name], m.unit)
                   for m in spec.PER_LAYER}
    else:
        metrics = {(m.name if args.workload else f"{name}.{m.name}"):
                   (summary["metrics"][m.name], m.unit)
                   for name, summary in summaries.items()
                   for m in spec.END_TO_END}
    print(result_line(metrics, attempted, len(failures)))
    return 0 if not failures or args.workload else 1


if __name__ == "__main__":
    sys.exit(main())
