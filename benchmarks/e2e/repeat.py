"""How well the benchmark repeats: ``python benchmarks/e2e/repeat.py N``.

Runs every workload ``N`` times the way the gating driver does (one
workload per command, ``--trace 0``, a different ``--seed`` each time,
workloads interleaved) and prints, for each workload and end-to-end
metric, the median, the quartile spread as a share of the median (the
driver's acceptance statistic, from ``statistics.quantiles(n=4)``) and
the largest pairwise relative difference, beside the metric's bound.
Exits non-zero when a spread (``N >= 4``) or a pairwise difference
(``N < 4``) exceeds its bound, or any run reports a failure. Where a
metric misses, lengthen the run in ``spec.py``; do not widen the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def run_once(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(spec.RUN_SECONDS),
         "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    count = int(argv[0]) if argv else 3
    runs: dict[str, list[dict]] = {w: [] for w in spec.WORKLOADS}
    for seed in range(1, count + 1):
        for workload in spec.WORKLOADS:
            runs[workload].append(run_once(workload, seed))
            print(f"seed {seed} {workload}: "
                  f"failed {runs[workload][-1]['failed']}", file=sys.stderr)
    print(f"| workload | metric | median | quartile spread | "
          f"max pairwise | bound | runs |")
    print("| --- | --- | ---: | ---: | ---: | ---: | ---: |")
    bad = 0
    for workload, results in runs.items():
        bad += sum(r["failed"] for r in results)
        for metric in spec.END_TO_END:
            values = [r["metrics"][metric.name]["value"] for r in results]
            mid = statistics.median(values)
            pairwise = (max(values) - min(values)) / min(values)
            if count >= 4:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread, shown = (q3 - q1) / mid, f"{(q3 - q1) / mid:.2%}"
            else:
                spread, shown = pairwise, "n/a"
            flag = " **over**" if spread > metric.bound else ""
            bad += spread > metric.bound
            print(f"| {workload} | {metric.name} | {mid:.4f} {metric.unit} | "
                  f"{shown} | {pairwise:.2%} | {metric.bound:.0%}{flag} | "
                  f"{count} |")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
