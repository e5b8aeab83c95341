#!/usr/bin/env python
"""Fail when a numpy-engine artefact cell fell back to the cpu walker.

``repro tables <artefact> --engine numpy`` leaves one ``exec`` stage
summary per (kernel, dataset) cell in the cache; each records
``fell_back``. This script re-reads those summaries — same
``REPRO_CACHE_DIR``, same ``--scale`` — and exits 1 if any cell fell
back, or if a summary is missing (the table was not run first), so the
zero-fallback invariant is gated by CI and not only by the ledger's
verification.

Usage::

    python scripts/check_engine_fallbacks.py table6 format_sweep --scale 0.05
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", nargs="+",
                        help="artefacts whose cells execute kernels "
                             "(table6, format_sweep)")
    parser.add_argument("--scale", type=float, required=True)
    args = parser.parse_args(argv)

    from repro import api
    from repro.pipeline import artifact_jobs, default_cache

    failures = []
    cells = 0
    for artifact in args.artifacts:
        for job in artifact_jobs(artifact, args.scale, engine="numpy"):
            kernel, dataset = job.key[:2]
            summary = api.exec_check(api.CompileRequest(
                kernel=kernel, dataset=dataset, scale=args.scale,
                engine="numpy"))
            cells += 1
            if summary["fell_back"]:
                failures.append(f"{artifact} {kernel}/{dataset}: the numpy "
                                f"engine fell back to the cpu walker")
    recomputed = default_cache().stats.stage_misses.get("exec", 0)
    if recomputed:
        failures.append(f"{recomputed} exec summaries were not in the cache: "
                        f"run `repro tables <artefact> --engine numpy "
                        f"--scale {args.scale}` first")
    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    if not failures:
        print(f"{cells} numpy-engine cells, 0 fallbacks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
