"""Regenerate every evaluation artefact at full Table 4 scale.

The one command that loops over all the artefacts (``python -m repro
tables ARTEFACT`` prints one). Writes the formatted tables/figures to
results/ and prints them; results/ is git-ignored and no run is checked
in (the nightly CI sweep uploads its own as a build artifact). The
structural artefacts (Tables 3 and 5) stay at their records' default
scale. Each artefact's (kernel, dataset) jobs run through
``repro.pipeline``: pass ``--jobs N`` to fan them out over N threads, and ``--no-cache`` to force a cold recomputation
(dataset generation is a separately-staged cache entry, so even that
reuses previously generated datasets); otherwise repeated runs reuse the
on-disk cache under REPRO_CACHE_DIR (default ~/.cache/repro). An
artefact with a failed job is reported and skipped; the others are
still written, and the exit status is 1.

``--workers SPEC`` runs the sweep through the fault-tolerant
dispatcher (``repro.pipeline.dispatch``): every artefact's job list is
leased chunk-by-chunk to a pool of workers (``local:N`` worker
processes, ``ssh:host1,host2``, or an elastic ``queue:DIR`` pool that
`repro worker` processes attach to; one pool serves every artefact, so
``local:`` / ``ssh:`` workers start once), dead or hung workers lose
their lease,
and the merged artefacts — byte-identical to the serial run — land in
results/ alongside the per-chunk manifests (under results/dispatch/),
so an interrupted sweep resumes where it stopped. Each dispatched
artefact also writes a ``summary.json`` (chunks, attempts, faults)
under its results/dispatch/<artefact>/ state directory — the nightly CI
sweep uploads these so regressions are inspectable across runs.

Usage:  python scripts/run_experiments.py [scale] [--jobs N] [--no-cache]
                                          [--workers SPEC]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engines import ENGINES
from repro.pipeline.batch import ARTEFACTS
from repro.pipeline.cache import default_cache
from repro.pipeline.executor import run_jobs

OUT = Path(__file__).resolve().parent.parent / "results"


def _sweep_scales(scale: float) -> list[tuple[str, float]]:
    """(artefact, scale) in regeneration order: structural artefacts
    (LoC, resources) stay at their record's tiny default."""
    return [(name, record.default_scale if record.structural else scale)
            for name, record in ARTEFACTS.items()]


def _run_dispatch(args, use_cache) -> int:
    """Dispatch every artefact's sweep over a fault-tolerant worker pool."""
    import json

    from repro.pipeline.dispatch import (
        DispatchError,
        dispatch,
        dispatch_summary_payload,
        parse_transport,
    )

    try:
        transport = parse_transport(args.workers)
    except DispatchError as exc:
        print(f"dispatch error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    state_root = OUT / "dispatch"
    t0 = time.time()
    bad = 0
    try:
        for artifact, at in _sweep_scales(args.scale):
            def event(message, _artifact=artifact):
                print(f"[{_artifact}] {message}", file=sys.stderr)

            state_dir = state_root / artifact
            try:
                result = dispatch(
                    artifact, at, transport,
                    use_cache=use_cache, worker_jobs=args.jobs,
                    state_dir=state_dir, engine=args.engine,
                    # The pool (a queue's attached workers, each slot's
                    # worker process) survives between artefacts; the
                    # finally below stops it after the last one.
                    stop_queue=False,
                    on_event=event,
                )
            except DispatchError as exc:
                print(f"dispatch error: {exc}", file=sys.stderr)
                return 2
            print(result.summary())
            # Inspectable residue per artefact: the dispatch summary
            # (chunks, attempts, faults). The nightly sweep uploads it.
            (state_dir / "summary.json").write_text(
                json.dumps(dispatch_summary_payload(result), indent=2) + "\n")
            if result.ok:
                (OUT / f"{artifact}.txt").write_text(result.merged.text + "\n")
                print(f"\n##### {artifact}.txt (scale={at})")
                print(result.merged.text)
            else:
                bad += 1
                for line in result.failure_report():
                    print(line, file=sys.stderr)
    finally:
        # Stop the pool exactly once, after the whole sweep (or on any
        # error), so attached and slot workers exit.
        transport.close(stop=True)
    print(f"\nTotal time: {time.time() - t0:.1f}s; manifests in "
          f"{state_root}/; artefacts in {OUT}/")
    return 1 if bad else 0


def _run_serial(args, use_cache) -> int:
    """Run every artefact's jobs in this process; a failed job skips its
    artefact, not the sweep."""
    OUT.mkdir(exist_ok=True)
    t0 = time.time()
    bad = 0
    for name, at in _sweep_scales(args.scale):
        record = ARTEFACTS[name]
        results = run_jobs(record.jobs(at, use_cache, args.engine),
                           max_workers=args.jobs)
        failures = [res for res in results if not res.ok]
        for failure in failures:
            print(f"FAILED {failure.job}:\n{failure.error}", file=sys.stderr)
        if failures:
            bad += 1
            continue
        text = record.render(record.assemble(results))
        (OUT / f"{name}.txt").write_text(text + "\n")
        print(f"\n##### {name}.txt (scale={at})")
        print(text)

    stats = default_cache().stats
    stages = stats.stage_summary()
    print(f"\nTotal time: {time.time() - t0:.1f}s; "
          f"cache: {stats.hits} hits / {stats.misses} misses"
          + (f" [{stages}]" if stages else "")
          + f"; artefacts in {OUT}/")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", type=float, default=1.0)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--workers", metavar="SPEC", default=None,
                        help="dispatch all artefacts over a worker pool "
                             "(local:N, ssh:host1,host2, or queue:DIR) "
                             "with dynamic leases and automatic resume")
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help="functionally execute each cell that runs a "
                             "kernel with this engine and validate it "
                             "against the interpreter oracle")
    args = parser.parse_args(argv)
    use_cache = False if args.no_cache else None
    if args.workers:
        return _run_dispatch(args, use_cache)
    return _run_serial(args, use_cache)


if __name__ == "__main__":
    sys.exit(main())
