"""Regenerate every evaluation artefact at full Table 4 scale.

Writes the formatted tables/figures to results/ and prints them;
results/ is git-ignored and no run is checked in (the nightly CI sweep
uploads its own as a build artifact). The regeneration routes through
``repro.pipeline``: pass ``--jobs N`` (or set REPRO_JOBS) to fan the
(kernel, dataset) work out over N workers, and ``--no-cache`` to force a
cold recomputation (dataset generation is a separately-staged cache
entry, so even that reuses previously generated datasets); otherwise
repeated runs reuse the on-disk cache under REPRO_CACHE_DIR (default
~/.cache/repro).

For multi-host sweeps, ``--shard I/N`` runs this host's deterministic
slice of every artefact's job list and writes shard manifests to
``--shard-dir`` instead of tables; collect the manifests from all N
hosts and fold each artefact with ``python -m repro merge``.

``--workers SPEC`` replaces static sharding with the fault-tolerant
dispatcher (``repro.pipeline.dispatch``): every artefact's job list is
leased chunk-by-chunk to a pool of workers (``local:N`` subprocesses,
``ssh:host1,host2``, or an elastic ``queue:DIR`` pool that `repro
worker` processes attach to), dead or hung workers lose their lease,
and the merged artefacts — byte-identical to the serial run — land in
results/ alongside the per-chunk manifests (under results/dispatch/),
so an interrupted sweep resumes where it stopped. Each dispatched
artefact also writes a ``summary.json`` (chunks, attempts, faults)
under its results/dispatch/<artefact>/ state directory — the nightly CI
sweep uploads these so regressions are inspectable across runs.

Usage:  python scripts/run_experiments.py [scale] [--jobs N] [--no-cache]
                                          [--shard I/N [--shard-dir DIR]]
                                          [--workers SPEC]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.engines import ENGINES
from repro.pipeline.batch import ARTEFACTS, run_batch
from repro.pipeline.cache import default_cache

OUT = Path(__file__).resolve().parent.parent / "results"


def _sweep_scales(scale: float) -> list[tuple[str, float]]:
    """(artefact, scale) in regeneration order: structural artefacts
    (LoC, resources) stay at their record's tiny default."""
    return [(name, record.default_scale if record.structural else scale)
            for name, record in ARTEFACTS.items()]


def _run_shard(args, use_cache) -> int:
    """Write this host's shard manifest for every artefact."""
    from repro.pipeline.shard import ShardSpec, run_shard

    spec = ShardSpec.parse(args.shard)
    shard_dir = args.shard_dir
    shard_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for artifact, at in _sweep_scales(args.scale):
        manifest = run_shard(artifact, at, spec, jobs=args.jobs,
                             use_cache=use_cache, engine=args.engine)
        out = shard_dir / f"{artifact}.shard{spec.index}of{spec.count}.json"
        manifest.save(out)
        failed = len(manifest.failures())
        failures += failed
        print(f"{artifact:10s} shard {spec}: {len(manifest.jobs)}/"
              f"{manifest.total_jobs} job(s), {failed} failed -> {out}")
    print(f"\nCollect all {spec.count} hosts' manifests, then per artefact:\n"
          f"  python -m repro merge {shard_dir}/<artefact>.shard*.json")
    return 1 if failures else 0


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
                    state_dir=state_dir, resume=True,
                    engine=args.engine,
                    # An elastic pool must survive between artefacts;
                    # the finally below stops it after the last one.
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
        # Raise a queue's stop sentinel exactly once, after the whole
        # sweep (or on any error), so attached workers exit.
        transport.close(stop=True)
    print(f"\nTotal time: {time.time() - t0:.1f}s; manifests in "
          f"{state_root}/; artefacts in {OUT}/")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scale", nargs="?", type=float, default=1.0)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--shard", metavar="I/N", default=None,
                        help="run shard I of N and write manifests "
                             "instead of tables")
    parser.add_argument("--shard-dir", type=Path, default=OUT / "shards",
                        help="manifest output directory for --shard")
    parser.add_argument("--workers", metavar="SPEC", default=None,
                        help="dispatch all artefacts over a worker pool "
                             "(local:N, ssh:host1,host2, or queue:DIR) "
                             "with dynamic leases and automatic resume")
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help="functionally execute each cell that runs a "
                             "kernel with this engine and validate it "
                             "against the interpreter oracle")
    args = parser.parse_args()
    use_cache = False if args.no_cache else None

    if args.shard and args.workers:
        print("--shard and --workers are mutually exclusive: static "
              "slicing and the dispatcher both own the partition",
              file=sys.stderr)
        return 2
    if args.workers:
        return _run_dispatch(args, use_cache)
    if args.shard:
        return _run_shard(args, use_cache)

    OUT.mkdir(exist_ok=True)
    t0 = time.time()
    scales = dict(_sweep_scales(args.scale))
    runs = [run_batch([name], at, jobs=args.jobs, use_cache=use_cache,
                      engine=args.engine)
            for name, at in scales.items()]

    failures = [failure for run in runs for failure in run.failures]
    for failure in failures:
        print(f"FAILED {failure.job}:\n{failure.error}", file=sys.stderr)

    for run in runs:
        for name, text in run.texts.items():
            (OUT / f"{name}.txt").write_text(text + "\n")
            print(f"\n##### {name}.txt (scale={scales[name]})")
            print(text)

    stats = default_cache().stats
    stages = stats.stage_summary()
    print(f"\nTotal time: {time.time() - t0:.1f}s; "
          f"cache: {stats.hits} hits / {stats.misses} misses"
          + (f" [{stages}]" if stages else "")
          + f"; artefacts in {OUT}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
