"""``repro batch``: run one shard of an artefact's jobs into a manifest,
or list the jobs."""

from __future__ import annotations

import sys

from repro.cli import Refusal
from repro.cli.common import (
    RUN,
    RUN_SCALE,
    add_shared,
    refusing,
    resolve,
)


def add_arguments(parser) -> None:
    add_shared(parser, RUN + " --out", scale=RUN_SCALE, out={
        "help": "manifest path for --shard (default: "
                "<artefact>.shardIofN.json; `-` streams "
                "the manifest JSON to stdout)"})
    parser.add_argument("--list", action="store_true",
                        help="print the (kernel, dataset, platform) job "
                             "list without running it")
    parser.add_argument("--shard", metavar="I/N", default=None,
                        help="run only shard I of N (1-based, "
                             "deterministic round-robin slice) and write "
                             "a JSON manifest")


def run(args) -> int:
    from repro.pipeline.shard import ShardSpec

    if not (args.shard or args.list):
        raise Refusal("batch error: batch runs one shard (--shard I/N "
                      "[--out F]) or lists the jobs (--list); print an "
                      "artefact with `tables ARTEFACT`, regenerate every one "
                      "with `scripts/run_experiments.py`")
    record, scale = resolve(args)
    spec = None
    if args.shard:
        with refusing("", ValueError):
            spec = ShardSpec.parse(args.shard)
    if args.list:
        jobs = record.jobs(scale, args.use_cache)
        for job in spec.select(jobs) if spec is not None else jobs:
            print(f"{record.name:10s}  {job}")
        return 0
    return _run_shard_to_manifest(args, args.artifact, scale, spec)


def _run_shard_to_manifest(args, artifact: str, scale: float, spec) -> int:
    from repro.pipeline.cache import default_cache
    from repro.pipeline.shard import run_shard

    def progress(res, index, total):
        status = "ok" if res.ok else "FAILED"
        print(f"[{index + 1}/{total}] {res.job}: {status} "
              f"({res.seconds:.2f}s)", file=sys.stderr)

    manifest = run_shard(artifact, scale, spec, jobs=args.jobs,
                         use_cache=args.use_cache, on_result=progress,
                         engine=args.engine)
    to_stdout = args.out == "-"
    if to_stdout:
        # Dispatch workers stream the manifest back over stdout; keep
        # stdout pure JSON and push the human summary to stderr.
        sys.stdout.write(manifest.to_json())
        sys.stdout.flush()
        out = "<stdout>"
    else:
        out = args.out or f"{artifact}.shard{spec.index}of{spec.count}.json"
        manifest.save(out)
    failures = manifest.failures()
    stages = default_cache().stats.stage_summary()
    note = f"; cache stages: {stages}" if stages else ""
    print(f"shard {spec} of {artifact} (scale {scale}): "
          f"{len(manifest.jobs)}/{manifest.total_jobs} job(s), "
          f"{len(failures)} failed -> {out}{note}",
          file=sys.stderr if to_stdout else sys.stdout)
    for entry in failures:
        key = ":".join(str(k) for k in entry["key"])
        print(f"FAILED {key}:\n{entry.get('error', '')}", file=sys.stderr)
    return 1 if failures else 0
