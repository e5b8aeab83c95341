"""``repro tables``: print one table or figure, or run a partition plan."""

from __future__ import annotations

from repro.cli.common import RUN, RUN_SCALE, add_shared, resolve


def add_arguments(parser) -> None:
    add_shared(parser, RUN, scale=RUN_SCALE)


def run(args) -> int:
    from repro.pipeline.batch import run_artifact

    record, scale = resolve(args)
    print(record.render(run_artifact(
        record.name, scale, jobs=args.jobs, use_cache=args.use_cache,
        engine=args.engine)))
    return 0
