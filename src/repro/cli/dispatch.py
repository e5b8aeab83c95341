"""``repro dispatch``: drive an artefact's sweep through a worker pool."""

from __future__ import annotations

import sys

from repro.cli.common import (
    RUN,
    RUN_SCALE,
    add_shared,
    emit,
    events,
    refusing,
    resolve,
)


def add_arguments(parser) -> None:
    add_shared(parser, RUN + " --lease-timeout --out --quiet",
               scale=RUN_SCALE)
    parser.add_argument("--workers", default="local:2", metavar="SPEC",
                        help="transport spec: local:N subprocesses, "
                             "ssh:host1,host2, inline:N in-process "
                             "threads, or queue:DIR (elastic pool; attach "
                             "`repro worker DIR` processes at any time); "
                             "default local:2")
    parser.add_argument("--chunks-per-worker", type=int, default=4,
                        help="lease granularity: chunks cut per worker "
                             "slot (default 4)")
    parser.add_argument("--retries", type=int, default=2,
                        help="re-dispatches per chunk after worker death "
                             "or job failure before quarantine (default 2)")
    parser.add_argument("--resume", metavar="DIR", default=None,
                        help="persist per-chunk manifests under DIR and "
                             "skip chunks a previous dispatch completed")


def run(args) -> int:
    from repro.pipeline.dispatch import DispatchError, dispatch

    record, scale = resolve(args)
    # OSError: e.g. the transport binary (ssh) is missing or fds ran out;
    # in-flight workers were already revoked by the dispatcher.
    with refusing(f"{args.command} error: ", DispatchError), \
            refusing(f"{args.command} error: cannot launch workers over "
                     f"{args.workers}: ", OSError):
        result = dispatch(
            record.name, scale, args.workers,
            chunks_per_worker=args.chunks_per_worker,
            lease_timeout=args.lease_timeout,
            retries=args.retries,
            use_cache=args.use_cache,
            worker_jobs=args.jobs,
            state_dir=args.resume,
            on_event=events(args),
            engine=args.engine,
        )
    print(result.summary(), file=sys.stderr)
    for line in result.failure_report():
        print(line, file=sys.stderr)
    if not result.ok:
        return 1
    return emit(args, result.merged.text)
