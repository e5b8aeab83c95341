"""``repro worker``: attach to a ``queue:DIR`` pool, or answer a
``local:``/``ssh:`` slot's tasks over stdin and stdout."""

from __future__ import annotations

import sys

from repro.cli import Refusal
from repro.cli.common import add_shared, events, positive


def add_arguments(parser) -> None:
    add_shared(parser, "--jobs --quiet --trace", jobs={
        "help": "thread count per chunk (default: the "
                "task's own setting, else 1)"})
    parser.add_argument("dir", help="the queue directory given to "
                                    "`dispatch --workers queue:DIR` or "
                                    "`serve --pool queue:DIR`, or `-`")
    parser.add_argument("--poll", type=positive("poll"), default=0.5,
                        metavar="S",
                        help="seconds between empty-queue scans "
                             "(default 0.5)")
    parser.add_argument("--max-chunks", type=positive("max-chunks", int),
                        default=None, metavar="N",
                        help="detach from the queue after completing N "
                             "chunks")


def run(args) -> int:
    from repro.pipeline.fsqueue import stdio_loop, worker_loop

    try:
        if args.dir == "-":
            # A slot's worker: its stderr is the pool owner's, keep quiet.
            stdio_loop(args.jobs)
            return 0
        completed = worker_loop(args.dir, poll=args.poll,
                                max_chunks=args.max_chunks, jobs=args.jobs,
                                on_event=events(args))
    except KeyboardInterrupt:
        raise Refusal("worker interrupted; any claimed chunk will be "
                      "re-leased after its lease expires", 130) from None
    print(f"worker done: {completed} chunk(s) completed", file=sys.stderr)
    return 0
