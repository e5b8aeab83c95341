"""``repro serve``: run the compile-as-a-service daemon."""

from __future__ import annotations

import argparse

from repro.cli.common import add_shared, events, positive, refusing


def _port(text: str) -> int:
    """``--port``'s ``type=``: an integer in 0-65535, refused at parse
    time like ``positive``, not at ``bind``."""
    if not (text.isdigit() and int(text) <= 65535):
        raise argparse.ArgumentTypeError(
            f"port must be an integer in 0-65535, got {text!r}")
    return int(text)


def add_arguments(parser) -> None:
    add_shared(parser, "--lease-timeout --no-cache --quiet --trace",
               lease_timeout={
                   "default": 60.0,
                   "help": "seconds before a silent worker's "
                           "request is leased again; an inline: "
                           "request cannot be stopped and runs once "
                           "(default 60)"},
               no_cache={"help": "workers bypass the "
                                 "compilation/result cache (the "
                                 "daemon's hot path still serves "
                                 "pre-existing entries)"})
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=_port,
                        default=8757,
                        help="listen port (0 picks an ephemeral port; the "
                             "banner reports it)")
    parser.add_argument("--pool", default="inline:2", metavar="SPEC",
                        help="transport misses are leased on, as for "
                             "dispatch --workers (default inline:2)")
    parser.add_argument("--max-inflight", type=int, default=32, metavar="N",
                        help="bound on concurrently running jobs; beyond "
                             "it new work is rejected with 429 "
                             "(default 32)")
    parser.add_argument("--timeout", type=positive("timeout"),
                        default=120.0, metavar="S",
                        help="per-request wall-clock bound; 504 on expiry "
                             "(default 120)")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        metavar="S",
                        help="hard deadline for the SIGTERM graceful "
                             "drain (default 30)")


def run(args) -> int:
    from repro.service.server import ServeConfig, ServeError, run_service

    config = ServeConfig(
        host=args.host,
        port=args.port,
        pool=args.pool,
        max_inflight=args.max_inflight,
        request_timeout=args.timeout,
        drain_grace=args.drain_grace,
        lease_timeout=args.lease_timeout,
        use_cache=args.use_cache,
        on_event=events(args),
    )
    with refusing("serve error: ", ServeError), refusing(
            f"serve error: cannot bind {args.host}:{args.port}: ", OSError):
        return run_service(config)
