"""Command-line interface: ``python -m repro``.

``python -m repro -h`` lists the subcommands; ``python -m repro COMMAND
-h`` documents one. Each command lives in its own :mod:`repro.cli`
module, and a call imports only the one it names.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.cli import Refusal

#: command -> the line ``-h`` lists for it, in the order ``-h`` lists
#: them. A new command is one row here and one module of its name in
#: ``repro/cli/`` defining ``add_arguments(parser)`` and ``run(args)``.
COMMANDS = {
    "kernels": "list the evaluation kernels and their datasets",
    "compile": "compile a kernel; print the generated Spatial",
    "simulate": "predict cross-platform runtime",
    "tables": "print one table/figure, or run a partition:* plan in-process "
              "(its p1 run is the serial reference)",
    "batch": "run one shard of an artefact's job list into a manifest (what "
             "dispatch workers run), or --list it",
    "dispatch": "drive an artefact's sweep through a fault-tolerant worker "
                "pool (chunked leases; merged output byte-identical to "
                "`tables`)",
    "merge": "merge shard manifests into the full artefact",
    "worker": "attach an elastic worker to a queue:DIR pool (claims dispatch "
              "chunks and serve compile-requests until the queue is "
              "stopped), or with `-` answer one JSON task per stdin line (a "
              "local:/ssh: slot)",
    "formats": "list registered whole-tensor formats",
    "convert": "convert a matrix dataset between formats",
    "pipeline": "plan a fused expression pipeline (FuseFlow) and run it "
                "stage by stage; prints the cut report and the modeled "
                "traffic fusion saves",
    "serve": "run the compile-as-a-service daemon: HTTP/JSON requests "
             "answered from the staged cache, coalesced, and fed to a worker "
             "pool on miss",
    "cache": "inspect or clear the cache",
    "trace": "inspect structured span traces written under REPRO_TRACE_DIR "
             "(or --trace DIR on the producing command)",
}


def _parser(full: set[str | None]) -> argparse.ArgumentParser:
    """The ``python -m repro`` parser with every command's sub-parser;
    only those named in ``full`` get their arguments and ``handler``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Stardust reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        if name in full:
            cli = importlib.import_module(f"repro.cli.{name}")
            cli.add_arguments(command)
            command.set_defaults(handler=cli.run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser; each subcommand sets ``handler``."""
    return _parser(set(COMMANDS))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top level takes no option with a value, so argparse hands the
    # rest of argv to the first token that names a command: only that
    # sub-parser needs its arguments.
    chosen = next((arg for arg in argv if arg in COMMANDS), None)
    args = _parser({chosen}).parse_args(argv)
    if getattr(args, "trace", None):
        # `--trace DIR` -> the environment knob, inherited by workers.
        import os

        from repro.obs import TRACE_ENV

        os.environ[TRACE_ENV] = args.trace
    try:
        return args.handler(args)
    except Refusal as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # piping into `head` etc. is fine
        sys.exit(0)
