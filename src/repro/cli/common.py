"""What more than one ``python -m repro`` command shares: the argument
specs, and the helpers that refuse, resolve a request or an artefact,
and write a command's output."""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Callable

from repro.cli import Refusal
from repro.engines import ENGINES


@contextmanager
def refusing(prefix: str, *errors: type[BaseException], code: int = 2):
    """Refuse when the block raises one of ``errors``: the line is
    ``prefix`` followed by the error's text."""
    try:
        yield
    except errors as exc:
        raise Refusal(f"{prefix}{exc}", code) from None


def positive(name: str, kind=float) -> Callable[[str], float]:
    """The ``type=`` of a ``--<name>`` flag that takes a positive number
    (every ``--scale``, the rule ``CompileRequest.resolved`` applies,
    every ``--lease-timeout``, ``serve --timeout``, ``worker --poll``)
    or, with ``kind=int``, a positive integer (``worker --max-chunks``):
    anything else is refused at parse time, before any worker is
    started, with argparse's one-line error."""
    def parse(text: str) -> float:
        try:
            value = kind(text)
        except ValueError:
            value = float("nan")
        if not value > 0:  # NaN compares false
            raise argparse.ArgumentTypeError(
                f"{name} must be a positive "
                f"{'integer' if kind is int else 'number'}, got {text!r}")
        return value
    return parse


#: The arguments more than one command takes, each defined once: its
#: ``add_argument`` name -> keywords. ``add_shared`` adds the ones a
#: command names; the command overrides only what really differs.
SHARED = {
    "artifact": {"metavar": "ARTEFACT",
                 "help": "an artefact (an unknown name lists them) or a "
                         "partition:<kernel>:<dataset>:p<P>:<mode> plan"},
    "kernel": {},
    "--scale": {"type": positive("scale")},
    "--dataset": {"default": None},
    "--seed": {"type": int, "default": 7},
    "--jobs": {"type": int, "default": None,
               "help": "parallel jobs per process; for `dispatch`, per "
                       "worker (default 1)"},
    # `--no-cache` -> False; otherwise None defers to the environment.
    "--no-cache": {"dest": "use_cache", "action": "store_const",
                   "const": False, "default": None,
                   "help": "bypass the compilation/result cache"},
    "--engine": {"choices": ENGINES, "default": None,
                 "help": "cells that run a kernel functionally execute it "
                         "with this engine and validate it against the "
                         "interpreter oracle (default: skip the check); "
                         "partition blocks run on it (default: REPRO_ENGINE "
                         "or numpy)"},
    "--lease-timeout": {"type": positive("lease-timeout"), "metavar": "S",
                        "default": 900.0,
                        "help": "seconds before a silent worker is presumed "
                                "hung and its chunk reassigned (default 900)"},
    "--out": {"default": None, "metavar": "FILE",
              "help": "also write the merged artefact text here"},
    "--quiet": {"action": "store_true",
                "help": "suppress progress messages on stderr"},
    "--json": {"action": "store_true", "help": "machine-readable JSON output"},
    "--trace": {"metavar": "DIR", "default": None,
                "help": "write structured span traces as JSONL under DIR "
                        "(same as REPRO_TRACE_DIR; inherited by "
                        "spawned/remote workers; inspect with `repro "
                        "trace`)"},
}

#: What ``tables``, ``batch`` and ``dispatch`` take to run an artefact's
#: jobs, and the ``--scale`` they share.
RUN = "artifact --scale --jobs --no-cache --engine --trace"
RUN_SCALE = {"default": None,
             "help": "dataset scale (default: the artefact's own; "
                     "0.25 unless it is structural)"}


def add_shared(parser: argparse.ArgumentParser, shared: str,
               **overrides) -> None:
    """Add the ``SHARED`` arguments ``shared`` names to ``parser``;
    ``no_cache={"help": ...}`` overrides the keywords of ``--no-cache``."""
    for arg in shared.split():
        override = overrides.get(arg.lstrip("-").replace("-", "_"), {})
        parser.add_argument(arg, **{**SHARED[arg], **override})


def request(args):
    """The command's resolved request; refused (exit code 2) when the
    kernel / dataset pair names nothing."""
    from repro.api import CompileRequest

    with refusing(f"{args.command} error: ", ValueError):
        return CompileRequest(kernel=args.kernel, dataset=args.dataset,
                              scale=args.scale).resolved()


def resolve(args):
    """The record behind the command's artefact name and the scale its
    run uses: an explicit ``--scale``, else the record's default. An
    unknown name is refused (exit code 2)."""
    from repro.pipeline.batch import UnknownArtifact, resolve_artifact

    with refusing(f"{args.command} error: ", UnknownArtifact):
        record = resolve_artifact(args.artifact)
    return record, record.default_scale if args.scale is None else args.scale


def events(args):
    """Progress messages go to stderr unless ``--quiet``."""
    def event(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr)
    return event


def write(args, flag: str, path: str, text: str) -> None:
    """Write ``text`` to the file ``flag`` names, parents created; if
    that fails, refuse with one ``<command> error: cannot write ...``
    line (exit code 1)."""
    from pathlib import Path

    with refusing(f"{args.command} error: cannot write {flag} {path}: ",
                  OSError, code=1):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")


def emit(args, text: str) -> int:
    """Print an artefact's text, and write it to ``--out`` when given.

    A finished sweep is never lost to either half: the file is written
    first, so a reader that closes stdout early (``| head``) still
    leaves it, and a file that cannot be written is reported only after
    the text has been shown."""
    try:
        if args.out:
            write(args, "--out", args.out, text + "\n")
    finally:
        print(text)
    return 0
