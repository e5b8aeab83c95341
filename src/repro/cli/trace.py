"""``repro trace``: summarise or export the span traces under a
directory."""

from __future__ import annotations

import sys

from repro.cli import Refusal
from repro.cli.common import write


def add_arguments(parser) -> None:
    parser.add_argument("action", choices=["summary", "export"],
                        help="summary: per-stage totals, cache hit "
                             "ratios, worker utilization, critical path; "
                             "export: Chrome trace-viewer JSON")
    parser.add_argument("dir", nargs="?", default=None,
                        help="trace directory (default: $REPRO_TRACE_DIR)")
    parser.add_argument("--chrome", metavar="OUT.json", default=None,
                        help="export target (open in chrome://tracing or "
                             "https://ui.perfetto.dev)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on malformed lines or orphaned "
                             "spans (expected only after worker kills)")


def run(args) -> int:
    import json
    import os

    from repro.obs import TRACE_ENV
    from repro.obs.timeline import load_trace_dir, render_summary, to_chrome

    root = args.dir or os.environ.get(TRACE_ENV)
    if not root:
        raise Refusal(f"error: no trace directory (pass one or set "
                      f"{TRACE_ENV})")
    data = load_trace_dir(root)
    if not data.records:
        raise Refusal(f"error: no trace records under {root}", 1)
    if args.action == "summary":
        print(render_summary(data))
    elif args.action == "export":
        if not args.chrome:
            raise Refusal("error: export needs --chrome OUT.json")
        chrome = json.dumps(to_chrome(data))
        write(args, "--chrome", args.chrome, chrome)
        print(f"wrote {len(data.spans)} span(s), {len(data.events)} "
              f"event(s) to {args.chrome}", file=sys.stderr)
    problems = data.problems()
    if problems:
        for item in problems:
            print(f"trace problem: {item}", file=sys.stderr)
        if args.strict:
            return 1
    return 0
