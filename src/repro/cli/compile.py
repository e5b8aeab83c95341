"""``repro compile``: compile a kernel and print the generated Spatial."""

from __future__ import annotations

import sys

from repro.cli.common import add_shared, refusing, request


def add_arguments(parser) -> None:
    add_shared(parser, "kernel --dataset --scale", scale={"default": 0.05})
    parser.add_argument("--cpu", action="store_true",
                        help="also print TACO-style CPU C code")
    parser.add_argument("--memory-report", action="store_true",
                        help="print the Section 6 memory analysis")


def run(args) -> int:
    from repro.api import compile

    resolved = request(args)
    # The memoized `compile` stage holds exactly what is printed; only
    # --cpu needs the CompiledKernel itself (its data-free statement).
    result = compile(resolved)
    if args.memory_report:
        print(result.memory_report)
        print()
    print(result.source)
    print(f"// generated Spatial LoC: {result.spatial_loc}",
          file=sys.stderr)
    if args.cpu:
        from repro.api import build_structure
        from repro.backends.cpu import LoweringError, lower_cpu

        with refusing("compile error: ", LoweringError, code=1):
            code = lower_cpu(build_structure(resolved).stmt,
                             args.kernel.lower())
        print()
        print(code)
    return 0
