"""``repro simulate``: predict a kernel's runtime on every platform."""

from __future__ import annotations

from repro.cli.common import add_shared, request


def add_arguments(parser) -> None:
    add_shared(parser, "kernel --dataset --scale --no-cache",
               scale={"default": 0.25})


def run(args) -> int:
    from repro.api import BASELINE_PLATFORM, evaluate

    resolved = request(args)
    times = evaluate(resolved, use_cache=args.use_cache).platform_times()
    base = times.seconds[BASELINE_PLATFORM]
    print(f"{args.kernel} on {resolved.dataset} (scale {args.scale}):")
    for platform, seconds in times.seconds.items():
        print(f"  {platform:34s}{seconds * 1e6:14.2f} us"
              f"{seconds / base:10.2f}x")
    return 0
