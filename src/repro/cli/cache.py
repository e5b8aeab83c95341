"""``repro cache``: inspect or clear the cache."""

from __future__ import annotations

from repro.cli.common import add_shared


def add_arguments(parser) -> None:
    add_shared(parser, "--json", json={
        "help": "print cache stats as JSON — the same "
                "payload as the serve daemon's /stats "
                "cache section"})
    parser.add_argument("action", nargs="?", choices=["info", "clear"],
                        default="info")


def run(args) -> int:
    from repro.pipeline.cache import compiler_version, default_cache

    cache = default_cache()
    info = cache.disk_info()
    if args.action == "info":
        if args.json:
            from repro.service.stats import render_cache_stats

            print(render_cache_stats())
            return 0
        where = info["dir"] or "(disk store disabled)"
        print(f"cache dir:        {where}")
        print(f"compiler version: {compiler_version()}")
        print(f"entries:          {info['entries']}")
        print(f"size:             {info['bytes'] / 1024:.1f} KiB")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        if info["dir"]:
            print(f"cleared {removed} entries from {info['dir']}")
        else:
            print("disk store disabled; cleared in-memory cache only")
        return 0
    return 2  # pragma: no cover - argparse restricts choices
