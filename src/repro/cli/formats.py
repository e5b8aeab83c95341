"""``repro formats``: list the registered whole-tensor formats."""

from __future__ import annotations

from repro.cli.common import add_shared


def add_arguments(parser) -> None:
    add_shared(parser, "--json")


def run(args) -> int:
    import json

    from repro.formats import offChip, registered_formats

    specs = registered_formats()
    if args.json:
        payload = []
        for name in sorted(specs):
            fmt = specs[name].instantiate(offChip)
            levels = []
            for mf in fmt.mode_formats:
                entry = {"kind": mf.kind.value, **mf.properties()}
                if mf.size is not None:
                    entry["size"] = mf.size
                levels.append(entry)
            payload.append({
                "name": name,
                "description": specs[name].description,
                "order": fmt.order,
                "levels": levels,
                "mode_ordering": list(fmt.mode_ordering),
                "memory": str(fmt.memory),
            })
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{'name':11s}{'order':>5s}  {'levels':48s}{'ordering':10s}"
          f"{'memory':9s}description")
    for name in sorted(specs):
        fmt = specs[name].instantiate(offChip)
        levels = ", ".join(str(mf) for mf in fmt.mode_formats)
        ordering = ",".join(map(str, fmt.mode_ordering))
        print(f"{name:11s}{fmt.order:5d}  {levels:48s}{ordering:10s}"
              f"{str(fmt.memory):9s}{specs[name].description}")
    return 0
