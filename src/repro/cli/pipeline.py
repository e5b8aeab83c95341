"""``repro pipeline``: plan a fused expression pipeline and run it."""

from __future__ import annotations

from repro.cli import Refusal
from repro.cli.common import add_shared, refusing, write


def add_arguments(parser) -> None:
    add_shared(parser, "--dataset --scale --seed --engine --no-cache --out "
                       "--trace",
               dataset={"help": "matrix dataset (default: each "
                                "pipeline's full dataset list)"},
               scale={"default": 0.25},
               engine={"help": "execution engine for every stage "
                               "(default: REPRO_ENGINE or numpy); "
                               "each stage is validated against the "
                               "interpreter oracle"},
               out={"help": "write the numeric outputs (shapes + "
                            "checksums) as JSON; fused and --no-fuse "
                            "runs must byte-match"})
    parser.add_argument("name", nargs="?", default=None,
                        help="pipeline name (see --all for the registry)")
    parser.add_argument("--all", action="store_true",
                        help="run every registered pipeline")
    parser.add_argument("--no-fuse", action="store_true",
                        help="force a materializing cut at every "
                             "connection (the equivalence baseline)")


def _print_report(row: dict) -> None:
    mode = "fused" if row["fused"] else "unfused (--no-fuse)"
    print(f"{row['pipeline']} on {row['dataset']} "
          f"(scale {row['scale']}, {mode}, engine {row['engine']}):")
    for dec in row["decisions"]:
        verdict = ("streams on-fabric (DRAM buffer elided)"
                   if dec["streamed"] else f"cut: {dec['reason']}")
        print(f"  {dec['producer']} -> {dec['consumer']} "
              f"via {dec['intermediate']}: {verdict}")
    for st in row["stages"]:
        streams = ", ".join(st["streams"]) if st["streams"] else "-"
        print(f"  stage {st['stage']:<10s} out={st['output']:<4s}"
              f"{st['fused_bytes'] / 1024:10.1f} KiB "
              f"(unfused {st['unfused_bytes'] / 1024:.1f} KiB)  "
              f"streams: {streams}")
    print(f"  total {row['fused_bytes'] / 1024:.1f} KiB vs "
          f"{row['unfused_bytes'] / 1024:.1f} KiB unfused: "
          f"{row['reduction_pct']:.2f}% saved "
          f"({row['elided_bytes'] / 1024:.1f} KiB elided)")


def run(args) -> int:
    import json

    from repro.api import CompileRequest, pipeline
    from repro.engines import default_engine
    from repro.pipeline.fusion import PIPELINE_ORDER, PIPELINES, FusionError

    if args.all:
        names = list(PIPELINE_ORDER)
    elif args.name:
        if args.name not in PIPELINES:
            raise Refusal(f"unknown pipeline {args.name!r}; choose from: "
                          f"{', '.join(PIPELINE_ORDER)}")
        names = [args.name]
    else:
        raise Refusal("pipeline: give a pipeline name or --all; registered: "
                      f"{', '.join(PIPELINE_ORDER)}")

    # An engine-less request runs on the interpreter oracle (the sweep
    # cells' row); the command's default is REPRO_ENGINE or numpy.
    engine = args.engine or default_engine()
    payload: dict[str, dict] = {}
    for name in names:
        spec = PIPELINES[name]
        datasets = [args.dataset] if args.dataset else list(spec.datasets)
        payload[name] = {}
        for dataset in datasets:
            request = CompileRequest(
                kernel=name, dataset=dataset, scale=args.scale,
                seed=args.seed, engine=engine, action="pipeline",
                fuse=not args.no_fuse)
            with refusing("pipeline error: ", FusionError, ValueError,
                          code=1):
                row = pipeline(request, use_cache=args.use_cache).pipeline
            payload[name][dataset] = row["outputs"]
            _print_report(row)
            print()
    if args.out:
        # Numerics only (shapes + checksums): fused and --no-fuse runs
        # of the same pipelines must produce byte-identical files.
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out == "-":
            print(text)
        else:
            write(args, "--out", args.out, text + "\n")
    return 0
