"""Command-line interface: ``python -m repro``.

``python -m repro -h`` lists the subcommands; ``python -m repro COMMAND
-h`` documents one.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Callable

from repro.engines import ENGINES


class Refusal(Exception):
    """A command's refusal: ``main`` prints the message, one finished
    stderr line, and returns ``code``."""

    def __init__(self, line: str, code: int = 2):
        super().__init__(line)
        self.code = code


@contextmanager
def _refusing(prefix: str, *errors: type[BaseException], code: int = 2):
    """Refuse when the block raises one of ``errors``: the line is
    ``prefix`` followed by the error's text."""
    try:
        yield
    except errors as exc:
        raise Refusal(f"{prefix}{exc}", code) from None


def _cmd_kernels(_args) -> int:
    from repro.data import datasets_for
    from repro.kernels import FORMAT_KERNEL_ORDER, KERNEL_ORDER, KERNELS

    print(f"{'kernel':14s}{'expression':50s}datasets")
    for name in (*KERNEL_ORDER, *FORMAT_KERNEL_ORDER):
        spec = KERNELS[name]
        ds = ", ".join(d.name for d in datasets_for(name))
        print(f"{name:14s}{spec.expression:50s}{ds}")
    return 0


def _request(args):
    """The command's resolved request; refused (exit code 2) when the
    kernel / dataset pair names nothing."""
    from repro.api import CompileRequest

    with _refusing(f"{args.command} error: ", ValueError):
        return CompileRequest(kernel=args.kernel, dataset=args.dataset,
                              scale=args.scale).resolved()


def _cmd_compile(args) -> int:
    from repro.api import build_structure, compile

    request = _request(args)
    # The memoized `compile` stage holds exactly what is printed; only
    # --cpu needs the CompiledKernel itself (its data-free statement).
    result = compile(request)
    if args.memory_report:
        print(result.memory_report)
        print()
    print(result.source)
    print(f"// generated Spatial LoC: {result.spatial_loc}",
          file=sys.stderr)
    if args.cpu:
        from repro.backends.cpu import LoweringError, lower_cpu

        with _refusing("compile error: ", LoweringError, code=1):
            code = lower_cpu(build_structure(request).stmt, args.kernel.lower())
        print()
        print(code)
    return 0


def _cmd_simulate(args) -> int:
    from repro.api import BASELINE_PLATFORM, evaluate

    request = _request(args)
    times = evaluate(request, use_cache=args.use_cache).platform_times()
    base = times.seconds[BASELINE_PLATFORM]
    print(f"{args.kernel} on {request.dataset} (scale {args.scale}):")
    for platform, seconds in times.seconds.items():
        print(f"  {platform:34s}{seconds * 1e6:14.2f} us"
              f"{seconds / base:10.2f}x")
    return 0


def _resolve(args):
    """The record behind the command's artefact name and the scale its
    run uses: an explicit ``--scale``, else the record's default. An
    unknown name is refused (exit code 2)."""
    from repro.pipeline.batch import UnknownArtifact, resolve_artifact

    with _refusing(f"{args.command} error: ", UnknownArtifact):
        record = resolve_artifact(args.artifact)
    return record, record.default_scale if args.scale is None else args.scale


def _events(args):
    """Progress messages go to stderr unless ``--quiet``."""
    def event(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr)
    return event


def _write(args, flag: str, path: str, text: str) -> None:
    """Write ``text`` to the file ``flag`` names, parents created; if
    that fails, refuse with one ``<command> error: cannot write ...``
    line (exit code 1)."""
    from pathlib import Path

    with _refusing(f"{args.command} error: cannot write {flag} {path}: ",
                   OSError, code=1):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")


def _emit(args, text: str) -> int:
    """Print an artefact's text, and write it to ``--out`` when given.

    A finished sweep is never lost to either half: the file is written
    first, so a reader that closes stdout early (``| head``) still
    leaves it, and a file that cannot be written is reported only after
    the text has been shown."""
    try:
        if args.out:
            _write(args, "--out", args.out, text + "\n")
    finally:
        print(text)
    return 0


def _cmd_tables(args) -> int:
    from repro.pipeline.batch import run_artifact

    record, scale = _resolve(args)
    print(record.render(run_artifact(
        record.name, scale, jobs=args.jobs, use_cache=args.use_cache,
        engine=args.engine)))
    return 0


def _cmd_formats(args) -> int:
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


def _cmd_convert(args) -> int:
    import time

    import numpy as np

    from repro.convert import (
        ConversionError,
        plan_conversion,
        staged_matrix_storage,
    )
    from repro.data import DATASETS, DATASETS_BY_NAME
    from repro.formats import format_of
    from repro.tensor.storage import to_dense

    try:
        src_fmt = format_of(args.source)
        dst_fmt = format_of(args.target)
    except KeyError as exc:
        raise Refusal(exc.args[0]) from None
    if args.plan:
        # The plan is a function of the two formats alone; skip dataset
        # generation entirely.
        with _refusing("conversion error: ", ConversionError, code=1):
            print(plan_conversion(src_fmt, dst_fmt).describe())
        return 0
    matrices = [d.name for d in DATASETS if d.kind == "matrix"]
    flat_order = src_fmt.order - sum(mf.is_block for mf in src_fmt.mode_formats)
    if args.dataset not in matrices or flat_order != 2:
        what = (f"{args.dataset!r} is not a matrix dataset"
                if args.dataset not in matrices else
                f"source format {args.source!r} is not a matrix format "
                f"(order {flat_order})")
        raise Refusal(f"convert error: {what}; the matrix datasets are "
                      f"{matrices}")
    dims = DATASETS_BY_NAME[args.dataset].scaled_dims(args.scale)
    with _refusing("conversion error: ", ConversionError, code=1):
        source = staged_matrix_storage(args.dataset, args.scale, args.seed,
                                       args.source)
        plan = plan_conversion(source.fmt, dst_fmt,
                               dims if dst_fmt.order == len(dims) else None)
    print(plan.describe())
    start = time.perf_counter()
    converted = plan.run(source)
    seconds = time.perf_counter() - start
    print(f"{args.dataset} (scale {args.scale}): "
          f"{source.nnz} stored -> {converted.nnz} stored, "
          f"{source.bytes_total() / 1024:.1f} KiB -> "
          f"{converted.bytes_total() / 1024:.1f} KiB in {seconds * 1e3:.2f} ms")
    if args.verify:
        # Convert back to the source format and compare densified values.
        back = plan_conversion(converted.fmt, source.fmt, dims).run(converted)
        if np.allclose(to_dense(back), to_dense(source)):
            print("verify: dense round-trip matches")
        else:
            raise Refusal("verify: MISMATCH", 1)
    return 0


def _print_pipeline_report(row: dict) -> None:
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


def _cmd_pipeline(args) -> int:
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
            with _refusing("pipeline error: ", FusionError, ValueError,
                           code=1):
                row = pipeline(request, use_cache=args.use_cache).pipeline
            payload[name][dataset] = row["outputs"]
            _print_pipeline_report(row)
            print()
    if args.out:
        # Numerics only (shapes + checksums): fused and --no-fuse runs
        # of the same pipelines must produce byte-identical files.
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.out == "-":
            print(text)
        else:
            _write(args, "--out", args.out, text + "\n")
    return 0


def _cmd_batch(args) -> int:
    from repro.pipeline.shard import ShardSpec

    if not (args.shard or args.list):
        raise Refusal("batch error: batch runs one shard (--shard I/N "
                      "[--out F]) or lists the jobs (--list); print an "
                      "artefact with `tables ARTEFACT`, regenerate every one "
                      "with `scripts/run_experiments.py`")
    record, scale = _resolve(args)
    spec = None
    if args.shard:
        with _refusing("", ValueError):
            spec = ShardSpec.parse(args.shard)
    if args.list:
        jobs = record.jobs(scale, args.use_cache)
        for job in spec.select(jobs) if spec is not None else jobs:
            print(f"{record.name:10s}  {job}")
        return 0
    return _run_shard_to_manifest(args, args.artifact, scale, spec)


def _run_shard_to_manifest(args, artifact: str, scale: float, spec) -> int:
    from repro.pipeline.cache import default_cache
    from repro.pipeline.shard import run_shard

    def progress(res, index, total):
        status = "ok" if res.ok else "FAILED"
        print(f"[{index + 1}/{total}] {res.job}: {status} "
              f"({res.seconds:.2f}s)", file=sys.stderr)

    manifest = run_shard(artifact, scale, spec, jobs=args.jobs,
                         use_cache=args.use_cache, on_result=progress,
                         engine=args.engine)
    to_stdout = args.out == "-"
    if to_stdout:
        # Dispatch workers stream the manifest back over stdout; keep
        # stdout pure JSON and push the human summary to stderr.
        sys.stdout.write(manifest.to_json())
        sys.stdout.flush()
        out = "<stdout>"
    else:
        out = args.out or f"{artifact}.shard{spec.index}of{spec.count}.json"
        manifest.save(out)
    failures = manifest.failures()
    stages = default_cache().stats.stage_summary()
    note = f"; cache stages: {stages}" if stages else ""
    print(f"shard {spec} of {artifact} (scale {scale}): "
          f"{len(manifest.jobs)}/{manifest.total_jobs} job(s), "
          f"{len(failures)} failed -> {out}{note}",
          file=sys.stderr if to_stdout else sys.stdout)
    for entry in failures:
        key = ":".join(str(k) for k in entry["key"])
        print(f"FAILED {key}:\n{entry.get('error', '')}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_merge(args) -> int:
    from repro.pipeline.shard import (
        ManifestError,
        ShardManifest,
        expand_manifest_paths,
        merge_manifests,
    )

    paths = expand_manifest_paths(args.manifests)
    if not paths:
        patterns = " ".join(args.manifests) or "(no arguments)"
        raise Refusal(f"merge error: no manifest files matched {patterns}; "
                      f"run `batch <artefact> --shard I/N --out F.json` first")
    with _refusing("merge error: ", ManifestError, code=1):
        manifests = [ShardManifest.load(p) for p in paths]
        merged = merge_manifests(
            manifests,
            require_current_compiler=not args.allow_stale_compiler,
        )
    return _emit(args, merged.text)


def _cmd_dispatch(args) -> int:
    from repro.pipeline.dispatch import DispatchError, dispatch

    record, scale = _resolve(args)
    # OSError: e.g. the transport binary (ssh) is missing or fds ran out;
    # in-flight workers were already revoked by the dispatcher.
    with _refusing(f"{args.command} error: ", DispatchError), \
            _refusing(f"{args.command} error: cannot launch workers over "
                      f"{args.workers}: ", OSError):
        result = dispatch(
            record.name, scale, args.workers,
            chunks_per_worker=args.chunks_per_worker,
            lease_timeout=args.lease_timeout,
            retries=args.retries,
            use_cache=args.use_cache,
            worker_jobs=args.jobs,
            state_dir=args.resume,
            on_event=_events(args),
            engine=args.engine,
        )
    print(result.summary(), file=sys.stderr)
    for line in result.failure_report():
        print(line, file=sys.stderr)
    if not result.ok:
        return 1
    return _emit(args, result.merged.text)


def _cmd_worker(args) -> int:
    from repro.pipeline.fsqueue import stdio_loop, worker_loop

    try:
        if args.dir == "-":
            # A slot's worker: its stderr is the pool owner's, keep quiet.
            stdio_loop(args.jobs)
            return 0
        completed = worker_loop(args.dir, poll=args.poll,
                                max_chunks=args.max_chunks, jobs=args.jobs,
                                on_event=_events(args))
    except KeyboardInterrupt:
        raise Refusal("worker interrupted; any claimed chunk will be "
                      "re-leased after its lease expires", 130) from None
    print(f"worker done: {completed} chunk(s) completed", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
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
        on_event=_events(args),
    )
    with _refusing("serve error: ", ServeError), _refusing(
            f"serve error: cannot bind {args.host}:{args.port}: ", OSError):
        return run_service(config)


def _cmd_cache(args) -> int:
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


def _cmd_trace(args) -> int:
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
        _write(args, "--chrome", args.chrome, chrome)
        print(f"wrote {len(data.spans)} span(s), {len(data.events)} "
              f"event(s) to {args.chrome}", file=sys.stderr)
    problems = data.problems()
    if problems:
        for item in problems:
            print(f"trace problem: {item}", file=sys.stderr)
        if args.strict:
            return 1
    return 0


def _positive(name: str, kind=float) -> Callable[[str], float]:
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


def _port(text: str) -> int:
    """``serve --port``'s ``type=``: an integer in 0-65535, refused at
    parse time like ``_positive``, not at ``bind``."""
    if not (text.isdigit() and int(text) <= 65535):
        raise argparse.ArgumentTypeError(
            f"port must be an integer in 0-65535, got {text!r}")
    return int(text)


#: The arguments more than one command takes, each defined once: its
#: ``add_argument`` name -> keywords. ``_command`` adds the ones a
#: command names; the command overrides only what really differs.
_SHARED = {
    "artifact": {"metavar": "ARTEFACT",
                 "help": "an artefact (an unknown name lists them) or a "
                         "partition:<kernel>:<dataset>:p<P>:<mode> plan"},
    "kernel": {},
    "--scale": {"type": _positive("scale")},
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
    "--lease-timeout": {"type": _positive("lease-timeout"), "metavar": "S",
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
_RUN = "artifact --scale --jobs --no-cache --engine --trace"
_RUN_SCALE = {"default": None,
              "help": "dataset scale (default: the artefact's own; "
                      "0.25 unless it is structural)"}


def _command(sub, name: str, handler, help: str, shared: str = "",
             **overrides):
    """One subcommand's parser, which runs ``handler``, with the
    ``_SHARED`` arguments ``shared`` names; ``no_cache={"help": ...}``
    overrides the keywords of ``--no-cache``."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(handler=handler)
    for arg in shared.split():
        override = overrides.get(arg.lstrip("-").replace("-", "_"), {})
        parser.add_argument(arg, **{**_SHARED[arg], **override})
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` parser; each subcommand sets ``handler``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Stardust reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "kernels", _cmd_kernels,
             "list the evaluation kernels and their datasets")

    p_compile = _command(sub, "compile", _cmd_compile,
                         "compile a kernel; print the generated Spatial",
                         "kernel --dataset --scale", scale={"default": 0.05})
    p_compile.add_argument("--cpu", action="store_true",
                           help="also print TACO-style CPU C code")
    p_compile.add_argument("--memory-report", action="store_true",
                           help="print the Section 6 memory analysis")

    _command(sub, "simulate", _cmd_simulate, "predict cross-platform runtime",
             "kernel --dataset --scale --no-cache", scale={"default": 0.25})

    _command(sub, "tables", _cmd_tables,
             "print one table/figure, or run a partition:* plan "
             "in-process (its p1 run is the serial reference)",
             _RUN, scale=_RUN_SCALE)

    p_batch = _command(sub, "batch", _cmd_batch,
                       "run one shard of an artefact's job list into a "
                       "manifest (what dispatch workers run), or --list it",
                       _RUN + " --out", scale=_RUN_SCALE, out={
                           "help": "manifest path for --shard (default: "
                                   "<artefact>.shardIofN.json; `-` streams "
                                   "the manifest JSON to stdout)"})
    p_batch.add_argument("--list", action="store_true",
                         help="print the (kernel, dataset, platform) job "
                              "list without running it")
    p_batch.add_argument("--shard", metavar="I/N", default=None,
                         help="run only shard I of N (1-based, "
                              "deterministic round-robin slice) and write "
                              "a JSON manifest")

    p_disp = _command(sub, "dispatch", _cmd_dispatch,
                      "drive an artefact's sweep through a fault-tolerant "
                      "worker pool (chunked leases; merged output "
                      "byte-identical to `tables`)",
                      _RUN + " --lease-timeout --out --quiet",
                      scale=_RUN_SCALE)
    p_disp.add_argument("--workers", default="local:2", metavar="SPEC",
                        help="transport spec: local:N subprocesses, "
                             "ssh:host1,host2, inline:N in-process "
                             "threads, or queue:DIR (elastic pool; attach "
                             "`repro worker DIR` processes at any time); "
                             "default local:2")
    p_disp.add_argument("--chunks-per-worker", type=int, default=4,
                        help="lease granularity: chunks cut per worker "
                             "slot (default 4)")
    p_disp.add_argument("--retries", type=int, default=2,
                        help="re-dispatches per chunk after worker death "
                             "or job failure before quarantine (default 2)")
    p_disp.add_argument("--resume", metavar="DIR", default=None,
                        help="persist per-chunk manifests under DIR and "
                             "skip chunks a previous dispatch completed")

    p_merge = _command(sub, "merge", _cmd_merge,
                       "merge shard manifests into the full artefact",
                       "--out")
    p_merge.add_argument("manifests", nargs="*",
                         help="shard manifest files (or quoted glob "
                              "patterns) written by "
                              "`batch --shard I/N --out ...`")
    p_merge.add_argument("--allow-stale-compiler", action="store_true",
                         help="merge manifests produced by a different "
                              "compiler version (hashes must still agree "
                              "between shards)")

    p_work = _command(sub, "worker", _cmd_worker,
                      "attach an elastic worker to a queue:DIR pool "
                      "(claims dispatch chunks and serve compile-requests "
                      "until the queue is stopped), or with `-` answer "
                      "one JSON task per stdin line (a local:/ssh: slot)",
                      "--jobs --quiet --trace", jobs={
                          "help": "thread count per chunk (default: the "
                                  "task's own setting, else 1)"})
    p_work.add_argument("dir", help="the queue directory given to "
                                    "`dispatch --workers queue:DIR` or "
                                    "`serve --pool queue:DIR`, or `-`")
    p_work.add_argument("--poll", type=_positive("poll"), default=0.5,
                        metavar="S",
                        help="seconds between empty-queue scans "
                             "(default 0.5)")
    p_work.add_argument("--max-chunks", type=_positive("max-chunks", int),
                        default=None, metavar="N",
                        help="detach from the queue after completing N "
                             "chunks")

    _command(sub, "formats", _cmd_formats,
             "list registered whole-tensor formats", "--json")

    p_conv = _command(sub, "convert", _cmd_convert,
                      "convert a matrix dataset between formats",
                      "--dataset --scale --seed",
                      dataset={"default": "Trefethen_20000",
                               "help": "matrix dataset name (default: "
                                       "Trefethen_20000)"},
                      scale={"default": 0.05})
    p_conv.add_argument("source", help="source format name (see `formats`)")
    p_conv.add_argument("target", help="target format name (see `formats`)")
    p_conv.add_argument("--plan", action="store_true",
                        help="print the synthesized plan without running it")
    p_conv.add_argument("--verify", action="store_true",
                        help="round-trip back to the source format and "
                             "check dense equality")

    p_pipe = _command(sub, "pipeline", _cmd_pipeline,
                      "plan a fused expression pipeline (FuseFlow) and run "
                      "it stage by stage; prints the cut report and the "
                      "modeled traffic fusion saves",
                      "--dataset --scale --seed --engine --no-cache --out "
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
    p_pipe.add_argument("name", nargs="?", default=None,
                        help="pipeline name (see --all for the registry)")
    p_pipe.add_argument("--all", action="store_true",
                        help="run every registered pipeline")
    p_pipe.add_argument("--no-fuse", action="store_true",
                        help="force a materializing cut at every "
                             "connection (the equivalence baseline)")

    p_serve = _command(sub, "serve", _cmd_serve,
                       "run the compile-as-a-service daemon: HTTP/JSON "
                       "requests answered from the staged cache, "
                       "coalesced, and fed to a worker pool on miss",
                       "--lease-timeout --no-cache --quiet --trace",
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
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=_port,
                         default=8757,
                         help="listen port (0 picks an ephemeral port; the "
                              "banner reports it)")
    p_serve.add_argument("--pool", default="inline:2", metavar="SPEC",
                         help="transport misses are leased on, as for "
                              "dispatch --workers (default inline:2)")
    p_serve.add_argument("--max-inflight", type=int, default=32, metavar="N",
                         help="bound on concurrently running jobs; beyond "
                              "it new work is rejected with 429 "
                              "(default 32)")
    p_serve.add_argument("--timeout", type=_positive("timeout"),
                         default=120.0, metavar="S",
                         help="per-request wall-clock bound; 504 on expiry "
                              "(default 120)")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         metavar="S",
                         help="hard deadline for the SIGTERM graceful "
                              "drain (default 30)")

    p_cache = _command(sub, "cache", _cmd_cache,
                       "inspect or clear the cache", "--json", json={
                           "help": "print cache stats as JSON — the same "
                                   "payload as the serve daemon's /stats "
                                   "cache section"})
    p_cache.add_argument("action", nargs="?", choices=["info", "clear"],
                         default="info")

    p_trace = _command(sub, "trace", _cmd_trace,
                       "inspect structured span traces written under "
                       "REPRO_TRACE_DIR (or --trace DIR on the producing "
                       "command)")
    p_trace.add_argument("action", choices=["summary", "export"],
                         help="summary: per-stage totals, cache hit "
                              "ratios, worker utilization, critical path; "
                              "export: Chrome trace-viewer JSON")
    p_trace.add_argument("dir", nargs="?", default=None,
                         help="trace directory (default: $REPRO_TRACE_DIR)")
    p_trace.add_argument("--chrome", metavar="OUT.json", default=None,
                         help="export target (open in chrome://tracing or "
                              "https://ui.perfetto.dev)")
    p_trace.add_argument("--strict", action="store_true",
                         help="exit 1 on malformed lines or orphaned "
                              "spans (expected only after worker kills)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
