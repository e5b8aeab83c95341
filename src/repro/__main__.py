"""Command-line interface: ``python -m repro``.

Subcommands:

* ``compile``  — compile an evaluation kernel on a dataset; print the
  generated Spatial, the memory analysis, and (optionally) CPU C code.
* ``simulate`` — predict runtime across platforms for a kernel+dataset.
* ``kernels``  — list the evaluation kernels and their datasets.
* ``tables``   — regenerate a table or figure of the paper
  (``--jobs N`` fans the work out; ``--no-cache`` recomputes from
  scratch).
* ``batch``    — regenerate several artefacts as one parallel job batch,
  with per-job failure isolation and a cache/throughput summary;
  ``--shard I/N --out F.json`` runs one deterministic slice of a single
  artefact's job list and writes a shard manifest instead (``--out -``
  streams the manifest to stdout, which is how dispatch workers report).
* ``dispatch`` — drive an artefact's whole job list through a pool of
  fault-tolerant workers (``--workers local:N`` / ``ssh:h1,h2`` /
  ``inline:N`` / ``queue:DIR``): idle workers lease chunks dynamically,
  dead or hung workers lose their lease and the chunk is reassigned,
  persistently failing jobs are quarantined, and the merged output is
  byte-identical to the serial ``tables`` run. ``--resume DIR``
  persists per-chunk manifests and picks up a partially completed
  dispatch; the chunks are uniform slices, leased heaviest first by
  the per-job wall times earlier dispatches recorded.
* ``spmm-dist`` — distribute ONE kernel's iteration space over the
  same worker transports (SpDISTAL-style): row-block the output space
  into independent sub-kernels whose operands are position-range
  views of the once-staged level arrays, run the compiled kernel on
  each (``--engine``) on leased workers, and fold the partials through
  a reducing merge validated against the unpartitioned oracle; row
  mode is byte-identical to the ``--serial`` baseline (its P=1 case).
* ``worker``   — attach an elastic worker to a ``queue:DIR`` pool:
  claims chunk tasks (from ``dispatch``) and compile-request tasks
  (from ``serve``) by atomic rename, heartbeats while running them,
  streams results back through the queue directory, and exits when
  the dispatcher raises the stop sentinel. Start and stop workers on
  any host (sharing the directory) at any point mid-sweep.
* ``serve``    — run the compile-as-a-service daemon: an HTTP/JSON
  front end over the typed ``repro.api`` request surface. Hot requests
  are answered straight from the staged cache, identical in-flight
  requests coalesce into one job, and misses run on an ``inline:N``
  thread pool or an elastic ``queue:DIR`` worker pool. SIGTERM drains
  gracefully; ``/stats`` reports serve and cache counters.
* ``merge``    — validate shard manifests and fold them into the full
  artefact, byte-identical to the serial ``tables`` output. Arguments
  may be glob patterns (quoted, for non-shell callers).
* ``formats``  — list the registered whole-tensor formats with their
  level kinds, mode ordering, and memory region (``--json`` for a
  machine-readable dump).
* ``convert``  — synthesize and run a format-conversion plan between two
  registered formats on a matrix dataset (the ``repro.convert``
  conversion compiler).
* ``pipeline`` — plan and run a fused expression pipeline (FuseFlow):
  chained einsum stages whose intermediates stream producer-to-consumer
  on-fabric unless a cut heuristic forces materialization; prints the
  per-connection cut report and the modeled traffic saved
  (``--no-fuse`` is the materialize-everything baseline, ``--out``
  writes the fusion-invariant numeric outputs as JSON).
* ``cache``    — inspect or clear the on-disk compilation cache
  (``--json`` emits the same stats payload the serve daemon exposes
  at ``/stats``).
* ``trace``    — summarize or export the structured span traces that
  ``--trace DIR`` (or ``REPRO_TRACE_DIR``) makes every stage of the
  pipeline write: per-stage totals, cache hit ratios, worker
  utilization, the critical path, and a Chrome trace-viewer export.
"""

from __future__ import annotations

import argparse
import sys

from repro.engines import ENGINES


def _use_cache(args) -> bool | None:
    """``--no-cache`` → False; otherwise defer to the environment."""
    return False if getattr(args, "no_cache", False) else None


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
    """The command's resolved request, or None after printing why the
    kernel / dataset pair names nothing (exit code 2)."""
    from repro.api import CompileRequest

    try:
        return CompileRequest(kernel=args.kernel, dataset=args.dataset,
                              scale=args.scale).resolved()
    except ValueError as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return None


def _cmd_compile(args) -> int:
    from repro.api import build, compile

    request = _request(args)
    if request is None:
        return 2
    # The memoized `compile` stage holds exactly what is printed; only
    # --cpu needs the CompiledKernel itself (its statement).
    result = compile(request)
    if args.memory_report:
        print(result.memory_report)
        print()
    print(result.source)
    print(f"// generated Spatial LoC: {result.spatial_loc}",
          file=sys.stderr)
    if args.cpu:
        from repro.backends.cpu import lower_cpu

        print()
        print(lower_cpu(build(request).stmt, args.kernel.lower()))
    return 0


def _cmd_simulate(args) -> int:
    from repro.api import BASELINE_PLATFORM, evaluate

    request = _request(args)
    if request is None:
        return 2
    times = evaluate(request, use_cache=_use_cache(args)).platform_times()
    base = times.seconds[BASELINE_PLATFORM]
    print(f"{args.kernel} on {request.dataset} (scale {args.scale}):")
    for platform, seconds in times.seconds.items():
        print(f"  {platform:34s}{seconds * 1e6:14.2f} us"
              f"{seconds / base:10.2f}x")
    return 0


def _resolve(name: str, scale: float | None):
    """The record behind a CLI artefact name and the scale its run uses:
    an explicit ``--scale``, else the record's default."""
    from repro.pipeline.batch import resolve_artifact

    record = resolve_artifact(name)
    return record, record.default_scale if scale is None else scale


def _events(args):
    """Progress messages go to stderr unless ``--quiet``."""
    def event(message: str) -> None:
        if not args.quiet:
            print(message, file=sys.stderr)
    return event


def _emit(args, text: str) -> int:
    """Print an artefact's text, and write it to ``--out`` when given.

    A finished sweep is never lost to either half: the file is written
    first, so a reader that closes stdout early (``| head``) still
    leaves it, and a file that cannot be written is reported only after
    the text has been shown."""
    failed = None
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        try:
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(text + "\n")
        except OSError as exc:
            failed = exc
    print(text)
    if failed is not None:
        print(f"{args.command} error: cannot write --out {args.out}: "
              f"{failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_tables(args) -> int:
    from repro.pipeline.batch import run_artifact

    record, scale = _resolve(args.artifact, args.scale)
    print(record.render(run_artifact(
        record.name, scale, jobs=args.jobs, use_cache=_use_cache(args),
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

    from repro.convert import ConversionError, plan_conversion
    from repro.data.datasets import load_matrix_coo
    from repro.formats import CSR, format_of, offChip
    from repro.tensor.storage import pack, to_dense

    use_cache = _use_cache(args)
    try:
        src_fmt = format_of(args.source)
        dst_fmt = format_of(args.target)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.plan:
        # The plan is a function of the two formats alone; skip dataset
        # generation entirely.
        try:
            print(plan_conversion(src_fmt, dst_fmt).describe())
        except ConversionError as exc:
            print(f"conversion error: {exc}", file=sys.stderr)
            return 1
        return 0
    dims, coords, vals = load_matrix_coo(args.dataset, args.scale, args.seed,
                                         use_cache=use_cache)
    base = pack(coords, vals, dims, CSR(offChip))
    try:
        to_src = plan_conversion(base.fmt, src_fmt, dims)
        source = to_src.run(base) if args.source != "csr" else base
        plan = plan_conversion(source.fmt, dst_fmt,
                               dims if dst_fmt.order == len(dims) else None)
    except ConversionError as exc:
        print(f"conversion error: {exc}", file=sys.stderr)
        return 1
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
            print("verify: MISMATCH", file=sys.stderr)
            return 1
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

    from repro.pipeline.fusion import (
        PIPELINE_ORDER,
        PIPELINES,
        FusionError,
        run_pipeline,
    )

    if args.all:
        names = list(PIPELINE_ORDER)
    elif args.name:
        if args.name not in PIPELINES:
            print(f"unknown pipeline {args.name!r}; choose from: "
                  f"{', '.join(PIPELINE_ORDER)}", file=sys.stderr)
            return 2
        names = [args.name]
    else:
        print("pipeline: give a pipeline name or --all; registered: "
              f"{', '.join(PIPELINE_ORDER)}", file=sys.stderr)
        return 2

    use_cache = _use_cache(args)
    payload: dict[str, dict] = {}
    for name in names:
        spec = PIPELINES[name]
        datasets = [args.dataset] if args.dataset else list(spec.datasets)
        payload[name] = {}
        for dataset in datasets:
            try:
                row = run_pipeline(name, dataset, args.scale, args.seed,
                                   fuse=not args.no_fuse, engine=args.engine,
                                   use_cache=use_cache)
            except FusionError as exc:
                print(f"pipeline error: {exc}", file=sys.stderr)
                return 1
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
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    return 0


def _cmd_batch(args) -> int:
    from repro.pipeline.batch import (
        ARTIFACT_NAMES,
        UnknownArtifact,
        run_batch,
    )
    from repro.pipeline.cache import default_cache
    from repro.pipeline.shard import ShardSpec

    artifacts = list(args.artifacts)
    if "all" in artifacts:
        artifacts = list(ARTIFACT_NAMES)
    try:
        resolved = [_resolve(name, args.scale) for name in artifacts]
    except UnknownArtifact as exc:
        print(f"batch error: {exc}", file=sys.stderr)
        return 2
    use_cache = _use_cache(args)

    spec = None
    if args.shard:
        try:
            spec = ShardSpec.parse(args.shard)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if len(artifacts) != 1:
            print("--shard slices one artefact's job list; pass exactly "
                  "one artefact (one manifest per file)", file=sys.stderr)
            return 2

    if args.list:
        for record, scale in resolved:
            jobs = record.jobs(scale, use_cache)
            if spec is not None:
                jobs = spec.select(jobs)
            for job in jobs:
                print(f"{record.name:10s}  {job}")
        return 0

    if spec is not None:
        return _run_shard_to_manifest(args, artifacts[0], resolved[0][1],
                                      spec, use_cache)

    run = run_batch(artifacts, args.scale, jobs=args.jobs,
                    use_cache=use_cache, engine=args.engine)
    bar = "=" * 78
    for artifact in artifacts:
        if artifact in run.texts:
            print(f"{bar}\n{run.texts[artifact]}\n{bar}")
    for failure in run.failures:
        print(f"FAILED {failure.job}:\n{failure.error}", file=sys.stderr)
    stats = default_cache().stats
    print(f"{run.summary()} (cache: {stats.hits} hits / {stats.misses} "
          f"misses)")
    return 1 if run.failures else 0


def _run_shard_to_manifest(args, artifact: str, scale: float, spec,
                           use_cache) -> int:
    from repro.pipeline.cache import default_cache
    from repro.pipeline.shard import run_shard

    def progress(res, index, total):
        status = "ok" if res.ok else "FAILED"
        print(f"[{index + 1}/{total}] {res.job}: {status} "
              f"({res.seconds:.2f}s)", file=sys.stderr)

    manifest = run_shard(artifact, scale, spec, jobs=args.jobs,
                         use_cache=use_cache, on_result=progress,
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
        print(f"merge error: no manifest files matched {patterns}; "
              f"run `batch <artefact> --shard I/N --out F.json` first",
              file=sys.stderr)
        return 2
    try:
        manifests = [ShardManifest.load(p) for p in paths]
        merged = merge_manifests(
            manifests,
            require_current_compiler=not args.allow_stale_compiler,
        )
    except ManifestError as exc:
        print(f"merge error: {exc}", file=sys.stderr)
        return 1
    return _emit(args, merged.text)


def _cmd_dispatch(args) -> int:
    """Dispatch ``args.artifact`` over ``--workers`` and print the merged
    text (the run-and-report body ``spmm-dist`` shares)."""
    from repro.pipeline.batch import UnknownArtifact
    from repro.pipeline.dispatch import DispatchError, dispatch

    try:
        record, scale = _resolve(args.artifact, args.scale)
        result = dispatch(
            record.name, scale, args.workers,
            chunks_per_worker=args.chunks_per_worker,
            lease_timeout=args.lease_timeout,
            retries=args.retries,
            use_cache=_use_cache(args),
            worker_jobs=args.jobs,
            state_dir=args.resume,
            resume=args.resume is not None,
            on_event=_events(args),
            engine=args.engine,
        )
    except (UnknownArtifact, DispatchError) as exc:
        print(f"{args.command} error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # e.g. the transport binary (ssh) is missing or fds ran out;
        # in-flight workers were already revoked by the dispatcher.
        print(f"{args.command} error: cannot launch workers over "
              f"{args.workers}: {exc}", file=sys.stderr)
        return 2
    print(result.summary(), file=sys.stderr)
    for line in result.failure_report():
        print(line, file=sys.stderr)
    if not result.ok:
        return 1
    return _emit(args, result.merged.text)


def _cmd_spmm_dist(args) -> int:
    from repro.pipeline.partition import (
        PartitionError,
        PartitionPlan,
        serial_report,
    )

    try:
        plan = PartitionPlan(args.kernel, args.dataset, args.partition,
                             args.mode)
    except PartitionError as exc:
        print(f"spmm-dist error: {exc}", file=sys.stderr)
        return 2
    if not args.serial:
        args.artifact = plan.artifact
        return _cmd_dispatch(args)
    # The P=1 case of the same path, in-process: the byte-diff baseline.
    scale = plan.default_scale if args.scale is None else args.scale
    try:
        text = serial_report(args.kernel, args.dataset, scale,
                             mode=args.mode, use_cache=_use_cache(args),
                             engine=args.engine)
    except PartitionError as exc:
        print(f"spmm-dist error: {exc}", file=sys.stderr)
        return 1
    return _emit(args, text)


def _cmd_worker(args) -> int:
    from repro.pipeline.fsqueue import worker_loop

    try:
        completed = worker_loop(args.dir, poll=args.poll,
                                max_chunks=args.max_chunks, jobs=args.jobs,
                                on_event=_events(args))
    except KeyboardInterrupt:
        print("worker interrupted; any claimed chunk will be re-leased "
              "after its lease expires", file=sys.stderr)
        return 130
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
        queue_lease=args.lease_timeout,
        use_cache=_use_cache(args),
        on_event=_events(args),
    )
    try:
        return run_service(config)
    except ServeError as exc:
        print(f"serve error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"serve error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2


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
        import re
        import shutil
        from pathlib import Path

        cache.clear_memory()
        if info["dir"]:
            # Remove only the cache's own per-compiler-version trees, in
            # case REPRO_CACHE_DIR points at a directory holding other
            # content too.
            base = Path(info["dir"])
            if base.exists():
                for child in base.iterdir():
                    if child.is_dir() and re.fullmatch(r"[0-9a-f]{16}",
                                                       child.name):
                        shutil.rmtree(child, ignore_errors=True)
            print(f"cleared {info['entries']} entries from {info['dir']}")
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
        print(f"error: no trace directory (pass one or set {TRACE_ENV})",
              file=sys.stderr)
        return 2
    data = load_trace_dir(root)
    if not data.records:
        print(f"error: no trace records under {root}", file=sys.stderr)
        return 1
    if args.action == "summary":
        print(render_summary(data))
    elif args.action == "export":
        if not args.chrome:
            print("error: export needs --chrome OUT.json", file=sys.stderr)
            return 2
        with open(args.chrome, "w", encoding="utf-8") as fh:
            json.dump(to_chrome(data), fh)
        print(f"wrote {len(data.spans)} span(s), {len(data.events)} "
              f"event(s) to {args.chrome}", file=sys.stderr)
    problems = data.problems()
    if problems:
        for item in problems:
            print(f"trace problem: {item}", file=sys.stderr)
        if args.strict:
            return 1
    return 0


def _apply_trace(args) -> None:
    """``--trace DIR`` → the environment knob, inherited by workers."""
    if getattr(args, "trace", None):
        import os

        from repro.obs import TRACE_ENV

        os.environ[TRACE_ENV] = args.trace


def _add_trace_flag(parser) -> None:
    parser.add_argument("--trace", metavar="DIR", default=None,
                        help="write structured span traces as JSONL under "
                             "DIR (same as REPRO_TRACE_DIR; inherited by "
                             "spawned/remote workers; inspect with "
                             "`repro trace`)")


class _RegistryNames:
    """``choices`` of an artefact positional: the registry's names, read
    only when argparse checks a value or renders help (the argument's
    ``metavar`` keeps parser construction from listing them), so a
    command that runs no artefact (``kernels``, ``compile``) never
    imports the registry."""

    def __iter__(self):
        from repro.pipeline.batch import ARTEFACTS

        return iter(ARTEFACTS)


_ARTIFACT_HELP = ("an artefact (`tables --help` lists them) or a "
                  "partition:<kernel>:<dataset>:p<P>:<mode> plan")
_SCALE_HELP = ("dataset scale (default: the artefact's own; REPRO_SCALE "
               "or 0.25 unless it is structural)")
_ENGINE_HELP = ("cells that run a kernel functionally execute it with this "
                "engine and validate it against the interpreter oracle "
                "(default: skip the check); partition blocks run on it "
                "(default: REPRO_ENGINE or numpy)")


def _scale(text: str) -> float:
    """The ``type=`` of every ``--scale``: a positive number, the rule
    ``CompileRequest.resolved`` applies, refused at parse time (before
    any worker is started) with argparse's one-line error."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not value > 0:  # NaN compares false
        raise argparse.ArgumentTypeError(
            f"scale must be a positive number, got {text!r}")
    return value


def _add_run_flags(parser) -> None:
    """The flags ``tables`` and ``batch`` hand to the batch runner."""
    parser.add_argument("--scale", type=_scale, default=None,
                        help=_SCALE_HELP)
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel worker count (default: REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the compilation/result cache")
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help=_ENGINE_HELP)


def _add_dispatch_flags(parser, workers: str) -> None:
    """The flags ``dispatch`` and ``spmm-dist`` hand to the dispatcher."""
    parser.add_argument("--workers", default=workers, metavar="SPEC",
                        help=f"transport spec: local:N subprocesses, "
                             f"ssh:host1,host2, inline:N in-process "
                             f"threads, or queue:DIR (elastic pool; attach "
                             f"`repro worker DIR` processes at any time); "
                             f"default {workers}")
    parser.add_argument("--scale", type=_scale, default=None,
                        help=_SCALE_HELP)
    parser.add_argument("--chunks-per-worker", type=int, default=4,
                        help="lease granularity: chunks cut per worker "
                             "slot (default 4)")
    parser.add_argument("--lease-timeout", type=float, default=900.0,
                        help="seconds before a silent worker is presumed "
                             "hung and its chunk reassigned (default 900)")
    parser.add_argument("--retries", type=int, default=2,
                        help="re-dispatches per chunk after worker death "
                             "or job failure before quarantine (default 2)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker-internal thread count (default: "
                             "REPRO_JOBS or 1)")
    parser.add_argument("--resume", metavar="DIR", default=None,
                        help="persist per-chunk manifests under DIR and "
                             "skip chunks a previous dispatch completed")
    parser.add_argument("--out", default=None,
                        help="also write the merged artefact text here")
    parser.add_argument("--no-cache", action="store_true",
                        help="workers bypass the compilation/result cache")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-lease progress on stderr")
    parser.add_argument("--engine", choices=ENGINES, default=None,
                        help=_ENGINE_HELP)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Stardust reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("kernels", help="list evaluation kernels")

    p_compile = sub.add_parser("compile", help="compile a kernel")
    p_compile.add_argument("kernel")
    p_compile.add_argument("--dataset", default=None)
    p_compile.add_argument("--scale", type=_scale, default=0.05)
    p_compile.add_argument("--cpu", action="store_true",
                           help="also print TACO-style CPU C code")
    p_compile.add_argument("--memory-report", action="store_true",
                           help="print the Section 6 memory analysis")

    p_sim = sub.add_parser("simulate", help="predict cross-platform runtime")
    p_sim.add_argument("kernel")
    p_sim.add_argument("--dataset", default=None)
    p_sim.add_argument("--scale", type=_scale, default=0.25)
    p_sim.add_argument("--no-cache", action="store_true",
                       help="bypass the compilation/result cache")

    p_tab = sub.add_parser("tables", help="regenerate a table/figure")
    p_tab.add_argument("artifact", choices=_RegistryNames(),
                       metavar="ARTEFACT", help="one of: %(choices)s")
    _add_run_flags(p_tab)

    p_batch = sub.add_parser(
        "batch", help="regenerate several artefacts as one parallel batch")
    p_batch.add_argument("artifacts", nargs="+",
                         help=f"{_ARTIFACT_HELP}, or 'all'")
    _add_run_flags(p_batch)
    p_batch.add_argument("--list", action="store_true",
                         help="print the (kernel, dataset, platform) job "
                              "list without running it")
    p_batch.add_argument("--shard", metavar="I/N", default=None,
                         help="run only shard I of N (1-based, "
                              "deterministic round-robin slice) and write "
                              "a JSON manifest instead of printing tables")
    p_batch.add_argument("--out", default=None,
                         help="manifest path for --shard (default: "
                              "<artefact>.shardIofN.json; `-` streams the "
                              "manifest JSON to stdout)")

    p_disp = sub.add_parser(
        "dispatch",
        help="drive an artefact's sweep through a fault-tolerant worker "
             "pool (chunked leases; merged output byte-identical to "
             "`tables`)")
    p_disp.add_argument("artifact", help=_ARTIFACT_HELP)
    _add_dispatch_flags(p_disp, workers="local:2")

    p_dist = sub.add_parser(
        "spmm-dist",
        help="distribute ONE kernel's iteration space over the worker "
             "transports (SpDISTAL-style row blocks): view per-block "
             "operands in the staged level arrays, run the compiled "
             "kernel on each, reduce; row mode is byte-identical to "
             "--serial")
    p_dist.add_argument("kernel", help="a partitionable kernel (an "
                                       "unknown one lists them)")
    p_dist.add_argument("--dataset", default="bcsstk30",
                        help="matrix dataset (default bcsstk30)")
    p_dist.add_argument("--partition", type=int, default=2, metavar="P",
                        help="number of independent blocks (default 2)")
    p_dist.add_argument("--mode", choices=["row", "sum"], default="row",
                        help="split the output rows (byte-identical "
                             "merge, default) or the contraction "
                             "dimension (summed partials, "
                             "oracle-validated)")
    p_dist.add_argument("--serial", action="store_true",
                        help="compute unpartitioned in-process and print "
                             "the reference report (the byte-diff "
                             "baseline for row mode)")
    _add_dispatch_flags(p_dist, workers="inline:2")

    p_merge = sub.add_parser(
        "merge", help="merge shard manifests into the full artefact")
    p_merge.add_argument("manifests", nargs="*",
                         help="shard manifest files (or quoted glob "
                              "patterns) written by "
                              "`batch --shard I/N --out ...`")
    p_merge.add_argument("--out", default=None,
                         help="also write the merged artefact text here")
    p_merge.add_argument("--allow-stale-compiler", action="store_true",
                         help="merge manifests produced by a different "
                              "compiler version (hashes must still agree "
                              "between shards)")

    p_work = sub.add_parser(
        "worker",
        help="attach an elastic worker to a queue:DIR pool (claims "
             "dispatch chunks and serve compile-requests until the "
             "queue is stopped)")
    p_work.add_argument("dir", help="the queue directory given to "
                                    "`dispatch --workers queue:DIR` or "
                                    "`serve --pool queue:DIR`")
    p_work.add_argument("--poll", type=float, default=0.5, metavar="S",
                        help="seconds between empty-queue scans "
                             "(default 0.5)")
    p_work.add_argument("--max-chunks", type=int, default=None, metavar="N",
                        help="detach after completing N chunks")
    p_work.add_argument("--jobs", type=int, default=None,
                        help="thread count per chunk (default: the task's "
                             "own setting, else REPRO_JOBS or 1)")
    p_work.add_argument("--quiet", action="store_true",
                        help="suppress per-chunk progress on stderr")

    p_formats = sub.add_parser(
        "formats", help="list registered whole-tensor formats")
    p_formats.add_argument("--json", action="store_true",
                           help="machine-readable JSON output")

    p_conv = sub.add_parser(
        "convert", help="convert a matrix dataset between formats")
    p_conv.add_argument("source", help="source format name (see `formats`)")
    p_conv.add_argument("target", help="target format name (see `formats`)")
    p_conv.add_argument("--dataset", default="Trefethen_20000",
                        help="matrix dataset name (default: Trefethen_20000)")
    p_conv.add_argument("--scale", type=_scale, default=0.05)
    p_conv.add_argument("--seed", type=int, default=7)
    p_conv.add_argument("--plan", action="store_true",
                        help="print the synthesized plan without running it")
    p_conv.add_argument("--verify", action="store_true",
                        help="round-trip back to the source format and "
                             "check dense equality")
    p_conv.add_argument("--no-cache", action="store_true",
                        help="bypass the dataset/conversion cache")

    p_pipe = sub.add_parser(
        "pipeline",
        help="plan and run a fused expression pipeline (FuseFlow): "
             "producer levels stream into consumer co-iterators with "
             "automatic materializing cuts; prints the cut report and "
             "modeled traffic")
    p_pipe.add_argument("name", nargs="?", default=None,
                        help="pipeline name (see --all for the registry)")
    p_pipe.add_argument("--all", action="store_true",
                        help="run every registered pipeline")
    p_pipe.add_argument("--dataset", default=None,
                        help="matrix dataset (default: each pipeline's "
                             "full dataset list)")
    p_pipe.add_argument("--scale", type=_scale, default=0.25)
    p_pipe.add_argument("--seed", type=int, default=7)
    p_pipe.add_argument("--engine", choices=ENGINES, default=None,
                        help="execution engine for every stage (default: "
                             "REPRO_ENGINE or numpy); each stage is "
                             "validated against the interpreter oracle")
    p_pipe.add_argument("--no-fuse", action="store_true",
                        help="force a materializing cut at every "
                             "connection (the equivalence baseline)")
    p_pipe.add_argument("--out", default=None, metavar="FILE",
                        help="write the numeric outputs (shapes + "
                             "checksums) as JSON; fused and --no-fuse "
                             "runs must byte-match")
    p_pipe.add_argument("--no-cache", action="store_true",
                        help="bypass the compilation/result cache")

    p_serve = sub.add_parser(
        "serve",
        help="run the compile-as-a-service daemon: HTTP/JSON requests "
             "answered from the staged cache, coalesced, and fed to a "
             "worker pool on miss")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8757,
                         help="listen port (0 picks an ephemeral port; the "
                              "banner reports it)")
    p_serve.add_argument("--pool", default="inline:2", metavar="SPEC",
                         help="miss backend: inline:N in-process threads "
                              "(default inline:2) or queue:DIR (elastic "
                              "pool; attach `repro worker DIR` processes "
                              "at any time)")
    p_serve.add_argument("--max-inflight", type=int, default=32, metavar="N",
                         help="bound on concurrently running jobs; beyond "
                              "it new work is rejected with 429 "
                              "(default 32)")
    p_serve.add_argument("--timeout", type=float, default=120.0, metavar="S",
                         help="per-request wall-clock bound; 504 on expiry "
                              "(default 120)")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         metavar="S",
                         help="hard deadline for the SIGTERM graceful "
                              "drain (default 30)")
    p_serve.add_argument("--lease-timeout", type=float, default=60.0,
                         metavar="S",
                         help="queue:DIR pool: seconds before a silent "
                              "worker's request is re-enqueued (default 60)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="workers bypass the compilation/result cache "
                              "(the daemon's hot path still serves "
                              "pre-existing entries)")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress pool events on stderr")

    p_cache = sub.add_parser("cache", help="inspect or clear the cache")
    p_cache.add_argument("action", nargs="?", choices=["info", "clear"],
                         default="info")
    p_cache.add_argument("--json", action="store_true",
                         help="print cache stats as JSON — the same "
                              "payload as the serve daemon's /stats "
                              "cache section")

    p_trace = sub.add_parser(
        "trace",
        help="inspect structured span traces written under "
             "REPRO_TRACE_DIR (or --trace DIR on the producing command)")
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

    for p in (p_tab, p_batch, p_disp, p_dist, p_work, p_serve, p_pipe):
        _add_trace_flag(p)

    args = parser.parse_args(argv)
    _apply_trace(args)

    handlers = {
        "kernels": _cmd_kernels,
        "compile": _cmd_compile,
        "simulate": _cmd_simulate,
        "tables": _cmd_tables,
        "batch": _cmd_batch,
        "dispatch": _cmd_dispatch,
        "spmm-dist": _cmd_spmm_dist,
        "worker": _cmd_worker,
        "merge": _cmd_merge,
        "formats": _cmd_formats,
        "convert": _cmd_convert,
        "pipeline": _cmd_pipeline,
        "serve": _cmd_serve,
        "cache": _cmd_cache,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # piping into `head` etc. is fine
        sys.exit(0)
