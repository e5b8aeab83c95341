"""Profile the compiler's per-call floor, layer by layer.

Loads every kernel record's dataset at ``SCALE`` (``compile_nocache``'s
0.02, seed 7), then prints one row per record with the best-of-``ROUNDS``
time in µs of each layer a ``compile`` + ``evaluate`` pair runs:

* ``build``: the kernel's statement built over its loaded operands;
* ``analyze``: :func:`repro.core.memory_analysis.analyze`;
* ``plan``: :func:`repro.core.memory_analysis.plan_memory`;
* ``lower``: :meth:`repro.core.lowering.Lowerer.lower` on a fresh
  lowerer (the lowering body, analysis and plan excluded);
* ``codegen``: :func:`repro.spatial.codegen.generate`;
* ``stats`` and ``resources``: the Capstan workload statistics and
  resource estimate;

then the Python calls into ``repro`` and the frozen IR nodes built
(every ``frozen=True`` dataclass of ``spatial.ir``, ``ir.cin``,
``ir.iteration``, ``schedule.stmt`` and ``formats``) by one
``api.compile`` + ``api.evaluate`` pair with ``use_cache=False``.
Last it profiles ``CALLS`` more pairs per record under cProfile and
prints the ``TOP`` functions by own time (``tottime``). A fact derived
again on every call shows up there as a function called many times per
pair.

Usage:  PYTHONPATH=src python scripts/profile_compile.py

Without ``REPRO_CACHE_DIR`` it runs over a temporary cache it removes.
"""

from __future__ import annotations

import cProfile
import dataclasses
import importlib
import inspect
import os
import pstats
import sys
import tempfile
import time
from pathlib import Path

SCALE = 0.02
SEED = 7
CALLS = 20
TOP = 30
TIMED = 20
ROUNDS = 5
NODE_MODULES = ("repro.spatial.ir", "repro.ir.cin", "repro.ir.iteration",
                "repro.schedule.stmt", "repro.formats.format",
                "repro.formats.levels")
LAYERS = ("build", "analyze", "plan", "lower", "codegen", "stats",
          "resources")


def best_us(fn, setup=lambda: None) -> float:
    """Best of ``ROUNDS`` rounds of ``TIMED`` calls ``fn(setup())``, the
    set-up untimed, in µs per call."""
    best = float("inf")
    for _ in range(ROUNDS):
        args = [setup() for _ in range(TIMED)]
        start = time.perf_counter()
        for arg in args:
            fn(arg)
        best = min(best, time.perf_counter() - start)
    return best / TIMED * 1e6


def frozen_inits() -> set:
    """The ``__init__`` code of every frozen dataclass in ``NODE_MODULES``."""
    codes = set()
    for name in NODE_MODULES:
        for _, cls in inspect.getmembers(importlib.import_module(name),
                                         inspect.isclass):
            if (dataclasses.is_dataclass(cls) and cls.__module__ == name
                    and cls.__dataclass_params__.frozen):
                codes.add(cls.__init__.__code__)
    return codes


def count_calls(fn, inits: set) -> tuple[int, int]:
    """(Python calls into ``repro``, frozen nodes built) of one ``fn()``."""
    import repro

    root = str(Path(repro.__file__).resolve().parent) + os.sep
    calls = nodes = 0

    def count(frame, event, arg):
        nonlocal calls, nodes
        if event == "call":
            code = frame.f_code
            if code in inits:
                nodes += 1
            if code.co_filename.startswith(root):
                calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls, nodes


def layer_times(api, request) -> dict[str, float]:
    from repro.capstan.resources import estimate_resources
    from repro.capstan.stats import compute_stats
    from repro.core.lowering import Lowerer
    from repro.core.memory_analysis import analyze, plan_memory
    from repro.kernels.suite import KERNELS
    from repro.spatial import codegen

    spec, tensors = KERNELS[request.kernel], api.load_dataset(request)
    stmt, _out = spec.build(tensors)
    analysis = analyze(stmt)
    kernel = api.build(request, use_cache=False)
    return {
        "build": best_us(lambda _: spec.build(tensors)),
        "analyze": best_us(lambda _: analyze(stmt)),
        "plan": best_us(lambda _: plan_memory(analysis)),
        "lower": best_us(lambda lowerer: lowerer.lower(),
                         lambda: Lowerer(stmt, request.kernel)),
        "codegen": best_us(lambda _: codegen.generate(kernel.program)),
        "stats": best_us(lambda _: compute_stats(kernel)),
        "resources": best_us(lambda _: estimate_resources(kernel)),
    }


def main() -> int:
    if "REPRO_CACHE_DIR" in os.environ:
        return run()
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        return run()


def run() -> int:
    from repro import api
    from repro.kernels import KERNELS

    requests = [api.CompileRequest(kernel=name, scale=SCALE, seed=SEED)
                for name in KERNELS]
    for request in requests:
        api.load_dataset(request)

    def pair(request):
        return lambda: (api.compile(request, use_cache=False),
                        api.evaluate(request, use_cache=False))

    inits = frozen_inits()
    print(f"compile + evaluate pairs at scale {SCALE}, seed {SEED}; "
          f"layer times in us, best of {ROUNDS} x {TIMED}")
    print(f"{'kernel':<12}" + "".join(f"{name:>10}" for name in LAYERS)
          + f"{'calls':>8}{'nodes':>7}")
    totals = dict.fromkeys(LAYERS, 0.0)
    calls_total = nodes_total = 0
    for request in requests:
        pair(request)()  # first use: imports and memos
        times = layer_times(api, request)
        calls, nodes = count_calls(pair(request), inits)
        for name in LAYERS:
            totals[name] += times[name]
        calls_total += calls
        nodes_total += nodes
        print(f"{request.kernel:<12}"
              + "".join(f"{times[name]:>10.1f}" for name in LAYERS)
              + f"{calls:>8}{nodes:>7}")
    print(f"{'total':<12}" + "".join(f"{totals[name]:>10.1f}"
                                     for name in LAYERS)
          + f"{calls_total:>8}{nodes_total:>7}")
    print()
    profiler = cProfile.Profile()
    profiler.enable()
    for request in requests:
        one = pair(request)
        for _ in range(CALLS):
            one()
    profiler.disable()
    print(f"{CALLS} compile + evaluate pairs (use_cache=False) of each of "
          f"{len(requests)} kernel records at scale {SCALE}")
    pstats.Stats(profiler, stream=sys.stdout).sort_stats("tottime").print_stats(TOP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
