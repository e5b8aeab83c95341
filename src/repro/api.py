"""The public typed API: ``import repro.api``.

Every way of constructing compiler work — the CLI subcommands, the batch
runner, dispatch workers, and the ``repro serve`` daemon — goes through
these names. Build a :class:`CompileRequest`, hand it to
:func:`evaluate` / :func:`compile` (or :func:`execute` to dispatch on
the request's action), and get a :class:`CompileResult` whose
``to_json()`` rendering is deterministic and byte-identical across all
of those paths.

>>> from repro.api import CompileRequest, evaluate
>>> times = evaluate(CompileRequest(kernel="SpMV")).platform_times()

``build``, ``build_structure``, ``exec_check`` and ``load_dataset`` load
the miss path (:mod:`repro.service.compute`) on first use, so importing
this module for a cache hit never compiles it.
"""

from repro import lazy_exports
from repro.engines import DEFAULT_ENGINE, ENGINES, default_engine
from repro.service.api import (
    ACTIONS,
    BASELINE_PLATFORM,
    DEFAULT_SCALE,
    DEFAULT_SEED,
    CompileRequest,
    CompileResult,
    EngineMismatchError,
    PlatformTimes,
    _MISS_PATH,
    cached,
    compile,
    evaluate,
    execute,
    first_dataset,
    partition,
    pipeline,
)

__all__ = [
    "ACTIONS",
    "BASELINE_PLATFORM",
    "CompileRequest",
    "CompileResult",
    "DEFAULT_ENGINE",
    "DEFAULT_SCALE",
    "DEFAULT_SEED",
    "ENGINES",
    "EngineMismatchError",
    "PlatformTimes",
    "build",
    "build_structure",
    "cached",
    "compile",
    "default_engine",
    "evaluate",
    "exec_check",
    "execute",
    "first_dataset",
    "load_dataset",
    "partition",
    "pipeline",
]
__getattr__, __dir__ = lazy_exports(__name__, _MISS_PATH)
