"""Structured span tracing with per-process JSONL emission.

The tracer is the repo-wide answer to "where did the time go?".  Any
code can open a span::

    from repro import obs

    with obs.span("lower", kernel="SpMV") as sp:
        ...
        sp.set(loops=4)

and, when tracing is enabled, a JSON record lands in an append-only
per-process file ``trace-<host>-<pid>.jsonl`` under ``REPRO_TRACE_DIR``.
``repro trace summary`` / ``repro trace export --chrome`` merge those
files into one timeline (:mod:`repro.obs.timeline`).

Design constraints (tested in ``tests/test_obs.py``):

* **Zero overhead when off.** ``span()`` returns a module-level no-op
  singleton unless ``REPRO_TRACE_DIR`` is set — no object allocation,
  no clock reads, no I/O.  The env var is read dynamically, so tests
  and the ``--trace DIR`` CLI flag can flip tracing per call.
* **Byte transparency.** Spans only ever append to their own JSONL
  file; stdout/stderr and every artefact byte stay untouched.
* **Crash safety.** One JSON object per line, written at span *exit*
  and flushed immediately.  A process killed mid-write leaves at worst
  one truncated trailing line, which the merger tolerates; spans whose
  parent record never landed are reported as orphans.

Timestamps: ``ts`` is wall-clock (``time.time``) so records from
different hosts/processes merge onto one axis; ``dur`` is measured with
``time.perf_counter`` so individual spans keep monotonic precision.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any

__all__ = [
    "TRACE_ENV",
    "event",
    "span",
    "trace_dir",
    "trace_env_knobs",
    "tracing_enabled",
]

#: Environment variable naming the trace output directory.
TRACE_ENV = "REPRO_TRACE_DIR"

#: Per-line schema version stamped into every record.
SCHEMA = 1


def tracing_enabled() -> bool:
    """Whether spans are being recorded (``REPRO_TRACE_DIR`` is set)."""
    return bool(os.environ.get(TRACE_ENV))


def trace_dir() -> Path | None:
    """The configured trace directory, or ``None`` when tracing is off."""
    configured = os.environ.get(TRACE_ENV, "")
    return Path(configured).expanduser() if configured else None


def trace_env_knobs() -> dict[str, str]:
    """Trace env settings a remote worker needs, for transports that
    forward an explicit environment (ssh) rather than inheriting ours."""
    configured = os.environ.get(TRACE_ENV, "")
    return {TRACE_ENV: configured} if configured else {}


class _NullSpan:
    """The do-nothing span handed out when tracing is off.

    A single module-level instance (``span("a") is span("b")``), so the
    disabled path allocates nothing per call.
    """

    __slots__ = ()
    id = None

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> _NullSpan:
        return self


_NULL_SPAN = _NullSpan()


def _active_tracer():
    """The process's writer, or ``None`` when tracing is off; only a
    traced process loads :mod:`repro.obs.writer`."""
    configured = os.environ.get(TRACE_ENV, "")
    if not configured:
        return None
    from repro.obs.writer import active_tracer

    return active_tracer(configured)


def span(name: str, *, _nest: bool = True, _track: str | None = None,
         **attrs: Any):
    """A context-manager span (no-op singleton when tracing is off).

    ``_nest=False`` detaches the span from the thread-local parent
    stack — required in async handlers, where interleaved coroutines on
    one thread would otherwise corrupt each other's ancestry.
    ``_track`` names the Chrome-export lane (defaults to the thread).
    """
    tracer = _active_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, attrs, _nest, _track)


def event(name: str, **attrs: Any) -> None:
    """An instant (zero-duration) record — lease grants, claims, etc."""
    tracer = _active_tracer()
    if tracer is not None:
        tracer.write_event(name, attrs)
