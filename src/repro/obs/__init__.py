"""``repro.obs`` — observability: span tracing and metrics.

The write side every subsystem instruments against::

    from repro import obs

    with obs.span("lower", kernel=name):          # traced stage
        ...
    obs.event("lease.expired", chunk=3)            # instant record
    obs.counter("repro_jobs_total").inc()          # process metric

Spans are no-ops unless ``REPRO_TRACE_DIR`` is set (see
:mod:`repro.obs.trace`); metrics always accumulate in-process and are
rendered by the serve daemon's ``/metrics`` endpoint or folded into
JSON payloads (:mod:`repro.obs.metrics`).  The read side —
``repro trace summary`` / ``export`` — lives in
:mod:`repro.obs.timeline`.

A lazy root: a process that opens no metric never loads
:mod:`repro.obs.metrics`, and one that writes no trace never loads
:mod:`repro.obs.writer`.
"""

from repro import lazy_exports

_EXPORTS = {
    "NULL_SPAN": ("repro.obs.trace", "_NULL_SPAN"),
    "TRACE_ENV": ("repro.obs.trace", "TRACE_ENV"),
    "counter": ("repro.obs.metrics", "counter"),
    "event": ("repro.obs.trace", "event"),
    "gauge": ("repro.obs.metrics", "gauge"),
    "histogram": ("repro.obs.metrics", "histogram"),
    "registry": ("repro.obs.metrics", "registry"),
    "span": ("repro.obs.trace", "span"),
    "trace_dir": ("repro.obs.trace", "trace_dir"),
    "trace_env_knobs": ("repro.obs.trace", "trace_env_knobs"),
    "tracing_enabled": ("repro.obs.trace", "tracing_enabled"),
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
