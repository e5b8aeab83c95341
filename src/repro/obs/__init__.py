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
"""

from repro.obs.metrics import (
    counter,
    gauge,
    histogram,
    registry,
)
from repro.obs.trace import (
    _NULL_SPAN as NULL_SPAN,
    TRACE_ENV,
    event,
    span,
    trace_dir,
    trace_env_knobs,
    tracing_enabled,
)

__all__ = [
    "NULL_SPAN",
    "TRACE_ENV",
    "counter",
    "event",
    "gauge",
    "histogram",
    "registry",
    "span",
    "trace_dir",
    "trace_env_knobs",
    "tracing_enabled",
]
