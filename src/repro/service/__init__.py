"""Compilation-as-a-service: the typed request API and the daemon.

* :mod:`repro.service.api` — :class:`CompileRequest` /
  :class:`CompileResult` and the verbs every caller (CLI, batch,
  dispatch, serve) constructs work through.
* :mod:`repro.service.server` — the ``repro serve`` asyncio HTTP/JSON
  daemon (staged-cache hot path, request coalescing, admission control,
  graceful drain).
* :mod:`repro.service.stats` — the shared cache-stats formatter behind
  ``/stats`` and ``repro cache --json``.
"""

from repro import lazy_exports

_EXPORTS = {
    "ACTIONS": ("repro.service.api", "ACTIONS"),
    "CompileRequest": ("repro.service.api", "CompileRequest"),
    "CompileResult": ("repro.service.api", "CompileResult"),
    "EngineMismatchError": ("repro.service.api", "EngineMismatchError"),
    "PlatformTimes": ("repro.service.api", "PlatformTimes"),
    "build": ("repro.service.api", "build"),
    "cache_stats_payload": ("repro.service.stats", "cache_stats_payload"),
    "cached": ("repro.service.api", "cached"),
    "compile": ("repro.service.api", "compile"),
    "evaluate": ("repro.service.api", "evaluate"),
    "exec_check": ("repro.service.api", "exec_check"),
    "execute": ("repro.service.api", "execute"),
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
