"""One cache-stats payload, two surfaces.

The ``/stats`` endpoint of ``repro serve`` and the ``repro cache
--json`` subcommand must agree — same keys, same meanings — so both
render :func:`cache_stats_payload` and nothing else. Tests diff the two
surfaces against each other.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = ["cache_stats_payload", "render_cache_stats"]


def cache_stats_payload() -> dict[str, Any]:
    """The process's cache state as one JSON-able dict.

    ``disk`` describes the on-disk store (location, entry count, byte
    size); ``counters`` is the in-process hit/miss tally including the
    per-stage breakdown (``dataset``/``program``/``evaluate``/...);
    ``compiler`` is the cache-invalidation hash of the checkout;
    ``metrics`` is the process metrics registry
    (:func:`repro.obs.registry`) snapshot.
    """
    from repro import obs
    from repro.pipeline.cache import compiler_version, default_cache

    cache = default_cache()
    return {
        "compiler": compiler_version(),
        "disk": cache.disk_info(),
        "counters": cache.stats.as_dict(),
        "metrics": obs.registry().snapshot(),
    }


def render_cache_stats(payload: dict[str, Any] | None = None) -> str:
    """The payload as deterministic JSON text (both CLIs print this)."""
    if payload is None:
        payload = cache_stats_payload()
    return json.dumps(payload, indent=2, sort_keys=True)
