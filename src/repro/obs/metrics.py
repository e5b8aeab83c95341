"""Process-wide metrics registry with Prometheus-text exposition.

Counters, gauges, and log-bucketed histograms shared across the
process, surfaced two ways:

* the serve daemon's ``GET /metrics`` endpoint renders
  :func:`MetricsRegistry.render` (Prometheus text exposition format) of
  this registry, then of the daemon's own registry of serve counters;
* ``repro cache --json`` and ``/stats`` fold this registry's
  :func:`MetricsRegistry.snapshot` into the shared cache payload.

Everything is stdlib-only and thread-safe (one lock per metric; the
serve daemon's event loop and worker threads both record freely).
Label values are escaped per the exposition format; metric names are
validated at registration.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Iterable

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "registry",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram bounds: log-spaced (doubling) latency buckets from
#: 0.25 ms to ~128 s — wide enough for a cache peek and a cold sweep.
LATENCY_BUCKETS = tuple(0.00025 * 2 ** i for i in range(20))


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _label_str(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(f'{n}="{_escape(v)}"' for n, v in zip(names, values))
    return "{" + pairs + "}"


class _Metric:
    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: tuple[str, ...]) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _NAME_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._lock = threading.Lock()

    def _values(self, labels: dict[str, str]) -> tuple[str, ...]:
        # Labels passed in declared order (every call site) skip the sets.
        if tuple(labels) == self.labelnames:
            return tuple(map(str, labels.values()))
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(labels)}")
        return tuple(str(labels[n]) for n in self.labelnames)

    def header(self) -> list[str]:
        return [f"# HELP {self.name} {_escape(self.help)}",
                f"# TYPE {self.name} {self.kind}"]


class Counter(_Metric):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def __init__(self, name: str, help_text: str,
                 labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._counts: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._values(labels)
        with self._lock:
            self._counts[key] = self._counts.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: str) -> None:
        """Mirror an externally tracked total (scrape-time sync)."""
        key = self._values(labels)
        with self._lock:
            self._counts[key] = float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._counts.get(self._values(labels), 0.0)

    def render(self) -> list[str]:
        lines = self.header()
        with self._lock:
            items = sorted(self._counts.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for values, count in items:
            lines.append(f"{self.name}"
                         f"{_label_str(self.labelnames, values)} {count:g}")
        return lines

    def snapshot(self) -> Any:
        with self._lock:
            if not self.labelnames:
                return self._counts.get((), 0.0)
            return {",".join(v) or "": c
                    for v, c in sorted(self._counts.items())}


class Gauge(_Metric):
    """A value that goes up and down (inflight jobs, uptime)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str,
                 labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values_map: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = self._values(labels)
        with self._lock:
            self._values_map[key] = float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values_map.get(self._values(labels), 0.0)

    def render(self) -> list[str]:
        lines = self.header()
        with self._lock:
            items = sorted(self._values_map.items())
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for values, val in items:
            lines.append(f"{self.name}"
                         f"{_label_str(self.labelnames, values)} {val:g}")
        return lines

    def snapshot(self) -> Any:
        with self._lock:
            if not self.labelnames:
                return self._values_map.get((), 0.0)
            return {",".join(v) or "": x
                    for v, x in sorted(self._values_map.items())}


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics), unlabelled."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Iterable[float] = LATENCY_BUCKETS) -> None:
        super().__init__(name, help_text, ())
        self.bounds = tuple(sorted(buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.bounds) + 1)  # final slot = +Inf
        self._sum = 0.0
        self._total = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._total += 1
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def render(self) -> list[str]:
        lines = self.header()
        with self._lock:
            counts, total, acc = list(self._counts), self._total, self._sum
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            lines.append(f'{self.name}_bucket{{le="{bound:g}"}} {running}')
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {total}')
        lines.append(f"{self.name}_sum {acc:g}")
        lines.append(f"{self.name}_count {total}")
        return lines

    def snapshot(self) -> Any:
        with self._lock:
            counts, total, acc = list(self._counts), self._total, self._sum
        payload = {"count": total, "sum": acc, "buckets": {}}
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            if count:
                payload["buckets"][f"{bound:g}"] = running
        if total:
            payload["buckets"]["+Inf"] = total
        return payload

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds (for summaries)."""
        with self._lock:
            counts, total = list(self._counts), self._total
        if not total:
            return math.nan
        target = max(1, math.ceil(q * total))
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            if running >= target:
                return bound
        return self.bounds[-1]


class MetricsRegistry:
    """Named metrics, each registered once: the process-wide default
    (:func:`registry`) or one component's own (a serve daemon's)."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help_text: str,
                       **kwargs: Any) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help_text, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    def counter(self, name: str, help_text: str = "",
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help_text,
                                   labelnames=labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames: tuple[str, ...] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text,
                                   labelnames=labelnames)

    def histogram(self, name: str, help_text: str = "",
                  buckets: Iterable[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help_text,
                                   buckets=buckets)

    def render(self) -> str:
        """The full Prometheus text exposition (trailing newline)."""
        lines: list[str] = []
        with self._lock:
            metrics = [self._metrics[n] for n in sorted(self._metrics)]
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, Any]:
        """JSON-friendly dump, grouped by metric kind."""
        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            out[metric.kind + "s"][name] = metric.snapshot()
        return out


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def counter(name: str, help_text: str = "",
            labelnames: tuple[str, ...] = ()) -> Counter:
    return _REGISTRY.counter(name, help_text, labelnames)


def gauge(name: str, help_text: str = "",
          labelnames: tuple[str, ...] = ()) -> Gauge:
    return _REGISTRY.gauge(name, help_text, labelnames)


def histogram(name: str, help_text: str = "",
              buckets: Iterable[float] = LATENCY_BUCKETS) -> Histogram:
    return _REGISTRY.histogram(name, help_text, buckets)
