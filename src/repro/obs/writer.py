"""The per-process JSONL writer behind :mod:`repro.obs.trace`.

Only a process with ``REPRO_TRACE_DIR`` set loads this module, so one
that traces nothing never compiles it (see the module docstring of
:mod:`repro.obs.trace` for the record format and its guarantees).
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any

from repro.obs.trace import SCHEMA


class _Tracer:
    """Per-process JSONL writer shared by every span in the process."""

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.proc = f"{socket.gethostname()}-{os.getpid()}"
        self.path = root / f"trace-{self.proc}.jsonl"
        self._fh = None
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._stack = threading.local()

    def next_id(self) -> str:
        return f"{self.proc}:{next(self._seq)}"

    # -- thread-local parent stack -----------------------------------------

    def _frames(self) -> list[str]:
        frames = getattr(self._stack, "frames", None)
        if frames is None:
            frames = self._stack.frames = []
        return frames

    def current_parent(self) -> str | None:
        frames = self._frames()
        return frames[-1] if frames else None

    def push(self, span_id: str) -> None:
        self._frames().append(span_id)

    def pop(self, span_id: str) -> None:
        frames = self._frames()
        if frames and frames[-1] == span_id:
            frames.pop()

    # -- emission -----------------------------------------------------------

    def write(self, record: dict[str, Any]) -> None:
        record["v"] = SCHEMA
        try:
            line = json.dumps(record, separators=(",", ":"), default=str)
        except (TypeError, ValueError):  # non-serializable attr: best effort
            line = json.dumps({k: record[k] for k in ("v", "k", "name", "ts")
                               if k in record}, separators=(",", ":"))
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def span(self, name: str, attrs: dict[str, Any], nest: bool,
             track: str | None) -> Span:
        return Span(self, name, attrs, nest, track)

    def write_event(self, name: str, attrs: dict[str, Any]) -> None:
        record: dict[str, Any] = {
            "k": "event", "name": name, "ts": time.time(),
            "proc": self.proc, "tid": threading.get_ident(),
            "id": self.next_id(),
        }
        parent = self.current_parent()
        if parent is not None:
            record["parent"] = parent
        if attrs:
            record["attrs"] = attrs
        self.write(record)


_tracer_lock = threading.Lock()
_tracer: _Tracer | None = None
_tracer_key: tuple[str, int] | None = None


def active_tracer(configured: str) -> _Tracer:
    """The writer for trace directory ``configured`` in this process: one
    per (directory, pid), so a new directory or a fork opens a new file."""
    global _tracer, _tracer_key
    key = (configured, os.getpid())
    tracer = _tracer
    if tracer is not None and _tracer_key == key:
        return tracer
    with _tracer_lock:
        if _tracer is None or _tracer_key != key:  # re-check under the lock
            if _tracer is not None:  # re-keyed (new dir / fork): release it
                _tracer.close()
            _tracer = _Tracer(Path(configured).expanduser())
            _tracer_key = key
        return _tracer


@atexit.register
def _close_tracer() -> None:
    if _tracer is not None:
        _tracer.close()


class Span:
    """A live span; use as a context manager, add attrs via :meth:`set`."""

    __slots__ = ("name", "attrs", "id", "parent", "track",
                 "_tracer", "_nest", "_ts", "_t0")

    def __init__(self, tracer: _Tracer, name: str, attrs: dict[str, Any],
                 nest: bool, track: str | None) -> None:
        self.name = name
        self.attrs = attrs
        self.track = track
        self._tracer = tracer
        self._nest = nest
        self.id = tracer.next_id()
        self.parent = tracer.current_parent() if nest else None
        self._ts = 0.0
        self._t0 = 0.0

    def set(self, **attrs: Any) -> Span:
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> Span:
        self._ts = time.time()
        self._t0 = time.perf_counter()
        if self._nest:
            self._tracer.push(self.id)
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        dur = time.perf_counter() - self._t0
        if self._nest:
            self._tracer.pop(self.id)
        record: dict[str, Any] = {
            "k": "span", "name": self.name, "ts": self._ts, "dur": dur,
            "proc": self._tracer.proc, "tid": threading.get_ident(),
            "id": self.id,
        }
        if self.parent is not None:
            record["parent"] = self.parent
        if self.track is not None:
            record["track"] = self.track
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = self.attrs
        self._tracer.write(record)
        return False
