"""Every ``REPRO_*`` knob, declared once (a leaf: imports nothing of
``repro``). :data:`KNOBS` lists them; the README's table is checked
against it.

Every read is live, so an ``os.environ`` write or delete (``--trace``,
``monkeypatch``) is seen by the next read. This is the one module that
reads a knob, and the one that knows how: ``os.environ`` keeps its values
in a dict, ``os.environ._data`` keyed by ``os.environ.encodekey(name)``,
which its every write and delete updates. :attr:`Knob.raw` probes that
dict in C (≈ 60 ns; ``os.environ.get`` of an unset name raises and
catches a ``KeyError``, ≈ 1.1-1.5 µs) and :attr:`Knob.parsed` memoises
the parse per raw value, so ``knob.parsed[knob.raw()]`` (:meth:`Knob.get`)
runs no Python frame: the form per-call readers use.
"""

from __future__ import annotations

import functools
import os
from typing import Any, Callable

__all__ = ["KNOBS", "Knob", "forwarded"]

_ENVIRON = os.environ._data
_encode = os.environ.encodekey
_decode = os.environ.decodevalue


class _Parsed(dict):
    """Raw value (``None``: unset) -> parsed value, one entry per value
    the variable has held; a miss parses."""

    __slots__ = ("knob",)

    def __init__(self, knob: Knob) -> None:
        super().__init__()
        self.knob = knob

    def __missing__(self, raw: Any) -> Any:
        knob = self.knob
        text = knob.default if raw is None else _decode(raw)
        try:
            value = knob.parse(text)
        except ValueError:  # a value the parse refuses reads as unset
            value = knob.parse(knob.default)
        self[raw] = value
        return value


class Knob:
    """One variable: ``default`` is the text an unset one reads as;
    ``parse`` turns a text into the value (a ``ValueError`` reads as
    ``default``); ``forward``: a remote worker inherits it."""

    __slots__ = ("name", "default", "parse", "doc", "forward", "raw",
                 "parsed")

    def __init__(self, name: str, default: str, parse: Callable[[str], Any],
                 doc: str, forward: bool = False) -> None:
        self.name = name
        self.default = default
        self.parse = parse
        self.doc = doc
        self.forward = forward
        self.raw = functools.partial(_ENVIRON.get, _encode(name))
        self.parsed = _Parsed(self)

    def get(self) -> Any:
        """The knob's current value."""
        return self.parsed[self.raw()]

    def text(self) -> str | None:
        """The variable's current text, ``None`` when unset."""
        raw = self.raw()
        return None if raw is None else _decode(raw)


TRACE_DIR = Knob(
    "REPRO_TRACE_DIR", "", str,
    "directory that receives one span-trace file per process; unset or "
    "empty: tracing off", forward=True)
ENGINE = Knob(
    "REPRO_ENGINE", "numpy", str,
    "engine a functional run uses when none is requested (`interp`, "
    "`cpu` or `numpy`)")
NO_CACHE = Knob(
    "REPRO_NO_CACHE", "", lambda text: text in ("1", "true", "yes"),
    "`1`, `true` or `yes` disables all caching, exempt stages too "
    "(`--no-cache` keeps the `dataset` stage)", forward=True)
CACHE_DISK = Knob(
    "REPRO_CACHE_DISK", "", lambda text: text not in ("0", "false", "no"),
    "`0`, `false` or `no` keeps the in-memory LRU but skips the disk "
    "store", forward=True)
CACHE_DIR = Knob(
    "REPRO_CACHE_DIR", "", str,
    "on-disk cache store; unset or empty: `~/.cache/repro`", forward=True)
CACHE_MEM = Knob(
    "REPRO_CACHE_MEM", "64", int,
    "in-memory LRU capacity in entries; a non-integer reads as the "
    "default", forward=True)
SSH_REPO = Knob(
    "REPRO_SSH_REPO", "", str,
    "checkout path on an `ssh:` worker host; unset or empty: this "
    "checkout's absolute path")
SSH_PYTHON = Knob(
    "REPRO_SSH_PYTHON", "python3", str,
    "interpreter an `ssh:` worker host runs")

#: Every knob, in the README table's order.
KNOBS = (TRACE_DIR, ENGINE, NO_CACHE, CACHE_DISK, CACHE_DIR, CACHE_MEM,
         SSH_REPO, SSH_PYTHON)


def forwarded() -> dict[str, str]:
    """The set, non-empty knobs a remote worker inherits (for a transport
    that passes an explicit environment: ssh); empty reads as unset."""
    return {knob.name: text for knob in KNOBS
            if knob.forward and (text := knob.text())}
