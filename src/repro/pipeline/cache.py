"""Content-addressed compilation cache.

Stardust's evaluation compiles and simulates the same (kernel, dataset,
platform) combinations over and over; TACO-style compilers memoize lowered
kernels per (expression, format) key for exactly this reason. This module
provides that memoization for the whole pipeline:

* :func:`fingerprint_stmt` derives a stable, content-addressed key from a
  scheduled statement: the concrete index notation text, the environment
  variables, and every referenced tensor's name, shape, format, memory
  region, and packed-data hash. Two statements with the same key lower to
  the same kernel bound to the same data.
* :func:`compiler_version` hashes every source file of the ``repro``
  package, so any code change invalidates prior cache entries — stale
  results can never survive a compiler edit.
* :class:`CompilationCache` layers an in-memory LRU over an optional
  on-disk store (default ``~/.cache/repro``, overridable with the
  ``REPRO_CACHE_DIR`` environment variable). Entries are pickled under
  a per-compiler-version directory keyed by SHA-256, so the store is safe
  to share between concurrent runs: writes are atomic renames and corrupt
  or unreadable entries degrade to cache misses.
* :func:`memoize_stage` splits the pipeline into separately-keyed
  **stages** (``dataset`` generation, ``kernel`` compilation, ``stats``,
  ``resources``, and the artefact-level results). Stages are the unit of
  sharing between shard workers and of selective invalidation: the
  ``dataset`` stage is keyed by a hash of only the data/format/tensor
  sources (compiler edits keep datasets warm) and is exempt from
  ``--no-cache``, so a forced recompile never regenerates datasets.
* :func:`get_stage` / :func:`put_stage` read and write staged entries
  directly (no compute callback) for stages that *record observations*
  rather than memoize computations — the dispatcher's ``cost`` stage
  stores observed per-job wall times this way, keyed on the same
  (kernel, dataset, scale) coordinates the ``stats`` stage uses, and
  its lease order treats a missing entry as "no cost known yet".

Environment knobs (read dynamically, so tests can monkeypatch them):

* ``REPRO_CACHE_DIR`` — on-disk store location (default ``~/.cache/repro``).
* ``REPRO_NO_CACHE=1`` — disable all caching (equivalent to ``--no-cache``).
* ``REPRO_CACHE_DISK=0`` — keep the in-memory LRU but skip the disk store.
* ``REPRO_CACHE_MEM`` — in-memory LRU capacity (default 64 entries).
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.obs import trace as _trace

__all__ = [
    "CacheStats",
    "CompilationCache",
    "NO_CACHE_EXEMPT_STAGES",
    "cache_enabled",
    "cache_env_knobs",
    "compiler_version",
    "default_cache",
    "disk_cache_dir",
    "fingerprint_stmt",
    "fingerprint_tensor",
    "get_stage",
    "make_key",
    "memoize_stage",
    "note_stage_compute",
    "peek_stage",
    "stage_computes",
    "put_stage",
    "stage_version",
    "subsystem_version",
]

#: Default in-memory LRU capacity.
DEFAULT_MEMORY_ENTRIES = 64

#: Soft cap on on-disk entries per compiler version (pruned oldest-first).
DEFAULT_MAX_DISK_ENTRIES = 10_000

#: How often (in puts) the disk store checks the entry cap.
_PRUNE_EVERY = 200


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def _sha256(*parts: bytes | str) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode()
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


@functools.lru_cache(maxsize=1)
def compiler_version() -> str:
    """A hash of every ``repro`` source file (cache-invalidation token)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@functools.lru_cache(maxsize=None)
def subsystem_version(subpackages: tuple[str, ...]) -> str:
    """A hash of the source files of selected ``repro`` subsystems.

    Narrower than :func:`compiler_version`: cache stages whose results
    depend only on part of the codebase (dataset generation does not care
    about the lowerer) key on the subsystems they actually read, so
    unrelated compiler edits keep those entries warm. Entries may name a
    subpackage directory or a single top-level module file
    (``convert.py``).
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for sub in sorted(subpackages):
        target = root / sub
        paths = [target] if target.is_file() else sorted(target.rglob("*.py"))
        for path in paths:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


#: Stages still served from cache under ``--no-cache``: regenerating a
#: synthetic dataset is deterministic in (name, scale, seed) and does not
#: involve the compiler, so a forced recompile never needs to redo it.
NO_CACHE_EXEMPT_STAGES = frozenset({"dataset"})

#: Stages keyed by a subsystem hash instead of the whole-compiler hash.
#: ``convert.py`` is included wherever converted operands can be embedded
#: in an entry, so conversion-compiler edits invalidate them.
_STAGE_SUBSYSTEMS: dict[str, tuple[str, ...]] = {
    "dataset": ("convert.py", "data", "formats", "kernels", "tensor"),
    "convert": ("convert.py", "data", "formats", "tensor"),
}


def stage_version(stage: str) -> str:
    """The cache-invalidation token for one pipeline stage."""
    subs = _STAGE_SUBSYSTEMS.get(stage)
    if subs is None:
        return compiler_version()
    return subsystem_version(subs)


def fingerprint_tensor(tensor: Any) -> str:
    """``name|shape|format|data-hash`` for one operand tensor.

    The data hash covers the packed level arrays and values, so mutating a
    tensor's contents (or loading a different dataset into the same
    formats) changes the compilation key. Tensors that hold no data yet
    (e.g. outputs) hash as ``empty`` without forcing a pack.
    """
    has_data = tensor._storage is not None or bool(tensor._pending)
    if not has_data:
        data = "empty"
    else:
        storage = tensor.storage
        h = hashlib.sha256()
        for level in storage.levels:
            h.update(type(level).__name__.encode())
            for field in vars(level).values():
                if hasattr(field, "tobytes"):
                    h.update(field.tobytes())
                else:
                    h.update(repr(field).encode())
        h.update(storage.vals.tobytes())
        data = h.hexdigest()[:16]
    return f"{tensor.name}|{tensor.shape}|{tensor.format}|{data}"


def fingerprint_stmt(stmt: Any, name: str = "kernel") -> str:
    """A stable content hash of a scheduled :class:`IndexStmt`.

    Combines the CIN text (loop structure, schedule relations, map calls),
    the environment variables, the kernel name (it appears in generated
    code), every referenced tensor's fingerprint, and the compiler
    version.
    """
    env = ",".join(f"{k}={v}" for k, v in sorted(stmt.environment_vars.items()))
    tensors = sorted(fingerprint_tensor(t) for t in stmt.cin.tensors())
    return _sha256(
        "stmt", name, str(stmt.cin), env, "\n".join(tensors), compiler_version()
    )


def make_key(kind: str, *parts: Any, version: str | None = None) -> str:
    """A content-addressed key for arbitrary pipeline results.

    ``kind`` namespaces the entry (``"kernel"``, ``"evaluate"``, ...);
    remaining parts are stringified into the hash along with a version
    token — the whole-compiler hash unless the caller passes the
    narrower :func:`stage_version` — so code changes invalidate entries.
    """
    return _sha256(kind, *(repr(p) for p in parts),
                   version if version is not None else compiler_version())


# ---------------------------------------------------------------------------
# Environment knobs
# ---------------------------------------------------------------------------


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` disables caching globally."""
    return os.environ.get("REPRO_NO_CACHE", "") not in ("1", "true", "yes")


def disk_cache_dir() -> Path | None:
    """The on-disk store location, or None when the disk layer is off."""
    if os.environ.get("REPRO_CACHE_DISK", "") in ("0", "false", "no"):
        return None
    configured = os.environ.get("REPRO_CACHE_DIR", "")
    if configured:
        return Path(configured).expanduser()
    return Path.home() / ".cache" / "repro"


#: Environment variables that change cache behaviour; dispatch workers
#: (local subprocesses, SSH remotes) must see the same values the
#: dispatcher does or their staged entries land in a different store.
_ENV_KNOBS = ("REPRO_CACHE_DIR", "REPRO_NO_CACHE", "REPRO_CACHE_DISK",
              "REPRO_CACHE_MEM")


def cache_env_knobs() -> dict[str, str]:
    """The cache-relevant ``REPRO_*`` variables currently set.

    Used by the sweep dispatcher to forward this process's cache
    configuration into worker environments (notably over SSH, where the
    local environment is not inherited).
    """
    return {k: os.environ[k] for k in _ENV_KNOBS if k in os.environ}


def _memory_entries() -> int:
    try:
        return int(os.environ.get("REPRO_CACHE_MEM", DEFAULT_MEMORY_ENTRIES))
    except ValueError:
        return DEFAULT_MEMORY_ENTRIES


# ---------------------------------------------------------------------------
# The cache
# ---------------------------------------------------------------------------


class CacheStats:
    """Hit/miss counters (observable from tests and ``repro cache info``).

    Besides the aggregate counters, staged lookups (through
    :func:`memoize_stage` or a ``stage=`` argument to
    :meth:`CompilationCache.get_or_compute`) are tallied per stage, so a
    run can show e.g. dataset-stage hits alongside kernel-stage misses.
    """

    __slots__ = ("memory_hits", "disk_hits", "misses", "stores",
                 "stage_hits", "stage_misses")

    def __init__(self) -> None:
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0
        self.stage_hits: dict[str, int] = {}
        self.stage_misses: dict[str, int] = {}

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def record_stage(self, stage: str, hit: bool) -> None:
        counters = self.stage_hits if hit else self.stage_misses
        counters[stage] = counters.get(stage, 0) + 1

    def stage_summary(self) -> str:
        """``dataset 3h/0m, kernel 0h/3m`` — one clause per seen stage."""
        stages = sorted(set(self.stage_hits) | set(self.stage_misses))
        return ", ".join(
            f"{s} {self.stage_hits.get(s, 0)}h/{self.stage_misses.get(s, 0)}m"
            for s in stages
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "stages": {
                stage: {
                    "hits": self.stage_hits.get(stage, 0),
                    "misses": self.stage_misses.get(stage, 0),
                }
                for stage in sorted(set(self.stage_hits)
                                    | set(self.stage_misses))
            },
        }

    def __repr__(self) -> str:
        return (f"CacheStats(memory_hits={self.memory_hits}, "
                f"disk_hits={self.disk_hits}, misses={self.misses}, "
                f"stores={self.stores})")


_MISSING = object()


class CompilationCache:
    """Thread-safe in-memory LRU with an optional pickled disk store.

    Args:
        max_entries: in-memory LRU capacity (defaults to ``REPRO_CACHE_MEM``).
        disk: on-disk store directory; ``None`` resolves dynamically from
            the environment (:func:`disk_cache_dir`), ``False`` disables
            the disk layer for this cache instance.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        disk: Path | str | bool | None = None,
    ) -> None:
        self._max_entries = max_entries
        self._disk = disk
        self._lock = threading.Lock()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._puts = 0
        self.stats = CacheStats()

    # -- configuration ------------------------------------------------------

    def _capacity(self) -> int:
        return self._max_entries if self._max_entries is not None else _memory_entries()

    def _disk_dir(self) -> Path | None:
        if self._disk is False:
            return None
        if self._disk in (None, True):
            return disk_cache_dir()
        return Path(self._disk)

    def _entry_path(self, key: str, version: str | None = None) -> Path | None:
        base = self._disk_dir()
        if base is None:
            return None
        return base / (version or compiler_version()) / key[:2] / f"{key}.pkl"

    # -- core operations ----------------------------------------------------

    def get(self, key: str, default: Any = None,
            version: str | None = None) -> Any:
        """Look up ``key``, falling back from memory to the disk store.

        ``version`` selects the on-disk version tree (stage entries live
        under their :func:`stage_version`; default: the compiler hash).
        """
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.memory_hits += 1
                return self._memory[key]
        value = self._disk_get(key, version)
        if value is not _MISSING:
            with self._lock:
                self.stats.disk_hits += 1
                self._memory_put(key, value)
            return value
        with self._lock:
            self.stats.misses += 1
        return default

    def put(self, key: str, value: Any, version: str | None = None) -> None:
        """Insert into the LRU and (best-effort) the disk store."""
        with self._lock:
            self.stats.stores += 1
            self._memory_put(key, value)
        self._disk_put(key, value, version)

    def get_or_compute(self, key: str, compute, stage: str | None = None,
                       version: str | None = None):
        """Memoize ``compute()`` under ``key``.

        ``stage`` (optional) attributes the hit or miss to a named
        pipeline stage in :attr:`stats`; ``version`` selects the on-disk
        version tree.
        """
        value = self.get(key, _MISSING, version=version)
        if stage is not None:
            with self._lock:
                self.stats.record_stage(stage, hit=value is not _MISSING)
        if value is not _MISSING:
            return value
        value = compute()
        self.put(key, value, version=version)
        return value

    def peek(self, key: str, default: Any = None, stage: str | None = None,
             version: str | None = None):
        """:meth:`get`, with the lookup tallied per stage (no compute).

        The serve daemon answers hot requests straight from the store
        through this: a hit is a finished result, a miss goes to the
        worker pool — either way the per-stage counters in
        :attr:`stats` record it, so ``/stats`` shows daemon traffic.
        """
        value = self.get(key, _MISSING, version=version)
        if stage is not None:
            with self._lock:
                self.stats.record_stage(stage, hit=value is not _MISSING)
        return default if value is _MISSING else value

    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        path = self._entry_path(key)
        return path is not None and path.exists()

    # -- memory layer (callers hold the lock) -------------------------------

    def _memory_put(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        capacity = self._capacity()
        while len(self._memory) > capacity:
            self._memory.popitem(last=False)

    # -- disk layer ---------------------------------------------------------

    def _disk_get(self, key: str, version: str | None = None) -> Any:
        path = self._entry_path(key, version)
        if path is None or not path.exists():
            return _MISSING
        try:
            with path.open("rb") as fh:
                return pickle.load(fh)
        except Exception:
            # Corrupt / truncated / version-skewed entry: drop and miss.
            try:
                path.unlink()
            except OSError:
                pass
            return _MISSING

    def _disk_put(self, key: str, value: Any, version: str | None = None) -> None:
        path = self._entry_path(key, version)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            return  # disk store is best-effort; memory layer still holds it
        with self._lock:
            self._puts += 1
            should_prune = self._puts % _PRUNE_EVERY == 0
        if should_prune:
            self.prune()

    def prune(self, max_entries: int = DEFAULT_MAX_DISK_ENTRIES) -> int:
        """Bound the disk store; return the number of entries removed.

        Deletes the oldest entries beyond ``max_entries`` in each live
        version tree (the current compiler tree and the per-stage
        subsystem trees), and whole trees left behind by superseded
        versions (every source edit abandons the previous tree, which
        would otherwise grow the store without bound).
        """
        import re
        import shutil

        base = self._disk_dir()
        if base is None:
            return 0
        current = compiler_version()
        versions = {stage_version(stage) for stage in _STAGE_SUBSYSTEMS}
        versions.add(current)
        removed = 0
        try:
            siblings = list(base.iterdir())
        except OSError:
            siblings = []
        for child in siblings:
            if (child.is_dir() and child.name not in versions
                    and re.fullmatch(r"[0-9a-f]{16}", child.name)):
                try:
                    stale = sum(1 for _ in child.rglob("*.pkl"))
                except OSError:
                    # Another process is clearing the same stale tree.
                    stale = 0
                shutil.rmtree(child, ignore_errors=True)
                removed += stale
        # Bound every live version tree (the compiler tree and each stage
        # tree — dataset entries are the largest in the store), oldest
        # entries first. Concurrent shard workers share REPRO_CACHE_DIR
        # and may remove entries (or whole trees) while we walk: a
        # vanished file is not an error, it just no longer needs pruning.
        for version in sorted(versions):
            entries: list[tuple[float, Path]] = []
            try:
                for path in (base / version).glob("*/*.pkl"):
                    try:
                        entries.append((path.stat().st_mtime, path))
                    except OSError:
                        pass
            except OSError:
                continue
            entries.sort(key=lambda e: e[0])
            for _mtime, path in entries[: max(0, len(entries) - max_entries)]:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def disk_info(self) -> dict[str, Any]:
        """Location / entry count / byte size of the disk store."""
        base = self._disk_dir()
        if base is None:
            return {"dir": None, "entries": 0, "bytes": 0}
        entries = 0
        size = 0
        try:
            for path in base.rglob("*.pkl"):
                try:
                    size += path.stat().st_size
                    entries += 1
                except OSError:
                    pass  # entry removed by a concurrent worker mid-walk
        except OSError:
            pass  # directory tree vanished mid-walk (concurrent clear/prune)
        return {"dir": str(base), "entries": entries, "bytes": size}


# ---------------------------------------------------------------------------
# Process-wide default cache
# ---------------------------------------------------------------------------

_default_cache = CompilationCache()


def default_cache() -> CompilationCache:
    """The process-wide cache shared by the compiler facade and harness."""
    return _default_cache


def get_stage(stage: str, parts: tuple, default: Any = None) -> Any:
    """Read one staged entry directly (no compute callback).

    For observation stages — entries *recorded* by one run and *read* by
    a later one (the dispatcher's ``cost`` stage) — where a miss is an
    ordinary answer ("nothing observed yet"), not a trigger to compute.
    Returns ``default`` on a miss or when caching is disabled.
    """
    if not cache_enabled():
        return default
    version = stage_version(stage)
    return default_cache().get(make_key(stage, *parts, version=version),
                               default, version=version)


def peek_stage(stage: str, parts: tuple, default: Any = None) -> Any:
    """Read one staged entry with per-stage hit/miss accounting.

    Like :func:`get_stage`, but the lookup shows up in the stage
    counters — the daemon's hot path uses this so cache traffic from
    served requests is observable in ``/stats``.
    """
    if not cache_enabled():
        return default
    version = stage_version(stage)
    return default_cache().peek(make_key(stage, *parts, version=version),
                                default, stage=stage, version=version)


def put_stage(stage: str, parts: tuple, value: Any) -> None:
    """Write one staged entry directly (the counterpart of :func:`get_stage`).

    A no-op when ``REPRO_NO_CACHE`` disables caching; otherwise the entry
    lands in the stage's version tree, shared by every worker pointing at
    the same ``REPRO_CACHE_DIR``.
    """
    if not cache_enabled():
        return
    version = stage_version(stage)
    default_cache().put(make_key(stage, *parts, version=version), value,
                        version=version)


_stage_compute_local = threading.local()


def stage_computes() -> int:
    """How many stage compute callbacks have run on this thread.

    The executor snapshots this around ``job.run()`` to tell a job that
    actually compiled something from one answered wholly by the cache
    (the ``jobs_computed`` / ``jobs_cached`` split in dispatch summaries).
    Valid because each job's stages run entirely on the job's own thread.
    """
    return getattr(_stage_compute_local, "count", 0)


def note_stage_compute() -> None:
    _stage_compute_local.count = getattr(
        _stage_compute_local, "count", 0) + 1


def memoize_stage(stage: str, parts: tuple, compute,
                  use_cache: bool | None = None):
    """Memoize one pipeline **stage** under its own content key.

    Staged entries

    * key on :func:`stage_version` — the ``dataset`` stage hashes only the
      data/format/tensor sources, so compiler edits keep it warm;
    * live in the disk store under their own version tree (shared by
      every shard worker pointing at the same ``REPRO_CACHE_DIR``);
    * honour :data:`NO_CACHE_EXEMPT_STAGES`: ``use_cache=False`` (the
      ``--no-cache`` flag) still *reads and writes* exempt stages, so a
      forced recompile reuses generated datasets while every compile-side
      stage recomputes. ``REPRO_NO_CACHE=1`` disables even exempt stages.
    """
    computed = False

    def run():
        # The nonlocal flag distinguishes hit from miss; the thread-local
        # counter lets the executor attribute computes to one job (each
        # job's stages run entirely on the job's own thread).
        nonlocal computed
        computed = True
        note_stage_compute()
        return compute()

    with _trace.span(f"stage:{stage}") as sp:
        if not cache_enabled() or (
                use_cache is False and stage not in NO_CACHE_EXEMPT_STAGES):
            value = run()
        else:
            version = stage_version(stage)
            value = default_cache().get_or_compute(
                make_key(stage, *parts, version=version), run,
                stage=stage, version=version,
            )
        sp.set(hit=not computed)
    return value
