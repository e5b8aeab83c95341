"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.formats import CSR, DENSE_VECTOR, offChip
from repro.tensor import Tensor


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Keep the suite hermetic: never write to the user's ~/.cache/repro.

    The pipeline cache resolves REPRO_CACHE_DIR dynamically, so setting it
    here (unless the caller already pinned one) redirects every disk-cache
    write of the whole session to a temporary directory. The cache
    switches a shell may export (REPRO_NO_CACHE, REPRO_CACHE_DISK,
    REPRO_CACHE_MEM) are dropped, so every test starts from the default
    layers; a test that needs one sets it through ``monkeypatch``.
    """
    for name in ("REPRO_NO_CACHE", "REPRO_CACHE_DISK", "REPRO_CACHE_MEM"):
        os.environ.pop(name, None)
    if "REPRO_CACHE_DIR" not in os.environ:
        os.environ["REPRO_CACHE_DIR"] = str(
            tmp_path_factory.mktemp("repro-cache")
        )


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """A pristine default cache backed by a private disk directory.

    Swaps the process-wide default cache and points REPRO_CACHE_DIR at a
    per-test directory; subprocess workers inherit the variable through
    the environment, so local-transport dispatch tests share the store
    too. Shared by the pipeline/shard/dispatch/lease-order suites — the cache
    isolation mechanism lives in exactly one place.
    """
    from repro.pipeline import cache as cache_mod
    from repro.pipeline.cache import CompilationCache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cache = CompilationCache()
    monkeypatch.setattr(cache_mod, "_default_cache", cache)
    return cache


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)``: from then on, this process may run on ``n`` CPUs as
    ``repro.parallel`` reads them (``os.sched_getaffinity``), whatever
    the host has."""
    def pin(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)
    return pin


@pytest.fixture
def count_calls(cpus):
    """``with count_calls(root) as calls:`` lists the code object of every
    Python call into a file under ``root`` while the block runs, on every
    thread, at two CPUs.

    ``threading.setprofile`` reaches only threads started after it, so
    the shared pool of ``repro.parallel`` is started afresh inside the
    block (and shut down after it): work moved onto a pool thread is
    counted like work on the caller's. ``list.append`` is atomic, so
    threads that count at once lose no call.
    """
    from repro import parallel

    cpus(2)

    @contextlib.contextmanager
    def counting(root: str):
        calls = []

        def count(frame, event, arg):
            if event == "call" and frame.f_code.co_filename.startswith(root):
                calls.append(frame.f_code)

        shared, parallel._pool = parallel._pool, None
        threading.setprofile(count)
        sys.setprofile(count)
        try:
            yield calls
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            if parallel._pool is not None:
                parallel._pool.shutdown()
            parallel._pool = shared
    return counting


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_sparse(rng: np.random.Generator, shape, density: float = 0.4) -> np.ndarray:
    """A random dense array with ``density`` fraction of nonzeros."""
    mask = rng.random(shape) < density
    vals = rng.random(shape) + 0.5
    return mask * vals


def csr_tensor(name: str, array: np.ndarray) -> Tensor:
    return Tensor(name, array.shape, CSR(offChip)).from_dense(array)


def dense_vector(name: str, array: np.ndarray) -> Tensor:
    return Tensor(name, array.shape, DENSE_VECTOR(offChip)).from_dense(array)


def assert_same_storage(got, want) -> None:
    """Bit-identical packed storage: format, dims, level arrays (with
    their dtypes) and values."""
    assert got.fmt == want.fmt and got.dims == want.dims
    assert len(got.levels) == len(want.levels)
    for a, b in zip(got.levels, want.levels):
        assert type(a) is type(b)
        for name in ("size", "pos", "crd"):
            if hasattr(b, name):
                x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
                assert x.dtype == y.dtype and np.array_equal(x, y)
    assert got.vals.dtype == want.vals.dtype
    assert got.vals.tobytes() == want.vals.tobytes()


def assert_scannable(storage) -> None:
    """The invariant a root-down level walk (``storage.scan``) relies on:
    every ``pos`` starts at 0, is non-decreasing, has one segment per
    parent position and ends at ``len(crd)``; each level's children per
    parent add up to its coordinates; ``vals`` holds one value per
    innermost position."""
    n_parents = 1
    for lvl in storage.levels:
        pos = lvl.arrays.get("pos")
        if pos is not None:
            assert len(pos) == n_parents + 1
            assert pos[0] == 0 and pos[-1] == len(lvl.crd)
            assert (np.diff(pos) >= 0).all()
        counts, coords = lvl.segments(n_parents)
        assert np.broadcast_to(counts, n_parents).sum() == len(coords)
        n_parents = len(coords)
    assert len(storage.vals) == n_parents


def patch_cell(monkeypatch, artifact: str, cell) -> None:
    """Swap one artefact's per-job function for a fake until teardown."""
    from repro.pipeline import batch

    monkeypatch.setitem(
        batch.ARTEFACTS, artifact,
        dataclasses.replace(batch.ARTEFACTS[artifact], cell=cell))


def start_vanishing_worker(transport, pattern: str) -> threading.Event:
    """Claim the first queue task matching ``pattern``, then vanish
    without heartbeating: a killed worker, as the dispatcher sees it.
    The returned event is set once the task is claimed, so a survivor
    that must not win the race for it can wait."""
    claimed = threading.Event()

    def saboteur():
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if transport.queue_dir.exists():
                for task in sorted(transport.queue_dir.glob(pattern)):
                    try:
                        os.replace(task, transport.claimed_dir /
                                   (task.name + ".saboteur"))
                        claimed.set()
                        return
                    except OSError:
                        pass
            time.sleep(0.01)

    threading.Thread(target=saboteur, daemon=True).start()
    return claimed
