"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import os
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
    write of the whole session to a temporary directory.
    """
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
