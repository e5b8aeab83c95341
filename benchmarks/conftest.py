"""Shared configuration for the evaluation benchmarks.

Dataset sizing: benchmarks default to REPRO_SCALE=0.25 (dimensions scaled
to a quarter, densities preserved) so the whole suite regenerates every
table and figure in a few minutes. Run with REPRO_SCALE=1.0 for the exact
Table 4 configurations (what ``results/`` records, as written by
``scripts/run_experiments.py``).

Parallelism: the artefact regenerations fan out through
``repro.pipeline``; set REPRO_JOBS=N to spread the (kernel, dataset)
jobs over N workers. Measured calls bypass the compilation cache so the
recorded timings reflect real compilation/simulation work (see
``bench_cache.py`` for the cache-effectiveness benchmark).
"""

from __future__ import annotations

import os

import pytest

#: Dataset scale for the runtime benches.
SCALE = float(os.environ.get("REPRO_SCALE", "0.25"))

#: Worker count for pipeline fan-out in the artefact benches.
JOBS = max(1, int(os.environ.get("REPRO_JOBS", "1")))


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Hermetic benchmark runs: never read or pollute ~/.cache/repro.

    A warm disk store from a previous session would turn "cold" numbers
    into cache replays; a private per-session directory keeps every
    benchmark's first call genuinely cold.
    """
    if "REPRO_CACHE_DIR" not in os.environ:
        os.environ["REPRO_CACHE_DIR"] = str(
            tmp_path_factory.mktemp("repro-cache")
        )

#: Tiny scale for structural artefacts (LoC, resources) that do not depend
#: on dataset size.
TINY = 0.02


@pytest.fixture(scope="session")
def scale() -> float:
    return SCALE


@pytest.fixture
def fresh_default_cache(monkeypatch):
    """Factory swapping in a fresh default cache rooted under a path.

    Shared by the cache/shard/format benches so cold-vs-warm comparisons
    all isolate the process-wide cache the same way; call it once per
    simulated process/host: ``fresh_default_cache(tmp_path / "host1")``.
    """
    from repro.pipeline import cache as cache_mod
    from repro.pipeline.cache import CompilationCache

    def _make(path) -> CompilationCache:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(path / "cache"))
        cache = CompilationCache()
        monkeypatch.setattr(cache_mod, "_default_cache", cache)
        return cache

    return _make


@pytest.fixture
def report(capsys):
    """Print a regenerated artefact past pytest's output capture, so the
    tables and figures appear in the benchmark log for passing runs."""

    def _report(title: str, text: str) -> None:
        bar = "=" * 78
        with capsys.disabled():
            print(f"\n{bar}\n{title}\n{bar}\n{text}\n{bar}")

    return _report


def print_artifact(title: str, text: str) -> None:
    """Plain (captured) artefact printer, for non-fixture contexts."""
    bar = "=" * 78
    print(f"\n{bar}\n{title}\n{bar}\n{text}\n{bar}")


def pytest_sessionfinish(session, exitstatus):
    """Emit one machine-readable ``BENCH_<module>.json`` per bench module.

    Routes every pytest-benchmark suite through the shared
    :mod:`benchmarks.bench_utils` schema so CI's perf job and the nightly
    sweep consume the same format the standalone scripts write. No-ops
    when pytest-benchmark did not run (e.g. ``--benchmark-disable``
    collection-only sessions with no recorded stats).
    """
    from pathlib import Path

    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    from benchmarks.bench_utils import (
        pytest_benchmarks_to_metrics,
        write_bench_json,
    )

    by_module: dict[str, list] = {}
    for bench in bench_session.benchmarks:
        if not getattr(bench, "stats", None):
            continue
        module = Path(bench.fullname.split("::")[0]).stem
        by_module.setdefault(module, []).append(bench)
    for module, benches in by_module.items():
        try:
            write_bench_json(module, pytest_benchmarks_to_metrics(benches),
                             scale=SCALE)
        except OSError:
            pass  # read-only CWD must not fail the benchmark run
