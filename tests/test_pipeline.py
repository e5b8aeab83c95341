"""Tests for the ``repro.pipeline`` subsystem (cache + batch executor)."""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.core import compile_stmt
from repro.formats import CSR, DENSE_VECTOR, Format, compressed, offChip
from repro.ir import index_vars
from repro.pipeline.batch import artifact_jobs, run_artifact
from repro.pipeline.cache import (
    CompilationCache,
    compiler_version,
    disk_cache_dir,
    fingerprint_stmt,
    make_key,
    memoize_stage,
    stage_version,
)
from repro.pipeline.executor import Job, run_jobs
from repro.tensor import Tensor
from tests.helpers_kernels import build_small_kernel_stmt
from tests.conftest import patch_cell

# Cache isolation comes from the shared ``fresh_cache`` fixture in
# tests/conftest.py.


def _spmv_stmt(fmt=None, density=0.4, inner_par=16):
    rng_vals = [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0 * density]]
    A = Tensor("A", (3, 3), (fmt or CSR)(offChip)).from_dense(rng_vals)
    x = Tensor("x", (3,), DENSE_VECTOR(offChip)).from_dense([1.0, 2.0, 3.0])
    y = Tensor("y", (3,), DENSE_VECTOR(offChip))
    i, j = index_vars("i j")
    y[i] = A[i, j] * x[j]
    return y.get_index_stmt().environment("innerPar", inner_par)


def DCSR(memory=offChip):
    return Format([compressed, compressed], None, memory)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        a = fingerprint_stmt(_spmv_stmt(), "spmv")
        b = fingerprint_stmt(_spmv_stmt(), "spmv")
        assert a == b

    def test_changes_with_kernel_name(self):
        stmt = _spmv_stmt()
        assert fingerprint_stmt(stmt, "spmv") != fingerprint_stmt(stmt, "other")

    def test_changes_with_format(self):
        assert (fingerprint_stmt(_spmv_stmt(CSR), "spmv")
                != fingerprint_stmt(_spmv_stmt(DCSR), "spmv"))

    def test_changes_with_schedule(self):
        assert (fingerprint_stmt(_spmv_stmt(inner_par=16), "spmv")
                != fingerprint_stmt(_spmv_stmt(inner_par=8), "spmv"))

    def test_changes_with_tensor_data(self):
        assert (fingerprint_stmt(_spmv_stmt(density=0.4), "spmv")
                != fingerprint_stmt(_spmv_stmt(density=0.5), "spmv"))

    def test_make_key_namespaces_kinds(self):
        assert make_key("evaluate", "SpMV") != make_key("build", "SpMV")

    def test_compiler_version_is_stable(self):
        assert compiler_version() == compiler_version()
        assert len(compiler_version()) == 16


# ---------------------------------------------------------------------------
# Compilation cache
# ---------------------------------------------------------------------------


class TestCompileCache:
    def test_memoizes_identical_statements(self, fresh_cache):
        k1 = compile_stmt(_spmv_stmt(), "spmv_cache_test")
        assert fresh_cache.stats.misses == 1
        k2 = compile_stmt(_spmv_stmt(), "spmv_cache_test")
        assert k2.compiled is k1.compiled
        assert fresh_cache.stats.memory_hits == 1

    def test_same_structure_other_data_binds_one_program(self, fresh_cache):
        stmts = [_spmv_stmt(density=0.4), _spmv_stmt(density=0.6)]
        k1, k2 = (compile_stmt(s, "spmv_cache_test") for s in stmts)
        assert k2.compiled is k1.compiled
        assert fresh_cache.stats.stage_misses["program"] == 1
        assert fresh_cache.stats.stage_hits["program"] == 1
        # Each kernel runs on its own statement's operands.
        assert k1.stmt is stmts[0] and k2.stmt is stmts[1]
        assert k1.run_dense() == pytest.approx([7.0, 6.0, 10.0])
        assert k2.run_dense() == pytest.approx([7.0, 6.0, 13.0])

    def test_schedule_change_misses(self, fresh_cache):
        compile_stmt(_spmv_stmt(inner_par=16), "spmv_cache_test")
        compile_stmt(_spmv_stmt(inner_par=4), "spmv_cache_test")
        assert fresh_cache.stats.misses == 2
        assert fresh_cache.stats.hits == 0

    def test_format_change_misses(self, fresh_cache):
        compile_stmt(_spmv_stmt(CSR), "spmv_cache_test")
        compile_stmt(_spmv_stmt(DCSR), "spmv_cache_test")
        assert fresh_cache.stats.misses == 2
        assert fresh_cache.stats.hits == 0

    def test_cache_false_bypasses(self, fresh_cache):
        k1 = compile_stmt(_spmv_stmt(), "spmv_cache_test", cache=False)
        k2 = compile_stmt(_spmv_stmt(), "spmv_cache_test", cache=False)
        assert k1 is not k2
        assert fresh_cache.stats.misses == 0

    @pytest.mark.parametrize("cache", [None, True])
    def test_no_cache_env_disables(self, fresh_cache, monkeypatch, cache):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        compile_stmt(_spmv_stmt(), "spmv_cache_test", cache=cache)
        compile_stmt(_spmv_stmt(), "spmv_cache_test", cache=cache)
        assert fresh_cache.stats.misses == 0
        assert len(fresh_cache) == 0
        assert fresh_cache.disk_info()["entries"] == 0

    def test_cached_kernel_still_runs(self, fresh_cache):
        compile_stmt(_spmv_stmt(), "spmv_cache_test")
        kernel = compile_stmt(_spmv_stmt(), "spmv_cache_test")
        # A = [[1,0,2],[0,3,0],[4,0,2]] · x = [1,2,3]  →  [7, 6, 10]
        assert kernel.run_dense() == pytest.approx([7.0, 6.0, 10.0])


class TestDiskStore:
    def test_round_trip_across_instances(self, tmp_path):
        first = CompilationCache(disk=tmp_path)
        first.put("a" * 64, {"answer": 42})
        # A fresh instance (fresh process, conceptually) hits the disk.
        second = CompilationCache(disk=tmp_path)
        assert second.get("a" * 64) == {"answer": 42}
        assert second.stats.disk_hits == 1

    def test_compiled_kernel_round_trip(self, tmp_path):
        stmt, _, _ = build_small_kernel_stmt("SpMV")
        kernel = compile_stmt(stmt, "spmv", cache=False)
        key = fingerprint_stmt(stmt, "spmv")
        CompilationCache(disk=tmp_path).put(key, kernel)
        loaded = CompilationCache(disk=tmp_path).get(key)
        assert loaded.source == kernel.source
        assert loaded.spatial_loc == kernel.spatial_loc

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = CompilationCache(disk=tmp_path)
        cache.put("b" * 64, [1, 2, 3])
        path = cache._entry_path("b" * 64)
        path.write_bytes(b"not a pickle")
        fresh = CompilationCache(disk=tmp_path)
        assert fresh.get("b" * 64, "missing") == "missing"
        assert not path.exists()  # corrupt entry was dropped

    def test_truncated_generation_regenerates(self, fresh_cache,
                                              monkeypatch):
        """A generation is the only operand data on disk. Torn, it
        degrades to a miss: the next load draws it again, the operands
        are byte-identical to a clean load, and its arrays are read-only
        again, regenerated and reread from the rewritten entry."""
        from repro.data import datasets
        from repro.data.datasets import load_matrix_coo
        from tests.helpers_kernels import DATASET_GOLDEN_SEED, dataset_digest

        clean = dataset_digest("SpMV", "bcsstk30", TINY)
        (path,) = (disk_cache_dir() / stage_version("dataset")).rglob("*.pkl")
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        fresh_cache.clear_memory()
        calls = []
        real = datasets._generate
        monkeypatch.setattr(datasets, "_generate",
                            lambda *args: (calls.append(args), real(*args))[1])

        assert dataset_digest("SpMV", "bcsstk30", TINY) == clean
        assert len(calls) == 1
        for reread in (False, True):
            if reread:
                fresh_cache.clear_memory()
            _, coords, vals = load_matrix_coo(
                "bcsstk30", TINY, DATASET_GOLDEN_SEED)
            for array in (coords, vals):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1
        assert len(calls) == 1 and path.read_bytes() == blob

    def test_disk_disabled(self, tmp_path):
        cache = CompilationCache(disk=False)
        cache.put("c" * 64, 1)
        assert cache._entry_path("c" * 64) is None
        assert CompilationCache(disk=False).get("c" * 64) is None

    def test_lru_eviction_bounded_memory(self, tmp_path):
        cache = CompilationCache(max_entries=2, disk=False)
        for key in ("k1", "k2", "k3"):
            cache.put(key, key.upper())
        assert len(cache) == 2
        assert cache.get("k1") is None  # evicted, no disk fallback
        assert cache.get("k3") == "K3"

    def test_prune_caps_disk_entries(self, tmp_path):
        cache = CompilationCache(disk=tmp_path)
        for n in range(6):
            cache.put(f"{n:02d}" + "e" * 62, n)
        removed = cache.prune(max_entries=2)
        assert removed == 4
        assert cache.disk_info()["entries"] == 2

    def test_prune_tolerates_concurrently_removed_entries(self, tmp_path,
                                                          monkeypatch):
        from pathlib import Path

        cache = CompilationCache(disk=tmp_path)
        for n in range(4):
            cache.put(f"{n:02d}" + "a" * 62, n)
        victim = cache._entry_path("00" + "a" * 62)
        real_stat = Path.stat

        def racy_stat(self, *args, **kwargs):
            if self == victim:
                # Another shard worker unlinked this entry mid-walk.
                raise FileNotFoundError(str(self))
            return real_stat(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", racy_stat)
        # Must neither raise nor abort: the 3 reachable entries are
        # considered and all but max_entries removed.
        assert cache.prune(max_entries=1) == 2

    def test_prune_bounds_stage_version_trees(self, tmp_path):
        # Dataset-stage entries live in their own version tree; the
        # oldest-first eviction must bound that tree too, not just the
        # compiler tree.
        cache = CompilationCache(disk=tmp_path)
        dataset_tree = stage_version("dataset")
        for n in range(5):
            cache.put(f"{n:02d}" + "b" * 62, n, version=dataset_tree)
        removed = cache.prune(max_entries=2)
        assert removed == 3
        assert sum(1 for _ in (tmp_path / dataset_tree).rglob("*.pkl")) == 2

    def test_disk_info_tolerates_vanishing_tree(self, tmp_path, monkeypatch):
        from pathlib import Path

        cache = CompilationCache(disk=tmp_path)
        cache.put("f" * 64, 1)

        def racy_rglob(self, pattern):
            raise FileNotFoundError(str(self))

        monkeypatch.setattr(Path, "rglob", racy_rglob)
        info = cache.disk_info()
        assert info["entries"] == 0 and info["bytes"] == 0

    def test_prune_removes_stale_version_trees(self, tmp_path):
        stale = tmp_path / ("0" * 16) / "ab"
        stale.mkdir(parents=True)
        (stale / ("ab" + "f" * 62 + ".pkl")).write_bytes(b"old")
        unrelated = tmp_path / "not-a-version-dir"
        unrelated.mkdir()
        cache = CompilationCache(disk=tmp_path)
        cache.put("d" * 64, 1)
        assert cache.prune() == 1  # the stale entry
        assert not stale.exists()
        assert unrelated.exists()  # non-cache content untouched
        assert cache.get("d" * 64) == 1  # current version intact


# ---------------------------------------------------------------------------
# Staged memoization
# ---------------------------------------------------------------------------


class TestStagedCache:
    def test_stage_version_is_narrower_for_datasets(self):
        # Dataset entries key on the data/format/tensor sources only, so
        # compiler edits elsewhere keep them warm.
        assert len(stage_version("dataset")) == 16
        assert stage_version("dataset") != compiler_version()
        assert stage_version("program") == compiler_version()

    def test_stage_counters(self, fresh_cache):
        memoize_stage("stats", ("k",), lambda: 1)
        memoize_stage("stats", ("k",), lambda: 1)
        stats = fresh_cache.stats
        assert stats.stage_misses["stats"] == 1
        assert stats.stage_hits["stats"] == 1
        assert "stats 1h/1m" in stats.stage_summary()
        assert stats.as_dict()["stages"]["stats"] == {"hits": 1, "misses": 1}

    def test_no_cache_bypasses_compile_stages(self, fresh_cache):
        calls = []
        memoize_stage("program", ("k",), lambda: calls.append(1))
        memoize_stage("program", ("k",), lambda: calls.append(1),
                      use_cache=False)
        assert len(calls) == 2  # second run recomputed

    def test_no_cache_still_serves_dataset_stage(self, fresh_cache):
        calls = []
        memoize_stage("dataset", ("d",), lambda: (calls.append(1), 42)[1])
        value = memoize_stage("dataset", ("d",), lambda: (calls.append(1), 42)[1],
                              use_cache=False)
        assert value == 42
        assert len(calls) == 1  # exempt stage: reused despite --no-cache
        assert fresh_cache.stats.stage_hits["dataset"] == 1

    def test_repro_no_cache_env_disables_even_datasets(self, fresh_cache,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        calls = []
        memoize_stage("dataset", ("d",), lambda: calls.append(1))
        memoize_stage("dataset", ("d",), lambda: calls.append(1))
        assert len(calls) == 2

    def test_dataset_entries_live_in_stage_version_tree(self, fresh_cache):
        from repro.api import CompileRequest, load_dataset

        load_dataset(CompileRequest(kernel="SpMV", dataset="bcsstk30",
                                    scale=TINY))
        base = disk_cache_dir()
        tree = base / stage_version("dataset")
        assert any(tree.rglob("*.pkl"))

    def test_no_cache_evaluation_reuses_datasets_only(self, fresh_cache):
        # The acceptance criterion: warm the dataset stage, then force a
        # --no-cache evaluation; the dataset stage must hit while the
        # compile-side stages recompute (no hits recorded for them).
        from repro.api import CompileRequest, evaluate

        request = CompileRequest(kernel="SpMV", dataset="bcsstk30",
                                 scale=TINY)
        warm = evaluate(request).platform_times()
        stats = fresh_cache.stats
        hits_before = dict(stats.stage_hits)
        cold = evaluate(request, use_cache=False).platform_times()
        assert cold.seconds == warm.seconds
        assert (stats.stage_hits.get("dataset", 0)
                == hits_before.get("dataset", 0) + 1)
        for compile_stage in ("program", "evaluate", "stats", "resources"):
            assert (stats.stage_hits.get(compile_stage, 0)
                    == hits_before.get(compile_stage, 0)), compile_stage

    def test_request_operands_are_stored_once_under_dataset(self,
                                                            fresh_cache):
        # The request's operands live in `dataset`; its kernel binds the
        # data-free `program` entry, and no stage stores the bound kernel
        # (that would pickle the same operands a second time).
        from repro.api import CompileRequest, evaluate

        evaluate(CompileRequest(kernel="SpMV", dataset="bcsstk30",
                                scale=TINY))
        stats = fresh_cache.stats
        assert stats.stage_misses["program"] == 1
        assert set(stats.stage_misses) == {"dataset", "program", "stats",
                                           "resources", "evaluate"}
        assert not stats.stage_hits

    def test_cold_table6_stores_only_generations_as_operand_data(
            self, fresh_cache):
        """With the disk store on, a cold Table 6 writes one ``dataset``
        entry per distinct (dataset, scale, seed), each a generation,
        and no tree but the dataset tree and the compiler tree."""
        import pickle

        from repro.data import DATASETS
        from repro.kernels import KERNEL_ORDER

        run_artifact("table6", 0.05)
        trees = {tree.name: sorted(tree.rglob("*.pkl"))
                 for tree in disk_cache_dir().iterdir()}
        generations = trees.pop(stage_version("dataset"))
        assert len(generations) == sum(
            bool(set(d.kernels) & set(KERNEL_ORDER)) for d in DATASETS)
        for path in generations:
            dims, coords, vals, state = pickle.loads(path.read_bytes())
            assert coords.shape == (len(vals), len(dims)) and "state" in state
        assert list(trees) == [compiler_version()]

    def test_stages_shared_across_artifacts(self, fresh_cache):
        # Table 5's resource estimates reuse the entry the Table 6
        # simulation wrote for the same (kernel, dataset, scale) cell.
        from repro.api import CompileRequest, evaluate, first_dataset
        from repro.pipeline.batch import table5_cell

        evaluate(CompileRequest(kernel="SpMV",
                                dataset=first_dataset("SpMV"), scale=TINY))
        misses_before = fresh_cache.stats.stage_misses.get("resources", 0)
        table5_cell("SpMV", TINY)
        assert (fresh_cache.stats.stage_misses.get("resources", 0)
                == misses_before)
        assert fresh_cache.stats.stage_hits.get("resources", 0) >= 1


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


def _slow_identity(value, delay=0.0):
    time.sleep(delay)
    return value


def _boom(value):
    raise ValueError(f"boom {value}")


class TestExecutor:
    def test_results_in_submission_order(self):
        # Later jobs finish first; results must still come back in order.
        jobs = [Job((n,), _slow_identity, (n, 0.05 * (3 - n)))
                for n in range(4)]
        results = run_jobs(jobs, max_workers=4)
        assert [r.value for r in results] == [0, 1, 2, 3]
        assert all(r.ok for r in results)

    def test_serial_and_parallel_agree(self):
        jobs = [Job((n,), _slow_identity, (n,)) for n in range(8)]
        serial = [r.value for r in run_jobs(jobs, max_workers=1)]
        parallel = [r.value for r in run_jobs(jobs, max_workers=4)]
        assert serial == parallel

    def test_failure_isolation(self):
        jobs = [
            Job(("ok1",), _slow_identity, (1,)),
            Job(("bad",), _boom, (2,)),
            Job(("ok2",), _slow_identity, (3,)),
        ]
        results = run_jobs(jobs, max_workers=2)
        assert [r.ok for r in results] == [True, False, True]
        assert "boom 2" in results[1].error
        assert results[0].value == 1 and results[2].value == 3
        with pytest.raises(RuntimeError, match="bad"):
            results[1].unwrap()


# ---------------------------------------------------------------------------
# Batch artefacts
# ---------------------------------------------------------------------------

TINY = 0.02


class TestBatch:
    def test_table6_job_list_covers_all_combinations(self):
        from repro.data import datasets_for
        from repro.kernels import KERNEL_ORDER

        jobs = artifact_jobs("table6", TINY)
        expected = [(k, d.name, "*") for k in KERNEL_ORDER
                    for d in datasets_for(k)]
        assert [j.key for j in jobs] == expected

    def test_unknown_artifact_rejected(self):
        with pytest.raises(KeyError):
            artifact_jobs("table7", TINY)

    def test_parallel_table6_identical_to_serial(self):
        from repro.eval.harness import format_table6

        serial = run_artifact("table6", TINY, jobs=1, use_cache=False)
        parallel = run_artifact("table6", TINY, jobs=4, use_cache=False)
        assert serial == parallel  # bitwise-equal floats
        assert format_table6(serial) == format_table6(parallel)

    def test_warm_cache_returns_equal_table6(self, fresh_cache):
        cold = run_artifact("table6", TINY)
        hits_before = fresh_cache.stats.hits
        warm = run_artifact("table6", TINY)
        assert warm == cold
        assert fresh_cache.stats.hits > hits_before

    def test_run_artifact_raises_on_failure(self, monkeypatch):
        from repro.pipeline import batch

        def broken(kernel_name, scale, use_cache=None):
            raise RuntimeError("injected failure")

        patch_cell(monkeypatch, "table3", broken)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_artifact("table3", TINY, jobs=2)


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------


class TestEvaluateCache:
    def test_evaluate_memoizes(self, fresh_cache):
        from repro.api import CompileRequest, evaluate

        request = CompileRequest(kernel="SpMV", dataset="bcsstk30",
                                 scale=TINY)
        first = evaluate(request).platform_times()
        misses = fresh_cache.stats.misses
        second = evaluate(request).platform_times()
        assert second.seconds == first.seconds
        assert fresh_cache.stats.misses == misses  # pure hit

    def test_platform_filter(self, fresh_cache):
        from repro.api import CompileRequest, evaluate

        times = evaluate(CompileRequest(
            kernel="SpMV", dataset="bcsstk30", scale=TINY,
            platforms=("Capstan (HBM2E)", "V100 GPU"))).platform_times()
        assert set(times.seconds) == {"Capstan (HBM2E)", "V100 GPU"}

    def test_unknown_platform_rejected(self, fresh_cache):
        from repro.api import CompileRequest, evaluate

        with pytest.raises(ValueError, match="unknown platform"):
            evaluate(CompileRequest(kernel="SpMV", dataset="bcsstk30",
                                    scale=TINY, platforms=("TPU v5",)))


class TestCli:
    def test_batch_list(self, capsys):
        from repro.__main__ import main

        assert main(["batch", "table6", "--list", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "SpMV:bcsstk30:*" in out

    def test_batch_needs_shard_or_list(self, capsys, fresh_cache):
        """``batch`` is only the shard-worker protocol: without --shard
        or --list it runs nothing and names the commands that print
        artefacts."""
        from repro.__main__ import main

        assert main(["batch", "table3", "--scale", "0.02"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "`tables ARTEFACT`" in captured.err
        assert "scripts/run_experiments.py" in captured.err
        assert fresh_cache.stats.misses == 0

    def test_tables_jobs_flag(self, capsys, fresh_cache):
        from repro.__main__ import main

        assert main(["tables", "table5", "--jobs", "2", "--no-cache"]) == 0
        assert "Table 5" in capsys.readouterr().out

    def test_cache_info_and_clear(self, capsys, fresh_cache):
        from repro.__main__ import main

        compile_stmt(_spmv_stmt(), "spmv_cli_cache")
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "cache dir:" in out and "entries:" in out
        assert main(["cache", "clear"]) == 0
        assert fresh_cache.disk_info()["entries"] == 0

    def test_cache_clear_spares_foreign_content(self, capsys, fresh_cache):
        """``cache clear`` removes only the store's version trees, and the
        count it prints is what it removed."""
        from repro.__main__ import main

        compile_stmt(_spmv_stmt(), "spmv_cli_clear")
        own = fresh_cache.disk_info()["entries"]
        assert own > 0
        foreign = Path(fresh_cache.disk_info()["dir"]) / "other" / "keep.pkl"
        foreign.parent.mkdir(parents=True)
        foreign.write_bytes(b"not a cache entry")
        capsys.readouterr()
        assert main(["cache", "clear"]) == 0
        assert f"cleared {own} entries from" in capsys.readouterr().out
        assert foreign.exists()
        assert fresh_cache.disk_info()["entries"] == 1
