"""Unit tests for the Table 4 dataset substrate and generators."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import DATASETS, DATASETS_BY_NAME, datasets_for, load
from repro.data import generators as gen
from repro.kernels import FORMAT_KERNEL_ORDER, KERNEL_ORDER, KERNELS
from tests.helpers_kernels import (
    DATASET_GOLDEN_SCALES,
    DATASET_GOLDEN_SEED,
    dataset_digest,
    dataset_pairs,
)

DATASET_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "datasets.json").read_text())


@pytest.fixture
def nprng():
    return np.random.default_rng(3)


class TestGenerators:
    def test_uniform_matrix_density(self, nprng):
        coords, vals = gen.uniform_matrix(100, 100, 0.1, nprng)
        assert abs(len(coords) / 10000 - 0.1) < 0.03
        assert coords[:, 0].max() < 100 and coords[:, 1].max() < 100

    def test_uniform_matrix_sparse_path(self, nprng):
        coords, vals = gen.uniform_matrix(1000, 1000, 0.001, nprng)
        assert 500 <= len(coords) <= 1500

    def test_banded_symmetric_band_structure(self, nprng):
        coords, _ = gen.banded_symmetric(200, 0.05, nprng)
        offsets = np.abs(coords[:, 0] - coords[:, 1])
        assert offsets.max() <= 200 * 0.05  # banded
        # Symmetric structure: (i, j) present implies (j, i) present.
        keys = set(map(tuple, coords))
        assert all((j, i) in keys for i, j in list(keys)[:50])

    def test_circuit_has_full_diagonal(self, nprng):
        coords, _ = gen.circuit(100, 0.01, nprng)
        diag = coords[coords[:, 0] == coords[:, 1]]
        assert len(diag) == 100

    def test_trefethen_structure(self, nprng):
        coords, _ = gen.trefethen(64, nprng)
        offsets = np.unique(np.abs(coords[:, 0] - coords[:, 1]))
        assert 0 in offsets and 1 in offsets and 2 in offsets
        assert 4 in offsets and 32 in offsets  # powers of two

    @pytest.mark.parametrize("n", [8, 9, 63, 64, 65, 1000, 4096])
    def test_trefethen_equals_the_sort_dedupe_construction(self, n):
        """Rows built in order equal the old per-offset diagonals, sorted
        and deduplicated; the values follow from the same stream."""
        offsets = [0, *(1 << e for e in range(n.bit_length()) if 1 << e < n),
                   *(int(p) for p in gen._primes_up_to(min(n - 1, 64)))]
        rows, cols = [], []
        for off in sorted(set(offsets)):
            r = np.arange(0, n - off)
            rows += [r, r + off] if off else [r]
            cols += [r + off, r] if off else [r]
        pairs = np.stack([np.concatenate(rows), np.concatenate(cols)], axis=1)
        want = np.unique(pairs, axis=0)
        coords, vals = gen.trefethen(n, np.random.default_rng(5))
        assert coords.dtype == want.dtype
        assert np.array_equal(coords, want)
        want_vals = np.random.default_rng(5).random(len(want)) + 0.1
        assert np.array_equal(vals, want_vals)

    def test_dedupe_keeps_sorted_input_as_is(self):
        coords = np.array([[0, 1], [0, 3], [2, 0]])
        assert gen._dedupe(coords) is coords
        shuffled = np.array([[2, 0], [0, 3], [0, 1], [0, 3]])
        assert np.array_equal(gen._dedupe(shuffled), coords)
        drawn = np.random.default_rng(2).integers(0, 60, size=(5000, 3))
        assert np.array_equal(gen._dedupe(drawn), np.unique(drawn, axis=0))

    def test_uniform_tensor3(self, nprng):
        coords, vals = gen.uniform_tensor3((20, 20, 20), 0.1, nprng)
        assert coords.shape[1] == 3
        assert abs(len(coords) / 8000 - 0.1) < 0.05

    def test_hub_tensor3_skew(self, nprng):
        coords, _ = gen.hub_tensor3((50, 500, 500), 2000, nprng)
        counts = np.bincount(coords[:, 0], minlength=50)
        # Power-law skew: the top mode-0 slice holds far more than average.
        assert counts.max() > 3 * counts.mean()

    def test_rotate_columns(self):
        coords = np.array([[0, 0], [0, 7], [1, 3]])
        vals = np.array([1.0, 2.0, 3.0])
        out, out_vals = gen.rotate_columns(coords, vals, 8, 1)
        keys = set(map(tuple, out))
        assert keys == {(0, 1), (0, 0), (1, 4)}
        for shuffled in (False, True):
            coords, vals = _drawn_entries((300, 50), 4000, shuffled)
            out, out_vals = gen.rotate_columns(coords, vals, 50, 2)
            rotated = np.stack([coords[:, 0], (coords[:, 1] + 2) % 50], axis=1)
            order = np.lexsort((rotated[:, 1], rotated[:, 0]))
            assert np.array_equal(out, rotated[order])
            assert np.array_equal(out_vals, vals[order])

    def test_rotate_even_coords(self):
        """Sorted input with an even last dim takes the sort-free path;
        shuffled input and an odd last dim's wrap to 0 take the sort.
        Each collision keeps its first entry."""
        coords = np.array([[0, 0, 2], [0, 0, 3]])
        vals = np.array([1.0, 2.0])
        out, out_vals = gen.rotate_even_coords(coords, vals, 8)
        keys = set(map(tuple, out))
        assert keys == {(0, 0, 3)}  # collision keeps one entry
        assert len(out_vals) == 1
        for last_dim, shuffled in ((40, False), (40, True), (41, False)):
            coords, vals = _drawn_entries((20, 30, last_dim), 6000, shuffled)
            out, out_vals = gen.rotate_even_coords(coords, vals, last_dim)
            rotated = coords.copy()
            even = rotated[:, 2] % 2 == 0
            rotated[even, 2] = (rotated[even, 2] + 1) % last_dim
            unique, first = np.unique(rotated, axis=0, return_index=True)
            assert len(unique) < len(coords)  # some rotations collide
            assert np.array_equal(out, unique)
            assert np.array_equal(out_vals, vals[first])


def _drawn_entries(dims, n, shuffled):
    """Up to ``n`` distinct entries over ``dims`` with distinct values,
    in lexicographic order or shuffled."""
    rng = np.random.default_rng(11)
    coords = np.unique(np.stack([rng.integers(0, d, size=n) for d in dims],
                                axis=1), axis=0)
    if shuffled:
        coords = coords[rng.permutation(len(coords))]
    return coords, rng.random(len(coords))


class TestDatasetSpecs:
    def test_table4_inventory(self):
        names = {d.name for d in DATASETS}
        assert {"bcsstk30", "ckt11752_dc_1", "Trefethen_20000",
                "facebook"} <= names
        assert len(DATASETS) == 10

    def test_paper_dimensions(self):
        assert DATASETS_BY_NAME["bcsstk30"].dims == (28924, 28924)
        assert DATASETS_BY_NAME["facebook"].dims == (1591, 63891, 63890)
        assert DATASETS_BY_NAME["random-50pct"].density == 0.5

    def test_every_kernel_has_datasets(self):
        for name in KERNEL_ORDER:
            assert datasets_for(name), name

    def test_matrix_kernels_use_suitesparse(self):
        names = [d.name for d in datasets_for("SpMV")]
        assert names == ["bcsstk30", "ckt11752_dc_1", "Trefethen_20000"]

    def test_plus3_uses_random_matrices(self):
        names = [d.name for d in datasets_for("Plus3")]
        assert names == ["random-1pct", "random-10pct", "random-50pct"]

    def test_scaled_dims(self):
        spec = DATASETS_BY_NAME["bcsstk30"]
        assert spec.scaled_dims(1.0) == (28924, 28924)
        small = spec.scaled_dims(0.01)
        assert small[0] < 300

    def test_nnz_estimate(self):
        spec = DATASETS_BY_NAME["bcsstk30"]
        assert spec.nnz_estimate(1.0) == pytest.approx(2.07e6, rel=0.1)


class TestLoad:
    def test_load_spmv(self):
        tensors = load("SpMV", "bcsstk30", scale=0.01)
        assert set(tensors) == {"A", "x", "y"}
        assert tensors["A"].nnz > 0
        assert tensors["x"].shape == (tensors["A"].shape[1],)

    def test_load_rejects_mismatched_pair(self):
        with pytest.raises(ValueError):
            load("SpMV", "facebook")

    def test_plus3_operands_differ(self):
        tensors = load("Plus3", "random-10pct", scale=0.1)
        b = tensors["B"].to_dense()
        c = tensors["C"].to_dense()
        d = tensors["D"].to_dense()
        assert not np.array_equal(b, c)
        assert not np.array_equal(c, d)
        # Rotations preserve nnz.
        assert (b != 0).sum() == (c != 0).sum() == (d != 0).sum()

    def test_innerprod_operands_overlap(self):
        tensors = load("InnerProd", "random3-10pct", scale=0.2)
        b = tensors["B"].to_dense() != 0
        c = tensors["C"].to_dense() != 0
        assert (b & c).sum() > 0  # rotated-even variant still intersects

    def test_deterministic_by_seed(self):
        a = load("SpMV", "Trefethen_20000", scale=0.02, seed=5)
        b = load("SpMV", "Trefethen_20000", scale=0.02, seed=5)
        assert np.array_equal(a["A"].to_dense(), b["A"].to_dense())

    def test_sddmm_factor_shapes(self):
        tensors = load("SDDMM", "bcsstk30", scale=0.01)
        n, k = tensors["C"].shape
        assert tensors["D"].shape == (k, tensors["B"].shape[1])

    def test_mattransmul_scalars(self):
        tensors = load("MatTransMul", "bcsstk30", scale=0.01)
        assert tensors["alpha"].scalar_value() == 2.0
        assert tensors["beta"].scalar_value() == 3.0


class TestLoadPath:
    """A dataset load generates its matrix once and packs every sparse
    operand itself: it stores the generation in the ``dataset`` stage
    and nothing else; the packed operands and the operand dict live in
    memory beside the generation."""

    @pytest.fixture
    def generations(self, monkeypatch):
        from repro.data import datasets
        from repro.pipeline import cache as cache_mod

        cache = cache_mod.CompilationCache(disk=False)
        monkeypatch.setattr(cache_mod, "_default_cache", cache)
        calls = []
        real = datasets._generate

        def generate(*args):
            calls.append(args[0].name)
            return real(*args)

        monkeypatch.setattr(datasets, "_generate", generate)
        return cache, calls

    @pytest.mark.parametrize("kernel", FORMAT_KERNEL_ORDER)
    def test_cold_format_kernel_load_generates_once(self, kernel,
                                                    generations):
        from repro.api import CompileRequest, load_dataset

        cache, calls = generations
        load_dataset(CompileRequest(kernel=kernel, scale=0.05))
        assert len(calls) == 1
        assert cache.stats.stores == 1  # the generation, not the operands

    def test_load_returns_one_dict_per_generation(self, fresh_cache):
        """A second load of one cell is the same dict; once the memory
        layer drops the generation, the next load reads it back from
        disk and builds a fresh dict over a fresh pack."""
        first = load("SpMV", "bcsstk30", 0.02)
        assert load("SpMV", "bcsstk30", 0.02) is first
        fresh_cache.clear_memory()
        again = load("SpMV", "bcsstk30", 0.02)
        assert again is not first
        assert again["A"].storage is not first["A"].storage
        assert fresh_cache.stats.disk_hits == 1

    def test_cold_table6_generates_each_dataset_once(self, generations,
                                                     monkeypatch):
        """24 cells over 10 datasets: one generation per dataset, which
        every kernel evaluated on it reads."""
        from repro.data import datasets
        from repro.pipeline.batch import run_artifact

        _, calls = generations
        cells = []
        real_load = datasets.load

        def load(*args, **kwargs):
            cells.append(args[:2])
            return real_load(*args, **kwargs)

        monkeypatch.setattr(datasets, "load", load)
        run_artifact("table6", 0.05, jobs=1)
        assert len(cells) == 24
        assert len(calls) == 10
        assert sorted(calls) == sorted({d for _, d in cells})

    @pytest.fixture
    def packs(self, monkeypatch):
        import repro.convert

        calls = []
        real = repro.convert.pack_entries

        def pack_entries(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(repro.convert, "pack_entries", pack_entries)
        return calls

    @staticmethod
    def _table6_operands():
        """Every sparse operand of every Table 6 cell, as (dataset,
        derivation, format)."""
        from repro.data.datasets import derivation

        return [(d.name, derivation(k, nth), ts.format)
                for k in KERNEL_ORDER for d in datasets_for(k)
                for nth, ts in enumerate(KERNELS[k].of_role("sparse"))]

    def test_cold_table6_packs_each_operand_once(self, generations, packs,
                                                 monkeypatch):
        """One pack per distinct (dataset, derivation, format); a second
        render in the process, compile stages forced, packs nothing."""
        from repro.pipeline.batch import run_artifact

        # Room for every entry of the render, so the second one evicts
        # no generation (the default LRU holds 64).
        monkeypatch.setenv("REPRO_CACHE_MEM", "512")
        run_artifact("table6", 0.02, jobs=1)
        assert len(packs) == len(set(self._table6_operands()))
        packs.clear()
        run_artifact("table6", 0.02, jobs=1, use_cache=False)
        assert packs == []

    def test_uncached_cells_pack_their_own_operands(self, generations, packs,
                                                    monkeypatch):
        from repro.pipeline.batch import run_artifact

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        run_artifact("table6", 0.02, jobs=1)
        assert len(packs) == len(self._table6_operands())

    def test_kernels_share_one_read_only_storage(self, generations):
        spmv = load("SpMV", "bcsstk30", 0.02)["A"].storage
        sddmm = load("SDDMM", "bcsstk30", 0.02)["B"].storage
        assert spmv is sddmm
        crd_level = spmv.levels[1]
        for array in (spmv.vals, crd_level.crd, crd_level.pos):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_generated_arrays_are_read_only(self, fresh_cache):
        """Kernels share one generated ``coords`` / ``vals`` pair, fresh
        or unpickled from the disk store: a write in place raises."""
        from repro.data.datasets import load_matrix_coo

        for _ in range(2):
            _, coords, vals = load_matrix_coo("bcsstk30", 0.02)
            with pytest.raises(ValueError, match="read-only"):
                coords[0, 0] = 1
            with pytest.raises(ValueError, match="read-only"):
                vals[0] = 1.0
            fresh_cache.clear_memory()
        assert fresh_cache.stats.disk_hits == 1

    def test_no_load_touches_the_convert_stage(self, generations):
        from repro.api import CompileRequest, load_dataset

        cache, _ = generations
        for kernel in KERNEL_ORDER + FORMAT_KERNEL_ORDER:
            load_dataset(CompileRequest(kernel=kernel, scale=0.02))
        stages = set(cache.stats.stage_hits) | set(cache.stats.stage_misses)
        assert stages == {"dataset"}


class TestDatasetGolden:
    """Every packed operand of every Table 6 / format-sweep cell is
    byte-identical to ``tests/golden/datasets.json`` (regenerate with
    ``python scripts/regen_golden.py`` only for an intentional change)."""

    def test_golden_covers_every_pair(self):
        assert DATASET_GOLDEN["seed"] == DATASET_GOLDEN_SEED
        want = {f"{k}/{d}" for k, d in dataset_pairs()}
        assert len(want) == 33
        for scale in DATASET_GOLDEN_SCALES:
            assert set(DATASET_GOLDEN["digests"][str(scale)]) == want

    @pytest.mark.parametrize("scale", DATASET_GOLDEN_SCALES)
    @pytest.mark.parametrize("kernel, dataset", dataset_pairs())
    def test_operands_match_golden(self, kernel, dataset, scale):
        want = DATASET_GOLDEN["digests"][str(scale)][f"{kernel}/{dataset}"]
        assert dataset_digest(kernel, dataset, scale) == want
