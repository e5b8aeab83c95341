"""Unit tests for the Table 4 dataset substrate and generators."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import DATASETS, DATASETS_BY_NAME, datasets_for, load
from repro.data import generators as gen
from repro.kernels import KERNEL_ORDER
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

    def test_rotate_even_coords(self):
        coords = np.array([[0, 0, 2], [0, 0, 3]])
        vals = np.array([1.0, 2.0])
        out, out_vals = gen.rotate_even_coords(coords, vals, 8)
        keys = set(map(tuple, out))
        assert keys == {(0, 0, 3)}  # collision keeps one entry
        assert len(out_vals) == 1


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
