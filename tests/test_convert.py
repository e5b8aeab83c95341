"""The format-conversion compiler: plans, primitives, and round trips."""

import numpy as np
import pytest

from repro.convert import (
    ConversionError,
    block_coords,
    blocked_dims,
    convert,
    convert_tensor,
    plan_conversion,
    unblock_coords,
)
from repro.formats import (
    COO,
    CSC,
    CSR,
    DENSE_MATRIX,
    format_of,
    offChip,
)
from repro.tensor import Tensor
from repro.tensor.storage import pack, to_dense


def random_matrix(m=12, n=16, density=0.3, seed=3):
    rng = np.random.default_rng(seed)
    dense = (rng.random((m, n)) < density) * (rng.random((m, n)) + 0.5)
    nz = np.nonzero(dense)
    return dense, np.stack(nz, axis=1), dense[nz]


class TestBlockedCoordinates:
    def test_blocked_dims_pads_to_tile_multiples(self):
        assert blocked_dims((10, 7), (4, 4)) == (3, 2, 4, 4)
        assert blocked_dims((8, 8), (4, 4)) == (2, 2, 4, 4)

    def test_block_unblock_inverse(self):
        rng = np.random.default_rng(0)
        coords = rng.integers(0, 40, size=(25, 2))
        blocked = block_coords(coords, (4, 4))
        assert blocked.shape == (25, 4)
        assert np.array_equal(unblock_coords(blocked, (4, 4)), coords)

    def test_block_coords_split_values(self):
        blocked = block_coords(np.array([[9, 6]]), (4, 4))
        assert blocked.tolist() == [[2, 1, 1, 2]]


class TestPlans:
    def test_plan_steps_csr_to_coo(self):
        plan = plan_conversion(CSR(offChip), COO(offChip))
        assert [s.op for s in plan.steps] == ["unpack", "pack"]
        assert "->" in plan.describe()

    def test_plan_steps_csr_to_bcsr(self):
        plan = plan_conversion(CSR(offChip), format_of("bcsr"))
        assert [s.op for s in plan.steps] == ["unpack", "block", "pack"]

    def test_plan_steps_bcsr_to_csr_sparsifies(self):
        plan = plan_conversion(format_of("bcsr"), CSR(offChip))
        assert [s.op for s in plan.steps] == [
            "unpack", "sparsify", "unblock", "pack",
        ]

    def test_plan_dense_to_coo_sparsifies(self):
        plan = plan_conversion(DENSE_MATRIX(offChip), COO(offChip))
        assert "sparsify" in [s.op for s in plan.steps]

    def test_order_mismatch_without_blocks_rejected(self):
        from repro.formats import DENSE_VECTOR

        with pytest.raises(ConversionError):
            plan_conversion(CSR(offChip), DENSE_VECTOR(offChip))


class TestRoundTrips:
    @pytest.mark.parametrize("chain", [
        ("coo", "csr"),
        ("dcsr", "csr"),
        ("bcsr", "csr"),
        ("coo", "dcsr", "bcsr", "csr"),
        ("csc", "coo", "csr"),
    ])
    def test_chain_round_trips_to_identical_csr(self, chain):
        dense, coords, vals = random_matrix()
        csr = pack(coords, vals, dense.shape, CSR(offChip))
        cur = csr
        for name in chain:
            fmt = format_of(name)
            dims = dense.shape if fmt.order == 2 else None
            cur = convert(cur, fmt, dims=dims)
        assert np.allclose(to_dense(cur), dense)
        assert np.array_equal(cur.levels[1].pos, csr.levels[1].pos)
        assert np.array_equal(cur.levels[1].crd, csr.levels[1].crd)
        assert np.allclose(cur.vals, csr.vals)

    def test_blocked_conversion_materialises_tiles(self):
        dense, coords, vals = random_matrix()
        csr = pack(coords, vals, dense.shape, CSR(offChip))
        bcsr = convert(csr, format_of("bcsr"))
        assert bcsr.dims == blocked_dims(dense.shape, (4, 4))
        # Values per stored block: a multiple of the 4x4 tile size.
        assert bcsr.nnz % 16 == 0
        assert bcsr.nnz >= csr.nnz

    def test_empty_matrix_round_trip(self):
        coords = np.zeros((0, 2), dtype=np.int64)
        vals = np.zeros(0)
        csr = pack(coords, vals, (8, 8), CSR(offChip))
        for name in ("coo", "dcsr", "bcsr"):
            out = convert(csr, format_of(name))
            assert float(np.abs(to_dense(out)).sum()) == 0.0
            back = convert(out, CSR(offChip), dims=(8, 8))
            assert back.nnz == 0

    def test_csc_round_trip_preserves_dense(self):
        dense, coords, vals = random_matrix()
        csc = pack(coords, vals, dense.shape, CSC(offChip))
        coo = convert(csc, COO(offChip))
        assert np.allclose(to_dense(coo), dense)
        back = convert(coo, CSC(offChip))
        assert np.array_equal(back.levels[1].pos, csc.levels[1].pos)
        assert np.allclose(back.vals, csc.vals)


class TestConvertTensor:
    def test_convert_tensor_produces_usable_tensor(self):
        dense, coords, vals = random_matrix()
        t = Tensor("A", dense.shape, CSR(offChip))
        t.from_coo(coords, vals)
        coo = convert_tensor(t, COO(offChip))
        assert coo.format.has_singleton_level
        assert np.allclose(coo.to_dense(), dense)

    def test_convert_tensor_blocked_shape(self):
        dense, coords, vals = random_matrix()
        t = Tensor("A", dense.shape, CSR(offChip))
        t.from_coo(coords, vals)
        blocked = convert_tensor(t, format_of("bcsr"))
        assert blocked.shape == blocked_dims(dense.shape, (4, 4))


class TestStagedConversion:
    def test_staged_matrix_storage_memoizes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.convert import staged_matrix_storage
        from repro.pipeline.cache import default_cache

        default_cache().clear_memory()
        first = staged_matrix_storage("random-1pct", 0.05, 7, "coo")
        again = staged_matrix_storage("random-1pct", 0.05, 7, "coo")
        assert np.allclose(first.vals, again.vals)
        stats = default_cache().stats
        assert stats.stage_hits.get("convert", 0) >= 1

    def test_staged_formats_share_base_dataset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.convert import staged_matrix_storage

        coo = staged_matrix_storage("random-1pct", 0.05, 7, "coo")
        dcsr = staged_matrix_storage("random-1pct", 0.05, 7, "dcsr")
        assert np.allclose(to_dense(coo), to_dense(dcsr))

    def test_identity_conversion_returns_its_input(self, fresh_cache):
        """CSR staging packs CSR: converting that to CSR skips the unpack
        and re-pack, and is array for array what they produced."""
        from repro.convert import staged_matrix_storage
        from tests.conftest import assert_same_storage

        staged = staged_matrix_storage("random-1pct", 0.05, 7, "csr")
        assert convert(staged, staged.fmt) is staged
        assert_same_storage(
            staged, plan_conversion(staged.fmt, staged.fmt).run(staged))


class TestLossless:
    def test_explicit_zero_in_csr_survives_coo(self):
        # CSR can store explicit zeros; COO keeps them (no sparsify step
        # when the source has no trailing dense levels).
        coords = np.array([[0, 1], [2, 3]])
        vals = np.array([0.0, 2.0])
        csr = pack(coords, vals, (4, 4), CSR(offChip))
        coo = convert(csr, COO(offChip))
        assert coo.nnz == 2
        back = convert(coo, CSR(offChip))
        assert back.nnz == 2
        assert np.allclose(back.vals, csr.vals)
