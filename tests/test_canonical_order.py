"""Canonical coordinate order is established once and carried.

The data path sorts with one linearised key (``storage.sort_dedupe``),
packs dense operands as a transposed copy, and reads the format's
declared ``ordered`` / ``unique`` capabilities instead of re-sorting.
The slow forms those replaced (``np.unique``, the ``np.indices`` grid
through ``pack``, ``np.add.at``) live on here as the oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capstan.stats import _TensorKeys
from repro.formats import (
    BCSR,
    COO,
    CSC,
    CSF,
    CSR,
    DCSR,
    DENSE_MATRIX,
    DENSE_VECTOR,
    Format,
    block,
    dense,
    offChip,
)
from repro.formats.levels import LevelKind, ModeFormat
from repro.tensor import Tensor
from repro.tensor.storage import (
    CompressedLevel,
    SingletonLevel,
    TensorStorage,
    from_dense,
    pack,
    sort_dedupe,
    to_dense,
    unpack,
)
from tests.conftest import assert_same_storage

# ---------------------------------------------------------------------------
# sort_dedupe == np.unique(axis=0)
# ---------------------------------------------------------------------------


@st.composite
def coordinate_rows(draw):
    ncols = draw(st.integers(1, 4))
    # Few distinct values per column, so duplicates are the common case.
    hi = draw(st.integers(0, 5))
    rows = draw(st.lists(
        st.tuples(*[st.integers(-2, hi)] * ncols), min_size=0, max_size=24))
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


def _check_against_unique(coords, order):
    perm, starts = sort_dedupe(coords, order)
    keyed = coords[:, list(order)]
    want, first = np.unique(keyed, axis=0, return_index=True)
    assert np.array_equal(keyed[perm[starts]], want.reshape(-1, len(order)))
    # Stable: each run is led by its first occurrence in the input.
    assert np.array_equal(perm[starts], first)
    assert sorted(perm.tolist()) == list(range(len(coords)))


@given(coordinate_rows(), st.data())
@settings(max_examples=200, deadline=None)
def test_sort_dedupe_matches_np_unique(coords, data):
    order = data.draw(st.permutations(list(range(coords.shape[1]))))
    _check_against_unique(coords, order)


@pytest.mark.parametrize("ncols", [1, 2, 3, 4])
def test_sort_dedupe_empty_and_single_row(ncols):
    empty = np.zeros((0, ncols), dtype=np.int64)
    perm, starts = sort_dedupe(empty, range(ncols))
    assert len(perm) == 0 and len(starts) == 0
    one = np.arange(ncols, dtype=np.int64).reshape(1, ncols)
    perm, starts = sort_dedupe(one, range(ncols))
    assert perm.tolist() == [0] and starts.tolist() == [0]


def test_sort_dedupe_extent_overflow_takes_the_lexsort_branch():
    """Extents whose product is >= 2**63 cannot be Horner-keyed."""
    big = 2 ** 62
    coords = np.array([[big, 0, big - 1], [0, 1, 0], [big, 0, big - 1],
                       [big - 1, 1, big], [0, 0, 0], [0, 1, 0]],
                      dtype=np.int64)
    for order in [(0, 1, 2), (2, 0, 1)]:
        _check_against_unique(coords, order)


@given(coordinate_rows(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=100, deadline=None)
def test_sort_dedupe_runs_sum_like_add_at(coords, seed):
    """``reduceat`` over the run starts sums each duplicate group."""
    vals = np.random.default_rng(seed).integers(-8, 8, len(coords)) * 0.25
    perm, starts = sort_dedupe(coords, range(coords.shape[1]))
    if not len(coords):
        return
    uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
    want = np.zeros(len(uniq))
    np.add.at(want, inverse.reshape(-1), vals)
    # Quarter-integers: every association of the sum is exact.
    assert np.array_equal(np.add.reduceat(vals[perm], starts), want)


def test_pack_sums_duplicates_in_input_order():
    coords = np.array([[1, 1], [0, 2], [1, 1], [0, 2], [1, 1]])
    vals = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    st_packed = pack(coords, vals, (2, 3), CSR(offChip))
    assert st_packed.levels[1].crd.tolist() == [2, 1]
    assert st_packed.vals.tolist() == [10.0, 21.0]


# ---------------------------------------------------------------------------
# All-dense from_dense == pack(index grid)
# ---------------------------------------------------------------------------


def _via_index_grid(a, fmt):
    idx = np.indices(a.shape).reshape(a.ndim, -1).T
    return pack(idx, a.reshape(-1), a.shape, fmt)


@st.composite
def dense_formats_and_arrays(draw):
    rank = draw(st.integers(1, 4))
    n_block = draw(st.integers(0, rank - 1))  # BCSR-style block tail
    ordering = draw(st.permutations(list(range(rank))))
    shape = [draw(st.integers(1, 4)) for _ in range(rank)]
    levels = [dense] * (rank - n_block)
    for lvl in range(rank - n_block, rank):
        levels.append(block(shape[ordering[lvl]]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    a = np.random.default_rng(seed).standard_normal(shape)
    a.reshape(-1)[::3] = 0.0
    return Format(levels, ordering, offChip), a


@given(dense_formats_and_arrays())
@settings(max_examples=150, deadline=None)
def test_all_dense_from_dense_matches_index_grid_pack(fmt_array):
    fmt, a = fmt_array
    got = from_dense(a, fmt)
    assert_same_storage(got, _via_index_grid(a, fmt))
    assert not np.shares_memory(got.vals, a)
    assert got.vals.flags.owndata and got.vals.flags.writeable


def test_all_dense_from_dense_copies_special_values_verbatim():
    a = np.array([-0.0, np.nan, 0.0, np.inf, -1.5])
    assert from_dense(a, DENSE_VECTOR(offChip)).vals.tobytes() == a.tobytes()


def test_all_dense_from_dense_does_not_alias_its_input():
    """A contiguous float64 input is the case ``ascontiguousarray``
    would hand back unchanged."""
    a = np.arange(12, dtype=np.float64).reshape(3, 4)
    for fmt in (DENSE_MATRIX(offChip), Format([dense, dense], [1, 0],
                                              offChip)):
        got = from_dense(a, fmt)
        before = got.vals.copy()
        a += 100.0
        assert np.array_equal(got.vals, before)
        a -= 100.0


def test_from_dense_errors_keep_their_messages():
    with pytest.raises(ValueError,
                       match="format order 2 != tensor order 3"):
        from_dense(np.zeros((2, 2, 2)), DENSE_MATRIX(offChip))
    tail = Format([dense, block(4)], None, offChip)
    with pytest.raises(ValueError, match="block level 1 has static size 4 "
                                         "but mode 1 has dimension 3"):
        from_dense(np.zeros((2, 3)), tail)
    # The same two errors, word for word, from the COO route.
    with pytest.raises(ValueError,
                       match="format order 2 != tensor order 3"):
        _via_index_grid(np.zeros((2, 2, 2)), DENSE_MATRIX(offChip))
    with pytest.raises(ValueError, match="block level 1 has static size 4 "
                                         "but mode 1 has dimension 3"):
        _via_index_grid(np.zeros((2, 3)), tail)


def test_pack_still_rejects_bad_coordinates():
    with pytest.raises(ValueError, match="coordinate out of bounds in mode 1"):
        pack(np.array([[0, 3]]), [1.0], (2, 3), CSR(offChip))
    with pytest.raises(ValueError, match="coordinate out of bounds in mode 0"):
        pack(np.array([[-1, 0]]), [1.0], (2, 3), COO(offChip))
    # A singleton level under a *unique* parent: two entries of one row
    # share a parent position.
    unique_root = Format(
        [ModeFormat(LevelKind.COMPRESSED), ModeFormat(LevelKind.SINGLETON)],
        None, offChip)
    with pytest.raises(ValueError, match="singleton level 1 requires "
                                         "exactly one entry"):
        pack(np.array([[0, 1], [0, 2], [1, 0]]), [1.0, 2.0, 3.0], (2, 3),
             unique_root)
    ok = pack(np.array([[0, 1], [1, 0]]), [1.0, 2.0], (2, 3), unique_root)
    assert ok.levels[1].crd.tolist() == [1, 0]


# ---------------------------------------------------------------------------
# _TensorKeys reads ``ordered`` instead of sorting
# ---------------------------------------------------------------------------


def _tensor(fmt, shape, seed, density=0.4):
    rng = np.random.default_rng(seed)
    a = (rng.random(shape) < density) * (rng.random(shape) + 0.5)
    return Tensor("A", shape, fmt).from_dense(a)


UNORDERED_CSR = Format(
    [dense, ModeFormat(LevelKind.COMPRESSED, ordered=False)], None, offChip)


@pytest.mark.parametrize("fmt, shape", [
    (CSR(offChip), (7, 9)),
    (CSC(offChip), (7, 9)),
    (DCSR(offChip), (7, 9)),
    (CSF(offChip), (4, 5, 6)),
    (COO(offChip), (7, 9)),  # non-unique root: every prefix key repeats
    (BCSR(offChip), (3, 5, 4, 4)),
    (UNORDERED_CSR, (7, 9)),  # declares an unordered level: the sort path
], ids=["csr", "csc", "dcsr", "csf", "coo", "bcsr", "unordered"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tensor_keys_match_np_unique(fmt, shape, seed):
    t = _tensor(fmt, shape, seed, density=0.1 if len(shape) == 4 else 0.4)
    coords, _ = unpack(t.storage)
    key = np.zeros(len(coords), dtype=np.int64)
    got = _TensorKeys(t).level_keys
    assert len(got) == fmt.order
    for level in range(fmt.order):
        mode = fmt.mode_of_level(level)
        key = key * shape[mode] + coords[:, mode]
        assert got[level].dtype == np.int64
        assert np.array_equal(got[level], np.unique(key))


def test_tensor_keys_of_an_empty_tensor():
    t = Tensor("A", (3, 4), CSR(offChip)).from_dense(np.zeros((3, 4)))
    # Keys are prefixes of stored entries, and there are none.
    assert [k.tolist() for k in _TensorKeys(t).level_keys] == [[], []]


# ---------------------------------------------------------------------------
# to_dense scatters; it only accumulates under a non-unique level
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fmt, shape", [
    (CSR(offChip), (7, 9)), (CSC(offChip), (7, 9)), (DCSR(offChip), (7, 9)),
    (CSF(offChip), (4, 5, 6)), (COO(offChip), (7, 9)),
    (BCSR(offChip), (3, 5, 4, 4)),
], ids=["csr", "csc", "dcsr", "csf", "coo", "bcsr"])
def test_to_dense_matches_add_at_scatter(fmt, shape):
    storage = _tensor(fmt, shape, seed=5).storage
    coords, vals = unpack(storage)
    want = np.zeros(shape)
    np.add.at(want, tuple(coords.T), vals)
    assert to_dense(storage).tobytes() == want.tobytes()


def test_to_dense_accumulates_under_a_non_unique_level():
    """Hand-built COO with a repeated coordinate: ``pack`` would have
    summed it, the level format allows it."""
    storage = TensorStorage(
        COO(offChip), (2, 3),
        [CompressedLevel(pos=np.array([0, 3]), crd=np.array([0, 0, 1])),
         SingletonLevel(crd=np.array([1, 1, 0]))],
        np.array([1.0, 2.0, 4.0]))
    assert to_dense(storage).tolist() == [[0.0, 3.0, 0.0], [4.0, 0.0, 0.0]]
