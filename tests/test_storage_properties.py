"""Property-based tests for tensor storage (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import Format, compressed, dense, offChip
from repro.formats.format import format_of, registered_formats
from repro.tensor.storage import from_dense, pack, to_dense, unpack
from tests.conftest import assert_same_storage
from tests.helpers_kernels import reference_pack


@st.composite
def formats_and_dims(draw, max_order=3, max_dim=6):
    order = draw(st.integers(1, max_order))
    levels = [draw(st.sampled_from([dense, compressed])) for _ in range(order)]
    ordering = draw(st.permutations(list(range(order))))
    dims = tuple(draw(st.integers(1, max_dim)) for _ in range(order))
    return Format(levels, ordering, offChip), dims


@st.composite
def coo_entries(draw, dims):
    n = draw(st.integers(0, 12))
    coords = [
        tuple(draw(st.integers(0, d - 1)) for d in dims) for _ in range(n)
    ]
    vals = [draw(st.floats(0.5, 10.0, allow_nan=False)) for _ in range(n)]
    return np.array(coords, dtype=np.int64).reshape(n, len(dims)), np.array(vals)


@given(formats_and_dims(), st.data())
@settings(max_examples=120, deadline=None)
def test_pack_unpack_preserves_values(fmt_dims, data):
    """pack → unpack reproduces the dense tensor for any format."""
    fmt, dims = fmt_dims
    coords, vals = data.draw(coo_entries(dims))
    st_packed = pack(coords, vals, dims, fmt)
    reference = np.zeros(dims)
    for c, v in zip(coords, vals):
        reference[tuple(c)] += v
    assert np.allclose(to_dense(st_packed), reference)


@given(formats_and_dims(), st.data())
@settings(max_examples=80, deadline=None)
def test_unpack_coords_within_bounds(fmt_dims, data):
    fmt, dims = fmt_dims
    coords, vals = data.draw(coo_entries(dims))
    st_packed = pack(coords, vals, dims, fmt)
    out_coords, out_vals = unpack(st_packed)
    assert len(out_coords) == len(out_vals)
    for mode, d in enumerate(dims):
        if len(out_coords):
            assert out_coords[:, mode].min() >= 0
            assert out_coords[:, mode].max() < d


@given(formats_and_dims(), st.data())
@settings(max_examples=80, deadline=None)
def test_pos_arrays_are_monotone(fmt_dims, data):
    """Compressed-level position arrays are non-decreasing and span crd."""
    fmt, dims = fmt_dims
    coords, vals = data.draw(coo_entries(dims))
    st_packed = pack(coords, vals, dims, fmt)
    for lvl in st_packed.levels:
        if hasattr(lvl, "pos"):
            pos = lvl.pos
            assert (np.diff(pos) >= 0).all()
            assert pos[0] == 0
            assert pos[-1] == len(lvl.crd)


@given(formats_and_dims(), st.data())
@settings(max_examples=80, deadline=None)
def test_crd_sorted_within_segments(fmt_dims, data):
    """Coordinates within each position segment are strictly increasing."""
    fmt, dims = fmt_dims
    coords, vals = data.draw(coo_entries(dims))
    st_packed = pack(coords, vals, dims, fmt)
    for lvl in st_packed.levels:
        if hasattr(lvl, "pos"):
            for p in range(len(lvl.pos) - 1):
                seg = lvl.crd[lvl.pos[p]:lvl.pos[p + 1]]
                assert (np.diff(seg) > 0).all()


@given(
    st.integers(1, 8), st.integers(1, 8),
    st.floats(0.0, 1.0), st.integers(0, 2 ** 31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_from_dense_round_trip_matrix(n, m, density, seed):
    rng = np.random.default_rng(seed)
    from repro.formats import CSR

    a = (rng.random((n, m)) < density) * rng.random((n, m))
    assert np.allclose(to_dense(from_dense(a, CSR(offChip))), a)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_pack_is_deterministic(seed):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 5, size=(10, 2))
    vals = rng.random(10)
    from repro.formats import CSR

    a = pack(coords, vals, (5, 5), CSR(offChip))
    b = pack(coords, vals, (5, 5), CSR(offChip))
    assert np.array_equal(a.vals, b.vals)
    assert np.array_equal(a.levels[1].crd, b.levels[1].crd)
    assert np.array_equal(a.levels[1].pos, b.levels[1].pos)


@given(formats_and_dims(), st.data())
@settings(max_examples=150, deadline=None)
def test_pack_sorted_fast_path_is_bit_identical(fmt_dims, data):
    """``pack`` skips the lexsort for strictly sorted input; sorted,
    shuffled, signed-zero and duplicated inputs must pack to the same
    bits with the shortcut, with the sort forced, and as the sort plus
    ``reduceat`` reference (which ``pack`` skips when nothing repeats)."""
    from unittest import mock

    from repro.tensor import storage as storage_mod

    fmt, dims = fmt_dims
    coords, vals = data.draw(coo_entries(dims))
    keys = tuple(coords[:, m] for m in reversed(fmt.mode_ordering))
    order = np.lexsort(keys) if len(coords) else np.zeros(0, dtype=np.int64)
    sorted_c, sorted_v = coords[order], vals[order]
    if len(sorted_c) > 1:  # strictly sorted: drop duplicate coordinates
        keep = np.concatenate(
            ([True], np.any(sorted_c[1:] != sorted_c[:-1], axis=1)))
        sorted_c, sorted_v = sorted_c[keep], sorted_v[keep]
    perm = data.draw(st.permutations(list(range(len(sorted_c)))))
    variants = {
        "sorted": (sorted_c, sorted_v),
        "shuffled": (sorted_c[perm], sorted_v[perm]),
        "shuffled_signed_zeros": (sorted_c[perm],
                                  np.where(np.arange(len(perm)) % 2, -0.0,
                                           sorted_v[perm])),
        "duplicated": (np.concatenate([sorted_c, sorted_c[:3]]),
                       np.concatenate([sorted_v, sorted_v[:3]])),
        "raw": (coords, vals),
    }
    for label, (c, v) in variants.items():
        fast = pack(c, v, dims, fmt)
        with mock.patch.object(storage_mod, "_strictly_sorted",
                               return_value=False):
            slow = pack(c, v, dims, fmt)
        assert_same_storage(fast, slow)
        if len(c):
            order, starts = storage_mod.sort_dedupe(c, fmt.mode_ordering)
            c, v = c[order[starts]], np.add.reduceat(v[order], starts)
        assert_same_storage(fast, pack(c, v, dims, fmt))
    assert storage_mod._strictly_sorted(sorted_c, fmt.mode_ordering)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 3)), max_size=8),
       st.permutations([0, 1, 2]))
@settings(max_examples=150, deadline=None)
def test_strictly_sorted_matches_tuple_order(rows, ordering):
    from repro.tensor.storage import _strictly_sorted

    coords = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
    keyed = [tuple(row[m] for m in ordering) for row in rows]
    expected = all(a < b for a, b in zip(keyed, keyed[1:]))
    assert _strictly_sorted(coords, tuple(ordering)) == expected


def test_strictly_sorted_does_not_overflow():
    """Column-wise comparison: a Horner key over these extents wraps."""
    from repro.tensor.storage import _strictly_sorted

    big = 2 ** 62
    coords = np.array([[big - 1, 0, big - 1], [big - 1, 1, 0],
                       [big, 0, 0]], dtype=np.int64)
    assert _strictly_sorted(coords, (0, 1, 2))
    assert not _strictly_sorted(coords[::-1], (0, 1, 2))
    assert not _strictly_sorted(coords[[0, 0, 1]], (0, 1, 2))


@st.composite
def registered_format_entries(draw):
    """A registered format under a random mode ordering, dims that fit its
    block levels, and entries that may be unsorted, duplicated, empty or
    a single one, with explicit ``0.0`` and ``-0.0`` values."""
    base = format_of(draw(st.sampled_from(sorted(registered_formats()))))
    fmt = Format(base.mode_formats,
                 draw(st.permutations(list(range(base.order)))), offChip)
    dims = tuple(
        lf.size if lf.is_block else draw(st.integers(1, 5))
        for lf in (fmt.level_format(fmt.level_of_mode(m))
                   for m in range(fmt.order)))
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 16))
    coords = np.array(
        [[draw(st.integers(0, d - 1)) for d in dims] for _ in range(n)],
        dtype=np.int64).reshape(n, fmt.order)
    vals = np.array([draw(st.sampled_from([0.0, -0.0])
                          | st.floats(-10, 10, allow_nan=False))
                     for _ in range(n)])
    if n:
        twins = draw(st.lists(st.integers(0, n - 1), max_size=4))
        coords = np.concatenate([coords, coords[twins]])
        vals = np.concatenate([vals, -vals[twins]])
    return fmt, dims, coords, vals


@given(registered_format_entries())
@settings(max_examples=200, deadline=None)
def test_pack_equals_the_reference_level_walk(case):
    """``pack``'s one walk over fresh entries builds the same level
    arrays, ``vals`` and dtypes as the per-level Horner-key walk."""
    fmt, dims, coords, vals = case
    assert_same_storage(pack(coords, vals, dims, fmt),
                        reference_pack(coords, vals, dims, fmt))
