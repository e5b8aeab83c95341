"""Unit tests for workload-statistics extraction."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capstan.stats import (
    _restrict,
    _TensorKeys,
    compute_stats,
    sorted_union,
)
from repro.core import compile_stmt
from repro.formats import Format, offChip
from repro.formats.levels import LevelKind, ModeFormat
from repro.ir import index_vars
from repro.ir.cin import SplitUp
from repro.schedule.provenance import Provenance
from repro.tensor import Tensor
from repro.tensor.storage import (
    CompressedLevel,
    SingletonLevel,
    TensorStorage,
    pack,
    unpack,
)
from tests.helpers_kernels import build_small_kernel_stmt


def stats_for(name: str, density: float = 0.4, seed: int = 42):
    stmt, out, tensors = build_small_kernel_stmt(name, seed=seed, density=density)
    kernel = compile_stmt(stmt, name.lower())
    return compute_stats(kernel), kernel, tensors


class TestSpmvStats:
    def test_loop_iters_exact(self):
        stats, kernel, tensors = stats_for("SpMV")
        nnz = tensors["A"].nnz
        rows = tensors["A"].shape[0]
        assert stats.loop("i").iters == rows
        assert stats.loop("j").iters == nnz
        assert stats.loop("j").launches == rows

    def test_gathers_counted(self):
        stats, _, tensors = stats_for("SpMV")
        # One x gather per nonzero.
        assert stats.gather_elems == tensors["A"].nnz

    def test_traffic_includes_all_arrays(self):
        stats, _, tensors = stats_for("SpMV")
        A = tensors["A"].storage
        x_len = tensors["x"].shape[0]
        expected_reads = (
            len(A.levels[1].pos) + len(A.levels[1].crd) + len(A.vals) + x_len
        ) * 4
        assert stats.dram_read_bytes == expected_reads

    def test_output_writes(self):
        stats, _, tensors = stats_for("SpMV")
        assert stats.dram_write_bytes == tensors["y"].shape[0] * 4

    def test_kind_labels(self):
        stats, _, _ = stats_for("SpMV")
        assert stats.loop("i").kind == "dense"
        assert stats.loop("j").kind == "compressed"
        assert stats.loop("j").is_innermost


class TestScanStats:
    def test_innerprod_intersection_counts(self):
        stats, _, tensors = stats_for("InnerProd")
        b = tensors["B"].to_dense() != 0
        c = tensors["C"].to_dense() != 0
        both = b & c
        # j-level: matched (i, j) prefix pairs; k-level: matched coords.
        ij_b = np.any(b, axis=2)
        ij_c = np.any(c, axis=2)
        assert stats.loop("j").iters == int((ij_b & ij_c).sum())
        assert stats.loop("k").iters == int(both.sum())

    def test_plus2_union_counts(self):
        stats, _, tensors = stats_for("Plus2")
        b = tensors["B"].to_dense() != 0
        c = tensors["C"].to_dense() != 0
        either = b | c
        ij = np.any(b, axis=2) | np.any(c, axis=2)
        assert stats.loop("j").iters == int(ij.sum())
        assert stats.loop("k").iters == int(either.sum())

    def test_plus3_workspace_union(self):
        stats, _, tensors = stats_for("Plus3")
        b = tensors["B"].to_dense() != 0
        c = tensors["C"].to_dense() != 0
        d = tensors["D"].to_dense() != 0
        assert stats.loop("jw").iters == int((b | c).sum())
        assert stats.loop("j").iters == int((b | c | d).sum())

    def test_scan_words_scale_with_launches(self):
        stats, _, tensors = stats_for("Plus2")
        rows = tensors["B"].shape[0]
        j_loop = stats.loop("j")
        assert j_loop.scan_words > 0
        assert j_loop.launches == rows

    def test_bv_coords_counted(self):
        stats, _, tensors = stats_for("InnerProd")
        j_loop = stats.loop("j")
        # Both operands' level-1 fibers stream into Gen BV blocks.
        assert j_loop.bv_coords > 0


class TestLoadedKernel:
    """A kernel-stage hit may come back from the disk store: a pickled
    kernel whose loop variables are new objects at new addresses."""

    def test_analysis_resolves_loops_by_variable_not_address(self):
        stmt, _, _ = build_small_kernel_stmt("Plus2")
        kernel = compile_stmt(stmt, "plus2", cache=False)
        loaded = pickle.loads(pickle.dumps(kernel))
        for info in loaded.analysis.foralls:
            assert loaded.analysis.info(info.ivar) is info
        # The first compile's variables still live at the addresses the
        # analysis was built with; once such an address is reused by one
        # of the loaded kernel's own variables, an ``id()``-keyed lookup
        # hands back another loop (``j`` launched once per ``(i, j)``).
        for info in kernel.analysis.foralls:
            with pytest.raises(KeyError):
                loaded.analysis.info(info.ivar)
        assert compute_stats(loaded) == compute_stats(kernel)

    def test_provenance_survives_a_pickle_round_trip(self):
        i, io, ii = index_vars("i io ii")
        loaded = pickle.loads(pickle.dumps(
            (Provenance([SplitUp(i, io, ii, 4)]), i, io, ii)))
        prov, i, io, ii = loaded
        assert prov.is_derived(io) and prov.is_derived(ii)
        assert prov.roots(ii) == (i,)
        assert prov.trip_count(io, {id(i): 10}) == 3


class TestRestriction:
    def test_intersection_restricts_deeper_levels(self):
        """InnerProd's k segments only load for matched (i,j) pairs."""
        stats, _, tensors = stats_for("InnerProd", density=0.15)
        b = tensors["B"].to_dense() != 0
        c = tensors["C"].to_dense() != 0
        matched = (np.any(b, axis=2) & np.any(c, axis=2))
        # bv coords at the k level = entries within matched fibers.
        k_loop = stats.loop("k")
        b_matched = int((b & matched[:, :, None]).sum())
        c_matched = int((c & matched[:, :, None]).sum())
        assert k_loop.bv_coords == b_matched + c_matched


class TestDenseStats:
    def test_mttkrp_dense_inner(self):
        stats, _, tensors = stats_for("MTTKRP")
        nnz = tensors["B"].nnz
        r = tensors["C"].shape[0]
        assert stats.loop("j").iters == nnz * r
        assert stats.loop("j").kind == "dense"

    def test_flops_positive_and_scaled(self):
        stats, _, _ = stats_for("SDDMM")
        assert stats.flops > 0

    def test_slice_traffic_tracked(self):
        stats, _, tensors = stats_for("SDDMM")
        assert stats.slice_read_bytes > 0
        assert stats.slice_read_bytes <= stats.dram_read_bytes

    def test_vector_par_assignment(self):
        stats, _, _ = stats_for("SDDMM")
        assert stats.loop("k").vector_par == 16
        assert stats.loop("i").vector_par == 1


class TestAggregates:
    def test_totals_consistent(self):
        stats, _, _ = stats_for("Plus2")
        assert stats.dram_total_bytes == (
            stats.dram_read_bytes + stats.dram_write_bytes
        )
        assert stats.total_scan_words == sum(
            l.scan_words for l in stats.loops
        )

    def test_unknown_loop_lookup(self):
        stats, _, _ = stats_for("SpMV")
        with pytest.raises(KeyError):
            stats.loop("zz")

    def test_innermost_iters(self):
        stats, _, tensors = stats_for("SpMV")
        assert stats.innermost_iters == tensors["A"].nnz


class TestSortedUnion:
    @pytest.mark.parametrize("sizes", [(0, 0), (0, 50), (50, 0), (1, 1),
                                       (200, 300), (5000, 40)])
    def test_equals_union1d(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        a, b = (np.unique(rng.integers(0, 1000, size=n)) for n in sizes)
        got = sorted_union(a, b)
        assert got.dtype == np.union1d(a, b).dtype
        assert np.array_equal(got, np.union1d(a, b))

    def test_disjoint_and_identical_sets(self):
        a = np.arange(0, 100, 2)
        b = np.arange(1, 100, 2)
        assert np.array_equal(sorted_union(a, b), np.arange(100))
        assert np.array_equal(sorted_union(b[:10], a[30:]),
                              np.union1d(b[:10], a[30:]))
        assert np.array_equal(sorted_union(a, a), a)


@given(st.lists(st.integers(0, 40), max_size=30),
       st.lists(st.integers(0, 12), max_size=8), st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_restrict_equals_isin(keys, parents, dim):
    """The binary-search restriction keeps what ``np.isin`` keeps, on
    sorted, duplicate-free key sets (empty ones included)."""
    keys = np.unique(np.array(keys, dtype=np.int64))
    parents = np.unique(np.array(parents, dtype=np.int64))
    want = keys[np.isin(keys // dim, parents)]
    got = _restrict(keys, parents, dim)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert _restrict(keys, None, dim) is keys


# ---------------------------------------------------------------------------
# Keys read from level arrays == the unpack + Horner walk they replaced
# ---------------------------------------------------------------------------


def horner_level_keys(tensor: Tensor) -> list[np.ndarray]:
    """The oracle: unpack every stored entry, Horner-key its prefix at
    each level, sort when any level is unordered, keep distinct keys."""
    coords, _ = unpack(tensor.storage)
    fmt = tensor.format
    presorted = all(mf.ordered for mf in fmt.mode_formats)
    out = []
    key = np.zeros(len(coords), dtype=np.int64)
    for level in range(fmt.order):
        mode = fmt.mode_of_level(level)
        key = key * tensor.shape[mode] + coords[:, mode]
        sorted_key = key if presorted else np.sort(key)
        first = np.ones(len(key), dtype=bool)
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=first[1:])
        out.append(sorted_key[first])
    return out


def _child_ranges(child, n_parents: int):
    """``[start, end)`` of each parent position's children at ``child``."""
    if isinstance(child, CompressedLevel):
        return child.pos[:-1], child.pos[1:]
    width = 1 if isinstance(child, SingletonLevel) else child.size
    starts = np.arange(n_parents, dtype=np.int64) * width
    return starts, starts + width


def shuffle_segments(storage: TensorStorage, level: int,
                     seed: int) -> TensorStorage:
    """``storage`` with the positions inside each segment of compressed
    ``level`` permuted, their subtrees and values carried along: an
    arrangement an unordered level may hold and ``pack`` never makes."""
    rng = np.random.default_rng(seed)
    levels = list(storage.levels)
    lvl = levels[level]
    segment = np.repeat(np.arange(len(lvl.pos) - 1), np.diff(lvl.pos))
    order = np.lexsort((rng.random(len(lvl.crd)), segment))
    levels[level] = CompressedLevel(pos=lvl.pos, crd=lvl.crd[order])
    for below in range(level + 1, len(levels)):
        child = levels[below]
        starts, ends = _child_ranges(child, len(order))
        starts, ends = starts[order], ends[order]
        counts = ends - starts
        order = (np.repeat(starts - (np.cumsum(counts) - counts), counts)
                 + np.arange(int(counts.sum())))
        if isinstance(child, CompressedLevel):
            pos = np.concatenate(([0], np.cumsum(counts))).astype(
                child.pos.dtype)
            levels[below] = CompressedLevel(pos=pos, crd=child.crd[order])
        elif isinstance(child, SingletonLevel):
            levels[below] = SingletonLevel(crd=child.crd[order])
    return TensorStorage(storage.fmt, storage.dims, levels,
                         storage.vals[order])


_LEVEL_FORMATS = (
    ModeFormat(LevelKind.DENSE),
    ModeFormat(LevelKind.COMPRESSED),
    ModeFormat(LevelKind.COMPRESSED, ordered=False),
    ModeFormat(LevelKind.COMPRESSED, unique=False),
    ModeFormat(LevelKind.COMPRESSED, ordered=False, unique=False),
    ModeFormat(LevelKind.BIT_VECTOR),
    ModeFormat(LevelKind.BLOCK, size=2),
    ModeFormat(LevelKind.SINGLETON),
)


@st.composite
def packed_tensors(draw):
    """A tensor over 1-3 levels drawn from every level kind (a singleton
    only below a non-unique level, where ``pack`` accepts it, and only
    blocks below a block), with empty segments, repeated prefixes, no
    entries at all, and each unordered level's segments shuffled or
    not."""
    order = draw(st.integers(1, 3))
    mode_formats = []
    for _ in range(order):
        above = mode_formats[-1] if mode_formats else None
        choices = [mf for mf in _LEVEL_FORMATS
                   if (not mf.is_singleton or (above is not None and (
                       above.is_singleton or not above.unique)))
                   and (above is None or not above.is_block or mf.is_block)]
        mode_formats.append(draw(st.sampled_from(choices)))
    fmt = Format(mode_formats, draw(st.permutations(list(range(order)))),
                 offChip)
    dims = tuple(
        lf.size if lf.is_block else draw(st.integers(1, 5))
        for lf in (fmt.level_format(fmt.level_of_mode(m))
                   for m in range(order)))
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 16))
    coords = np.array(
        [[draw(st.integers(0, d - 1)) for d in dims] for _ in range(n)],
        dtype=np.int64).reshape(n, order)
    storage = pack(coords, np.ones(n), dims, fmt)
    for level, lf in enumerate(mode_formats):
        if (not lf.ordered and isinstance(storage.levels[level],
                                          CompressedLevel)
                and draw(st.booleans())):
            storage = shuffle_segments(storage, level,
                                       draw(st.integers(0, 2 ** 16)))
    return Tensor("A", dims, fmt).install(storage)


@given(packed_tensors())
@settings(max_examples=300, deadline=None)
def test_level_array_keys_equal_the_horner_walk(tensor):
    want = horner_level_keys(tensor)
    # Levels on request, deepest first, then again from a fresh reader.
    keys = _TensorKeys(tensor)
    for level in reversed(range(tensor.format.order)):
        got = keys.keys(level)
        assert got.dtype == np.int64
        assert np.array_equal(got, want[level]), level
    for got, expected in zip(_TensorKeys(tensor).level_keys, want):
        assert np.array_equal(got, expected)
