"""Unit tests for level-based tensor storage (pack/unpack)."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.formats import (
    COO,
    CSC,
    CSF,
    CSR,
    DENSE_MATRIX,
    DENSE_VECTOR,
    SPARSE_VECTOR,
    UCC,
    Format,
    compressed,
    dense,
    format_of,
    offChip,
    registered_formats,
    singleton,
)
from repro.tensor.storage import (
    CompressedLevel,
    DenseLevel,
    SingletonLevel,
    aligned_values,
    from_dense,
    pack,
    scan,
    to_dense,
    unpack,
    walk_levels,
    wrap_dense,
)


def figure8_matrix() -> np.ndarray:
    """The example matrix of Figure 8."""
    return np.array([
        [0, 1, 0, 0],
        [2, 0, 3, 0],
        [0, 4, 0, 0],
        [0, 0, 0, 5],
    ], dtype=float)


class TestCsrPacking:
    def test_figure8_arrays(self):
        st = from_dense(figure8_matrix(), CSR(offChip))
        lvl = st.levels[1]
        assert isinstance(lvl, CompressedLevel)
        # Figure 8: row positions [0,1,3,4,5], col coords [1,0,2,1,3].
        assert lvl.pos.tolist() == [0, 1, 3, 4, 5]
        assert lvl.crd.tolist() == [1, 0, 2, 1, 3]
        assert st.vals.tolist() == [1, 2, 3, 4, 5]

    def test_dense_level_is_implicit(self):
        st = from_dense(figure8_matrix(), CSR(offChip))
        assert isinstance(st.levels[0], DenseLevel)
        assert st.levels[0].size == 4

    def test_round_trip(self):
        m = figure8_matrix()
        assert np.array_equal(to_dense(from_dense(m, CSR(offChip))), m)

    def test_empty_rows(self):
        m = np.zeros((3, 4))
        m[1, 2] = 7.0
        st = from_dense(m, CSR(offChip))
        assert st.levels[1].pos.tolist() == [0, 0, 1, 1]
        assert np.array_equal(to_dense(st), m)

    def test_all_zero_matrix(self):
        st = from_dense(np.zeros((3, 3)), CSR(offChip))
        assert st.nnz == 0
        assert np.array_equal(to_dense(st), np.zeros((3, 3)))


class TestCscPacking:
    def test_column_major_traversal(self):
        m = figure8_matrix()
        st = from_dense(m, CSC(offChip))
        # Level 0 stores mode 1 (columns); level 1 compresses rows.
        assert st.levels[0].size == 4
        lvl = st.levels[1]
        # Column 0: row 1; column 1: rows 0,2; column 2: row 1; column 3: row 3.
        assert lvl.pos.tolist() == [0, 1, 3, 4, 5]
        assert lvl.crd.tolist() == [1, 0, 2, 1, 3]
        assert st.vals.tolist() == [2, 1, 4, 3, 5]

    def test_round_trip(self):
        m = figure8_matrix()
        assert np.array_equal(to_dense(from_dense(m, CSC(offChip))), m)


class TestCsfPacking:
    def test_three_level_structure(self, rng):
        t = (rng.random((3, 4, 5)) < 0.3) * rng.random((3, 4, 5))
        st = from_dense(t, CSF(offChip))
        assert all(isinstance(l, CompressedLevel) for l in st.levels)
        assert np.array_equal(to_dense(st), t)

    def test_level_nnz_monotone(self, rng):
        t = (rng.random((4, 4, 4)) < 0.4) * rng.random((4, 4, 4))
        st = from_dense(t, CSF(offChip))
        n0, n1, n2 = (l.nnz for l in st.levels)
        assert n0 <= n1 <= n2
        assert n2 == np.count_nonzero(t)

    def test_root_pos_spans_level0(self, rng):
        t = (rng.random((4, 4, 4)) < 0.4) * rng.random((4, 4, 4))
        st = from_dense(t, CSF(offChip))
        assert st.levels[0].pos.tolist()[0] == 0
        assert st.levels[0].pos.tolist()[-1] == st.levels[0].nnz


class TestUccPacking:
    def test_dense_then_compressed(self, rng):
        t = (rng.random((3, 4, 5)) < 0.3) * rng.random((3, 4, 5))
        st = from_dense(t, UCC(offChip))
        assert isinstance(st.levels[0], DenseLevel)
        assert isinstance(st.levels[1], CompressedLevel)
        # Level-1 pos has one segment per dense slot of level 0.
        assert len(st.levels[1].pos) == 3 + 1
        assert np.array_equal(to_dense(st), t)


class TestDenseFormats:
    def test_dense_matrix_keeps_zeros(self):
        m = figure8_matrix()
        st = from_dense(m, DENSE_MATRIX(offChip))
        assert st.nnz == 16  # every slot materialised
        assert np.array_equal(to_dense(st), m)

    def test_dense_vector(self):
        v = np.array([0.0, 1.5, 0.0, 2.5])
        st = from_dense(v, DENSE_VECTOR(offChip))
        assert st.vals.tolist() == v.tolist()

    def test_trailing_dense_level(self, rng):
        fmt = Format([compressed, dense], offChip)
        m = np.zeros((4, 3))
        m[1] = [1, 0, 2]
        m[3] = [0, 5, 0]
        st = from_dense(m, fmt)
        # Two stored rows, each materialising all 3 dense slots.
        assert len(st.vals) == 2 * 3
        assert np.array_equal(to_dense(st), m)


class TestPackEdgeCases:
    def test_scalar(self):
        st = pack(np.zeros((1, 0), dtype=np.int64), [4.5], (), Format([], offChip))
        assert st.order == 0
        assert st.vals.tolist() == [4.5]

    def test_duplicate_coordinates_sum(self):
        coords = np.array([[0, 1], [0, 1], [1, 0]])
        vals = np.array([2.0, 3.0, 4.0])
        st = pack(coords, vals, (2, 2), CSR(offChip))
        d = to_dense(st)
        assert d[0, 1] == 5.0
        assert d[1, 0] == 4.0

    def test_unsorted_input(self):
        coords = np.array([[1, 1], [0, 0], [1, 0]])
        vals = np.array([1.0, 2.0, 3.0])
        st = pack(coords, vals, (2, 2), CSR(offChip))
        assert st.levels[1].crd.tolist() == [0, 0, 1]

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match="out of bounds"):
            pack(np.array([[5, 0]]), [1.0], (2, 2), CSR(offChip))

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError, match="order"):
            pack(np.array([[0, 0]]), [1.0], (2, 2), DENSE_VECTOR(offChip))

    def test_coords_vals_mismatch(self):
        with pytest.raises(ValueError, match="entry count"):
            pack(np.array([[0, 0]]), [1.0, 2.0], (2, 2), CSR(offChip))

    def test_empty_input(self):
        st = pack(np.zeros((0, 2), dtype=np.int64), np.zeros(0), (3, 3), CSR(offChip))
        assert st.nnz == 0
        coords, vals = unpack(st)
        assert len(vals) == 0


class TestStorageAccessors:
    # COO's column level is a singleton: a crd array and no pos array.
    @pytest.mark.parametrize("fmt, arrays", [
        (CSR, {"pos": [0, 1, 3, 4, 5], "crd": [1, 0, 2, 1, 3]}),
        (COO, {"crd": [1, 0, 2, 1, 3]}),
    ], ids=["csr", "coo"])
    def test_array_lookup(self, fmt, arrays):
        st = from_dense(figure8_matrix(), fmt(offChip))
        assert list(st.levels[1].arrays) == list(arrays)
        for name, expected in arrays.items():
            assert st.array(1, name).tolist() == expected

    @pytest.mark.parametrize("fmt, level", [(CSR, 0), (COO, 1)],
                             ids=["csr", "coo"])
    def test_array_on_dense_level_rejected(self, fmt, level):
        """A dense level stores no pos (nor crd); a singleton no pos."""
        st = from_dense(figure8_matrix(), fmt(offChip))
        with pytest.raises(KeyError):
            st.array(level, "pos")

    def test_unknown_array_rejected(self):
        st = from_dense(figure8_matrix(), CSR(offChip))
        with pytest.raises(KeyError):
            st.array(1, "values")

    def test_level_dim_respects_ordering(self):
        st = from_dense(np.ones((3, 5)), Format([dense, dense], [1, 0], offChip))
        assert st.level_dim(0) == 5
        assert st.level_dim(1) == 3

    # CSR: 5 vals + 5 pos + 5 crd. COO: 5 vals + the root's 2 pos and
    # 5 crd + the singleton's 5 crd. 4 bytes each.
    @pytest.mark.parametrize("fmt, words", [(CSR, 5 + 5 + 5),
                                            (COO, 5 + 2 + 5 + 5)],
                             ids=["csr", "coo"])
    def test_bytes_total(self, fmt, words):
        st = from_dense(figure8_matrix(), fmt(offChip))
        assert st.bytes_total() == words * 4

    def test_sparse_vector(self):
        v = np.array([0.0, 3.0, 0.0, 7.0, 0.0])
        st = from_dense(v, SPARSE_VECTOR(offChip))
        assert st.levels[0].crd.tolist() == [1, 3]
        assert st.vals.tolist() == [3.0, 7.0]


class TestResultStorage:
    """What an engine result is: a storage NumPy densifies on request."""

    def test_densifies_on_request(self):
        st = from_dense(figure8_matrix(), CSR(offChip))
        assert st.shape == st.dims == (4, 4)
        assert np.array_equal(np.asarray(st), figure8_matrix())
        assert np.asarray(st, dtype=np.float32).dtype == np.float32
        assert np.allclose(st, figure8_matrix())
        with pytest.raises(ValueError):
            np.asarray(st, copy=False)  # a sparse storage has no dense view
        # Operators and ufuncs see the dense tensor too.
        assert np.array_equal(st + 1e-3, figure8_matrix() + 1e-3)
        assert np.array_equal(2 * st - st, figure8_matrix())
        assert np.array_equal(np.negative(st), -figure8_matrix())

    def test_dense_copy_never_aliases(self):
        st = from_dense(figure8_matrix(), DENSE_MATRIX(offChip))
        assert np.shares_memory(np.asarray(st), st.vals)
        assert not np.shares_memory(np.array(st), st.vals)

    def test_wrap_dense_keeps_signed_zeros(self):
        array = np.array([[0.0, -0.0, 2.0], [-1.0, 0.0, 0.0]])
        for fmt in (CSR(offChip), CSC(offChip), DENSE_MATRIX(offChip)):
            st = wrap_dense(array, fmt)
            assert st.fmt == fmt
            assert to_dense(st).tobytes() == array.tobytes()
        assert wrap_dense(array, CSR(offChip)).nnz == 3
        assert np.shares_memory(wrap_dense(array, DENSE_MATRIX(offChip)).vals,
                                array)

    def test_aligned_values_agree_with_the_dense_difference(self):
        from repro.formats import COO

        rng = np.random.default_rng(3)
        a = (rng.random((5, 6)) < 0.4) * rng.random((5, 6))
        b = (rng.random((5, 6)) < 0.4) * rng.random((5, 6))
        # COO keeps duplicates: b's entries twice at half value.
        coords = np.stack(np.nonzero(b), axis=1)
        dup = pack(np.concatenate([coords, coords]),
                   np.concatenate([b[tuple(coords.T)] / 2] * 2),
                   b.shape, COO(offChip))
        got, expected = aligned_values(from_dense(a, CSR(offChip)), dup)
        assert np.max(np.abs(got - expected)) == np.max(np.abs(a - b))
        assert len(got) == np.count_nonzero((a != 0) | (b != 0))
        with pytest.raises(ValueError):
            aligned_values(from_dense(a, CSR(offChip)),
                           from_dense(a.T, CSR(offChip)))

    @pytest.mark.parametrize("fmt", [
        CSR(offChip), Format([compressed, singleton], [0, 1], offChip)],
        ids=["csr", "compressed-singleton"])
    def test_aligned_values_pass_equal_level_arrays_through(self, fmt):
        """One unique format with equal level arrays: ``vals`` as they
        are. Unequal arrays at any level, a singleton's crd included,
        go through the coordinate keys."""
        # One entry per stored row, so the singleton level packs.
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        b = np.diag([5.0, 6.0, 7.0, 8.0])
        x, y = from_dense(a, fmt), from_dense(b, fmt)
        got, expected = aligned_values(x, y)
        assert got is x.vals and expected is y.vals
        z = from_dense(np.fliplr(b), fmt)  # same pos, other columns
        got, expected = aligned_values(x, z)
        assert len(got) == 8 and got.sum() == a.sum()
        assert expected.sum() == b.sum()

    def test_aligned_values_sum_a_coo_pair(self):
        """COO's root is non-unique: a pair with equal level arrays still
        meets on keys, so duplicate coordinates are summed."""
        coords = np.array([[0, 1], [0, 1], [2, 0]])
        a = pack(coords, np.array([1.0, 2.0, 4.0]), (3, 2), COO(offChip))
        b = pack(coords, np.array([8.0, 16.0, 32.0]), (3, 2), COO(offChip))
        assert all(np.array_equal(arr, y.arrays[name])
                   for x, y in zip(a.levels, b.levels)
                   for name, arr in x.arrays.items())
        got, expected = aligned_values(a, b)
        assert got.tolist() == [3.0, 4.0]
        assert expected.tolist() == [24.0, 32.0]


class TestLevelFunctions:
    """``segments`` and ``arrays``: the two things a level kind answers."""

    def test_segments_per_kind(self):
        csr = from_dense(figure8_matrix(), CSR(offChip))
        coo = from_dense(figure8_matrix(), COO(offChip))
        counts, coords = csr.levels[0].segments(1)
        assert counts == 4 and coords.tolist() == [0, 1, 2, 3]
        counts, coords = csr.levels[1].segments(4)
        assert counts.tolist() == [1, 2, 1, 1]
        assert coords.tolist() == [1, 0, 2, 1, 3]
        counts, coords = coo.levels[1].segments(5)
        assert counts == 1 and coords.tolist() == [1, 0, 2, 1, 3]
        assert DenseLevel(3).segments(2)[1].tolist() == [0, 1, 2] * 2

    def test_arrays_per_kind(self):
        pos, crd = np.array([0, 2]), np.array([1, 3], dtype=np.int32)
        assert DenseLevel(4).arrays == {}
        assert SingletonLevel(crd).arrays.keys() == {"crd"}
        assert CompressedLevel(pos, crd).arrays.keys() == {"pos", "crd"}

    def test_scan_counts_each_levels_parents(self):
        st = pack(np.array([[0, 1, 2], [2, 0, 0]]), np.array([1.0, 2.0]),
                  (3, 2, 3), Format([dense, compressed, dense], [0, 1, 2],
                                    offChip))
        coords = [c.tolist() for _, c in scan(st)]
        assert coords == [[0, 1, 2], [1, 0], [0, 1, 2] * 2]

    def test_walk_levels_returns_mode_columns(self):
        st = from_dense(figure8_matrix(), CSC(offChip))
        cols = walk_levels(st, 2)
        assert cols[1].tolist() == [0, 1, 1, 2, 3]  # columns: level 0
        assert cols[0].tolist() == [1, 0, 2, 1, 3]
        assert all(c.dtype == np.int64 for c in cols.values())
        assert walk_levels(st, 1)[1].tolist() == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# Storage agrees with each level format's declaration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("density", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("name", sorted(registered_formats()))
def test_storage_holds_the_declared_arrays_and_counts(name, density):
    fmt = format_of(name)
    shape = []
    for mode in range(fmt.order):
        lf = fmt.level_format(fmt.level_of_mode(mode))
        shape.append(lf.size if lf.is_block else 3 + mode)
    rng = np.random.default_rng(len(name))
    st = from_dense((rng.random(shape) < density) * rng.random(shape), fmt)
    n = 1
    for level, lvl in enumerate(st.levels):
        lf = fmt.level_format(level)
        assert tuple(lvl.arrays) == lf.arrays()
        # The count reads a compressed level's nnz off its pos array, so
        # it checks len(crd) rather than restating it.
        n = lf.count(n, lambda: st.level_dim(level),
                     lambda: int(st.array(level, "pos")[-1]))
        if "crd" in lvl.arrays:
            assert len(st.array(level, "crd")) == n
    assert len(st.vals) == n


# ---------------------------------------------------------------------------
# The guard: a level's kind is read from its format, never its class
# ---------------------------------------------------------------------------

_LEVEL_CLASSES = {"DenseLevel", "CompressedLevel", "SingletonLevel"}
#: The level classes' own module, and the ``cpu`` walker until it is
#: deleted (ROADMAP item 9).
_MAY_TEST_KIND = {"tensor/storage.py", "backends/cpu_exec.py"}


def _kind_tests(tree: ast.AST) -> list[int]:
    """Lines of ``isinstance`` calls against a storage level class."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and any(getattr(n, "id", getattr(n, "attr", None))
                    in _LEVEL_CLASSES for n in ast.walk(node.args[-1]))]


def test_the_level_guard_sees_a_kind_test():
    tree = ast.parse("if isinstance(lvl, DenseLevel): pass\n"
                     "if isinstance(lvl, (storage.SingletonLevel, X)): pass\n"
                     "if isinstance(st, TensorStorage): pass\n"
                     "if 'pos' in lvl.arrays: pass\n")
    assert _kind_tests(tree) == [1, 2]


def test_no_level_kind_tests_outside_storage():
    root = Path(repro.__file__).resolve().parent
    found = []
    for source in sorted(root.rglob("*.py")):
        path = source.relative_to(root).as_posix()
        if path in _MAY_TEST_KIND:
            continue
        found += [f"{path}:{line}"
                  for line in _kind_tests(ast.parse(source.read_text()))]
    assert found == []


# Beyond the class test: kind predicates on a level or tensor format
# (``is_<kind>``, a format's ``has_<kind>_level``) and ``LevelKind`` members. Outside the format declarations and storage's
# level classes the compiler reads level functions (``arrays``,
# ``parent_array``, ``count``, the capabilities) instead. Each file's
# count may only shrink: lower its entry when a site goes, never raise it.
_KIND_PREDICATES = {"is_dense", "is_compressed", "is_singleton",
                    "is_bit_vector", "is_block", "is_all_dense",
                    "has_compressed_level", "has_singleton_level",
                    "has_block_level"}
_MAY_NAME_KIND = ("formats/", "tensor/storage.py")
_KIND_PREDICATE_ALLOWANCE = {
    "__main__.py": 1,
    "backends/gpu.py": 1,
    "backends/numpy_exec.py": 4,
    "convert.py": 6,
    "core/coiteration.py": 1,
    "core/lowering.py": 4,
    "core/memory_analysis.py": 8,
    "ir/iteration.py": 1,
    "schedule/autoschedule.py": 2,
}


def _kind_predicates(tree: ast.AST) -> list[int]:
    """The lines (each once) holding a kind predicate or a ``LevelKind``
    member."""
    return sorted({
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (node.attr in _KIND_PREDICATES
             or getattr(node.value, "id", getattr(node.value, "attr", None))
             == "LevelKind")})


def test_the_kind_guard_sees_a_predicate():
    tree = ast.parse("if lf.is_dense: pass\n"
                     "x = fmt.is_all_dense or k is LevelKind.SINGLETON\n"
                     "y = levels.LevelKind.BLOCK\n"
                     "if 'pos' in lf.arrays() or lf.full: pass\n"
                     "z = fmt.level_format(0).is_compressed\n"
                     "if lf.is_bit_vector or lf.is_block: pass\n"
                     "w = t.format.has_compressed_level\n"
                     "v = fmt.has_singleton_level or fmt.has_block_level\n")
    assert _kind_predicates(tree) == [1, 2, 3, 5, 6, 7, 8]


def test_kind_predicates_stay_within_their_allowance():
    root = Path(repro.__file__).resolve().parent
    found: dict[str, list[int]] = {}
    for source in sorted(root.rglob("*.py")):
        path = source.relative_to(root).as_posix()
        if path.startswith(_MAY_NAME_KIND):
            continue
        lines = _kind_predicates(ast.parse(source.read_text()))
        if lines:
            found[path] = lines
    counts = {path: len(lines) for path, lines in found.items()}
    assert counts == _KIND_PREDICATE_ALLOWANCE, (
        "kind predicates moved; a count may only fall (lower its entry): "
        f"{found}")
