"""Unit and property tests for packed bit vectors and the scanner model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.bitvector import INVALID, gen_bitvector, scan_columns


def entries(*args):
    """The scanner's ``(pos_a, pos_b, pos_out, coord)`` tuples, one per
    set bit."""
    return list(zip(*scan_columns(*args)))


class TestGenBitVector:
    def test_basic(self):
        bv = gen_bitvector(np.array([1, 2, 5]), 9)
        assert bv.n == 9
        assert bv.popcount() == 3
        assert bv.test(1) and bv.test(2) and bv.test(5)
        assert not bv.test(0)

    def test_coordinates_round_trip(self):
        coords = np.array([0, 3, 8, 31, 32, 63])
        bv = gen_bitvector(coords, 64)
        assert bv.coordinates().tolist() == coords.tolist()

    def test_word_packing(self):
        bv = gen_bitvector(np.array([0, 32]), 33)
        assert bv.num_words == 2

    def test_empty(self):
        bv = gen_bitvector(np.zeros(0, dtype=np.int64), 10)
        assert bv.popcount() == 0
        assert bv.coordinates().tolist() == []

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gen_bitvector(np.array([10]), 10)

    def test_index_error(self):
        bv = gen_bitvector(np.array([1]), 4)
        with pytest.raises(IndexError):
            bv.test(4)


class TestBitVectorOps:
    def test_and(self):
        a = gen_bitvector(np.array([1, 2, 5]), 9)
        b = gen_bitvector(np.array([0, 2, 3, 8]), 9)
        assert (a & b).coordinates().tolist() == [2]

    def test_or(self):
        a = gen_bitvector(np.array([1, 2, 5]), 9)
        b = gen_bitvector(np.array([0, 2, 3, 8]), 9)
        assert (a | b).coordinates().tolist() == [0, 1, 2, 3, 5, 8]

    def test_mismatched_spaces_rejected(self):
        a = gen_bitvector(np.array([1]), 8)
        b = gen_bitvector(np.array([1]), 9)
        with pytest.raises(ValueError):
            _ = a & b


class TestFigure7Example:
    """The exact co-iteration example of Figure 7:

    A crd: 1 2 5 ; B crd: 0 2 3 8 -> union out crd: 0 1 2 3 5 8 with
    pattern indices (A, B, out, dense).
    """

    def setup_method(self):
        self.a = gen_bitvector(np.array([1, 2, 5]), 9)
        self.b = gen_bitvector(np.array([0, 2, 3, 8]), 9)

    def test_union_coords(self):
        assert scan_columns(self.a, self.b, "or")[3] == [0, 1, 2, 3, 5, 8]

    def test_union_pattern_indices(self):
        # Figure 7 lists (X,0,0,0) (0,X,1,1) (1,1,2,2) (X,2,3,3) (2,X,4,5)
        # and finally (3,X,5,8); that last tuple is a typo in the paper —
        # coordinate 8 lives in B (crd [0,2,3,8]) at position 3, not in A
        # (crd [1,2,5]) — so the consistent tuple is (X,3,5,8).
        expected = [
            (INVALID, 0, 0, 0),
            (0, INVALID, 1, 1),
            (1, 1, 2, 2),
            (INVALID, 2, 3, 3),
            (2, INVALID, 4, 5),
            (INVALID, 3, 5, 8),
        ]
        assert entries(self.a, self.b, "or") == expected

    def test_intersection(self):
        assert entries(self.a, self.b, "and") == [(1, 1, 0, 2)]

    def test_validity_flags(self):
        pos_a, pos_b, _, _ = scan_columns(self.a, self.b, "or")
        assert pos_a[0] == INVALID and pos_b[0] != INVALID
        assert pos_a[2] != INVALID and pos_b[2] != INVALID

    def test_scan_count(self):
        # The first scanner loop of Section 7.2 sizes the result position
        # sub-array: one entry per set bit of the combined vector.
        union, inter = self.a | self.b, self.a & self.b
        assert len(entries(self.a, self.b, "or")) == union.popcount() == 6
        assert len(entries(self.a, self.b, "and")) == inter.popcount() == 1
        assert len(entries(self.a)) == self.a.popcount() == 3


class TestSingleScan:
    def test_single_vector_positions(self):
        bv = gen_bitvector(np.array([3, 7]), 10)
        assert entries(bv) == [(0, INVALID, 0, 3), (1, INVALID, 1, 7)]

    def test_bad_op_rejected(self):
        a = gen_bitvector(np.array([1]), 4)
        b = gen_bitvector(np.array([2]), 4)
        with pytest.raises(ValueError):
            scan_columns(a, b, "xor")


@given(
    st.lists(st.integers(0, 63), unique=True, max_size=30),
    st.lists(st.integers(0, 63), unique=True, max_size=30),
)
@settings(max_examples=150, deadline=None)
def test_scan_matches_set_semantics(ca, cb):
    """Scan output equals Python-set union/intersection, in order."""
    a = gen_bitvector(np.array(sorted(ca), dtype=np.int64), 64)
    b = gen_bitvector(np.array(sorted(cb), dtype=np.int64), 64)
    union = scan_columns(a, b, "or")[3]
    inter = scan_columns(a, b, "and")[3]
    assert union == sorted(set(ca) | set(cb))
    assert inter == sorted(set(ca) & set(cb))


@given(
    st.lists(st.integers(0, 63), unique=True, max_size=30),
    st.lists(st.integers(0, 63), unique=True, max_size=30),
)
@settings(max_examples=100, deadline=None)
def test_scan_positions_index_operand_coords(ca, cb):
    """Valid operand positions are exactly the rank of the coordinate in
    that operand's coordinate list (how value SRAMs are addressed)."""
    sa, sb = sorted(ca), sorted(cb)
    a = gen_bitvector(np.array(sa, dtype=np.int64), 64)
    b = gen_bitvector(np.array(sb, dtype=np.int64), 64)
    for pos_a, pos_b, _, coord in entries(a, b, "or"):
        if pos_a != INVALID:
            assert sa[pos_a] == coord
        if pos_b != INVALID:
            assert sb[pos_b] == coord


@given(st.lists(st.integers(0, 200), unique=True, max_size=64), st.integers(201, 300))
@settings(max_examples=100, deadline=None)
def test_popcount_equals_len(coords, n):
    bv = gen_bitvector(np.array(sorted(coords), dtype=np.int64), n)
    assert bv.popcount() == len(coords)
    assert bv.coordinates().tolist() == sorted(coords)
