"""Packed bit-vector coordinate streams and the Capstan scanner model.

Capstan's declarative-sparse model (Section 7.1, Figure 7) co-iterates two
compressed tensor levels by (1) expanding each level's coordinates into a
packed occupancy bit vector, (2) combining the vectors with AND (for
intersection / multiplication) or OR (for union / addition), and (3)
scanning the combined vector, emitting for every set bit a *pattern index
tuple* ``(pos_a, pos_b, pos_out, i_dense)`` — the operand positions (or
*invalid* when an operand lacks the coordinate), the output position, and
the dense coordinate.

This module implements that machinery exactly: :func:`gen_bitvector`
mirrors the hardware's ``Gen BV`` block, and :func:`scan_columns` mirrors
the sparse bit-vector scanner (:func:`scan` yields the same tuples one
:class:`ScanEntry` at a time). The Spatial interpreter and the Capstan
simulator both consume these primitives.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

import numpy as np

#: Word width of Capstan's packed bit-vector streams.
WORD_BITS = 32

#: Marker for "this operand has no entry at this coordinate" (the paper's X).
INVALID = -1


@dataclasses.dataclass(frozen=True)
class BitVector:
    """A packed occupancy vector over a dense coordinate space ``[0, n)``."""

    words: np.ndarray  # uint32, ceil(n / 32) entries
    n: int

    @property
    def num_words(self) -> int:
        return len(self.words)

    def popcount(self) -> int:
        """Number of set bits (coordinates present)."""
        return int(np.unpackbits(self.words.view(np.uint8)).sum())

    def test(self, i: int) -> bool:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return bool((int(self.words[i // WORD_BITS]) >> (i % WORD_BITS)) & 1)

    def coordinates(self) -> np.ndarray:
        """Set-bit indices in ascending order."""
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return np.nonzero(bits[: self.n])[0].astype(np.int64)

    def __and__(self, other: "BitVector") -> "BitVector":
        _check_same_space(self, other)
        return BitVector(self.words & other.words, self.n)

    def __or__(self, other: "BitVector") -> "BitVector":
        _check_same_space(self, other)
        return BitVector(self.words | other.words, self.n)


def _check_same_space(a: BitVector, b: BitVector) -> None:
    if a.n != b.n:
        raise ValueError(f"bit vectors span different spaces ({a.n} vs {b.n})")


def gen_bitvector(coords: np.ndarray, n: int) -> BitVector:
    """Pack a sorted coordinate array into an occupancy bit vector.

    Models Capstan's ``Gen BV`` block: coordinates stream in, set bits
    stream out, one word per 32 coordinate slots.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if len(coords) and (coords.min() < 0 or coords.max() >= n):
        raise ValueError("coordinate out of bit-vector range")
    nwords = max(1, -(-n // WORD_BITS))
    bits = np.zeros(nwords * WORD_BITS, dtype=np.uint8)
    bits[coords] = 1
    words = np.packbits(bits, bitorder="little").view(np.uint32).copy()
    return BitVector(words, n)


@dataclasses.dataclass(frozen=True)
class ScanEntry:
    """One pattern-index tuple produced by the scanner (Figure 7)."""

    pos_a: int
    pos_b: int
    pos_out: int
    coord: int

    @property
    def a_valid(self) -> bool:
        return self.pos_a != INVALID

    @property
    def b_valid(self) -> bool:
        return self.pos_b != INVALID


def scan_columns(
    bv_a: BitVector,
    bv_b: BitVector | None = None,
    op: str = "and",
    pos_a_base: int = 0,
    pos_b_base: int = 0,
    pos_out_base: int = 0,
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Scan one or two bit vectors into pattern-index columns.

    Returns ``(pos_a, pos_b, pos_out, coord)``, one Python-int list each
    with one entry per set bit. With one vector, iterates its set bits
    (pattern of Figure 9, line 7) and ``pos_b`` is all :data:`INVALID`.
    With two, combines them with ``op`` ('and' for ∩, 'or' for ∪), with
    invalid operand positions set to :data:`INVALID`. The ``*_base``
    arguments offset positions into the enclosing segment, matching how
    the hardware scanner chains position counters across segments.
    """
    if bv_b is None:
        coords = bv_a.coordinates().tolist()
        n = len(coords)
        return (list(range(pos_a_base, pos_a_base + n)), [INVALID] * n,
                list(range(pos_out_base, pos_out_base + n)), coords)
    _check_same_space(bv_a, bv_b)
    if op not in ("and", "or"):
        raise ValueError(f"unknown scan op {op!r}")
    combined = (bv_a & bv_b) if op == "and" else (bv_a | bv_b)
    coords = combined.coordinates()
    # Rank each combined coordinate within each operand via searchsorted on
    # the operands' own coordinate lists — this mirrors the hardware's
    # popcount-prefix trick for recovering operand positions.
    ca = bv_a.coordinates()
    cb = bv_b.coordinates()
    ranks_a = np.searchsorted(ca, coords)
    ranks_b = np.searchsorted(cb, coords)
    in_a = (ranks_a < len(ca)) & (ca[np.minimum(ranks_a, max(len(ca) - 1, 0))] == coords) if len(ca) else np.zeros(len(coords), dtype=bool)
    in_b = (ranks_b < len(cb)) & (cb[np.minimum(ranks_b, max(len(cb) - 1, 0))] == coords) if len(cb) else np.zeros(len(coords), dtype=bool)
    pos_a = np.where(in_a, ranks_a + pos_a_base, INVALID)
    pos_b = np.where(in_b, ranks_b + pos_b_base, INVALID)
    n = len(coords)
    return (pos_a.tolist(), pos_b.tolist(),
            list(range(pos_out_base, pos_out_base + n)), coords.tolist())


def scan(
    bv_a: BitVector,
    bv_b: BitVector | None = None,
    op: str = "and",
    pos_a_base: int = 0,
    pos_b_base: int = 0,
    pos_out_base: int = 0,
) -> Iterator[ScanEntry]:
    """:func:`scan_columns` as one :class:`ScanEntry` per set bit."""
    for entry in zip(*scan_columns(bv_a, bv_b, op, pos_a_base, pos_b_base,
                                   pos_out_base)):
        yield ScanEntry(*entry)


def scan_count(bv_a: BitVector, bv_b: BitVector | None = None, op: str = "and") -> int:
    """Number of entries the scanner would produce (the first scanner loop
    of Section 7.2, which computes result position sub-array entries)."""
    if bv_b is None:
        return bv_a.popcount()
    combined = (bv_a & bv_b) if op == "and" else (bv_a | bv_b)
    return combined.popcount()
