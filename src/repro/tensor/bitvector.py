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
the sparse bit-vector scanner. The Spatial interpreter consumes both.
"""

from __future__ import annotations

import dataclasses

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


def scan_columns(
    bv_a: BitVector,
    bv_b: BitVector | None = None,
    op: str = "and",
) -> tuple[list[int], list[int], list[int], list[int]]:
    """Scan one or two bit vectors into pattern-index columns.

    Returns ``(pos_a, pos_b, pos_out, coord)``, one Python-int list each
    with one entry per set bit. With one vector, iterates its set bits
    (pattern of Figure 9, line 7) and ``pos_b`` is all :data:`INVALID`.
    With two, combines them with ``op`` ('and' for ∩, 'or' for ∪), with
    invalid operand positions set to :data:`INVALID`.
    """
    if bv_b is None:
        coords = bv_a.coordinates().tolist()
        n = len(coords)
        return list(range(n)), [INVALID] * n, list(range(n)), coords
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
    pos_a = np.where(in_a, ranks_a, INVALID)
    pos_b = np.where(in_b, ranks_b, INVALID)
    return (pos_a.tolist(), pos_b.tolist(), list(range(len(coords))),
            coords.tolist())

