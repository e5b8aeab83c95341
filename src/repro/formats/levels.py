"""Per-dimension (level) formats of the Chou et al. format language.

A tensor format is a list of *mode formats*, one per dimension, each
describing how the coordinates of that dimension are stored. Stardust (and
this reproduction) supports the two formats used throughout the paper —
``dense`` (uncompressed) and ``compressed`` — plus the ``bit_vector``
format that Capstan's declarative-sparse hardware consumes (Section 7.1),
and two level formats from the wider format-abstraction vocabulary of
Chou et al.:

* ``singleton`` stores exactly one coordinate per parent position (a bare
  ``crd`` array with no ``pos`` array). Pairing a non-unique compressed
  root with singleton tails yields the COO family of whole-tensor formats.
* ``block`` is an uncompressed level whose extent is fixed at format
  definition time. Trailing block levels under a compressed level yield
  the blocked formats (BCSR): each stored position expands to a statically
  sized dense tile, so inner loops have compile-time trip counts.

Every level format carries the capability properties of the Chou et al.
level-function interface — *full*, *ordered*, *unique*, *branchless*, and
*compact* — which the co-iteration machinery consults instead of matching
on concrete kinds wherever a capability suffices.

Each kind declares, once, in one record, what the compiler needs to know
to lay a level out. The compiler reads these level functions instead of
naming kinds:

* :meth:`ModeFormat.arrays` — the arrays the level stores (none for
  dense and block, ``pos`` and ``crd`` for compressed, ``crd`` for
  singleton, ``bv`` for bit vectors). DRAM declarations, host binding
  and output assembly loop over them. They also fix where a level's
  position comes from: a level that stores arrays has it bound by the
  loop that iterates it; a level whose ``arrays()`` is empty is
  *located* (parent position × dim + coordinate), never iterated for
  positions.
* :attr:`ModeFormat.parent_array` — the first of them, the array read by
  parent position (``pos``, or a singleton's ``crd``): the one staged
  whole in SRAM at kernel start.
* :meth:`ModeFormat.count` — the level's position count given its
  parent's: parent × dim for dense and block levels, the parent count
  for singletons, the stored entry count (nnz) for compressed and
  bit-vector levels. It evaluates over symbolic sizes (with
  ``mul=smul``) as over plain ints.

In the co-iteration rewrite system of Figure 10, mode formats map onto
iterator symbols: dense and block levels are the universe ``U``,
compressed levels are ``C``, bit-vector levels are ``B``, and singleton
levels are ``S`` (positionally derived from their parent, never
co-iterated).
"""

from __future__ import annotations

import enum
import operator
from typing import Any, Callable, Optional

from repro.immutable import immutable


def _times_dim(parent, dim, nnz, mul):
    return mul(parent, dim())


def _per_parent(parent, dim, nnz, mul):
    return parent


def _stored(parent, dim, nnz, mul):
    return nnz()


@immutable
class _Kind:
    """What one level kind declares.

    The capabilities follow Chou et al., Table 1: ``full`` — every
    coordinate in [0, N) is represented; ``branchless`` — child positions
    derive from the parent position without a data-dependent search
    (dense arithmetic or 1:1 maps); ``compact`` — stored positions are
    contiguous with no padding. ``ordered``/``unique`` live on
    :class:`ModeFormat` (they are per-instance: COO's root is a
    *non-unique* compressed level). ``symbol`` is the Figure 10 iterator
    symbol, ``arrays`` the stored arrays (the first is read by parent
    position) and ``count`` the position-count law.
    """

    symbol: str
    full: bool
    branchless: bool
    compact: bool
    arrays: tuple[str, ...]
    count: Callable[..., Any]


class LevelKind(enum.Enum):
    """The storage discipline of one tensor dimension; each member holds
    its kind's one declaration (``_decl``)."""

    #                         symbol full  branchless compact arrays count
    DENSE = "uncompressed", _Kind("U", True, True, False, (), _times_dim)
    COMPRESSED = "compressed", _Kind("C", False, False, True, ("pos", "crd"),
                                     _stored)
    BIT_VECTOR = "bitvector", _Kind("B", True, False, False, ("bv",), _stored)
    SINGLETON = "singleton", _Kind("S", False, True, True, ("crd",),
                                   _per_parent)
    BLOCK = "block", _Kind("U", True, True, False, (), _times_dim)

    def __new__(cls, value: str, decl: _Kind) -> LevelKind:
        member = object.__new__(cls)
        member._value_ = value
        member._decl = decl
        return member

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@immutable
class ModeFormat:
    """The format of a single tensor mode (dimension).

    Attributes:
        kind: storage discipline for this level.
        ordered: coordinates within a position segment appear in sorted
            order. All formats in the paper are ordered.
        unique: no coordinate repeats within a segment. COO's root level
            is compressed but *non-unique* (one entry per stored value).
        size: static extent for ``block`` levels (must be None otherwise).

    What the kind implies is fixed when the level format is built (it
    takes no part in ``==``, ``hash`` or ``repr``): the kind tests
    ``is_dense`` (dense or block), ``is_compressed``, ``is_bit_vector``,
    ``is_singleton`` and ``is_block``; the capabilities ``full``,
    ``branchless`` and ``compact``; the Figure 10 ``iterator_symbol``;
    and ``parent_array``, the stored array read by parent position
    (``pos``, or a singleton's ``crd``; None for a level that stores
    none).
    """

    kind: LevelKind
    ordered: bool = True
    unique: bool = True
    size: Optional[int] = None

    def __post_init__(self) -> None:
        kind = self.kind
        if kind is LevelKind.BLOCK:
            if self.size is None or int(self.size) < 1:
                raise ValueError(
                    f"block levels need a positive static size, got {self.size!r}"
                )
        elif self.size is not None:
            raise ValueError(
                f"{kind.value} levels take no static size (got {self.size!r})"
            )
        decl = kind._decl
        self.__dict__.update(
            is_dense=kind in (LevelKind.DENSE, LevelKind.BLOCK),
            is_compressed=kind is LevelKind.COMPRESSED,
            is_bit_vector=kind is LevelKind.BIT_VECTOR,
            is_singleton=kind is LevelKind.SINGLETON,
            is_block=kind is LevelKind.BLOCK,
            full=decl.full, branchless=decl.branchless, compact=decl.compact,
            iterator_symbol=decl.symbol,
            parent_array=decl.arrays[0] if decl.arrays else None)

    def properties(self) -> dict[str, bool]:
        """The full capability record (level-function interface)."""
        return {
            "full": self.full,
            "ordered": self.ordered,
            "unique": self.unique,
            "branchless": self.branchless,
            "compact": self.compact,
        }

    # -- layout level functions ----------------------------------------------

    def arrays(self) -> tuple[str, ...]:
        """Names of the sub-arrays this level format stores.

        Dense and block levels store none (only the dimension size);
        compressed levels store ``pos`` and ``crd``; singleton levels only
        ``crd`` (one coordinate per parent position); bit-vector levels a
        packed occupancy word stream ``bv``.
        """
        return self.kind._decl.arrays

    def count(self, parent, dim: Callable[[], Any], nnz: Callable[[], Any],
              mul: Callable[[Any, Any], Any] = operator.mul):
        """The number of positions at this level, given ``parent``, the
        number at the level above (1 above the root).

        ``dim`` and ``nnz`` return the level's extent and its stored
        entry count; the law calls only the one it reads, so a caller
        never computes (or, symbolically, declares) a size the count does
        not use. ``mul`` multiplies: ``operator.mul`` over ints,
        ``smul`` over symbolic sizes.
        """
        return self.kind._decl.count(parent, dim, nnz, mul)

    def __str__(self) -> str:
        flags = []
        if not self.ordered:
            flags.append("unordered")
        if not self.unique:
            flags.append("non-unique")
        suffix = f"({', '.join(flags)})" if flags else ""
        if self.is_block:
            return f"block[{self.size}]{suffix}"
        return f"{self.kind.value}{suffix}"


#: The uncompressed (dense) mode format: coordinates are implicit in [0, N).
dense = ModeFormat(LevelKind.DENSE)

#: Alias used by the paper's input language (Figure 5 uses "uncompressed").
uncompressed = dense

#: The compressed mode format: explicit ``pos``/``crd`` arrays (CSR-style).
compressed = ModeFormat(LevelKind.COMPRESSED)

#: Compressed with one entry per stored value (the COO root level).
compressed_nonunique = ModeFormat(LevelKind.COMPRESSED, unique=False)

#: The singleton mode format: one coordinate per parent position.
singleton = ModeFormat(LevelKind.SINGLETON)

#: The packed bit-vector mode format consumed by Capstan's scanners.
bit_vector = ModeFormat(LevelKind.BIT_VECTOR)


def block(size: int) -> ModeFormat:
    """A fixed-size uncompressed inner level (BCSR-style tile dimension)."""
    return ModeFormat(LevelKind.BLOCK, size=int(size))
