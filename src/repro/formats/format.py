"""Whole-tensor formats: mode formats + mode ordering + memory region.

A :class:`Format` mirrors the Stardust input language of Figure 5::

    Format csr_off({uncompressed, compressed}, offChip);
    Format cm_off({uncompressed, uncompressed}, {1, 0}, offChip);

i.e. an ordered list of per-level formats, an optional mode ordering
(permutation mapping storage levels to tensor modes; ``{1, 0}`` stores a
matrix column-major), and the Stardust memory-region annotation.

Beyond the paper's CSR/CSF/dense vocabulary, this module registers the
COO, DCSR, and blocked (BCSR) whole-tensor formats enabled by the
``singleton`` and ``block`` level formats, and exposes the registry that
``repro formats``, ``repro convert``, and the format-sweep artefact
enumerate.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

from repro.formats.levels import (
    ModeFormat,
    block,
    compressed,
    compressed_nonunique,
    dense,
    singleton,
)
from repro.formats.memory import MemoryRegion
from repro.immutable import immutable


@immutable
class Format:
    """A tensor format in the Stardust data-representation language.

    Attributes:
        mode_formats: per-storage-level formats, outermost first.
        mode_ordering: permutation of mode indices; ``mode_ordering[L]`` is
            the tensor mode stored at level ``L``. Defaults to the identity
            (row-major for matrices).
        memory: coarse-grained memory pinning (Section 5.1).

    Facts derived from the fields are fixed when the format is built
    (they take no part in ``==``, ``hash`` or ``repr``): ``order``, the
    number of tensor modes; ``is_on_chip``; ``is_all_dense``; and
    ``has_compressed_level`` / ``has_singleton_level`` /
    ``has_block_level``.
    """

    mode_formats: tuple[ModeFormat, ...]
    mode_ordering: tuple[int, ...] = ()
    memory: MemoryRegion = MemoryRegion.OFF_CHIP

    def __init__(
        self,
        mode_formats: Sequence[ModeFormat] = (),
        mode_ordering: Sequence[int] | MemoryRegion | None = None,
        memory: MemoryRegion | None = None,
    ) -> None:
        # Allow Format([...], offChip) without an explicit ordering, matching
        # the paper's two- and three-argument constructor forms.
        if isinstance(mode_ordering, MemoryRegion):
            if memory is not None:
                raise TypeError("memory region given twice")
            memory = mode_ordering
            mode_ordering = None
        mode_formats = tuple(mode_formats)
        for mf in mode_formats:
            if not isinstance(mf, ModeFormat):
                raise TypeError(
                    f"mode formats must be ModeFormat instances, got {mf!r}"
                )
        mode_ordering = _validated_ordering(mode_ordering, len(mode_formats))
        _validate_level_structure(mode_formats)
        memory = memory or MemoryRegion.OFF_CHIP
        object.__setattr__(self, "__dict__", dict(
            mode_formats=mode_formats, mode_ordering=mode_ordering,
            memory=memory, order=len(mode_formats),
            is_on_chip=memory.is_on_chip,
            is_all_dense=all(mf.is_dense for mf in mode_formats),
            has_compressed_level=any(mf.is_compressed for mf in mode_formats),
            has_singleton_level=any(mf.is_singleton for mf in mode_formats),
            has_block_level=any(mf.is_block for mf in mode_formats)))

    def level_of_mode(self, mode: int) -> int:
        """Storage level at which tensor mode ``mode`` is stored."""
        return self.mode_ordering.index(mode)

    def mode_of_level(self, level: int) -> int:
        """Tensor mode stored at storage level ``level``."""
        return self.mode_ordering[level]

    def level_format(self, level: int) -> ModeFormat:
        return self.mode_formats[level]

    def streams_vals_at(self, level: int) -> bool:
        """Values stream 1:1 with this level's positions.

        True when ``level`` is the innermost level, or every deeper level
        is singleton (positions pass through unchanged, so one value
        arrives per position here — the COO layout). The lowerer and the
        traffic model both consult this, so they stay in agreement.
        """
        return all(
            self.level_format(L).is_singleton
            for L in range(level + 1, self.order)
        )

    def with_memory(self, memory: MemoryRegion) -> "Format":
        """The same format pinned to a different memory region."""
        return Format(self.mode_formats, self.mode_ordering, memory)

    def __str__(self) -> str:
        levels = ", ".join(str(mf) for mf in self.mode_formats)
        parts = ["{" + levels + "}"]
        if self.mode_ordering != tuple(range(self.order)):
            parts.append("{" + ", ".join(map(str, self.mode_ordering)) + "}")
        parts.append(str(self.memory))
        return f"Format({', '.join(parts)})"


def _validated_ordering(
    mode_ordering: Sequence[int] | None, order: int
) -> tuple[int, ...]:
    """Check that the ordering is a true permutation of ``range(order)``.

    A bad ordering used to surface only deep inside lowering (as a
    ``ValueError: x is not in tuple`` from ``level_of_mode``); validating
    here turns it into an immediate, self-explanatory error.
    """
    if mode_ordering is None:
        return tuple(range(order))
    try:
        ordering = tuple(int(m) for m in mode_ordering)
    except (TypeError, ValueError):
        raise ValueError(
            f"mode_ordering must be a sequence of integers, got "
            f"{mode_ordering!r}"
        ) from None
    if len(ordering) != order:
        raise ValueError(
            f"mode_ordering {ordering} has {len(ordering)} entries for "
            f"{order} mode format(s); it must be a permutation of "
            f"0..{order - 1}"
        )
    if sorted(ordering) != list(range(order)):
        raise ValueError(
            f"mode_ordering {ordering} is not a permutation of "
            f"0..{order - 1} (each storage level must name a distinct "
            f"tensor mode)"
        )
    return ordering


def _validate_level_structure(mode_formats: tuple[ModeFormat, ...]) -> None:
    """Structural constraints on level sequences.

    * singleton levels derive their positions from a parent, so the root
      (outermost) level cannot be singleton;
    * block levels are trailing tiles: once a block level appears, every
      deeper level must also be a block level (BCSR-style layouts).
    """
    if mode_formats and mode_formats[0].is_singleton:
        raise ValueError(
            "the outermost storage level cannot be singleton: singleton "
            "levels store one coordinate per parent position"
        )
    seen_block = False
    for lvl, mf in enumerate(mode_formats):
        if mf.is_block:
            seen_block = True
        elif seen_block:
            raise ValueError(
                f"level {lvl} ({mf}) follows a block level; block levels "
                f"must form the trailing (innermost) tile dimensions"
            )


# ---------------------------------------------------------------------------
# Named whole-tensor formats + registry
# ---------------------------------------------------------------------------

#: Default tile extent for the registered BCSR format.
DEFAULT_BLOCK = 4


def _fmt(levels: Sequence[ModeFormat], ordering: Sequence[int] | None = None):
    # A format is immutable, so each memory region's is built once.
    @functools.cache
    def make(memory: MemoryRegion = MemoryRegion.OFF_CHIP) -> Format:
        return Format(levels, ordering, memory)

    return make


#: Compressed sparse row: dense rows, compressed columns.
CSR = _fmt([dense, compressed])

#: Compressed sparse column: column-major CSR.
CSC = _fmt([dense, compressed], [1, 0])

#: Fully dense row-major matrix.
DENSE_MATRIX = _fmt([dense, dense])

#: Fully dense column-major matrix (the paper's ``cm_off``).
DENSE_MATRIX_CM = _fmt([dense, dense], [1, 0])

#: Dense vector.
DENSE_VECTOR = _fmt([dense])

#: Compressed (sparse) vector.
SPARSE_VECTOR = _fmt([compressed])

#: Compressed sparse fiber for 3-tensors.
CSF = _fmt([compressed, compressed, compressed])

#: The CSR-like uncompressed-compressed-compressed 3-tensor format used for
#: InnerProd and Plus2 in the evaluation (Section 8.1).
UCC = _fmt([dense, compressed, compressed])

#: Doubly compressed sparse row: both matrix levels compressed.
DCSR = _fmt([compressed, compressed])

#: Compressed-compressed-dense 3-tensor (TTM output: dense k level).
CCD = _fmt([compressed, compressed, dense])

#: Coordinate (COO) matrix: a non-unique compressed root (pos = [0, nnz])
#: over a singleton column level — one (row, col, val) triple per entry.
COO = _fmt([compressed_nonunique, singleton])

#: Coordinate (COO) 3-tensor: non-unique root, singleton tails.
COO3 = _fmt([compressed_nonunique, singleton, singleton])


def BCSR(
    memory: MemoryRegion = MemoryRegion.OFF_CHIP, size: int = DEFAULT_BLOCK
) -> Format:
    """Blocked CSR over a blocked 4-D tensor (I/b, J/b, b, b).

    Level 0 indexes block rows densely, level 1 compresses block columns,
    and two trailing ``block`` levels hold the statically-sized b×b tile.
    """
    return Format([dense, compressed, block(size), block(size)], None, memory)


@immutable
class FormatSpec:
    """One registry entry: a named whole-tensor format constructor."""

    name: str
    make: Callable[..., Format]
    description: str

    def instantiate(self, memory: MemoryRegion = MemoryRegion.OFF_CHIP) -> Format:
        return self.make(memory)


FORMAT_REGISTRY: dict[str, FormatSpec] = {}


def register_format(name: str, make: Callable[..., Format],
                    description: str) -> FormatSpec:
    """Register a named whole-tensor format (idempotent per name)."""
    spec = FormatSpec(name.lower(), make, description)
    FORMAT_REGISTRY[spec.name] = spec
    return spec


for _name, _make, _desc in (
    ("csr", CSR, "compressed sparse row (dense rows, compressed columns)"),
    ("csc", CSC, "compressed sparse column (column-major CSR)"),
    ("dense2", DENSE_MATRIX, "fully dense row-major matrix"),
    ("dense2_cm", DENSE_MATRIX_CM, "fully dense column-major matrix"),
    ("dense1", DENSE_VECTOR, "dense vector"),
    ("sparse1", SPARSE_VECTOR, "compressed (sparse) vector"),
    ("csf", CSF, "compressed sparse fiber (3-tensor)"),
    ("ucc", UCC, "uncompressed-compressed-compressed 3-tensor"),
    ("dcsr", DCSR, "doubly compressed sparse row"),
    ("ccd", CCD, "compressed-compressed-dense 3-tensor"),
    ("coo", COO, "coordinate matrix (non-unique root + singleton column)"),
    ("coo3", COO3, "coordinate 3-tensor (non-unique root + singleton tails)"),
    ("bcsr", BCSR,
     f"blocked CSR with {DEFAULT_BLOCK}x{DEFAULT_BLOCK} tiles "
     f"(dense, compressed, block, block)"),
):
    register_format(_name, _make, _desc)


def registered_formats() -> dict[str, FormatSpec]:
    """The registry of named whole-tensor formats (name -> spec)."""
    return dict(FORMAT_REGISTRY)


def format_of(name: str, memory: MemoryRegion = MemoryRegion.OFF_CHIP) -> Format:
    """Look up a named format constructor (used by the kernel suite)."""
    try:
        return FORMAT_REGISTRY[name.lower()].instantiate(memory)
    except KeyError:
        raise KeyError(
            f"unknown format name {name!r}; choose from "
            f"{sorted(FORMAT_REGISTRY)}"
        )
