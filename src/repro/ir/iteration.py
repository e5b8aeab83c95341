"""The iterator contraction-set algebra (Section 7).

For one ``forall`` variable, every tensor level it indexes is a
:class:`LevelIterator` and the expression structure combines them into a
contraction set ``I = T1 ◦ T2 ◦ ... ◦ Tn`` with ``◦ ∈ {∪, ∩}``
(multiplication contributes ∩, addition ∪) — an :class:`IterTerm`. Both
consumers sit above this module: the Figure 10 rewrite system
(:mod:`repro.core.coiteration`) turns the term into scanner patterns, and
TACO's merge lattice (:mod:`repro.ir.lattice`) enumerates its points for
the CPU backend.
"""

from __future__ import annotations

from typing import Optional

from repro.immutable import immutable
from repro.ir.index_notation import (
    Access,
    Add,
    IndexExpr,
    IndexVar,
    Literal,
    Mul,
    Neg,
    Sub,
)


class LoweringError(ValueError):
    """The statement cannot be lowered to the declarative-sparse model."""


@immutable
class LevelIterator:
    """One tensor level participating in a forall's iteration.

    Fixed when the iterator is built (not fields): ``tensor``, the
    accessed tensor; ``level_format``, its format at ``level``; and
    ``symbol``, the Figure 10 iterator-format symbol (U, C, B, or S).
    """

    access: Access
    mode: int  # tensor mode indexed by the forall variable
    level: int  # storage level holding that mode

    def __post_init__(self) -> None:
        tensor = self.access.tensor
        fmt = tensor.format
        level_format = fmt.level_format(self.level)
        # On-chip workspaces keep compressed structure as bit vectors.
        symbol = ("B" if fmt.is_on_chip and level_format.is_compressed
                  else level_format.iterator_symbol)
        self.__dict__.update(tensor=tensor, level_format=level_format,
                             symbol=symbol)

    def __str__(self) -> str:
        return f"{self.tensor.name}{self.level + 1}:{self.symbol}"


# -- iteration algebra -------------------------------------------------------


@immutable
class IterTerm:
    """A node of the contraction-set algebra: leaf or ∪/∩ combination."""

    op: Optional[str]  # None for leaves, "union" or "intersect" otherwise
    leaf: Optional[LevelIterator] = None
    a: Optional["IterTerm"] = None
    b: Optional["IterTerm"] = None

    def leaves(self) -> tuple[LevelIterator, ...]:
        if self.op is None:
            return (self.leaf,)
        return self.a.leaves() + self.b.leaves()

    def __str__(self) -> str:
        if self.op is None:
            return str(self.leaf)
        sym = "∪" if self.op == "union" else "∩"
        return f"({self.a} {sym} {self.b})"


def level_iterator(access: Access, ivar: IndexVar) -> Optional[LevelIterator]:
    mode = access.mode_of(ivar)
    if mode is None:
        return None
    level = access.tensor.format.level_of_mode(mode)
    return LevelIterator(access, mode, level)


def iteration_algebra(expr: IndexExpr, ivar: IndexVar) -> Optional[IterTerm]:
    """Build the contraction-set expression of ``ivar`` over ``expr``.

    Multiplication intersects its operands' iteration spaces; addition and
    subtraction union them. Operands that do not involve ``ivar`` are
    neutral and drop out (they are loop-invariant at this level).
    """
    if isinstance(expr, Access):
        it = level_iterator(expr, ivar)
        return IterTerm(None, leaf=it) if it is not None else None
    if isinstance(expr, Literal):
        return None
    if isinstance(expr, Neg):
        return iteration_algebra(expr.a, ivar)
    if isinstance(expr, (Add, Sub, Mul)):
        a = iteration_algebra(expr.a, ivar)
        b = iteration_algebra(expr.b, ivar)
        if a is None:
            return b
        if b is None:
            return a
        op = "intersect" if isinstance(expr, Mul) else "union"
        return IterTerm(op, a=a, b=b)
    raise LoweringError(f"cannot analyse iteration of {type(expr).__name__}")
