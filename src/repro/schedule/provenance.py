"""Index-variable provenance: recovering derived loop bounds.

Split and fuse relations (``s.t.`` clauses) introduce derived index
variables whose iteration spaces are functions of their parents'. The
lowerer queries this module to recover, for any forall variable:

* the *root* variable it derives from (the one tensors are accessed with),
* its place in the root's coordinate order (a split's outer loop is the
  more significant digit),
* its trip count given the root dimension, and
* the affine recombination ``root = outer * factor + inner`` for splits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.ir.cin import FuseRel, IndexVarRel, SplitDown, SplitUp
from repro.ir.index_notation import IndexVar


class Provenance:
    """Query structure over a set of scheduling relations."""

    def __init__(self, relations: Sequence[IndexVarRel] = ()) -> None:
        self.relations = tuple(relations)
        # Keyed by the variable itself, not its ``id()``, so the map
        # survives a pickle round trip (a kernel from the disk store).
        self._parent: dict[IndexVar, tuple[IndexVarRel, str]] = {}
        for rel in self.relations:
            if isinstance(rel, (SplitUp, SplitDown)):
                self._parent[rel.outer] = (rel, "outer")
                self._parent[rel.inner] = (rel, "inner")
            elif isinstance(rel, FuseRel):
                self._parent[rel.fused] = (rel, "fused")

    def is_derived(self, ivar: IndexVar) -> bool:
        return ivar in self._parent

    def roots(self, ivar: IndexVar) -> tuple[IndexVar, ...]:
        """Underived ancestor variables of ``ivar`` (fuse has two)."""
        return tuple(root for root, _path in self.digits(ivar))

    def digits(self, ivar: IndexVar) -> tuple[tuple[IndexVar, tuple[int, ...]], ...]:
        """Where ``ivar``'s loop sits in its roots' coordinates, most
        significant first: one ``(root, path)`` per root, ``path`` ranking
        each split on the way down from the root (outer 0, inner 1)."""
        entry = self._parent.get(ivar)
        if entry is None:
            return ((ivar, ()),)
        rel, role = entry
        if isinstance(rel, (SplitUp, SplitDown)):
            rank = 0 if role == "outer" else 1
            return tuple((r, path + (rank,)) for r, path in self.digits(rel.parent))
        return self.digits(rel.outer) + self.digits(rel.inner)

    def trip_count(self, ivar: IndexVar, dim_of: dict[int, int]) -> int:
        """Trip count of the forall over ``ivar``.

        ``dim_of`` maps ``id(root_var)`` to the root dimension size.
        """
        entry = self._parent.get(ivar)
        if entry is None:
            try:
                return dim_of[id(ivar)]
            except KeyError:
                raise KeyError(f"no dimension bound for root variable {ivar}")
        rel, role = entry
        if isinstance(rel, SplitUp):
            parent = self.trip_count(rel.parent, dim_of)
            return math.ceil(parent / rel.factor) if role == "outer" else rel.factor
        if isinstance(rel, SplitDown):
            parent = self.trip_count(rel.parent, dim_of)
            return rel.factor if role == "outer" else math.ceil(parent / rel.factor)
        assert isinstance(rel, FuseRel)
        return self.trip_count(rel.outer, dim_of) * self.trip_count(rel.inner, dim_of)

    def recombine(self, ivar: IndexVar) -> tuple[IndexVarRel, str] | None:
        """The relation and role deriving ``ivar``, or None for roots."""
        return self._parent.get(ivar)
