"""Merge lattices: TACO's co-iteration representation (Section 9).

TACO "defines co-iteration as only the intersection of tensor coordinates
[and] uses an iteration lattice IR to decompose all unions of coordinates
into disjoint intersections", emitting multi-way merge loops — in contrast
to Stardust's bit-vector scanners. This module implements that lattice for
the CPU backend and for the iteration-space algebra the CPU executor uses.

A :class:`MergeLattice` for one index variable enumerates *lattice
points*: the subsets of sparse iterators that can be simultaneously
present at a coordinate, ordered by inclusion. The top point co-iterates
every operand; lower points take over as operands are exhausted. Dense
operands (the universe) are present at every point.

Construction follows TACO's rules:

* a single iterator is a one-point lattice;
* multiplication takes the *product* of sub-lattice points (an operand
  absent on either side annihilates the term);
* addition takes the product plus both sub-lattices (either side may
  continue alone).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.ir.index_notation import IndexExpr, IndexVar
from repro.ir.iteration import IterTerm, LevelIterator, iteration_algebra


@dataclasses.dataclass(frozen=True)
class LatticePoint:
    """One lattice point: the sparse iterators present at a coordinate."""

    iterators: frozenset[int]  # ids of the LevelIterator tensors present

    def dominates(self, other: "LatticePoint") -> bool:
        return self.iterators >= other.iterators

    def __len__(self) -> int:
        return len(self.iterators)


@dataclasses.dataclass
class MergeLattice:
    """The merge lattice of one forall variable over one expression."""

    ivar: IndexVar
    sparse: tuple[LevelIterator, ...]
    has_universe: bool  # a dense operand keeps the whole dimension live
    points: tuple[LatticePoint, ...]  # descending by size; top first

    @property
    def top(self) -> Optional[LatticePoint]:
        return self.points[0] if self.points else None

    @property
    def is_neutral(self) -> bool:
        """The expression does not involve the variable at all: it places
        no constraint on (and contributes nothing to) the iteration."""
        return not self.points and not self.has_universe and not self.sparse

    @property
    def is_intersection(self) -> bool:
        """True when iteration ends once any operand is exhausted."""
        return len(self.points) == 1 and not self.has_universe

    @property
    def is_full_union(self) -> bool:
        """True when every operand subset has its own point."""
        n = len(self.sparse)
        return n > 0 and len(self.points) == 2 ** n - 1

    def describe(self) -> str:
        names = {id(it.tensor): it.tensor.name for it in self.sparse}
        rows = []
        for p in self.points:
            members = sorted(names[t] for t in p.iterators)
            rows.append("{" + ", ".join(members) + "}")
        kind = "U ∪ ..." if self.has_universe else ""
        return f"lattice({self.ivar.name}){kind}: " + " > ".join(rows)


def _point_sets(term: IterTerm) -> tuple[set[frozenset[int]], bool]:
    """(lattice point sets, has_universe) for a contraction term."""
    if term.op is None:
        it = term.leaf
        if it.symbol == "U":
            return set(), True
        return {frozenset([id(it.tensor)])}, False
    a_pts, a_univ = _point_sets(term.a)
    b_pts, b_univ = _point_sets(term.b)
    if term.op == "intersect":
        if a_univ and b_univ:
            return set(), True
        if a_univ:
            return b_pts, False
        if b_univ:
            return a_pts, False
        return {pa | pb for pa in a_pts for pb in b_pts}, False
    # union
    if a_univ or b_univ:
        return set(), True
    product = {pa | pb for pa in a_pts for pb in b_pts}
    return product | a_pts | b_pts, False


def build_lattice(expr: IndexExpr, ivar: IndexVar) -> MergeLattice:
    """The merge lattice of ``ivar`` over ``expr``.

    An expression that never mentions ``ivar`` yields a *neutral* lattice
    (no points, no universe): it neither drives nor widens the iteration.
    """
    term = iteration_algebra(expr, ivar)
    if term is None:
        return MergeLattice(ivar, (), False, ())
    sparse = tuple(
        l for l in term.leaves() if l.symbol in ("C", "B")
    )
    point_sets, has_universe = _point_sets(term)
    points = tuple(
        sorted((LatticePoint(frozenset(p)) for p in point_sets),
               key=len, reverse=True)
    )
    return MergeLattice(ivar, sparse, has_universe, points)


def iteration_space(
    lattice: MergeLattice,
    coords_of: dict[int, np.ndarray],
    dim: int,
) -> np.ndarray:
    """The exact coordinates the lattice visits.

    ``coords_of`` maps ``id(tensor)`` to the sorted coordinate array of
    that operand's current segment. A universe operand (or an empty
    lattice) visits the whole dimension; otherwise each lattice point
    contributes the intersection of its members' coordinates, and the
    visited set is their union — precisely the coordinates TACO's merged
    while-loops touch.
    """
    if lattice.has_universe or not lattice.points:
        return np.arange(dim, dtype=np.int64)
    visited: Optional[np.ndarray] = None
    for point in lattice.points:
        inter: Optional[np.ndarray] = None
        for tid in point.iterators:
            c = coords_of[tid]
            inter = c if inter is None else np.intersect1d(inter, c,
                                                           assume_unique=True)
        if inter is None:
            continue
        visited = inter if visited is None else np.union1d(visited, inter)
    return visited if visited is not None else np.zeros(0, dtype=np.int64)
