"""The co-iteration lowering rewrite system (Section 7, Figure 10).

For every CIN ``forall``, the lowerer must decide how the hardware iterates
the variable's slice of the sparse iteration space. The paper expresses
this as a rewrite system over *iterator contraction sets*::

    I = T1 ◦ T2 ◦ ... ◦ Tn,   ◦ ∈ {∪, ∩}

where each ``Ti`` is the tensor level indexed by the forall variable and
``◦`` comes from the expression structure (multiplication contributes ∩,
addition ∪). Iterator formats are ``U`` (dense / universe), ``C``
(compressed), and ``B`` (bit vector).

This module takes the contraction set built by :mod:`repro.ir.iteration`
(shared with the CPU backend's merge lattice) and applies the Figure 10
rules — universe elimination, compressed-versus-universe
locate, compressed→bit-vector conversion, two-vector scanners, and the
largest-prefix base rule — producing an :class:`IterationStrategy` the
Spatial lowerer turns into ``Foreach``/``Reduce``/``Scan`` patterns. Rule
applications are recorded in :attr:`IterationStrategy.trace` so tests can
assert which rewrites fired.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.ir.index_notation import Access, IndexExpr, IndexVar
from repro.ir.iteration import (
    IterTerm,
    LevelIterator,
    LoweringError,
    iteration_algebra,
    level_iterator,
)

# -- the rewrite result ---------------------------------------------------------


@dataclasses.dataclass
class IterationStrategy:
    """How one forall lowers to the declarative-sparse model.

    Attributes:
        ivar: the forall variable.
        kind: ``dense`` (counter loop over the universe), ``compressed``
            (single compressed iterator), ``singleton`` (one coordinate
            derived positionally from the parent level), or ``scan``
            (bit-vector co-iteration of two sparse operands).
        driving: the compressed/bit-vector iterators that drive iteration
            (empty for dense; one for compressed; two for scan).
        located: dense-level accesses resolved by coordinate (random access
            / locate) rather than iterated.
        op: ``and``/``or`` for scans, None otherwise.
        result_iterator: the lhs iterator at this level, if the output has
            a mode here (determines whether result positions are counted).
        trace: rewrite-rule applications, in order (for tests and debug).
    """

    ivar: IndexVar
    kind: str
    driving: tuple[LevelIterator, ...]
    located: tuple[LevelIterator, ...]
    op: Optional[str] = None
    result_iterator: Optional[LevelIterator] = None
    trace: tuple[str, ...] = ()

    @property
    def result_compressed(self) -> bool:
        return (
            self.result_iterator is not None
            and self.result_iterator.level_format.is_compressed
        )

    def describe(self) -> str:
        names = ", ".join(str(d) for d in self.driving) or "U"
        out = f" -> {self.result_iterator}" if self.result_iterator else ""
        return f"forall {self.ivar.name}: {self.kind}[{names}]{out}"


def _op_symbol(op: str) -> str:
    return "and" if op == "intersect" else "or"


def build_strategy(
    ivar: IndexVar,
    rhs_exprs: list[IndexExpr],
    lhs_accesses: list[Access],
) -> IterationStrategy:
    """Apply the Figure 10 rewrite system for one forall variable.

    ``rhs_exprs`` are the right-hand sides of every assignment dominated by
    the forall (normally one); ``lhs_accesses`` the corresponding results.
    """
    trace: list[str] = []

    terms = [t for e in rhs_exprs if (t := iteration_algebra(e, ivar)) is not None]
    if len(terms) > 1:
        # Multiple assignments under one forall co-iterate the union of
        # their spaces; supported only when everything is dense below.
        combined = terms[0]
        for t in terms[1:]:
            combined = IterTerm("union", a=combined, b=t)
        term = combined
    elif terms:
        term = terms[0]
    else:
        term = None

    result_iterator = None
    for lhs in lhs_accesses:
        it = level_iterator(lhs, ivar)
        if it is not None and not it.tensor.is_on_chip:
            result_iterator = it
            break
        if it is not None and result_iterator is None:
            result_iterator = it

    if term is None:
        # Only the result involves ivar: iterate its dense space.
        trace.append("lowerIter[U] => Foreach/Reduce (result-only)")
        return IterationStrategy(
            ivar, "dense", (), (), None, result_iterator, tuple(trace)
        )

    leaves = term.leaves()
    universes = tuple(l for l in leaves if l.symbol == "U")
    sparse = tuple(l for l in leaves if l.symbol in ("C", "B"))
    singles = tuple(l for l in leaves if l.symbol == "S")

    # -- Singleton rule: S ∩ U => S (bind the parent's coordinate) ---------------
    if singles:
        if len(singles) > 1 or sparse:
            raise LoweringError(
                f"forall {ivar.name} co-iterates a singleton level with "
                f"other sparse operands ({term}); singleton levels derive "
                f"one coordinate per parent position and cannot drive "
                f"Capstan scanners. Convert the operands to compressed "
                f"formats (repro convert) or reshape the computation."
            )
        if _has_union(term):
            raise LoweringError(
                f"forall {ivar.name} unions a singleton level with the "
                f"universe ({term}); COO-style levels only support "
                f"intersection (multiplication) with dense operands."
            )
        it = singles[0]
        if universes:
            trace.append("lowerIter[S1 ∩ U] => lowerIter(S1) (locate U)")
        trace.append("lowerIter[S1] => emit Singleton(crd(parent pos)) bind")
        return IterationStrategy(
            ivar, "singleton", (it,), universes, None, result_iterator,
            tuple(trace),
        )

    # -- Universe rules: U ∪ _ => U ; U ∩ U => U --------------------------------
    if not sparse:
        trace.append("lowerIter[U ∩/∪ U] => lowerIter(U) => Foreach/Reduce")
        return IterationStrategy(
            ivar, "dense", (), universes, None, result_iterator, tuple(trace)
        )
    if _has_union_with_universe(term):
        # A union with the universe iterates the whole dimension; sparse
        # operands become located (tested per-coordinate via bit vectors).
        trace.append("lowerIter[U ∪ _] => lowerIter(U)")
        return IterationStrategy(
            ivar, "dense", (), leaves, None, result_iterator, tuple(trace)
        )

    # -- Compression rules: C ∩ U => C (locate the dense side) -------------------
    if len(sparse) == 1:
        it = sparse[0]
        if universes:
            trace.append(f"lowerIter[{it.symbol}1 ∩ U] => lowerIter({it.symbol}1)")
        if it.symbol == "B":
            trace.append("lowerIter[B1] => emit scanner, Foreach(pos)")
            return IterationStrategy(
                ivar, "scan", (it,), universes, "and", result_iterator, tuple(trace)
            )
        trace.append("lowerIter[C1] => emit Foreach(pos)")
        return IterationStrategy(
            ivar, "compressed", (it,), universes, None, result_iterator, tuple(trace)
        )

    # -- Co-iteration: C1 ◦ C2 => genBitvector; B1 ◦ B2 => scanner ---------------
    if len(sparse) == 2:
        op = _root_sparse_op(term)
        for it in sparse:
            if it.symbol == "C":
                trace.append(f"lowerIter[C1 ◦ C2] => emit B = genBitvector({it.tensor.name})")
        sym = _op_symbol(op)
        trace.append(f"lowerIter[B1 {'∪' if sym == 'or' else '∩'} B2] => emit Foreach(Scan(..{sym}..))")
        return IterationStrategy(
            ivar, "scan", sparse, universes, sym, result_iterator, tuple(trace)
        )

    # -- Base rule: largest matching prefix ---------------------------------------
    trace.append(
        "lowerIter[_] base rule: no two-input match; schedule the expression "
        "as iterated two-input contractions (the paper's Plus3 strategy)"
    )
    raise LoweringError(
        f"forall {ivar.name} co-iterates {len(sparse)} sparse operands "
        f"({term}); Capstan scanners combine at most two. Reshape the "
        "computation with precompute into iterated two-input contractions."
    )


def _has_union(term: IterTerm) -> bool:
    if term.op is None:
        return False
    if term.op == "union":
        return True
    return _has_union(term.a) or _has_union(term.b)


def _has_union_with_universe(term: IterTerm) -> bool:
    if term.op is None:
        return False
    if term.op == "union":
        for side in (term.a, term.b):
            if side.op is None and side.leaf.symbol == "U":
                return True
            if side.op is not None and _has_union_with_universe(side):
                return True
        return False
    return _has_union_with_universe(term.a) or _has_union_with_universe(term.b)


def _root_sparse_op(term: IterTerm) -> str:
    """The operator combining the two sparse leaves (after U-elimination)."""
    if term.op is None:
        raise LoweringError("expected a combination node")
    a_sparse = any(l.symbol in ("C", "B") for l in term.a.leaves())
    b_sparse = any(l.symbol in ("C", "B") for l in term.b.leaves())
    if a_sparse and b_sparse:
        return term.op
    inner = term.a if a_sparse else term.b
    if inner.op is None:
        raise LoweringError("expected two sparse operands")
    return _root_sparse_op(inner)


# ---------------------------------------------------------------------------
# Fused-pipeline stream compatibility (FuseFlow cut rule)
# ---------------------------------------------------------------------------


def stream_compatible(producer_fmt, consumer_fmt) -> str | None:
    """Can a producer's output levels stream into a consumer co-iterator?

    Returns ``None`` when the connection can stream level-by-level, or a
    human-readable cut reason when the formats force materialization.
    Following Chou et al.'s capability records, streaming requires the two
    sides to agree structurally (same level kinds and mode ordering) and
    every produced level to be *ordered* and *unique*: a consumer iterator
    merges its inputs positionally, so out-of-order or duplicated coordinates
    would need a materialized sort/dedup pass in between.
    """
    if (producer_fmt.mode_formats != consumer_fmt.mode_formats
            or producer_fmt.mode_ordering != consumer_fmt.mode_ordering):
        return (
            f"format mismatch (producer stores {producer_fmt}, consumer "
            f"iterates {consumer_fmt}); conversion requires materialization"
        )
    for level, mf in enumerate(producer_fmt.mode_formats):
        if not mf.ordered:
            return (
                f"unordered producer (level {level} is {mf}); the consumer "
                "co-iterator needs coordinates in order"
            )
        if not mf.unique:
            return (
                f"non-unique producer (level {level} is {mf}); duplicate "
                "coordinates would double-count in the consumer"
            )
    return None
