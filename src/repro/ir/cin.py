"""Concrete Index Notation (CIN): the scheduling IR of Stardust.

CIN (Kjolstad et al. 2019; Figure 2 of the Stardust paper) makes loop
structure explicit while staying declarative about *how* loops iterate::

    S ::= forall i S | a = e | a += e | S ; S | S where S | S s.t. r*

Scheduling commands (Tables 1 and 2) are tree-to-tree transformations over
CIN. Stardust adds the ``map`` node — a sub-statement replaced by a
backend-specific function or pattern — and hardware metadata on foralls
(parallelization factors bound by the ``environment`` command).

Nodes are immutable and compared by identity: schedules locate and replace
specific occurrences, so two structurally equal sub-statements must remain
distinguishable.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Optional

from repro.immutable import immutable
from repro.ir.index_notation import Access, Assignment, IndexExpr, IndexVar


class CinStmt:
    """Base class of CIN statements."""

    def children(self) -> tuple["CinStmt", ...]:
        return ()

    def map_children(self, fn: Callable[["CinStmt"], "CinStmt"]) -> "CinStmt":
        return self

    # -- traversal helpers ----------------------------------------------------

    def walk(self) -> Iterator["CinStmt"]:
        """Pre-order traversal of the statement tree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def assignments(self) -> tuple["CinAssign", ...]:
        return tuple(s for s in self.walk() if isinstance(s, CinAssign))

    def foralls(self) -> tuple["Forall", ...]:
        return tuple(s for s in self.walk() if isinstance(s, Forall))

    def index_vars(self) -> tuple[IndexVar, ...]:
        """Forall variables in pre-order."""
        seen: dict[int, IndexVar] = {}
        for s in self.walk():
            if isinstance(s, Forall):
                seen.setdefault(id(s.ivar), s.ivar)
        return tuple(seen.values())

    def tensors(self):
        """Distinct tensors referenced anywhere in the tree."""
        seen: dict[int, object] = {}
        for s in self.walk():
            if isinstance(s, CinAssign):
                for t in (s.lhs.tensor, *s.rhs.tensors()):
                    seen.setdefault(id(t), t)
            elif isinstance(s, MapCall):
                for t in s.tensors:
                    seen.setdefault(id(t), t)
        return tuple(seen.values())

    def contains(self, node: "CinStmt") -> bool:
        return any(s is node for s in self.walk())

    def __str__(self) -> str:
        from repro.ir.printer import format_stmt  # local: avoids cycle

        return format_stmt(self)


@immutable(eq=False)
class CinAssign(CinStmt):
    """``a = e`` or ``a += e`` over concrete index variables."""

    lhs: Access
    rhs: IndexExpr
    accumulate: bool = False


@immutable(eq=False)
class Forall(CinStmt):
    """``forall ivar body``, optionally annotated with a hardware
    parallelization factor (bound from the environment by lowering)."""

    ivar: IndexVar
    body: CinStmt
    parallel: int = 1

    def children(self) -> tuple[CinStmt, ...]:
        return (self.body,)

    def map_children(self, fn) -> "Forall":
        return Forall(self.ivar, fn(self.body), self.parallel)


@immutable(eq=False)
class Where(CinStmt):
    """``consumer where producer``: producer materialises a temporary the
    consumer reads (introduced by ``precompute``)."""

    consumer: CinStmt
    producer: CinStmt

    def children(self) -> tuple[CinStmt, ...]:
        return (self.consumer, self.producer)

    def map_children(self, fn) -> "Where":
        return Where(fn(self.consumer), fn(self.producer))


@immutable(eq=False)
class CinSequence(CinStmt):
    """``S1 ; S2 ; ...`` executed in order."""

    stmts: tuple[CinStmt, ...]

    def children(self) -> tuple[CinStmt, ...]:
        return self.stmts

    def map_children(self, fn) -> "CinSequence":
        return CinSequence(tuple(fn(s) for s in self.stmts))


class IndexVarRel:
    """Base class of scheduling relations attached by ``s.t.`` nodes."""


@immutable
class SplitUp(IndexVarRel):
    """``split_up(i, io, ii, c)``: stripmine ``i`` into an outer ``io`` and a
    constant-``c`` inner ``ii`` (outer iterates ceil(N/c))."""

    parent: IndexVar
    outer: IndexVar
    inner: IndexVar
    factor: int

    def __str__(self) -> str:
        return f"split_up({self.parent}, {self.outer}, {self.inner}, {self.factor})"


@immutable
class SplitDown(IndexVarRel):
    """``split_down(i, io, ii, c)``: constant-``c`` *outer* loop."""

    parent: IndexVar
    outer: IndexVar
    inner: IndexVar
    factor: int

    def __str__(self) -> str:
        return f"split_down({self.parent}, {self.outer}, {self.inner}, {self.factor})"


@immutable
class FuseRel(IndexVarRel):
    """``fuse(io, ii, if)``: collapse two nested foralls into one."""

    outer: IndexVar
    inner: IndexVar
    fused: IndexVar

    def __str__(self) -> str:
        return f"fuse({self.outer}, {self.inner}, {self.fused})"


@immutable(eq=False)
class SuchThat(CinStmt):
    """``body s.t. r*``: body constrained by scheduling relations."""

    body: CinStmt
    relations: tuple[IndexVarRel, ...]

    def children(self) -> tuple[CinStmt, ...]:
        return (self.body,)

    def map_children(self, fn) -> "SuchThat":
        return SuchThat(fn(self.body), self.relations)


@immutable(eq=False)
class MapCall(CinStmt):
    """A sub-statement replaced by a backend function ``f`` (Table 2).

    The original statement is retained so correctness checks (and backends
    without the function) can still interpret the semantics.
    """

    original: CinStmt
    backend: str
    func: str
    par: int = 1

    @property
    def tensors(self):
        return self.original.tensors()

    def children(self) -> tuple[CinStmt, ...]:
        return (self.original,)

    def map_children(self, fn) -> "MapCall":
        return MapCall(fn(self.original), self.backend, self.func, self.par)


# ---------------------------------------------------------------------------
# Construction and rewriting utilities
# ---------------------------------------------------------------------------


from repro.ir.index_notation import additive_terms as _additive_terms  # noqa: E402


def make_concrete(assignment: Assignment) -> CinStmt:
    """Expand index notation to canonical CIN (Section 4, eq. 1).

    Free variables (in lhs order) become the outer foralls; reduction
    variables nest inside in first-use order, with the assignment becoming
    a compound (``+=``) assignment when reductions are present.

    When the right-hand side is a sum whose terms range over *different*
    reduction variables (``y(i) = α·A(j,i)·x(j) + β·z(i)``), a single
    nested-forall assignment would re-add the reduction-free terms once per
    reduction iteration. Such statements expand to a sequence inside the
    shared free-variable loops: an initialising assignment for the
    reduction-free terms, then one accumulating loop nest per remaining
    term (the same decomposition TACO performs via merge lattices).
    """
    from repro.ir.index_notation import Neg

    reduction = assignment.reduction_vars
    free = assignment.free_vars
    red_ids = {id(v) for v in reduction}

    terms = _additive_terms(assignment.rhs)
    if not reduction or len(terms) == 1 or all(
        red_ids == {id(v) for v in t.index_vars() if id(v) in red_ids}
        for _sign, t in terms
    ):
        accumulate = assignment.accumulate or bool(reduction)
        stmt: CinStmt = CinAssign(assignment.lhs, assignment.rhs, accumulate)
        for ivar in reversed(free + reduction):
            stmt = Forall(ivar, stmt)
        return stmt

    # Mixed reduction structure: initialise, then accumulate per term.
    init_terms = [
        (s, t)
        for s, t in terms
        if not any(id(v) in red_ids for v in t.index_vars())
    ]
    red_terms = [(s, t) for s, t in terms if (s, t) not in init_terms]

    def combine(signed):
        expr = None
        for sign, t in signed:
            t = Neg(t) if sign < 0 else t
            expr = t if expr is None else expr + t
        return expr

    stmts: list[CinStmt] = []
    if init_terms:
        stmts.append(CinAssign(assignment.lhs, combine(init_terms), False))
    for k, (sign, term) in enumerate(red_terms):
        body: CinStmt = CinAssign(
            assignment.lhs,
            Neg(term) if sign < 0 else term,
            accumulate=True,
        )
        term_reds = [v for v in reduction if any(u is v for u in term.index_vars())]
        for ivar in reversed(term_reds):
            body = Forall(ivar, body)
        stmts.append(body)
    inner: CinStmt = CinSequence(tuple(stmts)) if len(stmts) > 1 else stmts[0]
    for ivar in reversed(free):
        inner = Forall(ivar, inner)
    return inner


def replace_stmt(root: CinStmt, old: CinStmt, new: CinStmt) -> CinStmt:
    """Replace the (identity-matched) occurrence of ``old`` with ``new``."""
    if root is old:
        return new
    return root.map_children(lambda c: replace_stmt(c, old, new))


def rewrite(root: CinStmt, fn: Callable[[CinStmt], Optional[CinStmt]]) -> CinStmt:
    """Bottom-up rewrite: ``fn`` returns a replacement or None to keep."""
    node = root.map_children(lambda c: rewrite(c, fn))
    out = fn(node)
    return node if out is None else out


def enclosing_foralls(root: CinStmt, node: CinStmt) -> tuple[Forall, ...]:
    """Foralls on the path from ``root`` down to ``node`` (outermost first)."""

    def search(s: CinStmt, path: tuple[Forall, ...]) -> Optional[tuple[Forall, ...]]:
        if s is node:
            return path
        next_path = path + (s,) if isinstance(s, Forall) else path
        for c in s.children():
            found = search(c, next_path)
            if found is not None:
                return found
        return None

    found = search(root, ())
    if found is None:
        raise ValueError("node not found under root")
    return found


def forall_chain(stmt: CinStmt) -> tuple[tuple[Forall, ...], CinStmt]:
    """Peel the outermost chain of foralls, returning (loops, inner body)."""
    loops: list[Forall] = []
    s = stmt
    while isinstance(s, (Forall, SuchThat)):
        if isinstance(s, SuchThat):
            s = s.body
            continue
        loops.append(s)
        s = s.body
    return tuple(loops), s


def strip_suchthat(stmt: CinStmt) -> tuple[CinStmt, tuple[IndexVarRel, ...]]:
    """Remove top-level ``s.t.`` wrappers, collecting their relations."""
    rels: list[IndexVarRel] = []
    while isinstance(stmt, SuchThat):
        rels.extend(stmt.relations)
        stmt = stmt.body
    return stmt, tuple(rels)


def with_relations(stmt: CinStmt, relations: tuple[IndexVarRel, ...]) -> CinStmt:
    """Attach relations, merging with an existing top-level ``s.t.``."""
    if not relations:
        return stmt
    body, existing = strip_suchthat(stmt)
    return SuchThat(body, existing + tuple(relations))
