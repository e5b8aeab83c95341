"""Tensor index notation: the algorithm language of Stardust.

Users state *what* to compute as algebra over tensor accesses indexed by
index variables (Figure 5, line 13)::

    A[i, j] = B[i, j] * C[i, k] * D[k, j]

This module defines the expression language — :class:`IndexVar`,
:class:`Access`, :class:`Literal` and the arithmetic combinators — plus
:class:`Assignment`, the root of an index-notation statement. Assignments
are converted to concrete index notation (CIN) by
:func:`repro.ir.cin.make_concrete`.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING, Union

from repro.immutable import immutable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tensor.tensor import Tensor

_ivar_counter = itertools.count()


class IndexVar:
    """An index variable ranging over one dimension of an iteration space.

    Index variables are identified by object identity *and* name; two
    variables with the same name are distinct unless they are the same
    object, which lets schedules introduce fresh variables (``i0``, ``i1``)
    without capture.
    """

    __slots__ = ("name", "_uid")

    def __init__(self, name: str | None = None) -> None:
        uid = next(_ivar_counter)
        self.name = name if name is not None else f"i{uid}"
        self._uid = uid

    def __repr__(self) -> str:
        return f"IndexVar({self.name!r})"

    def __str__(self) -> str:
        return self.name


def index_vars(names: str | int) -> tuple[IndexVar, ...]:
    """Create several index variables at once.

    ``index_vars("i j k")`` or ``index_vars(3)``.
    """
    if isinstance(names, int):
        return tuple(IndexVar() for _ in range(names))
    return tuple(IndexVar(n) for n in names.replace(",", " ").split())


class IndexExpr:
    """Base class of index-notation expressions."""

    def __add__(self, other: ExprLike) -> "Add":
        return Add(self, to_expr(other))

    def __radd__(self, other: ExprLike) -> "Add":
        return Add(to_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Sub":
        return Sub(self, to_expr(other))

    def __rsub__(self, other: ExprLike) -> "Sub":
        return Sub(to_expr(other), self)

    def __mul__(self, other: ExprLike) -> "Mul":
        return Mul(self, to_expr(other))

    def __rmul__(self, other: ExprLike) -> "Mul":
        return Mul(to_expr(other), self)

    def __neg__(self) -> "Neg":
        return Neg(self)

    # -- structural helpers -------------------------------------------------

    def children(self) -> tuple["IndexExpr", ...]:
        return ()

    def index_vars(self) -> tuple[IndexVar, ...]:
        """All index variables in the expression, in first-use order."""
        seen: dict[int, IndexVar] = {}
        for a in self.accesses():
            for v in a.indices:
                seen.setdefault(id(v), v)
        return tuple(seen.values())

    def accesses(self) -> tuple["Access", ...]:
        """All tensor accesses in the expression, left-to-right."""
        out: list[Access] = []
        stack: list[IndexExpr] = [self]
        while stack:
            e = stack.pop()
            if isinstance(e, Access):
                out.append(e)
            else:
                stack.extend(reversed(e.children()))
        return tuple(out)

    def tensors(self) -> tuple["Tensor", ...]:
        """Distinct tensors referenced, in first-use order."""
        seen: dict[int, "Tensor"] = {}
        for a in self.accesses():
            seen.setdefault(id(a.tensor), a.tensor)
        return tuple(seen.values())

    def equals(self, other: "IndexExpr") -> bool:
        """Structural equality (same tensors, same index variables)."""
        if type(self) is not type(other):
            return False
        if isinstance(self, Access):
            return self.tensor is other.tensor and all(
                a is b for a, b in zip(self.indices, other.indices, strict=True)
            ) if len(self.indices) == len(other.indices) else False
        if isinstance(self, Literal):
            return self.value == other.value
        mine, theirs = self.children(), other.children()
        if len(mine) != len(theirs):
            return False
        return all(a.equals(b) for a, b in zip(mine, theirs))

    def contains(self, sub: "IndexExpr") -> bool:
        """Whether ``sub`` occurs (structurally) inside this expression."""
        if self.equals(sub):
            return True
        return any(c.contains(sub) for c in self.children())

    def substitute(self, old: "IndexExpr", new: "IndexExpr") -> "IndexExpr":
        """Replace every structural occurrence of ``old`` with ``new``."""
        if self.equals(old):
            return new
        return self.map_children(lambda c: c.substitute(old, new))

    def rename(self, mapping: dict[IndexVar, IndexVar]) -> "IndexExpr":
        """Rename index variables according to ``mapping``."""
        if isinstance(self, Access):
            return Access(
                self.tensor, tuple(mapping.get(v, v) for v in self.indices)
            )
        return self.map_children(lambda c: c.rename(mapping))

    def map_children(self, fn) -> "IndexExpr":
        return self


class Literal(IndexExpr):
    """A scalar constant."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


class Access(IndexExpr):
    """A tensor access ``T(i1, ..., in)``. Scalars are 0-order accesses."""

    __slots__ = ("tensor", "indices")

    def __init__(self, tensor: "Tensor", indices: Iterable[IndexVar] = ()) -> None:
        self.tensor = tensor
        self.indices = tuple(indices)
        if len(self.indices) != tensor.order:
            raise ValueError(
                f"tensor {tensor.name} has order {tensor.order} but was "
                f"accessed with {len(self.indices)} index variables"
            )
        if len({id(v) for v in self.indices}) != len(self.indices):
            raise ValueError(
                f"repeated index variable in access to {tensor.name}; "
                "diagonal accesses are not supported"
            )

    def mode_of(self, ivar: IndexVar) -> int | None:
        """Tensor mode indexed by ``ivar``, or None."""
        for m, v in enumerate(self.indices):
            if v is ivar:
                return m
        return None

    def __str__(self) -> str:
        if not self.indices:
            return self.tensor.name
        return f"{self.tensor.name}({', '.join(v.name for v in self.indices)})"

    def __repr__(self) -> str:
        return f"Access({self.tensor.name}, {[v.name for v in self.indices]})"


class _Binary(IndexExpr):
    __slots__ = ("a", "b")
    op = "?"

    def __init__(self, a: IndexExpr, b: IndexExpr) -> None:
        self.a = a
        self.b = b

    def children(self) -> tuple[IndexExpr, ...]:
        return (self.a, self.b)

    def map_children(self, fn) -> IndexExpr:
        return type(self)(fn(self.a), fn(self.b))

    def __str__(self) -> str:
        return f"({self.a} {self.op} {self.b})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.a!r}, {self.b!r})"


class Add(_Binary):
    """Element-wise addition; co-iteration is a union (∪)."""

    op = "+"


class Sub(_Binary):
    """Element-wise subtraction; co-iteration is a union (∪)."""

    op = "-"


class Mul(_Binary):
    """Element-wise multiplication; co-iteration is an intersection (∩)."""

    op = "*"


class Neg(IndexExpr):
    """Unary negation."""

    __slots__ = ("a",)

    def __init__(self, a: IndexExpr) -> None:
        self.a = a

    def children(self) -> tuple[IndexExpr, ...]:
        return (self.a,)

    def map_children(self, fn) -> IndexExpr:
        return Neg(fn(self.a))

    def __str__(self) -> str:
        return f"(-{self.a})"


ExprLike = Union[IndexExpr, int, float]


def to_expr(x: ExprLike) -> IndexExpr:
    """Coerce a Python number (or expression) to an :class:`IndexExpr`."""
    if isinstance(x, IndexExpr):
        return x
    if isinstance(x, (int, float)):
        return Literal(x)
    raise TypeError(f"cannot convert {x!r} to an index expression")


@immutable
class Assignment:
    """An index-notation statement ``lhs = rhs`` or ``lhs += rhs``.

    Attributes:
        lhs: the result access.
        rhs: the computed expression.
        accumulate: True for ``+=`` (explicit reduction into lhs).
    """

    lhs: Access
    rhs: IndexExpr
    accumulate: bool = False

    def __getstate__(self) -> dict:
        """Fields only: per-process state an engine hangs on the statement
        (the numpy engine's ``_exec_plan``) is never pickled or copied."""
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}

    @property
    def free_vars(self) -> tuple[IndexVar, ...]:
        """Index variables of the result (in lhs order)."""
        return self.lhs.indices

    @property
    def reduction_vars(self) -> tuple[IndexVar, ...]:
        """Index variables summed over (in rhs first-use order)."""
        free = {id(v) for v in self.lhs.indices}
        return tuple(v for v in self.rhs.index_vars() if id(v) not in free)

    @property
    def all_vars(self) -> tuple[IndexVar, ...]:
        """Free variables then reduction variables: the default loop order."""
        return self.free_vars + self.reduction_vars

    def tensors(self) -> tuple["Tensor", ...]:
        seen: dict[int, "Tensor"] = {id(self.lhs.tensor): self.lhs.tensor}
        for t in self.rhs.tensors():
            seen.setdefault(id(t), t)
        return tuple(seen.values())

    def __str__(self) -> str:
        op = "+=" if self.accumulate else "="
        return f"{self.lhs} {op} {self.rhs}"


def iter_subexpressions(expr: IndexExpr) -> Iterator[IndexExpr]:
    """Pre-order traversal of an expression tree."""
    yield expr
    for c in expr.children():
        yield from iter_subexpressions(c)


def additive_terms(expr: IndexExpr) -> list[tuple[int, IndexExpr]]:
    """Flatten a top-level +/− chain into ``(sign, term)`` pairs.

    Index-notation reductions apply *per term*: in
    ``y(i) = b(i) - A(i,j)*x(j)`` the implicit sum over ``j`` ranges only
    over the term containing ``j``. Both the CIN expansion and the dense
    reference semantics use this decomposition.
    """
    if isinstance(expr, Add):
        return additive_terms(expr.a) + additive_terms(expr.b)
    if isinstance(expr, Sub):
        return additive_terms(expr.a) + [
            (-sign, term) for sign, term in additive_terms(expr.b)
        ]
    if isinstance(expr, Neg):
        return [(-sign, term) for sign, term in additive_terms(expr.a)]
    return [(1, expr)]
