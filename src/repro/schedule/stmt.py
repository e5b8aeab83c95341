"""The schedulable statement: CIN plus environment and fluent commands.

:class:`IndexStmt` mirrors the paper's user-facing handle (Figure 5)::

    stmt = A.get_index_stmt()
    stmt = stmt.environment("innerPar", 16)
    stmt = stmt.environment("outerPar", 2)
    stmt = stmt.precompute(B[i,j] * C[i,k] * D[k,j], [], [], ws)
    stmt = stmt.accelerate(k, "Spatial", "Reduction", par="innerPar")

Every command returns a *new* IndexStmt; schedules compose functionally.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro.immutable import immutable
from repro.ir.cin import CinAssign, CinStmt, make_concrete, rewrite
from repro.ir.index_notation import Access, Assignment, IndexExpr, IndexVar
from repro.schedule import transform

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tensor.tensor import Tensor

#: Conventional environment variable names (Figure 5, lines 17–18).
INNER_PAR = "innerPar"
OUTER_PAR = "outerPar"

#: The Spatial backend name used by map/accelerate in this paper.
SPATIAL = "Spatial"

#: The backend functions the Spatial lowerer has a rule for: ``Reduction``
#: (a ``ReducePat`` into an on-chip scalar) and ``BulkTransfer`` (one bulk
#: load instead of a copy loop, Section 5.2).
REDUCTION = "Reduction"
BULK_TRANSFER = "BulkTransfer"


@immutable
class IndexStmt:
    """A scheduled tensor algebra statement.

    Attributes:
        cin: the concrete index notation tree.
        assignment: the originating index-notation assignment.
        environment: global hardware configuration variables set by the
            ``environment`` command (Table 2), passed to the backend.
    """

    cin: CinStmt
    assignment: Assignment
    environment_vars: dict[str, int] = dataclasses.field(default_factory=dict)

    @classmethod
    def from_assignment(cls, assignment: Assignment) -> "IndexStmt":
        return cls(make_concrete(assignment), assignment, {})

    def _with(self, cin: CinStmt) -> "IndexStmt":
        return IndexStmt(cin, self.assignment, dict(self.environment_vars))

    # -- TACO scheduling commands (Table 1) ---------------------------------

    def reorder(self, *order: IndexVar) -> "IndexStmt":
        return self._with(transform.reorder(self.cin, order))

    def split_up(
        self, ivar: IndexVar, outer: IndexVar, inner: IndexVar, factor: int
    ) -> "IndexStmt":
        return self._with(
            transform.split(self.cin, ivar, outer, inner, factor, "up")
        )

    def split_down(
        self, ivar: IndexVar, outer: IndexVar, inner: IndexVar, factor: int
    ) -> "IndexStmt":
        return self._with(
            transform.split(self.cin, ivar, outer, inner, factor, "down")
        )

    # ``split`` defaults to split_up, matching common TACO usage.
    split = split_up

    def fuse(self, outer: IndexVar, inner: IndexVar, fused: IndexVar) -> "IndexStmt":
        return self._with(transform.fuse(self.cin, outer, inner, fused))

    def precompute(
        self,
        expr: IndexExpr,
        i_vars: Sequence[IndexVar],
        iw_vars: Sequence[IndexVar],
        workspace,
    ) -> "IndexStmt":
        return self._with(
            transform.precompute(self.cin, expr, i_vars, iw_vars, workspace)
        )

    # -- Stardust scheduling commands (Table 2) ------------------------------

    def environment(self, var: str, value: int) -> "IndexStmt":
        """Set a global hardware configuration variable (Table 2)."""
        env = dict(self.environment_vars)
        env[var] = int(value)
        return IndexStmt(self.cin, self.assignment, env)

    def _resolve_par(self, par: int | str) -> int:
        if isinstance(par, str):
            try:
                return self.environment_vars[par]
            except KeyError:
                raise transform.ScheduleError(
                    f"environment variable {par!r} is not set; call "
                    f".environment({par!r}, value) first"
                )
        return int(par)

    def map(
        self,
        target: CinStmt | IndexVar,
        backend: str,
        func: str,
        par: int | str = 1,
    ) -> "IndexStmt":
        """Map a sub-statement to a backend function (Table 2, ``map``)."""
        return self._with(
            transform.map_stmt(self.cin, target, backend, func, self._resolve_par(par))
        )

    def accelerate(
        self,
        target: CinStmt | IndexVar,
        backend: str = SPATIAL,
        func: str = REDUCTION,
        par: int | str = 1,
    ) -> "IndexStmt":
        """Accelerate a sub-statement (Table 2, ``accelerate``)."""
        return self._with(
            transform.accelerate(
                self.cin, target, backend, func, self._resolve_par(par)
            )
        )

    # -- rebinding ----------------------------------------------------------

    def with_tensors(self, replace: Callable[[Tensor], Tensor]) -> "IndexStmt":
        """The same statement over other tensor objects.

        ``replace`` is called once per distinct tensor (output, inputs,
        workspaces and ``MapCall`` operands alike) and its result stands
        in for that tensor in every access of the CIN and the
        assignment. Index variables, schedule and environment are kept,
        and so is sharing: an expression reached twice is rebuilt once.
        """
        tensors: dict[int, Tensor] = {}
        exprs: dict[int, IndexExpr] = {}

        def expr(e: IndexExpr) -> IndexExpr:
            if id(e) not in exprs:
                if isinstance(e, Access):
                    if id(e.tensor) not in tensors:
                        tensors[id(e.tensor)] = replace(e.tensor)
                    exprs[id(e)] = Access(tensors[id(e.tensor)], e.indices)
                else:
                    exprs[id(e)] = e.map_children(expr)
            return exprs[id(e)]

        def assign(node: CinStmt) -> CinStmt | None:
            if not isinstance(node, CinAssign):
                return None
            return CinAssign(expr(node.lhs), expr(node.rhs), node.accumulate)

        a = self.assignment
        return IndexStmt(rewrite(self.cin, assign),
                         Assignment(expr(a.lhs), expr(a.rhs), a.accumulate),
                         dict(self.environment_vars))

    # -- introspection --------------------------------------------------------

    @property
    def inner_par(self) -> int:
        return self.environment_vars.get(INNER_PAR, 1)

    @property
    def outer_par(self) -> int:
        return self.environment_vars.get(OUTER_PAR, 1)

    def __str__(self) -> str:
        env = ", ".join(f"{k}={v}" for k, v in self.environment_vars.items())
        text = str(self.cin)
        return f"{text} [{env}]" if env else text
