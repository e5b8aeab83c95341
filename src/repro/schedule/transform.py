"""CIN-to-CIN scheduling transformations (Tables 1 and 2 of the paper).

Each function takes a CIN tree and returns a new tree; none mutate. The
fluent user API lives in :class:`repro.schedule.stmt.IndexStmt`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.ir.cin import (
    CinAssign,
    CinStmt,
    Forall,
    FuseRel,
    MapCall,
    SplitDown,
    SplitUp,
    Where,
    enclosing_foralls,
    replace_stmt,
    strip_suchthat,
    with_relations,
)
from repro.ir.index_notation import Access, IndexExpr, IndexVar


class ScheduleError(ValueError):
    """A scheduling command could not be applied to the statement."""


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def find_forall(stmt: CinStmt, ivar: IndexVar) -> Forall:
    """The (unique) forall over ``ivar`` in ``stmt``."""
    found = [s for s in stmt.walk() if isinstance(s, Forall) and s.ivar is ivar]
    if not found:
        raise ScheduleError(f"no forall over {ivar} in statement")
    if len(found) > 1:
        raise ScheduleError(f"multiple foralls over {ivar}; statement is malformed")
    return found[0]


def _find_target_assign(stmt: CinStmt, expr: IndexExpr) -> CinAssign:
    """The assignment whose rhs contains ``expr`` structurally."""
    for asg in stmt.assignments():
        if asg.rhs.contains(expr):
            return asg
    raise ScheduleError(f"no assignment contains expression {expr}")


def _contains_var_outside(expr: IndexExpr, sub: IndexExpr, ivar: IndexVar) -> bool:
    """Whether ``ivar`` occurs in ``expr`` outside the (removed) ``sub``."""

    def walk(e: IndexExpr) -> bool:
        if e.equals(sub):
            return False
        if isinstance(e, Access) and any(v is ivar for v in e.indices):
            return True
        return any(walk(c) for c in e.children())

    return walk(expr)


# ---------------------------------------------------------------------------
# TACO commands (Table 1)
# ---------------------------------------------------------------------------


def reorder(stmt: CinStmt, order: Sequence[IndexVar]) -> CinStmt:
    """Permute a straight forall chain so listed variables appear in the
    given relative order (Table 1, ``reorder``)."""
    body, rels = strip_suchthat(stmt)
    chain: list[Forall] = []
    s = body
    while isinstance(s, Forall):
        chain.append(s)
        s = s.body
    chain_vars = [f.ivar for f in chain]
    listed = [v for v in order]
    missing = [v for v in listed if v not in chain_vars]
    if missing:
        raise ScheduleError(
            f"reorder: {[v.name for v in missing]} not in forall chain "
            f"{[v.name for v in chain_vars]}"
        )
    queue = iter(listed)
    new_vars = [next(queue) if v in listed else v for v in chain_vars]
    par_of = {id(f.ivar): f.parallel for f in chain}
    inner: CinStmt = s
    for v in reversed(new_vars):
        inner = Forall(v, inner, parallel=par_of[id(v)])
    return with_relations(inner, rels)


def split(
    stmt: CinStmt,
    ivar: IndexVar,
    outer: IndexVar,
    inner: IndexVar,
    factor: int,
    direction: str = "up",
) -> CinStmt:
    """Stripmine ``forall ivar`` into nested ``outer``/``inner`` foralls
    (Table 1, ``split_up``/``split_down``)."""
    if factor <= 0:
        raise ScheduleError("split factor must be positive")
    if direction not in ("up", "down"):
        raise ScheduleError(f"unknown split direction {direction!r}")
    target = find_forall(stmt, ivar)
    nested = Forall(outer, Forall(inner, target.body), parallel=target.parallel)
    new_stmt = replace_stmt(stmt, target, nested)
    rel_cls = SplitUp if direction == "up" else SplitDown
    return with_relations(new_stmt, (rel_cls(ivar, outer, inner, factor),))


def fuse(stmt: CinStmt, outer: IndexVar, inner: IndexVar, fused: IndexVar) -> CinStmt:
    """Collapse directly nested foralls ``outer``/``inner`` into ``fused``
    (Table 1, ``fuse``)."""
    target = find_forall(stmt, outer)
    if not isinstance(target.body, Forall) or target.body.ivar is not inner:
        raise ScheduleError(
            f"fuse: forall({inner}) is not directly nested inside forall({outer})"
        )
    fused_loop = Forall(fused, target.body.body, parallel=target.parallel)
    new_stmt = replace_stmt(stmt, target, fused_loop)
    return with_relations(new_stmt, (FuseRel(outer, inner, fused),))


def precompute(
    stmt: CinStmt,
    expr: IndexExpr,
    i_vars: Sequence[IndexVar],
    iw_vars: Sequence[IndexVar],
    workspace,
) -> CinStmt:
    """Precompute ``expr`` into ``workspace`` (Table 1, ``precompute``).

    Inserts a ``where`` node whose producer computes ``expr`` (with
    ``i_vars`` renamed to ``iw_vars``) into the workspace tensor, and whose
    consumer reads the workspace instead of recomputing. Reduction loops
    whose variable occurs only inside ``expr`` move into the producer as an
    accumulation (the Figure 5 scalar-reduction pattern).
    """
    i_vars = tuple(i_vars)
    iw_vars = tuple(iw_vars)
    if len(i_vars) != len(iw_vars):
        raise ScheduleError("precompute: i_vars and iw_vars must align")
    if workspace.order != len(iw_vars):
        raise ScheduleError(
            f"workspace {workspace.name} has order {workspace.order} but "
            f"{len(iw_vars)} workspace variables were given"
        )
    asg = _find_target_assign(stmt, expr)
    loops = enclosing_foralls(stmt, asg)
    lhs_vars = set(map(id, asg.lhs.indices))
    expr_vars = set(map(id, expr.index_vars()))
    i_var_ids = set(map(id, i_vars))

    # Reduction loops absorbed into the producer: their variable is summed
    # (not free in lhs), occurs in expr, is not a workspace axis, and is not
    # referenced by the rest of the rhs.
    absorbed = [
        f
        for f in loops
        if id(f.ivar) in expr_vars
        and id(f.ivar) not in lhs_vars
        and id(f.ivar) not in i_var_ids
        and not _contains_var_outside(asg.rhs, expr, f.ivar)
    ]
    absorbed_ids = {id(f.ivar) for f in absorbed}

    # Producer: forall(iw_vars) forall(absorbed) ws(iw*) (+)= expr[iw/i]
    rename = dict(zip(i_vars, iw_vars))
    prod_expr = expr.rename(rename)
    prod_assign = CinAssign(
        Access(workspace, iw_vars), prod_expr, accumulate=bool(absorbed)
    )
    producer: CinStmt = prod_assign
    for f in reversed(absorbed):
        producer = Forall(f.ivar, producer, parallel=f.parallel)
    for v in reversed(iw_vars):
        producer = Forall(v, producer)

    # Consumer assignment: expr replaced by a workspace read; it still
    # accumulates only if reduction loops remain around it.
    new_rhs = asg.rhs.substitute(expr, Access(workspace, i_vars))
    rhs_vars = set(map(id, new_rhs.index_vars()))
    remaining_red = [
        f
        for f in loops
        if id(f.ivar) not in absorbed_ids
        and id(f.ivar) not in lhs_vars
        and id(f.ivar) in rhs_vars
    ]
    # The consumer keeps accumulating if reduction loops remain around it,
    # or if the lhs is initialised by another statement (sequence-split CIN)
    # so that `+=` carries semantic weight beyond the absorbed loops.
    lhs_initialised_elsewhere = any(
        a is not asg and a.lhs.tensor is asg.lhs.tensor
        for a in stmt.assignments()
    )
    consumer_acc = bool(remaining_red) or (asg.accumulate and lhs_initialised_elsewhere)
    consumer_assign = CinAssign(asg.lhs, new_rhs, accumulate=consumer_acc)

    # Where placement: just above the outermost loop over an i_var; with no
    # i_vars, at the assignment itself. Absorbed reduction loops move into
    # the producer, so the splice must also cover the outermost of them.
    key_level = len(loops)
    for level, f in enumerate(loops):
        if id(f.ivar) in i_var_ids:
            key_level = level
            break
    for level, f in enumerate(loops):
        if id(f.ivar) in absorbed_ids:
            key_level = min(key_level, level)
            break

    def rebuild(level: int) -> CinStmt:
        if level == len(loops):
            return consumer_assign
        f = loops[level]
        if id(f.ivar) in absorbed_ids:
            return rebuild(level + 1)
        return Forall(f.ivar, rebuild(level + 1), parallel=f.parallel)

    consumer = rebuild(key_level)
    where = Where(consumer, producer)

    # Splice: replace the subtree at key_level with the where node.
    old_subtree: CinStmt = loops[key_level] if key_level < len(loops) else asg
    return replace_stmt(stmt, old_subtree, where)


# ---------------------------------------------------------------------------
# Stardust commands (Table 2)
# ---------------------------------------------------------------------------


def map_stmt(
    stmt: CinStmt,
    target: CinStmt | IndexVar,
    backend: str,
    func: str,
    par: int = 1,
) -> CinStmt:
    """Replace ``target`` with a backend function call (Table 2, ``map``)."""
    node = find_forall(stmt, target) if isinstance(target, IndexVar) else target
    if not stmt.contains(node):
        raise ScheduleError("map: target statement not found in tree")
    return replace_stmt(stmt, node, MapCall(node, backend, func, par))


def accelerate(
    stmt: CinStmt,
    target: CinStmt | IndexVar,
    backend: str,
    func: str,
    par: int = 1,
) -> CinStmt:
    """Accelerate a sub-statement (Table 2, ``accelerate``; eq. 5–6).

    The compound command precomputes the operands of the sub-statement into
    on-chip tensors and maps the rewritten statement onto the backend
    function ``func``. In this implementation the on-chip staging of
    operand sub-arrays is carried out by the automatic memory analysis
    (Section 6), so ``accelerate`` reduces to marking the map — matching
    how Figure 5 uses it (the generated Figure 11 code stages C/D values
    into SRAM without explicit per-tensor precomputes).
    """
    return map_stmt(stmt, target, backend, func, par)
