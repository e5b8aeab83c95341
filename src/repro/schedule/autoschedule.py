"""A simple auto-scheduler for the Capstan backend.

Section 8.3 of the paper: "With the use of an auto-scheduler, the number
[of input lines] could be cut down from 10 to 6 LOC due to the removal of
the user-provided schedule." This module implements the obvious rule-based
auto-scheduler the paper anticipates:

1. **environment defaults** — vectorize the innermost loop at the full lane
   width; outer-parallelize to the shuffle-network limit when the kernel
   gathers through it (Table 5's par column), otherwise to a compute-
   balanced factor;
2. **scalar-reduction acceleration** — when the innermost loops are pure
   reductions, precompute them into an on-chip scalar workspace and map
   them onto Spatial's ``Reduce`` pattern (the Figure 5 recipe);
3. **bulk-transfer detection** (Section 5.2's automatic pass) — sub-
   statements of the form ``forall(i) t1(i) = t2(i)`` are flagged as bulk
   memory transfers.

The auto-scheduler is deliberately conservative: anything it cannot
pattern-match is left to the default lowering, which is always correct.
"""

from __future__ import annotations

from repro.formats.memory import MemoryRegion
from repro.ir.cin import CinAssign, Forall
from repro.ir.index_notation import Access, Assignment, IndexVar
from repro.ir.iteration import LoweringError
from repro.schedule.stmt import (
    BULK_TRANSFER,
    INNER_PAR,
    OUTER_PAR,
    REDUCTION,
    SPATIAL,
    IndexStmt,
)
from repro.tensor.tensor import Tensor


def _innermost_reduction_var(stmt: IndexStmt) -> IndexVar | None:
    """The innermost forall variable if it is a pure reduction loop."""
    cin = stmt.cin
    loops = []
    s = cin
    while isinstance(s, Forall):
        loops.append(s)
        s = s.body
    if not loops or not isinstance(s, CinAssign):
        return None
    inner = loops[-1]
    if not s.accumulate:
        return None
    lhs_vars = {id(v) for v in s.lhs.indices}
    if id(inner.ivar) in lhs_vars:
        return None
    return inner.ivar


def _kernel_gathers(stmt: IndexStmt) -> bool:
    """Whether any dense operand is indexed by sparse-produced coordinates
    at its deepest-bound mode (the shuffle-network criterion)."""
    from repro.core.memory_analysis import analyze, plan_memory

    try:
        plan = plan_memory(analyze(stmt))
    except LoweringError:
        return False
    return any(b.uses_shuffle for b in plan.bindings.values())


def detect_bulk_transfers(stmt: IndexStmt) -> IndexStmt:
    """Mark ``forall(i) t1(i) = t2(i)`` copies as bulk transfers.

    Implements the automatic pass of Section 5.2 ("detects CIN sub-
    statements that loop over an array transferring a single element of
    data at a time and maps them to bulk memory load or store functions").
    """
    out = stmt
    for node in list(stmt.cin.walk()):
        if not isinstance(node, Forall):
            continue
        body = node.body
        if not isinstance(body, CinAssign) or body.accumulate:
            continue
        if not isinstance(body.rhs, Access):
            continue
        lhs, rhs = body.lhs, body.rhs
        if (
            len(lhs.indices) == 1
            and len(rhs.indices) == 1
            and lhs.indices[0] is node.ivar
            and rhs.indices[0] is node.ivar
            and lhs.tensor.format.is_all_dense
            and rhs.tensor.format.is_all_dense
        ):
            try:
                out = out.map(node.ivar, SPATIAL, BULK_TRANSFER)
            except Exception:
                continue
    return out


def auto_schedule(
    assignment_or_tensor,
    lanes: int = 16,
    shuffle_networks: int = 16,
) -> IndexStmt:
    """Derive a complete Capstan schedule for a bare assignment.

    Accepts a :class:`~repro.ir.index_notation.Assignment` or a tensor with
    a recorded assignment. Returns a scheduled :class:`IndexStmt`
    equivalent to the hand-written recipes of the evaluation kernels.
    """
    if isinstance(assignment_or_tensor, Tensor):
        assignment = assignment_or_tensor.get_assignment()
    elif isinstance(assignment_or_tensor, Assignment):
        assignment = assignment_or_tensor
    else:
        raise TypeError("auto_schedule takes a Tensor or an Assignment")

    stmt = IndexStmt.from_assignment(assignment)

    # Rule 1: environment defaults.
    stmt = stmt.environment(INNER_PAR, lanes)
    outer = shuffle_networks if _kernel_gathers(stmt) else lanes
    stmt = stmt.environment(OUTER_PAR, outer)

    # Rule 2: accelerate a pure innermost scalar reduction.
    red_var = _innermost_reduction_var(stmt)
    if red_var is not None:
        target = [a for a in stmt.cin.assignments()][0]
        ws = Tensor("ws", (), None, MemoryRegion.ON_CHIP)
        try:
            stmt = stmt.precompute(target.rhs, [], [], ws)
            stmt = stmt.accelerate(red_var, SPATIAL, REDUCTION, par=INNER_PAR)
        except Exception:
            # The pattern did not apply cleanly; fall back unscheduled.
            pass

    # Rule 3: bulk-transfer detection on any remaining copy loops.
    stmt = detect_bulk_transfers(stmt)
    return stmt
