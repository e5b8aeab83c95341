"""The Stardust scheduling language (Tables 1 and 2)."""

from repro.schedule.autoschedule import auto_schedule, detect_bulk_transfers
from repro.schedule.provenance import Provenance
from repro.schedule.stmt import (
    BULK_TRANSFER,
    INNER_PAR,
    OUTER_PAR,
    REDUCTION,
    SPATIAL,
    IndexStmt,
)
from repro.schedule.transform import ScheduleError, find_forall

__all__ = [
    "BULK_TRANSFER",
    "INNER_PAR",
    "IndexStmt",
    "OUTER_PAR",
    "Provenance",
    "REDUCTION",
    "SPATIAL",
    "ScheduleError",
    "auto_schedule",
    "detect_bulk_transfers",
    "find_forall",
]
