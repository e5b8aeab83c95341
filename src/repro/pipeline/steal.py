"""Cost-model-driven work stealing: observed job costs shape the chunks.

The PR 4 dispatcher cuts an artefact's job list into *count*-balanced
round-robin chunks. That partition is blind to cost, and the Stardust
sweep is wildly irregular — compile+simulate time spans orders of
magnitude between a dense GEMV cell and a large blocked SpMM cell — so
the slowest chunk becomes the critical path (the load-imbalance problem
SpDISTAL observes for distributed sparse tensor sweeps). This module
closes that gap in two pieces:

* A **persistent cost table**: every dispatch records each successful
  job's observed wall time (the ``seconds`` field its worker manifest
  already carries) into the staged cache under a new ``cost`` stage,
  keyed on the same (artifact, scale, job-key) coordinates the ``stats``
  stage uses. Workers sharing ``REPRO_CACHE_DIR`` share the table; the
  entries live in the compiler-version tree, so a compiler edit resets
  the model along with the results it described. A recorded cost
  reflects cache warmth too — a job whose stages are already staged
  replays in milliseconds, and *that* is its cost for the next sweep.
* A **chunk planner** (:func:`plan_chunks`): guided self-scheduling over
  costs. Jobs are taken in descending cost order; each chunk claims jobs
  until it holds ``remaining_cost / (2 * slots)`` worth, floored at
  ``min_chunk`` jobs — so early chunks are cost-heavy (the expensive
  jobs start first and nothing big is left to straggle at the end) and
  the tail degenerates into ``min_chunk``-job slivers that an idle
  worker can always steal. The output is a list of explicit-index
  :class:`~repro.pipeline.shard.ShardSpec` chunks: a true partition of
  the canonical job list, so the merged result stays byte-identical to
  the serial run.

When no costs are recorded yet (first sweep, or a fresh compiler
version), :func:`plan_chunks` returns ``None`` and the dispatcher falls
back to uniform round-robin chunking — which itself records costs, so
the *next* ``--steal`` dispatch plans from a warm table.
"""

from __future__ import annotations

from statistics import median
from typing import Iterable

from repro.pipeline.batch import COST_STAGE, cost_key, record_cost
from repro.pipeline.cache import get_stage
from repro.pipeline.shard import ShardManifest, ShardSpec

__all__ = [
    "COST_STAGE",
    "DEFAULT_MIN_CHUNK",
    "explicit_specs",
    "export_costs",
    "load_costs",
    "plan_chunks",
    "record_manifest_costs",
]

#: Default floor on jobs per planned chunk (the steal-tail granularity).
DEFAULT_MIN_CHUNK = 1


# ---------------------------------------------------------------------------
# The cost table (persistent, shared through the staged cache)
# ---------------------------------------------------------------------------


def record_manifest_costs(manifests: Iterable[ShardManifest]) -> int:
    """Record every successful job's wall time from collected manifests.

    Returns the number of entries written. Failed jobs are skipped: a
    traceback's wall time says nothing about the cost of the job done
    right.
    """
    recorded = 0
    for manifest in manifests:
        for entry in manifest.jobs:
            if not entry["ok"]:
                continue
            record_cost(manifest.artifact, manifest.scale,
                        tuple(entry["key"]), entry.get("seconds", 0.0))
            recorded += 1
    return recorded


def load_costs(artifact: str, scale: float,
               keys: list[tuple]) -> dict[tuple, float]:
    """The recorded cost of each job in ``keys`` (absent = never seen)."""
    costs: dict[tuple, float] = {}
    for key in keys:
        seconds = get_stage(COST_STAGE, cost_key(artifact, scale, key))
        if seconds is not None:
            costs[tuple(key)] = float(seconds)
    return costs


def export_costs(artifact: str, scale: float,
                 keys: list[tuple]) -> dict[str, float]:
    """The cost table as a JSON-safe mapping (for CI artifacts/logs)."""
    return {":".join(map(str, key)): seconds
            for key, seconds in sorted(load_costs(artifact, scale,
                                                  keys).items())}


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


def plan_chunks(
    keys: list[tuple],
    costs: dict[tuple, float],
    slots: int,
    min_chunk: int = DEFAULT_MIN_CHUNK,
) -> list[tuple[int, ...]] | None:
    """Cut job positions into cost-balanced chunks (guided scheduling).

    Returns one tuple of 0-based job-list positions per chunk — together
    a partition of ``range(len(keys))`` — or ``None`` when ``costs``
    holds no entry for any job (first sweep: the caller falls back to
    uniform chunking). Jobs with no recorded cost are priced at the
    median of the known costs, so one new kernel joining a warm sweep
    does not distort the plan.

    The plan is **deterministic** in its inputs: the same keys, costs,
    ``slots``, and ``min_chunk`` produce the same chunk boundaries on
    every run (no randomness, no wall-clock reads), which is what makes
    a ``--steal`` dispatch resumable and its manifests auditable.
    """
    n = len(keys)
    if n == 0:
        return None
    known = [costs[key] for key in keys if key in costs]
    if not known:
        return None
    fill = median(known)
    by_position = [costs.get(key, fill) for key in keys]
    # Descending cost, position as the deterministic tie-break.
    order = sorted(range(n), key=lambda p: (-by_position[p], p))
    min_chunk = max(1, min_chunk)

    chunks: list[tuple[int, ...]] = []
    remaining = sum(by_position)
    slots = max(1, slots)
    i = 0
    while i < n:
        target = remaining / (2 * slots)
        take: list[int] = []
        acc = 0.0
        while i < n and (len(take) < min_chunk or acc < target):
            take.append(order[i])
            acc += by_position[order[i]]
            i += 1
        chunks.append(tuple(sorted(take)))
        remaining = max(0.0, remaining - acc)
    return chunks


def explicit_specs(chunks: list[tuple[int, ...]]) -> list[ShardSpec]:
    """Planned position chunks as explicit-index :class:`ShardSpec`\\ s."""
    count = len(chunks)
    return [ShardSpec(i + 1, count, positions)
            for i, positions in enumerate(chunks)]


def describe_plan(
    specs: list[ShardSpec],
    keys: list[tuple],
    costs: dict[tuple, float],
) -> list[dict]:
    """A JSON-safe per-chunk report: size and estimated cost.

    Uploaded by the nightly sweep so chunk-balance regressions (one
    chunk hoarding most of the estimated cost) are inspectable across
    runs without rerunning anything.
    """
    known = list(costs.values())
    fill = median(known) if known else 0.0
    plan = []
    for spec in specs:
        if spec.positions is None:
            raise ValueError(f"describe_plan needs explicit-index specs, "
                             f"got uniform {spec}")
        est = sum(costs.get(keys[p], fill) for p in spec.positions)
        plan.append({
            "chunk": str(spec),
            "jobs": len(spec.positions),
            "estimated_cost_s": round(est, 6),
        })
    return plan
