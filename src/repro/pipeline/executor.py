"""Parallel batch executor for evaluation jobs.

Each table and figure of the paper is a fan-out over (kernel, dataset,
platform) combinations that are independent of each other. The executor
expresses that fan-out explicitly: a list of :class:`Job` descriptions is
run over a ``concurrent.futures`` pool and folded back into a list of
:class:`JobResult` in **submission order**, regardless of completion
order, so a parallel run assembles byte-identical artefacts to a serial
one. Failures are isolated per job: one diverging kernel cannot take down
a whole table regeneration.
"""

from __future__ import annotations

import dataclasses
import os
import time
import traceback
from collections.abc import Callable, Sequence
from typing import Any

from repro.obs import trace as _trace
from repro.pipeline.cache import stage_computes

__all__ = ["Job", "JobResult", "default_jobs", "run_jobs"]


@dataclasses.dataclass(frozen=True)
class Job:
    """One unit of evaluation work.

    Attributes:
        key: identifying tuple, conventionally ``(kernel, dataset,
            platform)`` with ``"*"`` for an all-platform sweep.
        fn: a top-level callable.
        args / kwargs: call arguments.
    """

    key: tuple
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = dataclasses.field(default_factory=dict)

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)

    def __str__(self) -> str:
        return ":".join(str(k) for k in self.key)


@dataclasses.dataclass
class JobResult:
    """Outcome of one job: either a value or a captured error."""

    job: Job
    ok: bool
    value: Any = None
    error: str | None = None
    seconds: float = 0.0
    #: Whether any pipeline stage actually *computed* (vs. every stage
    #: answered from the cache) — the dispatch utilization split.
    computed: bool = True

    def unwrap(self) -> Any:
        """The value, re-raising a summarised error for failed jobs."""
        if not self.ok:
            raise RuntimeError(f"job {self.job} failed:\n{self.error}")
        return self.value


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def _run_one(job: Job,
             should_stop: Callable[[], bool] | None = None) -> JobResult:
    if should_stop is not None and should_stop():
        return JobResult(job, False,
                         error=f"job {job} cancelled before it started")
    start = time.perf_counter()
    computes_before = stage_computes()
    with _trace.span("job", key=str(job)) as sp:
        try:
            value = job.run()
            result = JobResult(job, True, value=value,
                               seconds=time.perf_counter() - start,
                               computed=stage_computes() > computes_before)
        except Exception:
            result = JobResult(job, False, error=traceback.format_exc(),
                               seconds=time.perf_counter() - start)
        sp.set(ok=result.ok, computed=result.computed)
    return result


def run_jobs(
    jobs: Sequence[Job],
    max_workers: int | None = None,
    on_result: Callable[[JobResult, int, int], None] | None = None,
    should_stop: Callable[[], bool] | None = None,
) -> list[JobResult]:
    """Run ``jobs`` and return their results in submission order.

    Args:
        jobs: the work list.
        max_workers: width of the thread pool (its workers share the
            in-memory compilation cache); ``None`` reads ``REPRO_JOBS``;
            ``<= 1`` runs serially in the calling thread (no pool
            overhead).
        on_result: progress callback, invoked from the collecting thread
            as ``on_result(result, index, total)`` in submission order
            (long sharded sweeps report per-job progress through this).
        should_stop: cooperative cancellation, checked immediately before
            each job starts; once it returns True the remaining jobs are
            recorded as failed-without-running (the sweep dispatcher
            revokes an expired in-process lease through this). Jobs
            already mid-flight run to completion.
    """
    jobs = list(jobs)
    if max_workers is None:
        max_workers = default_jobs()
    total = len(jobs)

    def _collect(result: JobResult, index: int) -> JobResult:
        if on_result is not None:
            on_result(result, index, total)
        return result

    if max_workers <= 1 or len(jobs) <= 1:
        return [_collect(_run_one(job, should_stop), i)
                for i, job in enumerate(jobs)]
    from concurrent.futures import ThreadPoolExecutor

    workers = min(max_workers, len(jobs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_run_one, job, should_stop) for job in jobs]
        # Collect by submission index, not completion order: deterministic.
        return [_collect(f.result(), i) for i, f in enumerate(futures)]
