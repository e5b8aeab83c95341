"""The lease loop: one retry/expiry policy over one worker-pool interface.

``repro dispatch`` (sweep chunks) and the ``repro serve`` daemon
(compile requests, on any of its pools) hand work to workers that may
die, hang, detach or answer garbage. :class:`Transport` is what a pool
must answer, and nothing about retries: the slot pools ``local:`` /
``ssh:`` (one long-lived ``repro worker -`` process per slot) and
``inline:`` (:mod:`repro.pipeline.dispatch`) and the elastic
``queue:DIR`` (:mod:`repro.pipeline.fsqueue`) implement it, a test
substitutes a fake.
:class:`LeaseTable` is the policy, written once. It never blocks; the
caller owns the waiting: ``Transport.wait`` between steps, in the
dispatching thread or in the daemon's one lease thread.
"""

from __future__ import annotations

import collections
import dataclasses
import time
from typing import Any, Callable

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = ["LeaseTable", "Outcome", "POLL_INTERVAL", "Transport"]

#: Seconds a pool that cannot say when something changed sleeps per wait.
POLL_INTERVAL = 0.05

#: Seconds without any start, answer or expiry before the table passes
#: the pool's :meth:`Transport.idle_note` to the operator.
IDLE_NOTE_SECONDS = 30.0


class Transport:
    """A worker pool, as the lease table sees it."""

    #: Human-readable pool description (``local:3``).
    name: str = "transport"
    #: Planning width: how many tasks ``chunk_count`` assumes run at once.
    slots: int = 1

    def submit(self, task_id: str, attempt: int, payload: dict) -> int | None:
        """Start the task and return its slot, or publish it for any
        worker to take and return ``None``."""
        raise NotImplementedError

    def poll(self) -> list[tuple[str, str | None, str]]:
        """``(task_id, answer, why)`` per task finished since the last call:
        the worker's raw text (stdout, thread result, result file), or
        ``None`` and why there is none (exit code, stderr tail)."""
        raise NotImplementedError

    def last_alive(self, task_id: str) -> float:
        """``time.monotonic()`` of the task's last sign of life."""
        raise NotImplementedError

    def revoke(self, task_id: str) -> None:
        """Stop the task and drop every trace of it; idempotent."""
        raise NotImplementedError

    def free(self) -> int:
        """How many more tasks may start now."""
        raise NotImplementedError

    def wait(self, timeout: float) -> None:
        """Block until something may have changed, at most ``timeout``."""
        time.sleep(min(timeout, POLL_INTERVAL))

    def close(self, stop: bool = True) -> None:
        """Revoke what is live; ``stop`` also releases attached workers."""
        raise NotImplementedError

    def idle_note(self) -> str:
        """What to tell the operator when nothing has moved for a while."""
        return ""

    def __str__(self) -> str:
        return self.name


@dataclasses.dataclass(frozen=True)
class Outcome:
    """How one task ended: ``value`` from ``accept``, or ``lost`` with why."""

    task_id: str
    attempt: int
    value: Any = None
    lost: str | None = None


@dataclasses.dataclass
class _Lease:
    task_id: str
    payload: dict
    label: str
    attempt: int = 0
    slot: int | None = None


class LeaseTable:
    """Tasks in flight on one :class:`Transport`, and what failure costs.

    Count the attempt, start tasks while the pool has room, judge each
    answer, expire a task silent past the lease (``now - last_alive >
    lease_timeout``), requeue a failure while the retry bound allows and
    report it lost after, drop a late duplicate.
    ``accept(task_id, text)`` judges a worker's answer and returns
    ``(value, why)``: ``why`` alone means unusable (counts against the
    retry bound); both set means usable but worth another attempt while
    the bound allows, and handed back as the value on the last one.
    Truthy while any task is pending or live.
    """

    def __init__(self, transport: Transport, lease_timeout: float,
                 retries: int,
                 accept: Callable[[str, str], tuple[Any, str | None]],
                 on_event: Callable[[str], None]) -> None:
        self.transport = transport
        self.lease_timeout = lease_timeout
        self.retries = retries
        self.leases = 0  #: attempts started, over every task
        self._accept = accept
        self._events = on_event
        self._pending: collections.deque[_Lease] = collections.deque()
        self._live: dict[str, _Lease] = {}
        self._moved = time.monotonic()
        self._leases_total = _metrics.counter(
            "repro_dispatch_leases_total", "Chunk leases granted.")

    def __bool__(self) -> bool:
        return bool(self._pending or self._live)

    def submit(self, task_id: str, payload: dict,
               label: str | None = None) -> None:
        """Queue a task; it starts at once when the pool has room."""
        self._pending.append(_Lease(task_id, payload, label or task_id))
        self._fill()

    def _fill(self) -> None:
        while self._pending and self.transport.free() > 0:
            lease = self._pending.popleft()
            lease.attempt += 1
            self.leases += 1
            self._leases_total.inc()
            # The claiming worker heartbeats against the lease it is held to.
            lease.slot = self.transport.submit(
                lease.task_id, lease.attempt,
                {**lease.payload, "lease_timeout": self.lease_timeout})
            self._live[lease.task_id] = lease
            self._moved = time.monotonic()
            _trace.event("enqueue" if lease.slot is None else "lease",
                         chunk=lease.task_id, slot=lease.slot,
                         attempt=lease.attempt)
            where = "" if lease.slot is None else f" slot {lease.slot}"
            self._events(f"{lease.label} -> {self.transport}{where} "
                         f"(attempt {lease.attempt})")

    def _settle(self, task_id: str, value: Any, why: str | None,
                out: list[Outcome]) -> None:
        lease = self._live.pop(task_id)
        self._moved = time.monotonic()
        retry = lease.attempt <= self.retries
        if why is None or (value is not None and not retry):
            out.append(Outcome(task_id, lease.attempt, value=value))
            return
        _trace.event("chunk.failed", chunk=task_id, attempt=lease.attempt,
                     why=why)
        if retry:
            self._events(f"{lease.label}: {why}; reassigning (attempt "
                         f"{lease.attempt} of {1 + self.retries})")
            self._pending.append(lease)
        else:
            self._events(f"{lease.label}: {why}; retry bound reached, "
                         f"task lost")
            out.append(Outcome(task_id, lease.attempt, lost=why))

    def step(self) -> list[Outcome]:
        """Advance every task as far as it goes without blocking."""
        out: list[Outcome] = []
        for task_id, text, why in self.transport.poll():
            if task_id not in self._live:
                continue  # late duplicate of a settled task
            value = None
            if text is not None:
                value, why = self._accept(task_id, text)
            # Drop any still-queued duplicate attempt before deciding
            # this task's fate.
            self.transport.revoke(task_id)
            self._settle(task_id, value, why, out)
        now = time.monotonic()
        for task_id, lease in list(self._live.items()):
            if now - self.transport.last_alive(task_id) > self.lease_timeout:
                self.transport.revoke(task_id)
                _trace.event("lease.expired", chunk=task_id, slot=lease.slot)
                self._settle(
                    task_id, None,
                    f"lease expired after {self.lease_timeout:g}s "
                    f"(worker hung or detached?)", out)
        self._fill()
        if self._live and now - self._moved >= IDLE_NOTE_SECONDS:
            self._moved = now
            note = self.transport.idle_note()
            if note:
                self._events(note)
        return out
