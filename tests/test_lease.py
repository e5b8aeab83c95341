"""The lease policy, once: ``LeaseTable`` over an in-memory ``Transport``.

Every pool (``local:`` / ``ssh:`` / ``inline:`` / ``queue:``) and both
callers (``dispatch``, the ``serve`` daemon) share this one loop, so the
fault matrix is driven here against a fake pool whose clock, answers and
capacity the test controls; the real pools are covered by
``tests/test_dispatch.py`` and ``tests/test_serve.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.pipeline.dispatch import (
    InlineTransport,
    LocalTransport,
    QueueTransport,
    SshTransport,
)
from repro.pipeline.lease import LeaseTable, Transport

LEASE = 10.0


class FakeTransport(Transport):
    """A pool the test scripts: it answers, dies or goes silent on cue."""

    name = "fake:2"

    def __init__(self, slots: int = 2) -> None:
        self.slots = slots
        self.started: list[tuple[str, int]] = []
        self.revoked: list[str] = []
        self.alive: dict[str, float] = {}  # live task -> last sign of life
        self.answers: list[tuple[str, str | None, str]] = []

    def submit(self, task_id, attempt, payload):
        assert payload["lease_timeout"] == LEASE
        self.started.append((task_id, attempt))
        self.alive[task_id] = time.monotonic()
        return len(self.alive) - 1

    def poll(self):
        out, self.answers = self.answers, []
        for task_id, _text, _why in out:
            self.alive.pop(task_id, None)
        return out

    def last_alive(self, task_id):
        return self.alive[task_id]

    def revoke(self, task_id):
        self.revoked.append(task_id)
        self.alive.pop(task_id, None)

    def free(self):
        return self.slots - len(self.alive)

    def close(self, stop=True):
        self.alive.clear()


def accept(task_id, text):
    if text.startswith("ok"):
        return text, None
    if text.startswith("partial"):
        return text, "1 job failed"
    return None, f"garbage from {task_id}"


@pytest.fixture
def pool():
    return FakeTransport()


def make_table(pool, retries=1):
    events: list[str] = []
    return LeaseTable(pool, LEASE, retries, accept, events.append), events


def test_every_pool_is_a_transport():
    for cls in (LocalTransport, SshTransport, InlineTransport,
                QueueTransport):
        assert issubclass(cls, Transport)


def test_answer_is_accepted_and_table_drains(pool):
    table, events = make_table(pool)
    table.submit("t1", {"n": 1}, "task one")
    assert pool.started == [("t1", 1)] and table
    assert table.step() == []
    pool.answers.append(("t1", "ok 1", ""))
    (outcome,) = table.step()
    assert (outcome.task_id, outcome.attempt, outcome.value,
            outcome.lost) == ("t1", 1, "ok 1", None)
    assert not table and table.leases == 1
    assert events == ["task one -> fake:2 slot 0 (attempt 1)"]


def test_dead_worker_is_requeued(pool):
    table, events = make_table(pool)
    table.submit("t1", {})
    pool.answers.append(("t1", None, "worker exited with code 137"))
    assert table.step() == []  # requeued, not reported
    assert pool.started == [("t1", 1), ("t1", 2)]
    assert any("code 137; reassigning (attempt 1 of 2)" in e for e in events)
    pool.answers.append(("t1", "ok", ""))
    assert [o.value for o in table.step()] == ["ok"]
    assert table.leases == 2


def test_silent_past_the_lease_is_revoked_then_requeued(pool):
    table, events = make_table(pool)
    table.submit("t1", {})
    pool.alive["t1"] -= LEASE - 1
    assert table.step() == [] and pool.revoked == []  # still inside the lease
    pool.alive["t1"] -= 2
    assert table.step() == []
    assert pool.revoked == ["t1"]
    assert pool.started == [("t1", 1), ("t1", 2)]
    assert any("lease expired after 10s" in e and "reassigning" in e
               for e in events)


def test_garbage_answer_counts_against_the_bound(pool):
    table, events = make_table(pool, retries=1)
    table.submit("t1", {})
    pool.answers.append(("t1", "???", ""))
    assert table.step() == []
    pool.answers.append(("t1", "???", ""))
    (outcome,) = table.step()
    assert outcome.lost == "garbage from t1" and outcome.attempt == 2
    assert outcome.value is None and not table
    assert any("retry bound reached" in e for e in events)


def test_bound_zero_loses_at_the_first_failure(pool):
    table, _events = make_table(pool, retries=0)
    table.submit("t1", {})
    pool.answers.append(("t1", None, "died"))
    assert [o.lost for o in table.step()] == ["died"]
    assert pool.started == [("t1", 1)]


def test_usable_but_failed_answer_retries_then_is_handed_back(pool):
    table, _events = make_table(pool, retries=1)
    table.submit("t1", {})
    pool.answers.append(("t1", "partial a", ""))
    assert table.step() == []  # bound allows another attempt
    pool.answers.append(("t1", "partial b", ""))
    (outcome,) = table.step()
    assert outcome.value == "partial b" and outcome.lost is None


def test_late_duplicate_is_dropped(pool):
    table, _events = make_table(pool)
    table.submit("t1", {})
    pool.answers += [("t1", "ok first", ""), ("t1", "ok late", ""),
                     ("t9", "ok stranger", "")]
    assert [o.value for o in table.step()] == ["ok first"]
    pool.answers.append(("t1", "ok later still", ""))
    assert table.step() == [] and not table


def test_nothing_starts_without_a_free_slot(pool):
    table, _events = make_table(pool)
    for name in ("t1", "t2", "t3"):
        table.submit(name, {})
    assert pool.free() == 0
    assert pool.started == [("t1", 1), ("t2", 1)]
    assert table.step() == [] and len(pool.started) == 2
    pool.answers.append(("t2", "ok", ""))
    assert [o.task_id for o in table.step()] == ["t2"]
    assert pool.started[-1] == ("t3", 1)  # the freed slot is refilled


def test_settled_answer_withdraws_queued_duplicates(pool):
    """A late answer to a revoked attempt settles the task; the attempt
    published meanwhile must be withdrawn before it is claimed."""
    table, _events = make_table(pool)
    table.submit("t1", {})
    pool.answers.append(("t1", "ok", ""))
    table.step()
    assert pool.revoked == ["t1"]
