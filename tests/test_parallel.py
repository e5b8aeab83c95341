"""``repro.parallel``: ordered pieces on every CPU the process may use.

The byte-identity of its two clients at one CPU and at two is checked
where they are (the numpy golden and blocked-gather tests in
``test_numpy_exec.py``, the partition golden in ``test_partition.py``);
these tests check the helper itself: piece order, how many threads,
exceptions only after every chunk, and no deadlock when it is called
from a worker of another pool or from one of its own threads.
"""

from __future__ import annotations

import threading

import pytest

from repro import parallel
from repro.parallel import map_chunks, threads_for
from repro.pipeline.executor import Job, run_jobs

#: Seconds a test waits for work that should take milliseconds.
TIMEOUT = 30


def _tagged(chunk):
    """One ``(piece, thread)`` pair per piece of ``chunk``."""
    return [(piece, threading.get_ident()) for piece in chunk]


def _in_thread(fn):
    """``fn()`` on a thread of its own, joined with a timeout: a deadlock
    fails the test instead of hanging the suite."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn()), daemon=True)
    worker.start()
    worker.join(TIMEOUT)
    assert not worker.is_alive(), "map_chunks deadlocked"
    return out[0]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("count", [1, 2, 5, 16])
def test_results_come_back_in_piece_order(threads, count):
    threads = min(threads, count)
    got = map_chunks(_tagged, list(range(count)), threads)
    assert [piece for piece, _ in got] == list(range(count))
    # The caller runs the first chunk; the pool runs the others.
    assert got[0][1] == threading.get_ident()
    assert (len({thread for _, thread in got}) > 1) == (threads > 1)


@pytest.mark.parametrize("cpus_n, pieces, want", [
    (1, 16, 1), (2, 16, 2), (4, 3, 3), (2, 1, 1), (2, 0, 1)])
def test_threads_follow_the_cpus_the_process_may_use(cpus, cpus_n, pieces,
                                                     want):
    cpus(cpus_n)
    assert threads_for(pieces) == want


def test_a_pool_thread_runs_nested_maps_inline(cpus):
    """A chunk that maps again from a pool thread runs that map on its
    own thread, so the pool never waits on itself."""
    cpus(2)

    def nested(chunk):
        inner = threads_for(4)
        return [(inner, map_chunks(_tagged, [0, 1, 2, 3], inner))
                for _ in chunk]

    (_, from_caller), (pooled, from_pool) = _in_thread(
        lambda: map_chunks(nested, [0, 1], 2))
    assert pooled == 1
    assert len({thread for _, thread in from_pool}) == 1
    assert len({thread for _, thread in from_caller}) == 2


def test_workers_of_another_pool_share_the_one_pool(cpus):
    """``run_jobs(max_workers=2)``'s two worker threads each map over
    the one shared pool at once, and both return."""
    cpus(2)

    def job(n):
        return map_chunks(_tagged, list(range(n)), threads_for(n))

    results = _in_thread(lambda: run_jobs(
        [Job(("map", n), job, (n,)) for n in (8, 9, 10, 11)], max_workers=2))
    for n, res in zip((8, 9, 10, 11), results):
        assert [piece for piece, _ in res.unwrap()] == list(range(n))


@pytest.mark.parametrize("failing", [0, 1])
def test_an_exception_surfaces_after_every_chunk_finished(failing):
    """Whichever chunk raises (the caller's or the pool's), the caller
    sees the exception only once the other chunk has finished."""
    release, finished = threading.Event(), threading.Event()

    def run(chunk):
        if chunk == [failing]:
            # Let the other chunk start, then fail while it still runs.
            release.set()
            raise ValueError(f"piece {failing}")
        assert release.wait(TIMEOUT)
        threading.Event().wait(0.05)
        finished.set()
        return chunk

    def call():
        with pytest.raises(ValueError, match=f"piece {failing}"):
            map_chunks(run, [0, 1], 2)
        return finished.is_set()

    assert _in_thread(call)


def test_a_forked_child_starts_a_pool_of_its_own():
    """A forked child has none of the pool's threads: the fork hook
    forgets the pool, and the next map starts another."""
    map_chunks(_tagged, [0, 1], 2)
    shared = parallel._pool
    try:
        parallel._forget_pool()  # what the child runs after ``os.fork``
        assert [p for p, _ in map_chunks(_tagged, [0, 1], 2)] == [0, 1]
        assert parallel._pool not in (None, shared)
        parallel._pool.shutdown()
    finally:
        parallel._pool = shared


def test_call_counts_see_the_pool_threads(count_calls):
    """The call ceilings count every thread: the chunk a pool thread runs
    is counted like the caller's."""
    with count_calls(__file__) as codes:
        got = map_chunks(_tagged, [0, 1, 2, 3], threads_for(4))
    assert len({thread for _, thread in got}) == 2
    assert codes.count(_tagged.__code__) == 2
