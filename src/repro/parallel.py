"""Run ordered pieces of one computation on every CPU the process may
use: a leaf module that imports nothing of ``repro``.

The numpy engine's blocked gathers are pieces whose NumPy calls
release the GIL and write disjoint outputs, so threads run them side by
side with the same operands in the same order as one thread, and the
results are the same bytes.
Outer-loop parallelism with each reduction kept in order inside one
lane, as Stardust's ``outerPar`` replicates the outer loop on Capstan.
"""

from __future__ import annotations

import os
import threading

#: The one pool every caller shares, started on first use (``None``
#: until then, and again in a forked child, which has no pool threads).
_pool = None
_pool_lock = threading.Lock()
#: ``pooled`` is set on the pool's own threads, which run nested maps
#: inline: a pool thread never waits on the pool.
_local = threading.local()


def threads_for(pieces: int) -> int:
    """The threads to run ``pieces`` pieces on from this thread: one per
    CPU this process may run on (``os.sched_getaffinity``, else
    ``os.cpu_count()``), at most one per piece, and 1 on a pool thread."""
    if pieces < 2 or getattr(_local, "pooled", False):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(pieces, cpus)


def _start_pool():
    """The shared pool, started once per process under a lock."""
    global _pool
    from concurrent.futures import ThreadPoolExecutor

    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max(1, (os.cpu_count() or 1) - 1), "repro-map",
                initializer=setattr, initargs=(_local, "pooled", True))
        return _pool


def _forget_pool() -> None:
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_chunks(run, pieces: list, threads: int) -> list:
    """``run`` over ``pieces`` cut into ``threads`` contiguous chunks
    (:func:`threads_for` says how many): ``run(chunk)`` returns one
    result per piece of its chunk, and the results come back in piece
    order.

    The caller's thread runs the first chunk and the shared pool the
    rest, one call of ``run`` per chunk. A chunk's exception is raised
    only once every chunk has finished, so no piece is still running
    when the caller sees it.
    """
    if threads == 1:
        return run(pieces)
    from concurrent.futures import wait

    pool = _pool or _start_pool()
    first = lo = len(pieces) // threads
    futures = []
    for t in range(2, threads + 1):
        hi = len(pieces) * t // threads
        futures.append(pool.submit(run, pieces[lo:hi]))
        lo = hi
    try:
        results = run(pieces[:first])
    finally:
        wait(futures)
    for future in futures:
        results += future.result()
    return results
