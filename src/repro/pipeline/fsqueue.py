"""Filesystem-backed elastic job queue: the ``queue:DIR`` transport.

The ``local:``/``ssh:`` transports launch every worker, so the pool is
fixed for the sweep's lifetime. An elastic pool inverts that — ``repro
worker DIR`` processes attach to a shared directory whenever a host
becomes available and detach (or die) whenever it is reclaimed, and
:class:`QueueTransport` only publishes tasks, watches heartbeats,
revokes claims and reads results: the
:class:`~repro.pipeline.lease.Transport` interface, so the one lease
loop drives it like any other pool. No broker is required: the queue is
plain files and every mutual-exclusion step is an atomic ``os.replace``
rename, the same trick the staged cache already relies on.

Layout (``<id>`` is ``chunk-NNNN`` for a sweep chunk, ``part-NNNN`` for
a block of a partitioned kernel, ``req-NNNNNN`` for a ``repro serve``
compile request)::

    queue/<id>-a1.json           pending task (attempt 1)
    claimed/<id>-a1.json.<wid>   claimed by worker <wid>; its mtime is
                                 the worker's heartbeat
    results/<id>-a1.<wid>.json   the worker's answer
    stop                         pool closed; workers exit

Every task file has one schema, ``{"format", "id", "attempt", "kind",
"compiler", "lease_timeout", ...}``: ``kind`` ``"shard"`` carries a
:class:`ChunkRequest` body and is answered with a shard manifest,
``"request"`` one canonical :class:`repro.service.api.CompileRequest`
dict answered with the ``CompileResult`` JSON; a task that could not
run at all is answered with the one error envelope
(:data:`ERROR_FORMAT`). :func:`run_task` runs either kind in-process;
the ``inline:N`` pool and the ``repro worker -`` process behind every
``local:`` / ``ssh:`` slot call it too.

Claim protocol: a worker renames a task file from ``queue/`` into
``claimed/``. Rename is atomic, so exactly one of the racing workers
wins; the losers see ``FileNotFoundError`` and move on. While running,
the worker touches its claimed file every few seconds and passes a
revocation check into the executor: if the claimed file is deleted
(lease expired — the worker is presumed detached), the worker cancels
its remaining jobs and discards the answer. A worker killed outright
simply stops heartbeating; either way the lease loop publishes the task
again as a new attempt. A slow-but-alive worker whose result races the
revocation is harmless: answers are validated and deduplicated per
task, and one for an already-settled task is dropped.

Tasks carry the enqueuer's compiler hash; a worker running a different
checkout leaves them in the queue (with a note) instead of burning a
lease to produce an answer that must be rejected.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.obs import trace as _trace
from repro.pipeline.cache import compiler_version
from repro.pipeline.lease import POLL_INTERVAL, Transport
from repro.pipeline.shard import ShardSpec, run_shard

__all__ = [
    "ChunkRequest",
    "ERROR_FORMAT",
    "QueueError",
    "QueueTransport",
    "run_task",
    "stdio_loop",
    "worker_loop",
]

#: Task file schema marker.
TASK_FORMAT = "repro-queue-task"

#: Answer marker for a task the worker could not run at all (as opposed
#: to a shard manifest with per-job failures, or a result).
ERROR_FORMAT = "repro-queue-error"

#: Default seconds between heartbeat touches of a claimed task file.
#: Each task carries its lease timeout, and the worker beats at least 4x
#: per lease so a live worker can never look silent.
HEARTBEAT_INTERVAL = 2.0

#: Floor on the heartbeat interval (pathologically short leases).
MIN_HEARTBEAT_INTERVAL = 0.05

#: Default seconds a worker sleeps between empty queue scans.
DEFAULT_POLL_INTERVAL = 0.5

_worker_seq = itertools.count(1)


class QueueError(RuntimeError):
    """The queue directory cannot be prepared or a task is malformed."""


@dataclasses.dataclass(frozen=True)
class ChunkRequest:
    """One lease unit: shard ``spec`` of ``artifact``'s job list.

    The one description of a chunk: every pool hands its workers the
    task body (:meth:`payload`) that :func:`run_task` runs.
    """

    artifact: str
    scale: float
    spec: ShardSpec
    use_cache: bool | None = None
    jobs: int | None = None  #: worker-internal thread count
    engine: str | None = None  #: functional-execution engine for cells

    def payload(self) -> dict[str, Any]:
        """The task body that runs this chunk (see :func:`run_task`)."""
        body: dict[str, Any] = {"kind": "shard", "artifact": self.artifact,
                                "scale": self.scale, "shard": str(self.spec)}
        for name in ("use_cache", "jobs", "engine"):
            if getattr(self, name) is not None:
                body[name] = getattr(self, name)
        return body

    @classmethod
    def from_payload(cls, body: dict) -> ChunkRequest:
        return cls(body["artifact"], float(body["scale"]),
                   ShardSpec.parse(body["shard"]), body.get("use_cache"),
                   body.get("jobs"), body.get("engine"))


def _atomic_write(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _unlink_all(paths) -> None:
    for path in paths:
        try:
            path.unlink()
        except OSError:
            pass  # a worker claimed/finished it concurrently


def _task_id(name: str) -> str:
    """``chunk-0003`` from ``chunk-0003-a1.json[.<wid>]`` / ``…-a1.<wid>.json``.

    Everything after the first dot is suffix or worker id (host names
    may contain dots and ``-a``; task ids contain neither dot).
    """
    return name.partition(".")[0].rpartition("-a")[0]


def _worker_id() -> str:
    """Unique per worker loop, even for threads sharing one process."""
    return f"{socket.gethostname()}-{os.getpid()}-{next(_worker_seq)}"


class QueueTransport(Transport):
    """``queue:DIR`` — an elastic pool attached to a shared directory.

    Unlike the launch-style transports, nothing here starts a worker:
    tasks are published, claims watched and revoked, results read, while
    ``repro worker DIR`` processes come and go. ``slots`` is only the
    *planning width* (how many chunks :func:`chunk_count` assumes will
    run concurrently); any number of workers may actually attach.
    """

    #: Planning width when the real (elastic) worker count is unknowable.
    DEFAULT_PLANNING_SLOTS = 4

    def __init__(self, root: str | Path,
                 slots: int = DEFAULT_PLANNING_SLOTS) -> None:
        text = str(root).strip()
        if not text:
            raise QueueError("queue transport needs a directory: queue:DIR")
        self.root = Path(text)
        self.queue_dir = self.root / "queue"
        self.claimed_dir = self.root / "claimed"
        self.results_dir = self.root / "results"
        self.stop_path = self.root / "stop"
        self.slots = slots
        self.name = f"queue:{self.root}"
        self._prepared = False
        #: task id -> (its claim files' (name, mtime) pairs, local
        #: monotonic time those were last seen to *change*); lease age
        #: is measured on this process's clock against observed
        #: heartbeat progress, never worker mtime vs our wall clock —
        #: multi-host pools on a shared mount must survive cross-host
        #: clock skew.
        self._lease_watch: dict[str, tuple[list, float]] = {}

    def prepare(self) -> None:
        """Create the layout; clear residue of any previous owner.

        One dispatch (or daemon) owns a queue directory at a time:
        stale task, claim, and result files from a crashed (kill -9
        skips ``close``) or just-finished owner would otherwise collide
        with the new one's task ids and burn retry attempts — a worker
        still holding a stale claim loses it here, notices at its next
        heartbeat, and discards its answer. The first :meth:`submit`
        after construction or :meth:`close` prepares by itself.
        """
        for directory in (self.queue_dir, self.claimed_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
            _unlink_all(directory.glob("*.json*"))
        _unlink_all([self.stop_path])
        self._prepared = True

    # -- the Transport interface -------------------------------------------

    def submit(self, task_id: str, attempt: int, payload: dict) -> None:
        """Publish one attempt of a task as a pending task file."""
        if not self._prepared:
            self.prepare()
        task = {"format": TASK_FORMAT, "id": task_id, "attempt": attempt,
                "compiler": compiler_version(), **payload}
        _atomic_write(self.queue_dir / f"{task_id}-a{attempt}.json",
                      json.dumps(task, indent=2) + "\n")

    def poll(self) -> list[tuple[str, str | None, str]]:
        """Refresh the heartbeat watch, then consume new result files.

        A caller killed between the unlink here and persisting the
        answer loses that result — a chunk simply reruns on resume,
        served almost entirely from the staged cache.
        """
        self._watch_claims()
        out = []
        for path in sorted(self.results_dir.glob("*.json")):
            try:
                text = path.read_text()
            except OSError:
                continue  # partially-renamed; the next poll reads it
            _unlink_all([path])
            out.append((_task_id(path.name), text, ""))
        return out

    def _watch_claims(self) -> None:
        """Note which claims' heartbeats moved since the last scan.

        A claim is "silent" while its mtime has not *changed* on this
        process's own monotonic clock, counted from when the claim was
        first observed — heartbeats are detected as mtime progress, so
        a skewed worker (or NFS server) clock can neither insta-expire
        a healthy claim nor keep a dead one alive.
        """
        now = time.monotonic()
        beats: dict[str, list] = {}
        for path in self.claimed_dir.glob("*.json.*"):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue  # worker finished and removed it mid-scan
            beats.setdefault(_task_id(path.name), []).append(
                (path.name, mtime))
        # Rebuilt per scan: claims that no longer exist are forgotten,
        # so the map cannot grow across a long multi-artefact sweep.
        watch = {}
        for task_id, beat in beats.items():
            beat.sort()
            seen = self._lease_watch.get(task_id)
            watch[task_id] = (seen if seen is not None and seen[0] == beat
                              else (beat, now))
        self._lease_watch = watch

    def last_alive(self, task_id: str) -> float:
        """When the task's claim last heartbeat (as of the last poll).

        A task nobody has claimed yet cannot be silent: it is alive now.
        """
        seen = self._lease_watch.get(task_id)
        return seen[1] if seen is not None else time.monotonic()

    def revoke(self, task_id: str) -> None:
        """Remove every pending/claimed file of a task (settled or expired).

        Deleting the claimed file *is* the revocation: the worker's next
        heartbeat fails, it cancels the task and discards its answer.
        """
        for directory in (self.queue_dir, self.claimed_dir):
            _unlink_all(directory.glob(f"{task_id}-a*"))

    def free(self) -> int:
        return sys.maxsize  # any number of workers may attach

    def wait(self, timeout: float) -> None:
        # Scan far less often than a slot pool: every scan globs the
        # (possibly NFS-shared) queue directories, tasks run for
        # seconds-to-minutes, and workers only poll every ~0.5s — but
        # keep sub-second leases (tests) responsive.
        time.sleep(min(0.5, max(POLL_INTERVAL, timeout)))

    def close(self, stop: bool = True) -> None:
        """Drop leftover tasks and claims; ``stop`` releases the workers.

        Between the dispatches of a multi-artefact sweep sharing one
        queue directory ``stop`` is false and the pool stays attached
        for the next artefact; the stop sentinel makes workers drain
        and exit instead of spinning.
        """
        for directory in (self.queue_dir, self.claimed_dir):
            _unlink_all(directory.glob("*.json*"))
        self._prepared = False
        if stop:
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                _atomic_write(self.stop_path, "stop\n")
            except OSError:
                pass

    def pending_counts(self) -> tuple[int, int]:
        """(queued, claimed) task file counts."""
        return (len(list(self.queue_dir.glob("*.json"))),
                len(list(self.claimed_dir.glob("*.json.*"))))

    def idle_note(self) -> str:
        queued, claimed = self.pending_counts()
        return (f"queue: {queued} task(s) waiting, {claimed} claimed; "
                f"attach workers with `repro worker {self.root}`")


# ---------------------------------------------------------------------------
# Running a task (``repro worker DIR``, ``repro worker -`` and ``inline:N``)
# ---------------------------------------------------------------------------


def run_task(task: dict, should_stop: Callable[[], bool],
             jobs: int | None = None) -> str:
    """Run one task body in this process and return its answer text.

    A shard task answers with its manifest JSON (job failures are
    isolated inside it), a request task with the ``CompileResult``
    JSON. An exception means the task itself was bad (an artefact this
    checkout does not know, a request the compiler rejects): it is
    answered with the error envelope, which the enqueuer's ``accept``
    reads back.
    """
    try:
        with _trace.span("task", kind=task["kind"], task=task.get("id")):
            if task["kind"] == "request":
                # Lazy import: the service layer itself reaches back
                # into the pipeline, and shard workers never need it.
                from repro.service import api

                request = api.CompileRequest.from_dict(task["request"])
                return api.execute(
                    request, use_cache=task.get("use_cache")).to_json()
            chunk = ChunkRequest.from_payload(task)
            return run_shard(
                chunk.artifact, chunk.scale, chunk.spec,
                jobs=chunk.jobs if jobs is None else jobs,
                use_cache=chunk.use_cache, should_stop=should_stop,
                engine=chunk.engine).to_json()
    except Exception as exc:
        return json.dumps({"format": ERROR_FORMAT, "id": task.get("id"),
                           "error": f"{type(exc).__name__}: {exc}"}) + "\n"


def stdio_loop(jobs: int | None = None) -> None:
    """``repro worker -``: answer one JSON task per stdin line until
    stdin closes.

    Each answer is :func:`run_task`'s text, written as one JSON string
    per stdout line in task order. While a task runs ``sys.stdout`` is
    stderr, so a stray print cannot corrupt the answer stream. The
    ``local:`` and ``ssh:`` pools keep one such process per slot.
    """
    answers = sys.stdout
    for line in sys.stdin:
        with contextlib.redirect_stdout(sys.stderr):
            answer = run_task(json.loads(line), lambda: False, jobs)
        answers.write(json.dumps(answer) + "\n")
        answers.flush()


def _claim_order(path: Path) -> tuple[bool, str]:
    """Serve requests are latency-sensitive: claim them before sweep
    chunks and partitioned kernel blocks, each lowest id first."""
    return (not path.name.startswith("req-"), path.name)


def _parse_task(text: str) -> dict:
    data = json.loads(text)
    if (not isinstance(data, dict) or data.get("format") != TASK_FORMAT
            or data.get("kind") not in ("shard", "request")
            or "compiler" not in data):
        raise QueueError("not a repro queue task file")
    return data


def worker_loop(
    root: str | Path,
    poll: float = DEFAULT_POLL_INTERVAL,
    max_chunks: int | None = None,
    jobs: int | None = None,
    on_event: Callable[[str], None] | None = None,
    should_exit: Callable[[], bool] | None = None,
) -> int:
    """Attach to a queue directory and run tasks until told to stop.

    The loop claims the first pending task in :func:`_claim_order`
    (atomic rename), heartbeats while :func:`run_task` runs it, writes
    the answer into ``results/``, and releases the claim. It exits — and
    returns the number of tasks completed — when the ``stop`` sentinel
    appears, after ``max_chunks`` tasks, or when ``should_exit()`` turns
    true (tests detach workers mid-sweep this way). Attaching before the
    dispatcher starts, or to a directory that does not exist yet, just
    waits.
    """
    transport = QueueTransport(root)
    events = on_event if on_event is not None else (lambda _msg: None)
    wid = _worker_id()
    completed = 0
    noted_stale: set[str] = set()
    events(f"worker {wid} attached to {transport.root}")
    while True:
        if should_exit is not None and should_exit():
            events(f"worker {wid} detaching ({completed} chunk(s) done)")
            return completed
        claimed = None
        task = None
        try:
            candidates = sorted(transport.queue_dir.glob("*.json"),
                                key=_claim_order)
        except OSError:
            candidates = []
        for path in candidates:
            try:
                task = _parse_task(path.read_text())
            except (OSError, ValueError, KeyError, QueueError):
                continue  # claimed by another worker mid-read, or foreign
            if task["compiler"] != compiler_version():
                if path.name not in noted_stale:
                    noted_stale.add(path.name)
                    events(f"worker {wid}: skipping {path.name} (task "
                           f"compiler {task['compiler']}, this checkout is "
                           f"{compiler_version()})")
                task = None
                continue
            target = transport.claimed_dir / f"{path.name}.{wid}"
            try:
                os.replace(path, target)
            except OSError:
                task = None
                continue  # another worker won the claim race
            try:
                # The rename preserves the *enqueue*-time mtime; stamp
                # the claim immediately, or a task that waited in the
                # queue longer than the lease would be revoked before
                # the first periodic heartbeat fires.
                os.utime(target)
            except OSError:
                # The claim vanished in the rename-to-stamp window (the
                # dispatcher revoked or withdrew it): the task is no
                # longer ours, so skip it rather than compute an answer
                # that would only be discarded.
                events(f"worker {wid}: claim on {path.name} lost before "
                       f"it started; skipping")
                task = None
                continue
            claimed = target
            _trace.event("claim", task=path.name, worker=wid)
            break
        if claimed is None or task is None:
            if transport.stop_path.exists():
                events(f"worker {wid} detaching: queue stopped "
                       f"({completed} chunk(s) done)")
                return completed
            time.sleep(poll)
            continue

        revoked = threading.Event()
        done = threading.Event()
        interval = HEARTBEAT_INTERVAL
        if task.get("lease_timeout"):
            interval = max(MIN_HEARTBEAT_INTERVAL,
                           min(interval, float(task["lease_timeout"]) / 4))

        def heartbeat(path: Path = claimed, every: float = interval) -> None:
            while not done.wait(every):
                try:
                    os.utime(path)
                except OSError:
                    # The claim was deleted: lease revoked.
                    revoked.set()
                    return

        beat = threading.Thread(target=heartbeat, daemon=True)
        beat.start()
        # ``chunk-0003-a1``: the result file mirrors the claimed task's
        # name so poll() pairs them back up.
        label = claimed.name.partition(".")[0]
        events(f"worker {wid}: {label} "
               f"({task.get('artifact', task['kind'])})")
        try:
            result_text = run_task(task, revoked.is_set, jobs)
        finally:
            done.set()
            beat.join(timeout=HEARTBEAT_INTERVAL * 2)

        if revoked.is_set():
            _trace.event("lease.revoked", task=label, worker=wid)
            events(f"worker {wid}: lease on {label} revoked; "
                   f"discarding result")
            continue
        try:
            _atomic_write(transport.results_dir / f"{label}.{wid}.json",
                          result_text)
        except OSError as exc:
            # Result undeliverable (full/read-only shared mount): leave
            # the claim in place. Its heartbeat has stopped, so the
            # lease expires and the task is published again — releasing
            # the claim here would strand it with no task, no claim, and
            # no result, hanging the dispatch.
            events(f"worker {wid}: cannot write result for {label} "
                   f"({exc}); leaving the claim to expire")
            continue
        _unlink_all([claimed])
        _trace.event("result", task=label, worker=wid)
        completed += 1
        if max_chunks is not None and completed >= max_chunks:
            events(f"worker {wid} detaching: --max-chunks reached")
            return completed
