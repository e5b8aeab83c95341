"""Distributed sweep dispatcher: dynamic chunked leases over worker pools.

``--shard I/N`` slices an artefact's job list statically: the operator
picks the partition, starts every worker by hand, and collects the
manifests. SpDISTAL-style distribution moves that into a scheduler:

* The job list is cut into **chunks** (many more chunks than workers).
  Each chunk *is* a :class:`~repro.pipeline.shard.ShardSpec` slice
  (``i/C``), so its answer is an ordinary
  :class:`~repro.pipeline.shard.ShardManifest`, the one ``repro batch
  <artefact> --shard i/C`` writes.
* Workers **pull**: an idle worker is leased the next pending chunk, so
  fast workers take more and a static partition's straggler problem
  disappears.
* Leases are **fault-tolerant**. Where workers run is hidden behind one
  interface, :class:`~repro.pipeline.lease.Transport`; what a dead,
  silent or wrong worker costs is decided by one loop,
  :class:`~repro.pipeline.lease.LeaseTable` (reassign up to a retry
  bound). :func:`dispatch` plans the chunks, judges each answer
  (:func:`accept_manifest`), and **quarantines** jobs that still fail at
  the bound: recorded, with their tracebacks, in the
  :class:`DispatchResult` instead of poisoning the sweep.
* The collected manifests fold through the *existing* validating merge
  (:func:`repro.pipeline.shard.merge_manifests`), so a clean dispatch is
  **byte-identical** to the serial ``repro tables`` run — the property
  CI asserts on every push.
* A dispatch writing its manifests to a state directory can be
  **resumed**: completed chunks are loaded from disk (anything else
  replays cheaply out of the staged cache under ``REPRO_CACHE_DIR``).

The pools (:func:`parse_transport`): ``local:N`` — N worker processes
on this machine; ``ssh:host1,host2`` — one worker process per SSH host;
``inline:N`` — N in-process threads (tests, tiny sweeps); ``queue:DIR``
— an **elastic** filesystem queue (:mod:`repro.pipeline.fsqueue`) that
``repro worker DIR`` processes attach to and detach from mid-sweep.
The first three are slot pools: a ``local:`` / ``ssh:`` slot keeps one
long-lived ``repro worker -`` process, fed one task per stdin line and
answering one per stdout line, so a worker starts once per slot, not
once per lease. Each lease runs on a thread of its own, which stores
the worker's answer and wakes the lease loop at once.

The partition never adapts, the **lease order** does: every dispatch
records each job's observed wall time into a persistent ``cost`` table
(a stage of the staged cache, so a compiler edit resets it along with
the results it described), and the next one leases the chunk with the
heaviest recorded cost first: the sweep's dominant cell starts at once
and the pull-based loop balances the rest behind it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro import settings
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.pipeline.batch import UnknownArtifact, resolve_artifact
from repro.pipeline.cache import (
    cache_enabled,
    compiler_version,
    get_stage,
    put_stage,
)
from repro.pipeline.fsqueue import (
    ERROR_FORMAT,
    ChunkRequest,
    QueueError,
    QueueTransport,
    run_task,
)
from repro.pipeline.lease import LeaseTable, Transport
from repro.pipeline.shard import (
    MergedArtifact,
    MergeError,
    ShardManifest,
    ShardSpec,
    merge_manifests,
)

__all__ = [
    "COST_STAGE",
    "ChunkRequest",
    "DispatchError",
    "DispatchResult",
    "InlineTransport",
    "LocalTransport",
    "QueueTransport",
    "SlotTransport",
    "SshTransport",
    "Transport",
    "accept_manifest",
    "chunk_count",
    "cost_key",
    "dispatch",
    "load_costs",
    "parse_transport",
    "record_manifest_costs",
    "worker_env",
]

#: Default chunks leased per worker slot: enough granularity that a slow
#: chunk cannot stall the sweep, few enough that per-worker startup cost
#: stays amortised.
DEFAULT_CHUNKS_PER_WORKER = 4

#: Default lease length before a silent worker is presumed hung (seconds).
DEFAULT_LEASE_TIMEOUT = 900.0

#: Default bound on re-dispatches of one chunk after worker death, lease
#: expiry, or per-job failure (total attempts = 1 + retries).
DEFAULT_RETRIES = 2


class DispatchError(RuntimeError):
    """The dispatcher cannot start or resume (bad spec, bad state dir)."""


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


#: Seconds :meth:`SlotTransport.close` gives an idle worker process to
#: exit once its stdin is closed, before it is killed.
CLOSE_GRACE = 5.0


class SlotTransport(Transport):
    """A pool of ``slots`` worker slots that each run one task at a time.

    Each slot keeps one long-lived ``repro worker -`` process
    (:func:`~repro.pipeline.fsqueue.stdio_loop`), started from
    :meth:`argv` at the slot's first lease and again once it has died:
    a task is one line on its stdin, the answer one line on its stdout.
    Stopping a task kills its process. Each lease finishes on a thread
    of its own, which stores the worker's answer and sets the pool's one
    event, so the lease loop wakes the moment a worker is done.
    """

    #: The ``--workers`` spelling (``local`` in ``local:3``).
    kind = "slot"

    def __init__(self, slots: int, name: str | None = None) -> None:
        if slots < 1:
            raise DispatchError(
                f"{self.kind} transport needs >= 1 slot, got {slots}")
        self.slots = slots
        self.name = name or f"{self.kind}:{slots}"
        #: task id -> (slot, stop, launch time, answer box)
        self._active: dict[str, tuple[int, Callable[[], None] | None, float,
                                      list[tuple[str | None, str]]]] = {}
        #: Slots whose lease thread has not returned: a revoked lease
        #: keeps its slot until its worker is really gone.
        self._busy: set[int] = set()
        self._finished = threading.Event()
        #: slot -> its worker process
        self._procs: dict[int, subprocess.Popen] = {}

    def argv(self, slot: int) -> list[str]:
        """The command that starts ``slot``'s worker process."""
        raise NotImplementedError

    def start(self, slot: int, payload: dict
              ) -> tuple[Callable[[], str], Callable[[], None] | None]:
        """Hand the task body ``payload`` to ``slot``'s worker; return
        ``(finish, stop)``.

        ``finish()`` blocks until the worker is done and returns its
        answer, or raises saying why there is none; ``stop()`` ends the
        worker early, and is ``None`` for a worker that cannot be
        stopped. A worker that cannot launch raises here.
        """
        proc = self._procs.get(slot)
        if proc is None or proc.poll() is not None:
            # Its own session: a Ctrl-C reaches the dispatcher, whose
            # close() ends the workers.
            proc = self._procs[slot] = subprocess.Popen(
                self.argv(slot), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True, env=worker_env(),
                start_new_session=True)
        try:
            proc.stdin.write(json.dumps(payload) + "\n")
            proc.stdin.flush()
        except OSError:
            pass  # the worker is gone: finish() says how

        def finish() -> str:
            line = proc.stdout.readline()
            with contextlib.suppress(ValueError):
                answer = json.loads(line)
                if isinstance(answer, str):
                    return answer
            # No line (the worker is gone) or garbage (its answer stream
            # is out of step): end it and its pipes, so the next lease
            # starts a new one.
            with contextlib.suppress(OSError), proc:
                proc.kill()
            raise RuntimeError(
                f"worker answer unreadable: {line.strip()[:80]!r}" if line
                else f"worker exited with code {proc.returncode} and gave "
                     f"no answer")

        return finish, proc.kill

    def submit(self, task_id: str, attempt: int, payload: dict) -> int:
        slot = next(s for s in range(self.slots) if s not in self._busy)
        finish, stop = self.start(slot, payload)
        box: list[tuple[str | None, str]] = []

        def run() -> None:
            try:
                box.append((finish(), ""))
            except Exception as exc:
                box.append((None, str(exc) or repr(exc)))
            finally:
                self._busy.discard(slot)
                self._finished.set()

        self._busy.add(slot)
        self._active[task_id] = (slot, stop, time.monotonic(), box)
        threading.Thread(target=run, name=f"repro-slot-{slot}",
                         daemon=True).start()
        return slot

    def poll(self) -> list[tuple[str, str | None, str]]:
        out: list[tuple[str, str | None, str]] = []
        for task_id, (_slot, _stop, _started, box) in list(
                self._active.items()):
            if box:
                del self._active[task_id]
                out.append((task_id, *box[0]))
        return out

    def last_alive(self, task_id: str) -> float:
        # A slot worker has no heartbeat: the lease bounds its runtime.
        # One that has answered, or cannot be stopped, is alive: revoking
        # it would only throw its answer away or run the task twice.
        _slot, stop, started, box = self._active[task_id]
        return time.monotonic() if stop is None or box else started

    def revoke(self, task_id: str) -> None:
        # The lease's box goes with it, so a late answer is never read.
        entry = self._active.pop(task_id, None)
        if entry is not None and entry[1] is not None:
            entry[1]()

    def free(self) -> int:
        return self.slots - len(self._busy)

    def wait(self, timeout: float) -> None:
        # A thread stores its answer before it sets the event, and the
        # caller polls after this returns: clearing here loses nothing.
        self._finished.wait(timeout)
        self._finished.clear()

    def close(self, stop: bool = True) -> None:
        # An escaping exception (Ctrl-C, a launch error) must not orphan
        # in-flight workers: revoke every live lease. Idle workers stay
        # for the pool's next dispatch unless ``stop``: then each sees
        # its stdin close and exits, or is killed after CLOSE_GRACE.
        for task_id in list(self._active):
            self.revoke(task_id)
        if not stop:
            return
        procs, self._procs = list(self._procs.values()), {}
        for proc in procs:
            with contextlib.suppress(OSError), proc:
                proc.stdin.close()
                try:
                    proc.wait(CLOSE_GRACE)
                except subprocess.TimeoutExpired:
                    proc.kill()


def worker_env() -> dict[str, str]:
    """A spawned worker's environment: ours, plus ``repro`` importable.

    Every slot's ``repro worker -`` process starts with it, and so do
    the serve benchmark and tests that launch ``python -m repro worker``
    subprocesses.
    """
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = os.environ.copy()
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class LocalTransport(SlotTransport):
    """``local:N`` — N worker processes on this machine.

    Workers share the parent's ``REPRO_CACHE_DIR`` (inherited through
    the environment), so every chunk draws on the same staged cache.
    """

    kind = "local"

    def argv(self, slot: int) -> list[str]:
        return [sys.executable, "-m", "repro", "worker", "-"]


class SshTransport(SlotTransport):
    """``ssh:host1,host2`` — one slot per host, the same worker over SSH.

    Each host needs a checkout of this repository and a Python with the
    dependencies installed; the remote command is the ``repro worker -``
    :class:`LocalTransport` runs, and tasks and answers stream over the
    SSH channel, so no shared filesystem is required. Knobs (read from
    the dispatcher's environment):

    * ``REPRO_SSH_REPO``   — remote checkout path (default: this repo's
      absolute path, for homogeneous clusters).
    * ``REPRO_SSH_PYTHON`` — remote interpreter (default ``python3``).

    The cache and trace knobs set locally are forwarded into the remote
    environment (:func:`repro.settings.forwarded`), so pointing
    ``REPRO_CACHE_DIR`` at a shared mount gives the whole pool one
    staged cache.
    """

    def __init__(self, hosts: list[str]) -> None:
        self.hosts = [h for h in hosts if h]
        if not self.hosts:
            raise DispatchError("ssh transport needs at least one host")
        super().__init__(len(self.hosts), f"ssh:{','.join(self.hosts)}")

    def argv(self, slot: int) -> list[str]:
        import repro

        repo = (settings.SSH_REPO.get()
                or str(Path(repro.__file__).resolve().parents[2]))
        python = settings.SSH_PYTHON.get()
        knobs = {"PYTHONPATH": "src", **settings.forwarded()}
        exports = " ".join(f"{k}={shlex.quote(v)}" for k, v in knobs.items())
        return ["ssh", "-o", "BatchMode=yes", self.hosts[slot],
                f"cd {shlex.quote(repo)} && env {exports} "
                f"{shlex.quote(python)} -m repro worker -"]


class InlineTransport(SlotTransport):
    """``inline:N`` — N in-process threads (tests, tiny local sweeps,
    ``repro serve``'s default pool), each running :func:`run_task`.

    Shares this process's modules and default cache, so test fixtures
    (monkeypatched job functions, private cache directories) apply to
    the workers. A killed lease cannot interrupt a job mid-flight: the
    cancel flag skips a chunk's *remaining* jobs, so lease timeouts here
    bound scheduling, not single-job runtime. A request has no point to
    stop at, so its lease never expires: it runs to its end.
    """

    kind = "inline"

    def start(self, slot: int, payload: dict):
        cancel = threading.Event()
        stop = None if payload["kind"] == "request" else cancel.set
        return lambda: run_task(payload, cancel.is_set), stop


def parse_transport(spec: str) -> Transport:
    """Parse a ``--workers`` spec into a transport.

    ``local:N`` (subprocess pool), ``ssh:host1,host2`` (one slot per
    host), ``inline:N`` (in-process threads), ``queue:DIR`` (elastic
    filesystem queue — ``repro worker DIR`` processes attach and detach
    mid-sweep). A bare integer means ``local:N``.
    """
    text = spec.strip()
    kind, sep, arg = text.partition(":")
    if not sep and kind.isdigit():
        kind, arg = "local", kind
    try:
        if kind == "local":
            return LocalTransport(int(arg))
        if kind == "inline":
            return InlineTransport(int(arg))
    except ValueError:
        raise DispatchError(
            f"invalid worker count in {spec!r}; expected e.g. local:4"
        ) from None
    if kind == "ssh":
        return SshTransport(arg.split(","))
    if kind == "queue":
        try:
            return QueueTransport(arg)
        except QueueError as exc:
            raise DispatchError(str(exc)) from None
    raise DispatchError(
        f"unknown transport {spec!r}; expected local:N, ssh:host1,host2, "
        f"inline:N, or queue:DIR"
    )


# ---------------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------------


#: The staged-cache stage observed job wall times are recorded under:
#: the persistent cost table the lease order is read from.
COST_STAGE = "cost"


def cost_key(artifact: str, scale: float, key: tuple) -> tuple:
    """The ``cost``-stage key parts of one job's observed wall time."""
    # repr(scale) round-trips the float exactly, so every dispatch
    # agrees on keys.
    return (artifact, repr(scale), tuple(key))


def record_manifest_costs(manifests: list[ShardManifest]) -> int:
    """Record every successful job's wall time from collected manifests
    (latest observation wins).

    Returns the number of entries written. Failed jobs are skipped: a
    traceback's wall time says nothing about the cost of the job done
    right. A job answered from the staged cache records its replay
    time, and *that* is its cost for the next sweep.
    """
    recorded = 0
    for manifest in manifests:
        for entry in manifest.jobs:
            if not entry["ok"]:
                continue
            key = cost_key(manifest.artifact, manifest.scale, entry["key"])
            put_stage(COST_STAGE, key, float(entry.get("seconds", 0.0)))
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


def chunk_count(total_jobs: int, slots: int,
                chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER) -> int:
    """How many lease units to cut ``total_jobs`` into for ``slots``."""
    if total_jobs < 1:
        return 1
    return min(total_jobs, max(slots, 1) * max(chunks_per_worker, 1))


@dataclasses.dataclass
class DispatchResult:
    """Outcome of one dispatch: manifests, merge, and fault report."""

    artifact: str
    scale: float
    transport: str
    chunks: int
    manifests: list[ShardManifest]
    merged: MergedArtifact | None
    quarantined: list[dict]  #: ``{"key", "error", "chunk"}`` per dead job
    lost_chunks: dict[int, str]  #: chunk index -> last transport error
    resumed_chunks: int
    attempts: int
    seconds: float
    merge_error: str | None = None  #: the final fold's refusal, if any
    costs_recorded: int = 0  #: cost-table entries written by this dispatch
    #: Jobs whose pipeline actually computed something this run, vs. jobs
    #: answered entirely from the staged cache (resumed chunks' jobs all
    #: count as cached: nothing executed for them in this dispatch).
    jobs_computed: int = 0
    jobs_cached: int = 0

    @property
    def ok(self) -> bool:
        return self.merged is not None

    def summary(self) -> str:
        jobs = sum(len(m.jobs) for m in self.manifests)
        if self.ok:
            status = "ok"
        elif self.merge_error is not None:
            status = "merge refused"
        else:
            status = (f"{len(self.quarantined)} quarantined, "
                      f"{len(self.lost_chunks)} lost chunk(s)")
        resumed = (f", {self.resumed_chunks} resumed"
                   if self.resumed_chunks else "")
        return (f"dispatch {self.artifact} (scale {self.scale}) over "
                f"{self.transport}: {jobs} job(s) "
                f"({self.jobs_computed} computed, "
                f"{self.jobs_cached} cached) in {self.chunks} "
                f"chunk(s), {self.attempts} lease(s){resumed}, "
                f"{self.seconds:.2f}s [{status}]")

    def failure_report(self) -> list[str]:
        """One formatted line (or block) per failure, for CLI surfaces."""
        lines = []
        for entry in self.quarantined:
            key = ":".join(str(k) for k in entry["key"])
            lines.append(f"QUARANTINED {key} (chunk {entry['chunk']}):\n"
                         f"{entry['error']}")
        for index, why in sorted(self.lost_chunks.items()):
            lines.append(f"LOST chunk {index}/{self.chunks}: {why}")
        if self.merge_error is not None:
            lines.append(f"MERGE REFUSED: {self.merge_error}")
        return lines


def _chunk_path(state_dir: Path, artifact: str, spec: ShardSpec) -> Path:
    return state_dir / f"{artifact}.chunk{spec.index}of{spec.count}.json"


def accept_manifest(
    text: str, request: ChunkRequest
) -> tuple[ShardManifest | None, str | None]:
    """Validate a worker's raw answer against the chunk it should answer for.

    Whatever the pool (worker stdout, thread result, queue result file),
    a wrong-chunk, wrong-compiler, or malformed answer is refused here,
    at acceptance, not at the final merge fold.
    """
    try:
        data = json.loads(text)
        if isinstance(data, dict) and data.get("format") == ERROR_FORMAT:
            # A worker that could not run the task at all reports the
            # root cause instead of a manifest; surface *its* error,
            # not a generic format refusal.
            return None, (f"worker reported a task error: "
                          f"{data.get('error', 'unknown')}")
        manifest = ShardManifest.from_dict(data,
                                           source=f"chunk {request.spec}")
    except (ValueError, TypeError) as exc:
        return None, f"worker manifest unreadable: {exc}"
    if (manifest.artifact != request.artifact
            or manifest.scale != request.scale
            or manifest.shard != request.spec):
        return None, (f"worker answered for the wrong chunk "
                      f"({manifest.artifact} {manifest.shard}, "
                      f"expected {request.artifact} {request.spec})")
    if manifest.compiler != compiler_version():
        # Catch a stale remote checkout at the first chunk, not after
        # the whole sweep's compute is spent at the merge fold.
        return None, (f"worker runs compiler {manifest.compiler}, this "
                      f"checkout is {compiler_version()} (stale remote "
                      f"checkout?)")
    return manifest, None


def dispatch(
    artifact: str,
    scale: float,
    transport: Transport | str,
    *,
    chunks_per_worker: int = DEFAULT_CHUNKS_PER_WORKER,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
    use_cache: bool | None = None,
    worker_jobs: int | None = None,
    state_dir: str | Path | None = None,
    stop_queue: bool = True,
    on_event: Callable[[str], None] | None = None,
    engine: str | None = None,
) -> DispatchResult:
    """Drive ``artifact``'s whole job list through a worker pool.

    The job list is cut into :func:`chunk_count` uniform shard-slices,
    leased heaviest first by the cost table's recorded job times (index
    order while nothing is recorded) through a
    :class:`~repro.pipeline.lease.LeaseTable`: a worker that
    leaves no valid manifest, or shows no life for ``lease_timeout``,
    loses its lease and the chunk is reassigned (up to ``retries`` extra
    attempts). A chunk whose manifest still contains failed jobs at the
    bound has those jobs quarantined. When every chunk completed cleanly
    the manifests fold through
    :func:`~repro.pipeline.shard.merge_manifests` into output
    byte-identical to the serial run; otherwise ``merged`` is ``None``
    and the quarantine/lost lists say exactly what is missing. Every
    dispatch records its jobs' observed wall times into the cost table,
    so the *next* dispatch orders its leases from warm data.

    The pool is closed when the dispatch ends, which over ``queue:DIR``
    raises the stop sentinel and drains attached workers, and over
    ``local:`` / ``ssh:`` ends each slot's worker process; a
    multi-artefact sweep passes ``stop_queue=False`` on all but its last
    dispatch so the pool, warm workers and all, survives between
    artefacts.

    ``state_dir`` persists per-chunk manifests and resumes from them: a
    chunk an earlier, interrupted dispatch completed is skipped when
    :func:`accept_manifest` accepts its file the way it would a worker's
    answer (the layout never depends on the cost table). Without it,
    manifests live only in memory.
    """
    start = time.perf_counter()
    if isinstance(transport, str):
        transport = parse_transport(transport)
    try:
        record = resolve_artifact(artifact)
    except UnknownArtifact as exc:
        raise DispatchError(str(exc)) from None
    events = on_event if on_event is not None else (lambda _msg: None)

    state_path: Path | None = None
    if state_dir is not None:
        state_path = Path(state_dir)
        try:
            state_path.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise DispatchError(f"state directory {state_path} exists and "
                                f"is not a directory") from None

    keys = [job.key for job in record.jobs(scale)]
    chunks = chunk_count(len(keys), transport.slots, chunks_per_worker)

    # One partition, one order: the chunks are always the uniform
    # round-robin slices, leased heaviest recorded cost first. A job
    # never seen weighs 0 and the sort is stable, so a cold table is
    # plain index order. Task ids count up in lease order because a
    # queue:DIR worker claims the lowest id first; slot pools start
    # tasks in submit order.
    costs = load_costs(artifact, scale, keys)
    events(f"lease order: {len(costs)}/{len(keys)} job costs on record")
    order = sorted(
        (ShardSpec(i, chunks) for i in range(1, chunks + 1)),
        key=lambda spec: -sum(costs.get(key, 0.0)
                              for key in spec.select(keys)))
    requests = {
        f"{record.task_prefix}-{n:04d}": ChunkRequest(
            artifact, scale, spec, use_cache=use_cache,
            jobs=worker_jobs, engine=engine)
        for n, spec in enumerate(order, 1)}
    lost: dict[int, str] = {}
    quarantined: list[dict] = []

    def accept(task_id: str, text: str):
        manifest, why = accept_manifest(text, requests[task_id])
        if manifest is not None and manifest.failures():
            # Usable, but worth another attempt while the bound allows.
            failed = [":".join(map(str, e["key"]))
                      for e in manifest.failures()]
            why = (f"{len(failed)} job(s) failed ({failed[0]}...)"
                   if len(failed) > 1 else f"job {failed[0]} failed")
        return manifest, why

    # Resume is acceptance: a chunk file a previous dispatch left is
    # judged like a worker's answer for that chunk, and anything but a
    # clean manifest is leased again (served mostly from the staged
    # cache).
    done: dict[int, ShardManifest] = {}
    if state_path is not None:
        for task_id, request in list(requests.items()):
            path = _chunk_path(state_path, artifact, request.spec)
            if not path.is_file():
                continue
            # Bytes that are not text are judged too: not a manifest.
            manifest, why = accept(task_id, path.read_text(errors="replace"))
            if why is None:
                done[request.spec.index] = manifest
                del requests[task_id]
            else:
                events(f"resume: re-running chunk {request.spec} "
                       f"({path.name}: {why})")
        if done:
            events(f"resume: {len(done)}/{chunks} chunk(s) already complete "
                   f"in {state_path}")
    resumed_indices = set(done)

    def settle(outcome) -> None:
        spec = requests[outcome.task_id].spec
        if outcome.lost is not None:
            lost[spec.index] = outcome.lost
            return
        manifest = done[spec.index] = outcome.value
        _trace.event("chunk.done", chunk=spec.index, jobs=len(manifest.jobs),
                     attempt=outcome.attempt)
        if state_path is not None:
            manifest.save(_chunk_path(state_path, artifact, manifest.shard))
        if manifest.failures():
            for entry in manifest.failures():
                quarantined.append({
                    "key": list(entry["key"]),
                    "error": entry.get("error", ""),
                    "chunk": spec.index,
                })
            events(f"chunk {spec}: done with "
                   f"{len(manifest.failures())} job(s) quarantined after "
                   f"{outcome.attempt} attempt(s)")
        else:
            events(f"chunk {spec}: done ({len(manifest.jobs)} job(s))")

    with _trace.span("dispatch", artifact=artifact, scale=scale,
                     transport=str(transport)) as dispatch_span:
        table = LeaseTable(transport, lease_timeout, retries, accept, events)
        try:
            for task_id, request in requests.items():
                table.submit(task_id, request.payload(),
                             f"chunk {request.spec}")
            while table:
                transport.wait(lease_timeout / 20)
                for outcome in table.step():
                    settle(outcome)
        finally:
            transport.close(stop_queue)

        manifests = [done[i] for i in sorted(done)]
        # Record observed wall times from freshly-executed chunks only:
        # resumed manifests carry a *previous* run's times, and re-stamping
        # them would overwrite fresher observations ("latest wins"). This
        # is the table's one writer, beside its one reader: the dispatcher
        # holds every transport's manifests, also those of workers that do
        # not share this cache (ssh without a common mount).
        fresh = [done[i] for i in sorted(done) if i not in resumed_indices]
        costs_recorded = 0
        if cache_enabled() and fresh:
            costs_recorded = record_manifest_costs(fresh)
            events(f"cost table: recorded {costs_recorded} job time(s)")
        merged: MergedArtifact | None = None
        merge_error: str | None = None
        if not lost and not quarantined and len(done) == chunks:
            try:
                merged = merge_manifests(manifests, use_cache=use_cache)
            except MergeError as exc:  # pragma: no cover - defensive fold
                # Every manifest was validated at acceptance, so this is a
                # should-not-happen guard; carry the reason in the result
                # so it survives --quiet and reaches the operator.
                merge_error = str(exc)
                events(f"merge refused the collected manifests: {exc}")
        # Honest utilization numbers: a job only counts as computed when
        # a freshly-executed chunk says its pipeline ran (manifests from
        # pre-"computed"-field workers conservatively count as computed);
        # everything else — cache-served jobs and whole resumed chunks —
        # is cached work this dispatch did not spend a worker on.
        jobs_total = sum(len(m.jobs) for m in manifests)
        jobs_computed = sum(
            sum(1 for e in m.jobs if e.get("computed", True))
            for m in fresh)
        jobs_cached = jobs_total - jobs_computed
        jobs_counter = _metrics.counter(
            "repro_dispatch_jobs_total",
            "Dispatch jobs by execution kind.", ("kind",))
        jobs_counter.inc(jobs_computed, kind="computed")
        jobs_counter.inc(jobs_cached, kind="cached")
        _metrics.counter("repro_dispatch_chunks_lost_total",
                         "Chunks lost after the retry bound.").inc(len(lost))
        dispatch_span.set(ok=merged is not None, chunks=chunks,
                          attempts=table.leases,
                          jobs_computed=jobs_computed,
                          jobs_cached=jobs_cached)
        return DispatchResult(
            artifact=artifact,
            scale=scale,
            transport=str(transport),
            chunks=chunks,
            manifests=manifests,
            merged=merged,
            quarantined=quarantined,
            lost_chunks=lost,
            resumed_chunks=len(resumed_indices),
            attempts=table.leases,
            seconds=time.perf_counter() - start,
            merge_error=merge_error,
            costs_recorded=costs_recorded,
            jobs_computed=jobs_computed,
            jobs_cached=jobs_cached,
        )


def dispatch_summary_payload(result: DispatchResult) -> dict[str, Any]:
    """A JSON-safe report of one dispatch (for logs and CI artifacts)."""
    return {
        "artifact": result.artifact,
        "scale": result.scale,
        "transport": result.transport,
        "chunks": result.chunks,
        "attempts": result.attempts,
        "resumed_chunks": result.resumed_chunks,
        "jobs_computed": result.jobs_computed,
        "jobs_cached": result.jobs_cached,
        "ok": result.ok,
        "quarantined": result.quarantined,
        "lost_chunks": {str(k): v for k, v in result.lost_chunks.items()},
        "merge_error": result.merge_error,
        "seconds": round(result.seconds, 3),
        "costs_recorded": result.costs_recorded,
    }
