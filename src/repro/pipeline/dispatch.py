"""Distributed sweep dispatcher: dynamic chunked leases over worker pools.

``--shard I/N`` slices an artefact's job list statically: the operator
picks the partition, starts every worker by hand, and collects the
manifests. SpDISTAL-style distribution moves that into a scheduler:

* The job list is cut into **chunks** (many more chunks than workers).
  Each chunk *is* a :class:`~repro.pipeline.shard.ShardSpec` slice
  (``i/C``), so a chunk worker is just ``repro batch <artefact> --shard
  i/C`` and its answer an ordinary
  :class:`~repro.pipeline.shard.ShardManifest`.
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

The pools (:func:`parse_transport`): ``local:N`` — N subprocess slots on
this machine; ``ssh:host1,host2`` — one slot per SSH host, the same
worker command streaming its manifest back over stdout; ``inline:N`` —
N in-process threads (tests, tiny sweeps); ``queue:DIR`` — an
**elastic** filesystem queue (:mod:`repro.pipeline.fsqueue`) that
``repro worker DIR`` processes attach to and detach from mid-sweep.

The partition never adapts, the **lease order** does: every dispatch
records each job's observed wall time into a persistent ``cost`` table
(a stage of the staged cache, so a compiler edit resets it along with
the results it described), and the next one leases the chunk with the
heaviest recorded cost first: the sweep's dominant cell starts at once
and the pull-based loop balances the rest behind it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.pipeline.batch import UnknownArtifact, resolve_artifact
from repro.pipeline.cache import (
    cache_enabled,
    cache_env_knobs,
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
    "WorkerHandle",
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


class WorkerHandle:
    """A running chunk worker: poll it, kill it, read its manifest."""

    def poll(self) -> int | None:
        """Exit code, or ``None`` while still running."""
        raise NotImplementedError

    def kill(self) -> None:
        """Terminate the worker (lease expiry); must be idempotent."""
        raise NotImplementedError

    def manifest_text(self) -> str:
        """The worker's stdout (the manifest JSON on success)."""
        raise NotImplementedError

    def error_text(self) -> str:
        """The worker's stderr (progress lines / tracebacks)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker-side resources (spool files); idempotent.

        The dispatcher calls this exactly once per lease, after the
        outputs have been read or the worker has been killed.
        """


class SlotTransport(Transport):
    """A pool of ``slots`` worker slots that each run one chunk at a time.

    Subclasses say how a chunk is started (:meth:`launch`); this class
    keeps who runs where and answers the lease loop from the handles.
    """

    #: The ``--workers`` spelling (``local`` in ``local:3``).
    kind = "slot"

    def __init__(self, slots: int, name: str | None = None) -> None:
        if slots < 1:
            raise DispatchError(
                f"{self.kind} transport needs >= 1 slot, got {slots}")
        self.slots = slots
        self.name = name or f"{self.kind}:{slots}"
        #: task id -> (slot, handle, launch time)
        self._active: dict[str, tuple[int, WorkerHandle, float]] = {}

    def launch(self, slot: int, request: ChunkRequest) -> WorkerHandle:
        raise NotImplementedError

    def submit(self, task_id: str, attempt: int, payload: dict) -> int:
        busy = {slot for slot, _handle, _started in self._active.values()}
        slot = next(s for s in range(self.slots) if s not in busy)
        handle = self.launch(slot, ChunkRequest.from_payload(payload))
        self._active[task_id] = (slot, handle, time.monotonic())
        return slot

    def poll(self) -> list[tuple[str, str | None, str]]:
        out: list[tuple[str, str | None, str]] = []
        for task_id, (_slot, handle, _started) in list(self._active.items()):
            code = handle.poll()
            if code is None:
                continue
            del self._active[task_id]
            text: str | None = handle.manifest_text()
            why = ""
            if not text.strip():
                err = handle.error_text().strip()
                tail = err.splitlines()[-1] if err else "no output"
                text, why = None, (f"worker exited with code {code} and "
                                   f"produced no manifest ({tail})")
            handle.close()
            out.append((task_id, text, why))
        return out

    def last_alive(self, task_id: str) -> float:
        # A slot worker has no heartbeat: the lease bounds its runtime.
        return self._active[task_id][2]

    def revoke(self, task_id: str) -> None:
        entry = self._active.pop(task_id, None)
        if entry is not None:
            entry[1].kill()
            entry[1].close()

    def free(self) -> int:
        return self.slots - len(self._active)

    def close(self, stop: bool = True) -> None:
        # An escaping exception (Ctrl-C, a launch error) must not orphan
        # in-flight workers: revoke every live lease.
        for task_id in list(self._active):
            self.revoke(task_id)


class _PopenHandle(WorkerHandle):
    """Subprocess-backed handle; stdout/stderr spool to temp files so a
    large manifest can never deadlock the pipe while we poll."""

    def __init__(self, argv: list[str], env: dict[str, str] | None) -> None:
        self._out = tempfile.NamedTemporaryFile(
            mode="w+", suffix=".out", delete=False)
        self._err = tempfile.NamedTemporaryFile(
            mode="w+", suffix=".err", delete=False)
        try:
            self._proc = subprocess.Popen(
                argv, stdout=self._out, stderr=self._err,
                stdin=subprocess.DEVNULL, env=env,
            )
        except BaseException:
            # Popen itself failed (missing ssh binary, fd exhaustion):
            # the dispatcher never sees this handle, so the spool files
            # must be cleaned up here.
            self.close()
            raise

    def poll(self) -> int | None:
        return self._proc.poll()

    def kill(self) -> None:
        if self._proc.poll() is None:
            self._proc.kill()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - kernel lag
                pass

    def _read(self, handle) -> str:
        try:
            handle.flush()
            return Path(handle.name).read_text()
        except (OSError, ValueError):  # pragma: no cover - spool closed
            return ""

    def manifest_text(self) -> str:
        return self._read(self._out)

    def error_text(self) -> str:
        return self._read(self._err)

    def close(self) -> None:
        for handle in (self._out, self._err):
            try:
                handle.close()
            except OSError:  # pragma: no cover - double close is fine
                pass
            try:
                os.unlink(handle.name)
            except OSError:
                pass


def worker_env() -> dict[str, str]:
    """A spawned worker's environment: ours, plus ``repro`` importable.

    Shared by the local transport, the serve benchmark, and tests that
    launch ``python -m repro worker`` subprocesses.
    """
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = os.environ.copy()
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class LocalTransport(SlotTransport):
    """``local:N`` — N subprocess slots on this machine.

    Workers share the parent's ``REPRO_CACHE_DIR`` (inherited through
    the environment), so every chunk draws on the same staged cache.
    """

    kind = "local"

    def argv(self, request: ChunkRequest) -> list[str]:
        return [sys.executable, "-m", "repro", *request.batch_args()]

    def launch(self, slot: int, request: ChunkRequest) -> WorkerHandle:
        return _PopenHandle(self.argv(request), worker_env())


class SshTransport(SlotTransport):
    """``ssh:host1,host2`` — one slot per host, same CLI over SSH.

    Each host needs a checkout of this repository and a Python with the
    dependencies installed; the remote command is the exact worker
    command :class:`LocalTransport` runs, and the manifest streams back
    over stdout, so no shared filesystem is required. Knobs (read from
    the dispatcher's environment):

    * ``REPRO_SSH_REPO``   — remote checkout path (default: this repo's
      absolute path, for homogeneous clusters).
    * ``REPRO_SSH_PYTHON`` — remote interpreter (default ``python3``).

    ``REPRO_*`` cache knobs set locally are forwarded into the remote
    environment, so pointing ``REPRO_CACHE_DIR`` at a shared mount gives
    the whole pool one staged cache.
    """

    def __init__(self, hosts: list[str]) -> None:
        self.hosts = [h for h in hosts if h]
        if not self.hosts:
            raise DispatchError("ssh transport needs at least one host")
        super().__init__(len(self.hosts), f"ssh:{','.join(self.hosts)}")

    def _remote_repo(self) -> str:
        configured = os.environ.get("REPRO_SSH_REPO", "")
        if configured:
            return configured
        import repro

        return str(Path(repro.__file__).resolve().parents[2])

    def remote_command(self, request: ChunkRequest) -> str:
        python = os.environ.get("REPRO_SSH_PYTHON", "python3")
        knobs = {"PYTHONPATH": "src", **cache_env_knobs(),
                 **_trace.trace_env_knobs()}
        exports = " ".join(f"{k}={shlex.quote(v)}" for k, v in knobs.items())
        batch = " ".join(shlex.quote(a) for a in request.batch_args())
        return (f"cd {shlex.quote(self._remote_repo())} && "
                f"env {exports} {shlex.quote(python)} -m repro {batch}")

    def argv(self, request: ChunkRequest, host: str) -> list[str]:
        return ["ssh", "-o", "BatchMode=yes", host,
                self.remote_command(request)]

    def launch(self, slot: int, request: ChunkRequest) -> WorkerHandle:
        return _PopenHandle(self.argv(request, self.hosts[slot]), None)


class _ThreadHandle(WorkerHandle):
    """In-process handle: the chunk runs on a thread via run_task."""

    def __init__(self, request: ChunkRequest,
                 finished: threading.Event) -> None:
        self._cancel = threading.Event()
        self._text = ""
        self._code: int | None = None

        def work() -> None:
            try:
                self._text = run_task(request.payload(), self._cancel.is_set)
            finally:
                self._code = 0
                finished.set()

        threading.Thread(target=work, daemon=True).start()

    def poll(self) -> int | None:
        return self._code

    def kill(self) -> None:
        # Threads cannot be killed; cancel pending jobs so the chunk
        # drains quickly. Its (incomplete) manifest is never read: a
        # revoked handle is not polled again.
        self._cancel.set()

    def manifest_text(self) -> str:
        return self._text

    def error_text(self) -> str:
        return ""


class InlineTransport(SlotTransport):
    """``inline:N`` — N in-process threads (tests, tiny local sweeps).

    Shares this process's modules and default cache, so test fixtures
    (monkeypatched job functions, private cache directories) apply to
    the workers. A killed lease cannot interrupt a job mid-flight — the
    cancel flag skips the chunk's *remaining* jobs — so lease timeouts
    here bound scheduling, not single-job runtime.
    """

    kind = "inline"

    def __init__(self, slots: int) -> None:
        super().__init__(slots)
        self._finished = threading.Event()

    def launch(self, slot: int, request: ChunkRequest) -> WorkerHandle:
        return _ThreadHandle(request, self._finished)

    def wait(self, timeout: float) -> None:
        # A thread stores its answer before it sets the event, and the
        # caller polls after this returns: clearing here loses nothing.
        self._finished.wait(timeout)
        self._finished.clear()


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
    # repr(scale) round-trips the float exactly (the same trick the
    # worker command line uses), so every dispatch agrees on keys.
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
    resume: bool = False,
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
    raises the stop sentinel and drains attached workers; a
    multi-artefact sweep passes ``stop_queue=False`` on all but its last
    dispatch so the elastic pool survives between artefacts.

    ``state_dir`` persists per-chunk manifests (and enables
    ``resume=True`` to skip chunks already completed by an earlier,
    interrupted dispatch: :func:`accept_manifest` judges a chunk file
    like a worker's answer, and the layout never depends on the cost
    table). Without it, manifests live only in memory.
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
    if resume and state_path is None:
        raise DispatchError("resume requires a state directory")

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
    if resume:
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
