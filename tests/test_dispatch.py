"""Tests for ``repro.pipeline.dispatch``: leases, faults, resume, CLI.

The contract under test extends the shard/merge guarantee to a
scheduler: a pool of workers driven through dynamic chunked leases must
produce output byte-identical to the serial harness — including when a
worker dies mid-lease, hangs past its lease, or a job fails transiently —
and jobs that keep failing must land in a quarantine list instead of a
silently wrong table.
"""

from __future__ import annotations

import json
import sys
import threading
import time

import pytest

from repro import settings
from repro.pipeline.batch import (
    artifact_jobs,
    format_artifact,
    run_artifact,
)
from repro.pipeline.dispatch import (
    ChunkRequest,
    DispatchError,
    InlineTransport,
    LocalTransport,
    QueueTransport,
    SshTransport,
    chunk_count,
    dispatch,
    dispatch_summary_payload,
    parse_transport,
)
from repro.pipeline.fsqueue import worker_loop
from repro.pipeline.shard import ShardSpec, run_shard
from tests.conftest import patch_cell

TINY = 0.02

# The shared ``fresh_cache`` fixture (tests/conftest.py) isolates the
# process-wide default cache per test; subprocess workers inherit its
# REPRO_CACHE_DIR through the environment.


def _serial_text(artifact: str, scale: float = TINY) -> str:
    return format_artifact(artifact, run_artifact(artifact, scale))


# ---------------------------------------------------------------------------
# Transport parsing and chunk math
# ---------------------------------------------------------------------------


class TestParseTransport:
    def test_local(self):
        t = parse_transport("local:3")
        assert isinstance(t, LocalTransport)
        assert t.slots == 3 and str(t) == "local:3"

    def test_bare_integer_means_local(self):
        t = parse_transport("4")
        assert isinstance(t, LocalTransport) and t.slots == 4

    def test_inline(self):
        t = parse_transport("inline:2")
        assert isinstance(t, InlineTransport) and t.slots == 2

    def test_ssh(self):
        t = parse_transport("ssh:alice@h1,h2")
        assert isinstance(t, SshTransport)
        assert t.hosts == ["alice@h1", "h2"] and t.slots == 2

    def test_queue(self, tmp_path):
        t = parse_transport(f"queue:{tmp_path}/pool")
        assert isinstance(t, QueueTransport)
        assert t.root == tmp_path / "pool"
        assert str(t) == f"queue:{tmp_path}/pool"

    @pytest.mark.parametrize("spec", ["", "local:", "local:x", "local:0",
                                      "ssh:", "queue:", "redis:h1",
                                      "inline:-1"])
    def test_rejects(self, spec):
        with pytest.raises(DispatchError):
            parse_transport(spec)


class TestChunkMath:
    def test_more_chunks_than_workers(self):
        assert chunk_count(100, 3, 4) == 12

    def test_never_more_chunks_than_jobs(self):
        assert chunk_count(5, 3, 4) == 5

    def test_at_least_one_chunk(self):
        assert chunk_count(0, 3) == 1
        assert chunk_count(10, 0, 0) == 1


class TestSshCommand:
    def test_remote_command_shape(self, monkeypatch):
        """Each host's slot runs one ``repro worker -`` over SSH."""
        monkeypatch.setenv("REPRO_SSH_REPO", "/srv/stardust")
        monkeypatch.setenv("REPRO_SSH_PYTHON", "python3.11")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/mnt/shared/cache")
        t = SshTransport(["h1", "h2"])
        argv = t.argv(1)
        assert argv[:3] == ["ssh", "-o", "BatchMode=yes"]
        assert argv[3] == "h2"
        cmd = argv[4]
        assert cmd.startswith("cd /srv/stardust && env ")
        assert "PYTHONPATH=src" in cmd
        assert "REPRO_CACHE_DIR=/mnt/shared/cache" in cmd
        assert cmd.endswith("python3.11 -m repro worker -")

    def test_cache_knobs_forwarded(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/x")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.delenv("REPRO_CACHE_DISK", raising=False)
        knobs = settings.forwarded()
        assert knobs["REPRO_CACHE_DIR"] == "/tmp/x"
        assert knobs["REPRO_NO_CACHE"] == "1"
        assert "REPRO_CACHE_DISK" not in knobs

    def test_rejects_empty_hosts(self):
        with pytest.raises(DispatchError):
            SshTransport([""])


# ---------------------------------------------------------------------------
# Clean dispatches: byte-identical to serial
# ---------------------------------------------------------------------------


class TestDispatchClean:
    def test_inline_byte_identical(self, fresh_cache):
        result = dispatch("table3", TINY, InlineTransport(2))
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert result.chunks == chunk_count(
            len(artifact_jobs("table3", TINY)), 2)
        assert result.attempts == result.chunks
        assert not result.quarantined and not result.lost_chunks
        assert "ok" in result.summary()

    def test_local_subprocess_byte_identical(self, fresh_cache):
        result = dispatch("table3", TINY, LocalTransport(2),
                          chunks_per_worker=2)
        assert result.ok
        assert result.merged.text == _serial_text("table3")

    def test_no_spool_files_leak(self, fresh_cache, tmp_path, monkeypatch):
        """A lease leaves no stdout/stderr files behind (its pipes are
        drained in memory) — on the success path and when a lease expires
        and the worker is killed."""
        monkeypatch.setenv("TMPDIR", str(tmp_path / "spool"))
        (tmp_path / "spool").mkdir()
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR
        try:
            transport = _SabotagedLocal(
                2, [sys.executable, "-c", "import time; time.sleep(600)"])
            result = dispatch("table3", TINY, transport, lease_timeout=2.5,
                              retries=8, chunks_per_worker=2)
            assert result.ok
            leftovers = [p for p in (tmp_path / "spool").iterdir()
                         if p.suffix in (".out", ".err")]
            assert leftovers == []
        finally:
            tempfile.tempdir = None

    @pytest.mark.parametrize("artifact", ["table6", "format_sweep"])
    def test_paper_sweeps_byte_identical(self, fresh_cache, artifact):
        """The acceptance artefacts: dispatched table6/format_sweep with
        >= 2 workers matches the serial run byte for byte."""
        result = dispatch(artifact, TINY, InlineTransport(2))
        assert result.ok
        assert result.merged.text == _serial_text(artifact)

    def test_unknown_artifact_rejected(self):
        with pytest.raises(DispatchError, match="unknown artefact"):
            dispatch("table7", TINY, InlineTransport(1))

    def test_summary_payload_is_json_safe(self, fresh_cache):
        result = dispatch("table3", TINY, InlineTransport(1))
        payload = json.loads(json.dumps(dispatch_summary_payload(result)))
        assert payload["ok"] is True
        assert payload["artifact"] == "table3"
        assert payload["chunks"] == result.chunks


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class _SabotagedLocal(LocalTransport):
    """A local transport whose first ``n_faults`` worker processes
    misbehave; the slot's next lease starts a real worker."""

    def __init__(self, slots: int, dud_argv: list[str], n_faults: int = 1):
        super().__init__(slots)
        self._dud = dud_argv
        self._faults_left = n_faults
        self.faults_injected = 0

    def argv(self, slot: int) -> list[str]:
        if self._faults_left > 0:
            self._faults_left -= 1
            self.faults_injected += 1
            return self._dud
        return super().argv(slot)


class TestFaultInjection:
    def test_dead_worker_chunk_reassigned(self, fresh_cache):
        """A worker killed mid-lease (exits without a manifest) loses the
        chunk; the reassigned chunk completes and the merge is still
        byte-identical to the serial run."""
        transport = _SabotagedLocal(
            2, [sys.executable, "-c", "import sys; sys.exit(137)"])
        events: list[str] = []
        result = dispatch("table3", TINY, transport, chunks_per_worker=2,
                          on_event=events.append)
        assert transport.faults_injected == 1
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert result.attempts == result.chunks + 1
        assert any("reassigning" in e for e in events)

    def test_hung_worker_lease_expires(self, fresh_cache):
        """A hung worker is killed at lease expiry and its chunk is
        reassigned; the final merge is still byte-identical.

        The lease is short so the dud expires quickly, which means a
        *legitimate* subprocess can also blow it on a loaded machine
        (cold interpreter + numpy import); a generous retry bound keeps
        that from losing chunks — every retry rides the staged cache the
        killed worker already warmed, so attempts converge.
        """
        transport = _SabotagedLocal(
            2, [sys.executable, "-c", "import time; time.sleep(600)"])
        events: list[str] = []
        result = dispatch("table3", TINY, transport, lease_timeout=2.5,
                          retries=8, chunks_per_worker=2,
                          on_event=events.append)
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert any("lease expired" in e for e in events)

    def test_stale_compiler_worker_rejected_at_first_chunk(self, fresh_cache,
                                                           monkeypatch):
        """A worker running a different compiler (stale remote checkout)
        is refused at manifest acceptance, not at the final merge."""
        from repro.pipeline.shard import ShardManifest

        real_from_dict = ShardManifest.from_dict

        def staling(cls, data, source="<manifest>"):
            manifest = real_from_dict(data, source)
            manifest.compiler = "0" * 16
            return manifest

        monkeypatch.setattr(ShardManifest, "from_dict",
                            classmethod(staling))
        events: list[str] = []
        result = dispatch("table3", TINY, InlineTransport(1), retries=0,
                          chunks_per_worker=1, on_event=events.append)
        assert not result.ok
        assert result.merge_error is None  # refused before the fold
        assert result.lost_chunks
        assert any("stale remote checkout" in e for e in events)
        assert any("stale remote checkout" in line
                   for line in result.failure_report())

    def test_worker_dead_past_retry_bound_loses_chunk(self, fresh_cache):
        """A chunk whose workers always die is reported lost, not hung
        on forever, and the dispatch reports failure."""
        transport = _SabotagedLocal(
            1, [sys.executable, "-c", "import sys; sys.exit(1)"],
            n_faults=10_000)
        result = dispatch("table3", TINY, transport, retries=1,
                          chunks_per_worker=1)
        assert not result.ok
        assert result.merged is None
        assert result.lost_chunks
        assert "lost" in result.summary()

    def test_failing_job_quarantined_after_retries(self, fresh_cache,
                                                   monkeypatch):
        """A job that fails every attempt lands in the quarantine list —
        with its captured traceback still in the chunk manifest."""
        from repro.pipeline import batch

        calls: list[str] = []
        original = batch.table3_cell

        def flaky(kernel_name, scale, use_cache=None):
            calls.append(kernel_name)
            if kernel_name == "SpMV":
                raise RuntimeError("injected persistent failure")
            return original(kernel_name, scale, use_cache)

        patch_cell(monkeypatch, "table3", flaky)
        result = dispatch("table3", TINY, InlineTransport(1), retries=2)
        assert not result.ok and result.merged is None
        assert [q["key"][0] for q in result.quarantined] == ["SpMV"]
        assert "injected persistent failure" in result.quarantined[0]["error"]
        assert calls.count("SpMV") == 3  # 1 + retries attempts
        # The quarantined job is still recorded (ok: false) in a manifest.
        failed = [e for m in result.manifests for e in m.failures()]
        assert [tuple(e["key"]) for e in failed] == [("SpMV", "-", "loc")]

    def test_transient_failure_rescued_by_retry(self, fresh_cache,
                                                monkeypatch):
        """A job that fails once then succeeds costs one extra lease and
        still merges byte-identically."""
        from repro.pipeline import batch

        original = batch.table3_cell
        state = {"failed": False}

        def once(kernel_name, scale, use_cache=None):
            if kernel_name == "SpMV" and not state["failed"]:
                state["failed"] = True
                raise RuntimeError("injected transient failure")
            return original(kernel_name, scale, use_cache)

        patch_cell(monkeypatch, "table3", once)
        result = dispatch("table3", TINY, InlineTransport(1), retries=2)
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert result.attempts == result.chunks + 1
        assert not result.quarantined

    def test_table6_byte_identical_under_worker_failure(self, fresh_cache,
                                                        monkeypatch):
        """The acceptance property on the paper's main sweep: a table6
        dispatch with an injected mid-sweep failure still merges
        byte-identically to the serial run."""
        from repro.pipeline import batch

        original = batch.evaluate_cell
        state = {"failed": False}

        def once(kernel_name, dataset_name, scale, use_cache=None):
            if not state["failed"]:
                state["failed"] = True
                raise RuntimeError("injected worker failure")
            return original(kernel_name, dataset_name, scale, use_cache)

        patch_cell(monkeypatch, "table6", once)
        result = dispatch("table6", TINY, InlineTransport(2))
        assert result.ok
        assert result.attempts == result.chunks + 1
        assert result.merged.text == _serial_text("table6")


def _sabotage_run_task(monkeypatch, pool: str, sabotage) -> None:
    """Make the first in-process task of ``pool`` go through ``sabotage``
    (``inline:`` threads and ``repro worker`` loops both call run_task)."""
    import importlib

    module = importlib.import_module(
        "repro.pipeline." + ("dispatch" if pool == "inline" else "fsqueue"))
    real = module.run_task
    state = {"left": 1}

    def run_task(task, should_stop, jobs=None):
        if state["left"]:
            state["left"] -= 1
            return sabotage(lambda: real(task, should_stop, jobs))
        return real(task, should_stop, jobs)

    monkeypatch.setattr(module, "run_task", run_task)


class TestSlotPools:
    """``local:`` / ``ssh:`` / ``inline:`` run each lease on a thread that
    stores the answer and sets the pool's one event."""

    def test_worker_exit_wakes_the_lease_loop(self):
        """One ``wait`` returns when the slot's worker answers its line,
        not a poll tick."""

        class Sleeper(LocalTransport):
            def argv(self, slot):
                return [sys.executable, "-c",
                        "import json, time; time.sleep(0.3); "
                        "print(json.dumps('{}\\n'))"]

        transport = Sleeper(1)
        request = ChunkRequest("table3", TINY, ShardSpec(1, 1))
        try:
            transport.submit("t1", 1, request.payload())
            transport.wait(30)
            assert transport.poll() == [("t1", "{}\n", "")]
        finally:
            transport.close()

    def test_a_slot_keeps_one_process_across_dispatches(self, fresh_cache,
                                                        monkeypatch):
        """Two artefacts over one ``local:2`` pool kept open between
        them start exactly one worker process per slot, and ``close()``
        ends both."""
        import subprocess

        spawned: list[subprocess.Popen] = []

        class Counted(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(subprocess, "Popen", Counted)
        transport = LocalTransport(2)
        try:
            for artifact in ("table3", "table5"):
                result = dispatch(artifact, TINY, transport,
                                  chunks_per_worker=2, stop_queue=False)
                assert result.ok
                assert result.merged.text == _serial_text(artifact)
            assert len(spawned) == 2
            assert all(proc.poll() is None for proc in spawned)
        finally:
            transport.close()
        assert [proc.poll() for proc in spawned] == [0, 0]

    def test_missing_worker_binary_raises(self, fresh_cache, tmp_path,
                                          monkeypatch):
        """A worker that cannot launch raises out of ``dispatch`` (the
        CLI turns that into exit 2) and leaves no temp file behind."""

        class Missing(LocalTransport):
            def argv(self, slot):
                return [str(tmp_path / "no-such-worker")]

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr("tempfile.tempdir", str(scratch))
        with pytest.raises(OSError):
            dispatch("table3", TINY, Missing(2))
        assert list(scratch.iterdir()) == []

    def test_no_slot_thread_outlives_dispatch(self, fresh_cache,
                                              monkeypatch):
        """Every lease's thread ends by the time ``dispatch`` returns,
        the one whose hung worker was killed at lease expiry included."""
        started: list[threading.Thread] = []

        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Recorded)
        transport = _SabotagedLocal(
            2, [sys.executable, "-c", "import time; time.sleep(600)"])
        events: list[str] = []
        result = dispatch("table3", TINY, transport, lease_timeout=2.5,
                          retries=8, chunks_per_worker=2,
                          on_event=events.append)
        assert result.ok
        assert any("lease expired" in e for e in events)
        slots = [t for t in started if t.name.startswith("repro-slot-")]
        assert len(slots) == result.attempts
        for thread in slots:
            thread.join(5)
        assert [t.name for t in slots if t.is_alive()] == []

    def test_revoked_slot_stays_busy_until_its_thread_returns(self):
        """A revoked inline chunk finishes its current job before the
        cancel flag is read, so its slot is not handed out again until
        the thread is gone: ``inline:N`` never runs more than N."""
        gate = threading.Event()

        class Gated(InlineTransport):
            def start(self, slot, payload):
                _finish, stop = super().start(slot, payload)
                return (lambda: gate.wait(30) and "{}"), stop

        transport = Gated(1)
        request = ChunkRequest("table3", TINY, ShardSpec(1, 1))
        try:
            transport.submit("t1", 1, request.payload())
            transport.revoke("t1")
            assert transport.free() == 0
            gate.set()
            transport.wait(30)
            assert transport.free() == 1
            assert transport.poll() == []  # the revoked answer is dropped
        finally:
            transport.close()

    def test_inline_request_lease_never_expires(self):
        """An inline request cannot be stopped: while it runs, and once
        it has answered, it counts as alive."""
        gate = threading.Event()

        class Gated(InlineTransport):
            def start(self, slot, payload):
                _finish, stop = super().start(slot, payload)
                return (lambda: gate.wait(30) and "{}"), stop

        transport = Gated(1)
        try:
            transport.submit("r1", 1, {"kind": "request", "request": {}})
            time.sleep(0.05)
            assert time.monotonic() - transport.last_alive("r1") < 0.05
            gate.set()
            transport.wait(30)
            assert time.monotonic() - transport.last_alive("r1") < 0.05
            assert transport.poll() == [("r1", "{}", "")]
        finally:
            transport.close()


class TestStdioWorker:
    """``repro worker -``: one JSON task per stdin line, one JSON string
    answer per stdout line."""

    def test_two_task_lines_two_answer_lines(self, fresh_cache):
        import subprocess

        from repro.pipeline.dispatch import worker_env
        from repro.pipeline.shard import ShardManifest

        tasks = "".join(json.dumps(ChunkRequest(
            "table3", TINY, ShardSpec(i, 2)).payload()) + "\n"
            for i in (1, 2))
        done = subprocess.run([sys.executable, "-m", "repro", "worker", "-"],
                              input=tasks, capture_output=True, text=True,
                              env=worker_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 2
        shards = [ShardManifest.from_dict(json.loads(json.loads(line))).shard
                  for line in lines]
        assert shards == [ShardSpec(1, 2), ShardSpec(2, 2)]

    def test_stray_print_cannot_corrupt_the_answers(self, monkeypatch,
                                                    capsys):
        import io

        from repro.pipeline import fsqueue

        def noisy(task, should_stop, jobs=None):
            print("stray output")
            return f"answer {task['n']}\n"

        monkeypatch.setattr(fsqueue, "run_task", noisy)
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 1}\n{"n": 2}\n'))
        fsqueue.stdio_loop()
        captured = capsys.readouterr()
        assert [json.loads(line) for line in captured.out.splitlines()] == [
            "answer 1\n", "answer 2\n"]
        assert captured.err == "stray output\n" * 2


class TestFaultsPerPool:
    """The faults every pool can express, through the one lease loop."""

    @pytest.mark.parametrize("pool", ["inline", "local", "queue"])
    def test_garbage_answer_counted_and_reassigned(self, fresh_cache,
                                                   tmp_path, monkeypatch,
                                                   pool):
        workers = None
        if pool == "local":
            transport = _SabotagedLocal(
                2, [sys.executable, "-c", "print('not a manifest')"])
        else:
            _sabotage_run_task(monkeypatch, pool,
                               lambda _run: "not a manifest\n")
            transport = InlineTransport(2)
            if pool == "queue":
                transport = QueueTransport(tmp_path / "pool")
                workers = _WorkerPool(transport.root)
                workers.attach()
        events: list[str] = []
        result = dispatch("table3", TINY, transport, chunks_per_worker=2,
                          lease_timeout=60, on_event=events.append)
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert result.attempts == result.chunks + 1
        assert any("unreadable" in e and "reassigning" in e for e in events)
        assert workers is None or workers.join_all()

    def test_hung_inline_thread_lease_expires(self, fresh_cache,
                                              monkeypatch):
        """``inline:`` has the fault ``local:`` and ``queue:`` are tested
        for above and below: a task silent past its lease is revoked (the
        cancel flag) and reassigned, and its late answer is dropped."""
        import time as time_mod

        def hang(run):
            time_mod.sleep(1.0)
            return run()

        _sabotage_run_task(monkeypatch, "inline", hang)
        events: list[str] = []
        result = dispatch("table3", TINY, InlineTransport(2),
                          lease_timeout=0.3, retries=8,
                          on_event=events.append)
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert any("lease expired" in e and "reassigning" in e
                   for e in events)


# ---------------------------------------------------------------------------
# The elastic queue transport (queue:DIR + `repro worker`)
# ---------------------------------------------------------------------------


class _WorkerPool:
    """In-process `repro worker` threads a test can attach and detach."""

    def __init__(self, root) -> None:
        self.root = root
        self.threads: list = []
        self.exits: list = []

    def attach(self, **kwargs):
        import threading

        stop = {"exit": False}
        thread = threading.Thread(
            target=worker_loop,
            kwargs=dict(root=self.root, poll=0.02,
                        should_exit=lambda: stop["exit"], **kwargs),
            daemon=True,
        )
        thread.start()
        self.threads.append(thread)
        self.exits.append(stop)
        return stop

    def join_all(self, timeout: float = 10.0) -> bool:
        for thread in self.threads:
            thread.join(timeout)
        return all(not t.is_alive() for t in self.threads)


@pytest.fixture
def queue_dir(tmp_path):
    return tmp_path / "pool"


class TestQueueTransport:
    def test_elastic_workers_byte_identical(self, fresh_cache, queue_dir):
        """Workers attach before and *during* the sweep (elastic pool);
        the merged output still matches the serial run byte for byte,
        and the stop sentinel releases every worker."""
        import threading
        import time as time_mod

        pool = _WorkerPool(queue_dir)
        pool.attach()

        def attach_late():
            time_mod.sleep(0.2)
            pool.attach()

        late = threading.Thread(target=attach_late, daemon=True)
        late.start()
        result = dispatch("table3", TINY, QueueTransport(queue_dir),
                          lease_timeout=60)
        late.join(5)
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert pool.join_all()
        # The dispatcher cleaned up: no tasks left, stop sentinel raised.
        transport = QueueTransport(queue_dir)
        assert transport.pending_counts() == (0, 0)
        assert transport.stop_path.exists()

    def test_worker_detaches_mid_chunk_lease_reassigned(
            self, fresh_cache, queue_dir):
        """The fault-injection contract for elastic pools: a worker that
        claims a chunk and detaches without finishing stops
        heartbeating, the lease expires, the chunk is re-enqueued, and
        the final artefact is byte-identical."""
        import os
        import threading
        import time as time_mod

        transport = QueueTransport(queue_dir)

        def saboteur():
            # Claim the first task that appears, then vanish (no
            # heartbeat, no result) — a killed worker, from the
            # dispatcher's point of view.
            deadline = time_mod.monotonic() + 30
            while time_mod.monotonic() < deadline:
                if transport.queue_dir.exists():
                    for task in sorted(transport.queue_dir.glob(
                            "chunk-*.json")):
                        try:
                            os.replace(task, transport.claimed_dir /
                                       (task.name + ".saboteur"))
                            return
                        except OSError:
                            pass
                time_mod.sleep(0.01)

        threading.Thread(target=saboteur, daemon=True).start()
        pool = _WorkerPool(queue_dir)

        def attach_honest():
            time_mod.sleep(0.3)
            pool.attach()

        threading.Thread(target=attach_honest, daemon=True).start()
        events: list[str] = []
        result = dispatch("table3", TINY, transport, lease_timeout=1.0,
                          retries=8, on_event=events.append)
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert result.attempts > result.chunks  # the stolen lease cost one
        assert any("lease expired" in e for e in events)
        assert any("reassigning" in e for e in events)
        assert pool.join_all()

    def test_worker_discards_revoked_manifest(self, fresh_cache, queue_dir,
                                              monkeypatch):
        """A slow-but-alive worker whose lease was revoked cancels its
        remaining jobs and discards the manifest instead of publishing a
        half-cancelled one; the re-leased chunk completes cleanly."""
        from repro.pipeline import batch

        original = batch.table3_cell
        state = {"slow_once": True}

        def slow(kernel_name, scale, use_cache=None):
            if state["slow_once"]:
                state["slow_once"] = False
                import time as time_mod

                time_mod.sleep(3.0)  # outlive the 1s lease below
            return original(kernel_name, scale, use_cache)

        patch_cell(monkeypatch, "table3", slow)
        pool = _WorkerPool(queue_dir)
        pool.attach()
        pool.attach()
        events: list[str] = []
        result = dispatch("table3", TINY, QueueTransport(queue_dir),
                          lease_timeout=1.0, retries=8,
                          on_event=events.append)
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert pool.join_all()

    def test_stale_compiler_tasks_left_in_queue(self, fresh_cache,
                                                queue_dir, monkeypatch):
        """A worker from a different checkout must not burn a lease on a
        task it cannot answer for: it leaves the task queued (with a
        note) for a matching worker."""
        from repro.pipeline import fsqueue

        transport = QueueTransport(queue_dir)
        transport.prepare()
        transport.submit("chunk-0001", 1, ChunkRequest(
            "table3", TINY, ShardSpec(1, 1)).payload())
        monkeypatch.setattr(fsqueue, "compiler_version", lambda: "0" * 16)
        events: list[str] = []
        exits = {"count": 0}

        def bail():
            exits["count"] += 1
            return exits["count"] > 20

        completed = worker_loop(queue_dir, poll=0.01, on_event=events.append,
                                should_exit=bail)
        assert completed == 0
        assert any("skipping" in e for e in events)
        assert transport.pending_counts()[0] == 1  # still queued

    def test_worker_max_chunks_detaches(self, fresh_cache, queue_dir):
        """`repro worker --max-chunks N` detaches after N chunks; the
        dispatcher finishes with whoever is left."""
        import threading
        import time as time_mod

        pool = _WorkerPool(queue_dir)
        pool.attach(max_chunks=1)

        def attach_late():
            time_mod.sleep(0.2)
            pool.attach()

        threading.Thread(target=attach_late, daemon=True).start()
        result = dispatch("table3", TINY, QueueTransport(queue_dir),
                          lease_timeout=60)
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert pool.join_all()

    @pytest.mark.parametrize("artifact", ["table6", "format_sweep"])
    def test_paper_sweeps_queue_byte_identical(self, fresh_cache, queue_dir,
                                               artifact):
        """The acceptance artefacts over an elastic pool: one worker
        detaches after two chunks, another attaches mid-sweep, and the
        merged table6/format_sweep still matches serial byte for byte."""
        import threading
        import time as time_mod

        pool = _WorkerPool(queue_dir)
        pool.attach(max_chunks=2)  # detaches cleanly mid-sweep

        def attach_late():
            time_mod.sleep(0.3)
            pool.attach()

        threading.Thread(target=attach_late, daemon=True).start()
        result = dispatch(artifact, TINY, QueueTransport(queue_dir),
                          lease_timeout=60)
        assert result.ok
        assert result.merged.text == _serial_text(artifact)
        assert pool.join_all()

    def test_old_queued_task_not_revoked_at_claim(self, fresh_cache,
                                                  queue_dir):
        """A task that waited in the queue longer than the lease must
        not be revoked the moment a worker claims it: the claim rename
        preserves the enqueue-time mtime, so the worker stamps the
        heartbeat immediately on claiming."""
        import threading
        import time as time_mod

        pool = _WorkerPool(queue_dir)

        def attach_late():
            time_mod.sleep(2.0)  # > lease_timeout: every task is "old"
            pool.attach()

        threading.Thread(target=attach_late, daemon=True).start()
        events: list[str] = []
        result = dispatch("table3", TINY, QueueTransport(queue_dir),
                          lease_timeout=1.0, on_event=events.append)
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert not any("lease expired" in e for e in events)
        assert result.attempts == result.chunks
        assert pool.join_all()

    def test_stop_queue_false_keeps_pool_attached(self, fresh_cache,
                                                  queue_dir):
        """A multi-artefact sweep dispatches back-to-back over one queue
        directory: with stop_queue=False the workers survive the first
        dispatch and serve the second; only the final (default) dispatch
        drains them."""
        pool = _WorkerPool(queue_dir)
        pool.attach()
        transport = QueueTransport(queue_dir)
        first = dispatch("table3", TINY, transport, lease_timeout=60,
                         stop_queue=False)
        assert first.ok
        assert not transport.stop_path.exists()
        assert all(t.is_alive() for t in pool.threads)
        second = dispatch("table3", TINY, transport, lease_timeout=60)
        assert second.ok
        assert second.merged.text == first.merged.text
        assert pool.join_all()

    def test_worker_task_error_is_surfaced(self, fresh_cache, queue_dir):
        """A worker that cannot run a task at all (here: an artefact its
        checkout cannot resolve) reports the root cause, and the
        dispatcher's failure report carries it instead of a generic
        'unreadable manifest' refusal."""
        from repro.pipeline.dispatch import accept_manifest
        from repro.pipeline.fsqueue import ERROR_FORMAT

        request = ChunkRequest("table7", TINY, ShardSpec(1, 1))
        transport = QueueTransport(queue_dir)
        transport.prepare()
        transport.submit("chunk-0001", 1, request.payload())
        exits = {"count": 0}

        def bail():
            exits["count"] += 1
            return exits["count"] > 200

        worker_loop(queue_dir, poll=0.01, should_exit=bail)
        results = transport.poll()
        assert len(results) == 1
        task_id, text, _why = results[0]
        assert task_id == "chunk-0001"
        assert json.loads(text)["format"] == ERROR_FORMAT
        manifest, why = accept_manifest(text, request)
        assert manifest is None
        assert "unknown artefact 'table7'" in why  # the worker's real error

    def test_result_write_failure_leaves_claim_to_expire(self, fresh_cache,
                                                         queue_dir,
                                                         monkeypatch):
        """A worker that cannot deliver its result (full/read-only
        mount) must leave its claim in place: the lease expires and the
        chunk is re-leased — never stranded with no task, no claim, and
        no result (which would hang the dispatch)."""
        from repro.pipeline import fsqueue

        real_write = fsqueue._atomic_write
        state = {"failed": False}

        def flaky_write(path, text):
            if not state["failed"] and path.parent.name == "results":
                state["failed"] = True
                raise OSError("injected: no space left on device")
            real_write(path, text)

        monkeypatch.setattr(fsqueue, "_atomic_write", flaky_write)
        pool = _WorkerPool(queue_dir)
        pool.attach()
        events: list[str] = []
        result = dispatch("table3", TINY, QueueTransport(queue_dir),
                          lease_timeout=1.0, retries=8,
                          on_event=events.append)
        assert state["failed"]
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert any("lease expired" in e for e in events)
        assert pool.join_all()

    def test_prepare_wipes_previous_dispatch_residue(self, tmp_path):
        """A crashed dispatch (shutdown never ran) leaves task/claim/
        result files behind; the next dispatch on the same directory
        must start clean instead of mistaking them for its own chunks."""
        transport = QueueTransport(tmp_path / "pool")
        transport.prepare()
        transport.submit("chunk-0001", 1, ChunkRequest(
            "table6", 0.05, ShardSpec(1, 2)).payload())
        (transport.claimed_dir / "chunk-0002-a1.json.dead").write_text("{}")
        (transport.results_dir / "chunk-0003-a1.w.json").write_text("{}")
        transport.prepare()
        assert transport.pending_counts() == (0, 0)
        assert list(transport.results_dir.glob("chunk-*")) == []

    def test_queue_reports_summary_payload(self, fresh_cache, queue_dir):
        pool = _WorkerPool(queue_dir)
        pool.attach()
        result = dispatch("table3", TINY, QueueTransport(queue_dir),
                          lease_timeout=60)
        payload = json.loads(json.dumps(dispatch_summary_payload(result)))
        assert payload["ok"] is True
        assert payload["transport"].startswith("queue:")
        assert pool.join_all()


# ---------------------------------------------------------------------------
# Resume
# ---------------------------------------------------------------------------


class TestResume:
    def test_resume_skips_completed_chunks(self, fresh_cache, tmp_path,
                                           monkeypatch):
        from repro.pipeline import batch

        state = tmp_path / "state"
        state.mkdir()
        # A previous dispatch (slots=1 -> 4 chunks) completed chunks 1-2.
        chunks = chunk_count(len(artifact_jobs("table3", TINY)), 1)
        prior_keys: set[tuple] = set()
        for i in (1, 2):
            manifest = run_shard("table3", TINY, ShardSpec(i, chunks))
            manifest.save(state / f"table3.chunk{i}of{chunks}.json")
            prior_keys.update(manifest.job_keys())

        calls: list[str] = []
        original = batch.table3_cell

        def counting(kernel_name, scale, use_cache=None):
            calls.append(kernel_name)
            return original(kernel_name, scale, use_cache)

        patch_cell(monkeypatch, "table3", counting)
        result = dispatch("table3", TINY, InlineTransport(1),
                          state_dir=state)
        ran = {(k, "-", "loc") for k in calls}
        assert result.ok
        assert result.merged.text == _serial_text("table3")
        assert result.resumed_chunks == 2
        assert result.attempts == chunks - 2
        # No job from an already-completed chunk ran again.
        assert not ran & prior_keys

    def test_resume_ignores_stale_compiler_manifests(self, fresh_cache,
                                                     tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        chunks = chunk_count(len(artifact_jobs("table3", TINY)), 1)
        manifest = run_shard("table3", TINY, ShardSpec(1, chunks))
        manifest.compiler = "0" * 16
        manifest.save(state / f"table3.chunk1of{chunks}.json")

        events: list[str] = []
        result = dispatch("table3", TINY, InlineTransport(1),
                          state_dir=state, on_event=events.append)
        assert result.ok
        assert result.resumed_chunks == 0
        assert result.attempts == chunks
        assert any("stale" in e for e in events)

    def test_resume_reruns_chunks_with_failures(self, fresh_cache, tmp_path,
                                                monkeypatch):
        from repro.pipeline import batch

        state = tmp_path / "state"
        state.mkdir()
        chunks = chunk_count(len(artifact_jobs("table3", TINY)), 1)
        original = batch.table3_cell

        def broken(kernel_name, scale, use_cache=None):
            raise RuntimeError("injected failure")

        patch_cell(monkeypatch, "table3", broken)
        bad = run_shard("table3", TINY, ShardSpec(1, chunks))
        assert bad.failures()
        bad.save(state / f"table3.chunk1of{chunks}.json")
        patch_cell(monkeypatch, "table3", original)

        result = dispatch("table3", TINY, InlineTransport(1),
                          state_dir=state)
        assert result.ok
        assert result.resumed_chunks == 0
        assert result.merged.text == _serial_text("table3")

    def test_state_dir_holds_all_manifests(self, fresh_cache, tmp_path):
        state = tmp_path / "state"
        result = dispatch("table3", TINY, InlineTransport(2),
                          state_dir=state)
        assert result.ok
        saved = sorted(state.glob("table3.chunk*.json"))
        assert len(saved) == result.chunks
        # A state directory always resumes: the second dispatch into it
        # leases nothing and prints the same text.
        again = dispatch("table3", TINY, InlineTransport(2),
                         state_dir=state)
        assert again.resumed_chunks == again.chunks == result.chunks
        assert again.attempts == 0
        assert again.merged.text == result.merged.text

    def test_resume_ignores_another_chunk_layout(self, fresh_cache,
                                                 tmp_path):
        """Only the planned chunks' own files are looked at: a finished
        sweep cut for another pool width is neither reused nor an error."""
        state = tmp_path / "state"
        first = dispatch("table3", TINY, InlineTransport(1), state_dir=state)
        again = dispatch("table3", TINY, InlineTransport(2), state_dir=state)
        assert first.ok and again.ok
        assert again.chunks != first.chunks
        assert again.resumed_chunks == 0

    def test_resume_refuses_the_wrong_chunk_in_a_chunk_file(self, fresh_cache,
                                                            tmp_path):
        """Resume is acceptance: a file holding another chunk's manifest
        is refused with accept_manifest's reason, and the chunk runs."""
        state = tmp_path / "state"
        chunks = chunk_count(len(artifact_jobs("table3", TINY)), 1)
        run_shard("table3", TINY, ShardSpec(2, chunks)).save(
            state / f"table3.chunk1of{chunks}.json")
        events: list[str] = []
        result = dispatch("table3", TINY, InlineTransport(1),
                          state_dir=state, on_event=events.append)
        assert result.ok and result.resumed_chunks == 0
        assert sum(e.startswith("resume:") for e in events) == 1
        assert any("answered for the wrong chunk" in e for e in events)
        assert result.merged.text == _serial_text("table3")

    def test_state_dir_that_is_a_file_is_a_dispatch_error(self, tmp_path):
        state = tmp_path / "state"
        state.write_text("not a directory")
        with pytest.raises(DispatchError) as refusal:
            dispatch("table3", TINY, InlineTransport(1), state_dir=state)
        assert f"{state} exists and is not a directory" in str(refusal.value)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_dispatch_byte_identical_to_tables(self, fresh_cache, capsys):
        from repro.__main__ import main

        assert main(["dispatch", "table3", "--workers", "inline:2",
                     "--scale", "0.02", "--quiet"]) == 0
        dispatched = capsys.readouterr().out
        assert dispatched == _serial_text("table3") + "\n"

    def test_dispatch_writes_out_file(self, fresh_cache, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "merged.txt"
        assert main(["dispatch", "table3", "--workers", "inline:2",
                     "--scale", "0.02", "--quiet", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_dispatch_resume_round_trip(self, fresh_cache, tmp_path, capsys):
        from repro.__main__ import main

        state = tmp_path / "state"
        args = ["dispatch", "table3", "--workers", "inline:2",
                "--scale", "0.02", "--quiet", "--resume", str(state)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr()
        assert second.out == first
        assert "resumed" in second.err

    def test_dispatch_without_ssh_cannot_launch(self, fresh_cache, tmp_path,
                                                monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("PATH", str(tmp_path))  # no ssh binary on it
        assert main(["dispatch", "table3", "--workers", "ssh:nohost",
                     "--scale", "0.02", "--quiet"]) == 2
        assert ("dispatch error: cannot launch workers over ssh:nohost"
                in capsys.readouterr().err)

    def test_dispatch_rejects_bad_transport(self, capsys):
        from repro.__main__ import main

        assert main(["dispatch", "table3", "--workers", "carrier-pigeon:2",
                     "--scale", "0.02"]) == 2
        assert "dispatch error" in capsys.readouterr().err

    def test_dispatch_reports_quarantine(self, fresh_cache, monkeypatch,
                                         capsys):
        from repro.__main__ import main
        from repro.pipeline import batch

        def broken(kernel_name, scale, use_cache=None):
            raise RuntimeError("injected failure")

        patch_cell(monkeypatch, "table3", broken)
        assert main(["dispatch", "table3", "--workers", "inline:1",
                     "--scale", "0.02", "--quiet", "--retries", "0"]) == 1
        err = capsys.readouterr().err
        assert "QUARANTINED" in err

    def test_worker_cli_exits_on_stopped_queue(self, tmp_path, capsys):
        from repro.__main__ import main

        transport = QueueTransport(tmp_path / "pool")
        transport.prepare()
        transport.close(stop=True)  # raise the stop sentinel; queue is empty
        assert main(["worker", str(tmp_path / "pool"), "--poll", "0.01",
                     "--quiet"]) == 0
        assert "0 chunk(s) completed" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--poll", "-1"], ["--poll", "0"],
                                       ["--max-chunks", "0"]],
                             ids=" ".join)
    def test_worker_refuses_bad_poll_and_max_chunks(self, flags, tmp_path,
                                                    capsys):
        """A negative or zero ``--poll`` (a sleep that raises, a scan that
        spins) and a ``--max-chunks`` below 1 (a chunk run when none
        should be) are argparse's error and exit 2. The queue is already
        stopped, so a worker that starts returns 0 instead of hanging."""
        from repro.__main__ import main

        transport = QueueTransport(tmp_path / "pool")
        transport.prepare()
        transport.close(stop=True)
        with pytest.raises(SystemExit) as exit_info:
            main(["worker", str(tmp_path / "pool"), *flags, "--quiet"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        kind = "integer" if flags[0] == "--max-chunks" else "number"
        assert err.endswith(f"error: argument {flags[0]}: {flags[0][2:]} "
                            f"must be a positive {kind}, got {flags[1]!r}")

    def test_dispatch_queue_cli_round_trip(self, fresh_cache, tmp_path,
                                           capsys):
        import threading

        from repro.__main__ import main

        qdir = tmp_path / "pool"
        worker = threading.Thread(
            target=main,
            args=(["worker", str(qdir), "--poll", "0.02", "--quiet"],),
            daemon=True)
        worker.start()
        assert main(["dispatch", "table3", "--workers", f"queue:{qdir}",
                     "--scale", "0.02", "--quiet",
                     "--lease-timeout", "60"]) == 0
        assert capsys.readouterr().out == _serial_text("table3") + "\n"
        worker.join(10)
        assert not worker.is_alive()

    def test_batch_shard_rejects_explicit_positions(self, fresh_cache,
                                                    capsys):
        from repro.__main__ import main

        assert main(["batch", "table3", "--scale", "0.02",
                     "--shard", "1/2=0,3", "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid shard spec '1/2=0,3'" in captured.err

    def test_batch_out_dash_streams_manifest(self, fresh_cache, capsys):
        from repro.__main__ import main
        from repro.pipeline.shard import ShardManifest

        assert main(["batch", "table3", "--scale", "0.02",
                     "--shard", "1/2", "--out", "-"]) == 0
        captured = capsys.readouterr()
        manifest = ShardManifest.from_dict(json.loads(captured.out))
        assert manifest.artifact == "table3"
        assert manifest.shard == ShardSpec(1, 2)
        assert "shard 1/2 of table3" in captured.err


# ---------------------------------------------------------------------------
# Executor cancellation (the inline lease-revocation mechanism)
# ---------------------------------------------------------------------------


class TestShouldStop:
    def test_cancelled_jobs_do_not_run(self):
        from repro.pipeline.executor import Job, run_jobs

        ran: list[int] = []
        flag = {"stop": False}

        def work(i):
            ran.append(i)
            if i == 1:
                flag["stop"] = True
            return i

        jobs = [Job((i,), work, (i,)) for i in range(5)]
        results = run_jobs(jobs, max_workers=1,
                           should_stop=lambda: flag["stop"])
        assert ran == [0, 1]
        assert [r.ok for r in results] == [True, True, False, False, False]
        assert "cancelled" in results[2].error
