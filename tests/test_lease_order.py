"""Tests for the dispatcher's cost table and the lease order read from it.

The contract: every dispatch records the observed per-job wall times of
the chunks it executed into a persistent ``cost`` cache stage, and the
next one cuts the *same* uniform chunks but leases them heaviest
recorded cost first, on every transport. The partition never depends on
the table, so the merge stays byte-identical to the serial run and a
resumed dispatch always finds its own chunk files.
"""

from __future__ import annotations

import threading

import pytest

from repro.pipeline.batch import artifact_jobs, format_artifact, run_artifact
from repro.pipeline.cache import compiler_version
from repro.pipeline.dispatch import (
    InlineTransport,
    QueueTransport,
    chunk_count,
    dispatch,
    load_costs,
    record_manifest_costs,
)
from repro.pipeline.fsqueue import worker_loop
from repro.pipeline.shard import ShardManifest, ShardSpec, run_shard
from tests.conftest import patch_cell

TINY = 0.02

# Cache isolation comes from the shared ``fresh_cache`` fixture in
# tests/conftest.py.


def _serial_text(artifact: str, scale: float = TINY) -> str:
    return format_artifact(artifact, run_artifact(artifact, scale))


def _record(artifact: str, scale: float, key: tuple, seconds: float) -> None:
    """Hand-fill one cost-table entry through the table's one writer."""
    record_manifest_costs([ShardManifest(
        artifact, scale, ShardSpec(1, 1), compiler_version(), 1,
        [{"key": list(key), "ok": True, "seconds": seconds}])])


# ---------------------------------------------------------------------------
# The cost table
# ---------------------------------------------------------------------------


class TestCostTable:
    def test_record_and_load(self, fresh_cache):
        keys = [("SpMV", "-", "loc"), ("SpMM", "-", "loc")]
        _record("table3", TINY, keys[0], 1.5)
        costs = load_costs("table3", TINY, keys)
        assert costs == {keys[0]: 1.5}

    def test_latest_observation_wins(self, fresh_cache):
        key = ("SpMV", "-", "loc")
        _record("table3", TINY, key, 5.0)
        _record("table3", TINY, key, 0.25)
        assert load_costs("table3", TINY, [key]) == {key: 0.25}

    def test_scales_do_not_collide(self, fresh_cache):
        key = ("SpMV", "-", "loc")
        _record("table3", 0.02, key, 1.0)
        _record("table3", 0.25, key, 9.0)
        assert load_costs("table3", 0.02, [key]) == {key: 1.0}
        assert load_costs("table3", 0.25, [key]) == {key: 9.0}

    def test_manifest_recording_skips_failures(self, fresh_cache,
                                               monkeypatch):
        from repro.pipeline import batch

        original = batch.table3_cell

        def flaky(kernel_name, scale, use_cache=None):
            if kernel_name == "SpMV":
                raise RuntimeError("injected failure")
            return original(kernel_name, scale, use_cache)

        patch_cell(monkeypatch, "table3", flaky)
        manifest = run_shard("table3", TINY, ShardSpec(1, 1))
        assert manifest.failures()
        keys = [job.key for job in artifact_jobs("table3", TINY)]
        # Running a shard writes nothing: the dispatcher is the one writer.
        assert load_costs("table3", TINY, keys) == {}
        recorded = record_manifest_costs([manifest])
        costs = load_costs("table3", TINY, keys)
        assert ("SpMV", "-", "loc") not in costs
        assert recorded == len(keys) - len(manifest.failures())

    def test_serial_runs_do_not_write_the_table(self, fresh_cache):
        """``tables`` / ``batch`` used to write one ``cost`` entry per
        job; the table now has one writer, the dispatcher."""
        run_artifact("table3", TINY)
        keys = [job.key for job in artifact_jobs("table3", TINY)]
        assert load_costs("table3", TINY, keys) == {}

    def test_resumed_chunks_do_not_rerecord_stale_costs(self, fresh_cache,
                                                        tmp_path):
        """Resumed manifests carry a previous run's wall times; a fully
        resumed dispatch must not stamp them over fresher cost-table
        observations ("latest wins" means latest *execution*)."""
        state = tmp_path / "state"
        first = dispatch("table3", TINY, InlineTransport(1),
                         state_dir=state, resume=True)
        assert first.ok and first.costs_recorded > 0
        key = ("SpMV", "-", "loc")
        _record("table3", TINY, key, 123.0)  # a fresher observation
        again = dispatch("table3", TINY, InlineTransport(1),
                         state_dir=state, resume=True)
        assert again.ok
        assert again.resumed_chunks == again.chunks  # nothing executed
        assert again.costs_recorded == 0
        assert load_costs("table3", TINY, [key]) == {key: 123.0}


# ---------------------------------------------------------------------------
# The lease order
# ---------------------------------------------------------------------------


def _weigh_chunks(artifact: str, keys: list[tuple], chunks: int,
                  weight) -> None:
    """Record ``weight(i)`` seconds on the first job of every chunk ``i``
    it returns a number for; the rest of the table stays empty."""
    for i in range(1, chunks + 1):
        if weight(i) is not None:
            _record(artifact, TINY, ShardSpec(i, chunks).select(keys)[0],
                    weight(i))


def _pool(kind: str, tmp_path):
    """A one-worker pool of ``kind`` and the thread serving it, if any."""
    if kind == "inline":
        return InlineTransport(1), None
    worker = threading.Thread(
        target=worker_loop, kwargs=dict(root=tmp_path / "pool", poll=0.02),
        daemon=True)
    worker.start()
    return QueueTransport(tmp_path / "pool"), worker


@pytest.fixture
def calls(monkeypatch) -> list[str]:
    """The kernel of every table3 cell run, in the order they started."""
    from repro.pipeline import batch

    calls: list[str] = []
    original = batch.table3_cell

    def counting(kernel_name, scale, use_cache=None):
        calls.append(kernel_name)
        return original(kernel_name, scale, use_cache)

    patch_cell(monkeypatch, "table3", counting)
    return calls


def _started(calls: list[str], keys: list[tuple], chunks: int) -> list[int]:
    """The order the chunks *started running* in, observed at the cell
    (meaningful after a one-worker dispatch)."""
    position = {key[0]: p for p, key in enumerate(keys)}
    return list(dict.fromkeys(position[name] % chunks + 1 for name in calls))


class TestLeaseOrder:
    @pytest.mark.parametrize("kind", ["inline", "queue"])
    def test_heaviest_chunk_starts_first(self, fresh_cache, tmp_path,
                                         calls, kind):
        """With a hand-filled table one worker runs the chunks in
        descending recorded cost, whether the pool starts tasks in
        submit order (slots) or its worker claims the lowest task id
        (queue:DIR). A chunk with no recorded job weighs 0: it is last."""
        transport, worker = _pool(kind, tmp_path)
        keys = [job.key for job in artifact_jobs("table3", TINY)]
        chunks = chunk_count(len(keys), transport.slots)
        assert chunks > 2
        _weigh_chunks("table3", keys, chunks,
                      lambda i: float(i) if i > 1 else None)
        events: list[str] = []
        result = dispatch("table3", TINY, transport, lease_timeout=60,
                          on_event=events.append)
        assert result.ok and result.chunks == chunks
        assert _started(calls, keys, chunks) == [*range(chunks, 1, -1), 1]
        assert (f"lease order: {chunks - 1}/{len(keys)} job costs on "
                f"record") in events
        assert result.merged.text == _serial_text("table3")
        if worker is not None:
            worker.join(10)
            assert not worker.is_alive()

    def test_cold_table_leases_in_index_order(self, fresh_cache, calls):
        events: list[str] = []
        result = dispatch("table3", TINY, InlineTransport(1),
                          on_event=events.append)
        keys = [job.key for job in artifact_jobs("table3", TINY)]
        assert result.ok
        assert (_started(calls, keys, result.chunks)
                == [*range(1, result.chunks + 1)])
        assert f"lease order: 0/{len(keys)} job costs on record" in events
        # ... and the cold sweep recorded the costs the next one reads.
        assert result.costs_recorded == len(keys)

    @pytest.mark.parametrize("workers", ["inline:2", "local:2"])
    @pytest.mark.parametrize("artifact", ["table6", "format_sweep"])
    def test_paper_sweeps_cold_then_warm_byte_identical(
            self, fresh_cache, artifact, workers):
        """The acceptance artefacts: dispatched over a cold table, then
        over the table that pass recorded, table6 and format_sweep match
        the serial run byte for byte."""
        serial = _serial_text(artifact, 0.05)
        total = len(artifact_jobs(artifact, 0.05))
        for recorded in (0, total):
            events: list[str] = []
            result = dispatch(artifact, 0.05, workers,
                              on_event=events.append)
            assert result.ok
            assert (f"lease order: {recorded}/{total} job costs on "
                    f"record") in events
            assert result.merged.text == serial

    def test_resume_survives_a_rewritten_cost_table(self, fresh_cache,
                                                    tmp_path, calls):
        """A dispatch interrupted after two chunks resumes exactly those
        two although the cost table, and with it the lease order, changed
        in between: the chunk layout does not depend on the table."""
        class Interrupt(Exception):
            pass

        done: list[str] = []

        def interrupt_after_two(message: str) -> None:
            if ": done (" in message:
                done.append(message)
                if len(done) == 2:
                    raise Interrupt

        state = tmp_path / "state"
        keys = [job.key for job in artifact_jobs("table3", TINY)]
        chunks = chunk_count(len(keys), 1)
        _weigh_chunks("table3", keys, chunks, lambda i: float(i))
        with pytest.raises(Interrupt):
            dispatch("table3", TINY, InlineTransport(1), state_dir=state,
                     resume=True, on_event=interrupt_after_two)
        finished = {chunks, chunks - 1}  # the two heaviest ran first
        assert {int(path.name.split("chunk")[1].split("of")[0])
                for path in state.glob("table3.chunk*.json")} == finished

        _weigh_chunks("table3", keys, chunks, lambda i: float(chunks - i))
        events: list[str] = []
        del calls[:]
        result = dispatch("table3", TINY, InlineTransport(1),
                          state_dir=state, resume=True,
                          on_event=events.append)
        assert result.ok
        assert result.resumed_chunks == 2
        assert result.attempts == chunks - 2
        assert not any("re-running" in e for e in events)
        # No job of the two chunks it found on disk ran again (the chunk
        # in flight at the interrupt may still be finishing: not one of
        # them).
        assert not set(_started(calls, keys, chunks)) & finished
        assert result.merged.text == _serial_text("table3")
