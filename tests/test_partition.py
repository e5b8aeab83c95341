"""Single-kernel distribution (repro.pipeline.partition).

Covers the pseudo-artifact naming, the row-block slice primitives
(hypothesis: the level-array view equals the coordinate filter, and
slices round-trip losslessly through empty blocks and blocks ending on
empty rows), byte-identity of the reducing merge against the serial run
per engine, staging the operand once per request, binary partials in
shard manifests, the shard/dispatch integration (killed worker and
``--resume`` included), the typed-API ``partition`` action, and the
``part-*`` queue task naming.
"""

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.convert import (
    ConversionError,
    position_sliceable,
    slice_positions,
    slice_rows,
)
from repro.formats.format import format_of
from repro.pipeline.executor import run_jobs
from repro.pipeline.partition import (
    PARTITION_FORMATS,
    PartitionError,
    PartitionPlan,
    block_range,
    format_partition,
    is_partition_artifact,
    parse_partition,
    partition_artifact,
    reduce_partials,
    serial_report,
)
from repro.tensor.storage import pack, unpack
from tests.conftest import assert_same_storage, start_vanishing_worker

TINY = 0.03
DATASET = "bcsstk30"


# ---------------------------------------------------------------------------
# Naming
# ---------------------------------------------------------------------------


class TestNaming:
    def test_round_trip(self):
        name = partition_artifact("SpMV", DATASET, 4)
        assert name == "partition:SpMV:bcsstk30:p4:row"
        assert is_partition_artifact(name)
        assert parse_partition(name) == PartitionPlan("SpMV", DATASET, 4)

    def test_sum_mode_round_trip(self):
        plan = PartitionPlan("DCSR-SpMM", DATASET, 3, "sum")
        assert parse_partition(plan.artifact) == plan

    def test_rejects_non_partition(self):
        assert not is_partition_artifact("table6")
        with pytest.raises(PartitionError, match="not a partition"):
            parse_partition("table6")

    def test_rejects_malformed(self):
        with pytest.raises(PartitionError, match="malformed"):
            parse_partition("partition:SpMV:bcsstk30:4:row")
        with pytest.raises(PartitionError, match="malformed partition count"):
            parse_partition("partition:SpMV:bcsstk30:pX:row")

    def test_rejects_bad_plans(self):
        with pytest.raises(PartitionError, match="not partitionable"):
            PartitionPlan("Plus3", DATASET, 2)
        with pytest.raises(PartitionError, match="unknown partition mode"):
            PartitionPlan("SpMV", DATASET, 2, "col")
        with pytest.raises(PartitionError, match="count must be >= 1"):
            PartitionPlan("SpMV", DATASET, 0)
        with pytest.raises(PartitionError, match="not a matrix dataset"):
            PartitionPlan("SpMV", "nope", 2)

    def test_partitionable_kernels_are_derived_from_the_records(self):
        """COO-SpMV falls to the capability rule, BCSR-SpMV to its order,
        MatTransMul to CSC's root storing mode 1 (and, like Residual and
        SDDMM, to its extra operands)."""
        assert PARTITION_FORMATS == {"SpMV": "csr", "DCSR-SpMM": "dcsr"}
        assert [position_sliceable(format_of(name))
                for name in ("csr", "dcsr", "csc", "coo", "bcsr")] == [
            True, True, True, False, False]

    def test_block_range_covers_extent(self):
        for extent in (0, 1, 7, 12):
            for count in (1, 3, 5, 13):
                ranges = [block_range(extent, count, i)
                          for i in range(count)]
                assert ranges[0][0] == 0
                assert ranges[-1][1] == extent
                for (_, hi), (nlo, _) in zip(ranges, ranges[1:]):
                    assert hi == nlo


# ---------------------------------------------------------------------------
# Row-block slicing (hypothesis): repro convert's slice primitive
# ---------------------------------------------------------------------------


@st.composite
def sparse_matrices(draw):
    """Small COO matrices with plenty of empty rows in the tail.

    Row coordinates are drawn from the lower half of the row extent, so
    generated matrices routinely end on runs of empty rows — the case
    that makes naive pos-array slicing lose or duplicate entries.
    """
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 8))
    n = draw(st.integers(0, 20))
    cells = draw(st.lists(
        st.tuples(st.integers(0, max(0, (nrows - 1) // 2)),
                  st.integers(0, ncols - 1)),
        min_size=n, max_size=n, unique=True))
    vals = [draw(st.floats(0.5, 10.0, allow_nan=False)) for _ in cells]
    coords = np.array(cells, dtype=np.int64).reshape(len(cells), 2)
    return coords, np.array(vals, dtype=np.float64), (nrows, ncols)


@given(sparse_matrices(), st.sampled_from(sorted(PARTITION_FORMATS.values())),
       st.integers(1, 15), st.data())
@settings(max_examples=120, deadline=None)
def test_slice_rows_round_trips_losslessly(matrix, fmt_name, count, data):
    """Concatenating every block's rebased slice reproduces the matrix.

    ``count`` may exceed the row extent, so empty blocks (lo == hi) and
    blocks that end on empty rows are exercised constantly.
    """
    coords, vals, dims = matrix
    full = pack(coords, vals, dims, format_of(fmt_name))
    ref_coords, ref_vals = unpack(full)

    got_coords, got_vals, nnz_total = [], [], 0
    for index in range(count):
        lo, hi = block_range(dims[0], count, index)
        sliced = slice_rows(full, lo, hi)
        assert sliced.dims == (hi - lo, dims[1])
        nnz_total += int(sliced.nnz)
        c, v = unpack(sliced)
        if len(c):
            assert c[:, 0].min() >= 0 and c[:, 0].max() < hi - lo
            shifted = c.copy()
            shifted[:, 0] += lo  # un-rebase into the full coordinate space
            got_coords.append(shifted)
            got_vals.append(v)

    assert nnz_total == int(full.nnz)
    if got_coords:
        got_c = np.concatenate(got_coords, axis=0)
        got_v = np.concatenate(got_vals)
    else:
        got_c = np.empty((0, 2), dtype=np.int64)
        got_v = np.empty(0)
    np.testing.assert_array_equal(got_c, ref_coords)
    np.testing.assert_array_equal(got_v, ref_vals)


@given(sparse_matrices(), st.sampled_from(sorted(PARTITION_FORMATS.values())),
       st.data())
@settings(max_examples=150, deadline=None)
def test_slice_positions_equals_slice_rows(matrix, fmt_name, data):
    """The level-array view is the coordinate filter, array for array.

    ``lo``/``hi`` are drawn freely, so ``lo == hi``, ranges made only of
    empty rows and ranges ending on empty rows (the generator leaves the
    upper half of the rows empty) all occur.
    """
    coords, vals, dims = matrix
    full = pack(coords, vals, dims, format_of(fmt_name))
    lo = data.draw(st.integers(0, dims[0]))
    hi = data.draw(st.integers(lo, dims[0]))
    assert_same_storage(slice_positions(full, lo, hi),
                        slice_rows(full, lo, hi))


def test_slice_positions_rejects_bad_input():
    csr = pack(np.array([[0, 0]]), np.array([1.0]), (2, 2), format_of("csr"))
    with pytest.raises(ConversionError, match="out of bounds"):
        slice_positions(csr, 1, 3)
    bcsr = pack(np.zeros((0, 4), dtype=np.int64), np.zeros(0),
                (1, 1, 4, 4), format_of("bcsr"))
    with pytest.raises(ConversionError, match="blocked format"):
        slice_positions(bcsr, 0, 1)
    coo = pack(np.array([[0, 0]]), np.array([1.0]), (2, 2), format_of("coo"))
    with pytest.raises(ConversionError, match="cannot position-slice"):
        slice_positions(coo, 0, 1)


@given(sparse_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_slice_rows_axis1_round_trips(matrix, data):
    """Contraction-axis slices partition the entries by column."""
    coords, vals, dims = matrix
    full = pack(coords, vals, dims, format_of("csr"))
    count = data.draw(st.integers(1, dims[1] + 2))
    nnz_total = 0
    for index in range(count):
        lo, hi = block_range(dims[1], count, index)
        sliced = slice_rows(full, lo, hi, axis=1)
        assert sliced.dims == (dims[0], hi - lo)
        nnz_total += int(sliced.nnz)
    assert nnz_total == int(full.nnz)


def test_slice_rows_rejects_bad_ranges():
    full = pack(np.array([[0, 0]]), np.array([1.0]), (2, 2),
                format_of("csr"))
    with pytest.raises(ConversionError, match="out of bounds"):
        slice_rows(full, 0, 3)
    with pytest.raises(ConversionError, match="out of bounds"):
        slice_rows(full, 2, 1)
    with pytest.raises(ConversionError, match="out of range"):
        slice_rows(full, 0, 1, axis=2)


# ---------------------------------------------------------------------------
# Reducing merge: byte-identity and oracle validation
# ---------------------------------------------------------------------------


def _merged_text(kernel: str, count: int, mode: str = "row",
                 engine: str | None = None) -> str:
    plan = PartitionPlan(kernel, DATASET, count, mode)
    results = run_jobs(plan.jobs(TINY, engine=engine))
    return format_partition(reduce_partials(plan.artifact, results))


class TestReduce:
    @pytest.mark.parametrize("kernel", sorted(PARTITION_FORMATS))
    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_row_merge_byte_identical_to_serial(self, fresh_cache, kernel,
                                                count):
        serial = serial_report(kernel, DATASET, TINY)
        assert _merged_text(kernel, count) == serial

    @pytest.mark.parametrize("kernel", sorted(PARTITION_FORMATS))
    @pytest.mark.parametrize("engine", ["numpy", "cpu"])
    def test_every_count_byte_identical_per_engine(self, fresh_cache, kernel,
                                                   engine):
        """Blocks honour the engine, and on each engine every P renders
        the serial report byte for byte (7 does not divide the rows)."""
        serial = serial_report(kernel, DATASET, TINY, engine=engine)
        for count in (1, 2, 3, 4, 7):
            assert _merged_text(kernel, count, engine=engine) == serial, count

    def test_engine_joins_the_cell_key(self, fresh_cache):
        """A block computed on one engine is not served to another."""
        plan = PartitionPlan("SpMV", DATASET, 2)
        for engine in ("numpy", "cpu", "numpy"):
            run_jobs(plan.jobs(TINY, engine=engine))
        stats = fresh_cache.stats.as_dict()["stages"]["partition"]
        assert (stats["misses"], stats["hits"]) == (4, 2)

    def test_blocks_run_the_compiled_kernel_on_the_engine(self, fresh_cache,
                                                          monkeypatch):
        """Each block goes through ``CompiledKernel.run_engine``, strict."""
        from repro.core.compiler import CompiledKernel

        calls = []
        real = CompiledKernel.run_engine

        def spy(self, engine=None, strict=False):
            calls.append((self.name, engine, strict))
            return real(self, engine, strict)

        monkeypatch.setattr(CompiledKernel, "run_engine", spy)
        _merged_text("DCSR-SpMM", 3, engine="cpu")
        assert calls == [("DCSR-SpMM", "cpu", True)] * 3

    @pytest.mark.parametrize("kernel", sorted(PARTITION_FORMATS))
    def test_sum_merge_validates_against_oracle(self, fresh_cache, kernel):
        text = _merged_text(kernel, 3, mode="sum")
        assert "mode sum" in text
        # The oracle check ran and passed inside reduce_partials.
        assert "oracle maxerr" in text

    def test_reduce_rejects_foreign_results(self, fresh_cache):
        plan = PartitionPlan("SpMV", DATASET, 2)
        results = run_jobs(plan.jobs(TINY))
        other = PartitionPlan("SpMV", DATASET, 2, "sum")
        with pytest.raises(PartitionError, match="this plan's jobs"):
            reduce_partials(other.artifact, results)

    def test_reduce_rejects_missing_block(self, fresh_cache):
        plan = PartitionPlan("SpMV", DATASET, 3)
        results = run_jobs(plan.jobs(TINY))
        with pytest.raises(PartitionError, match="expected blocks 0..2"):
            reduce_partials(plan.artifact, results[:-1])

    def test_reduce_names_artefact_in_errors(self, fresh_cache):
        plan = PartitionPlan("SpMV", DATASET, 2)
        results = run_jobs(plan.jobs(TINY))
        with pytest.raises(PartitionError,
                           match="partition:SpMV:bcsstk30:p2:row"):
            reduce_partials(plan.artifact, results[:1])


# ---------------------------------------------------------------------------
# Staging: once per request, under the caller's use_cache
# ---------------------------------------------------------------------------


class TestStaging:
    @pytest.fixture
    def stagings(self, monkeypatch):
        """Every ``staged_matrix_storage`` call as (use_cache, computed)."""
        import repro.convert as convert_mod

        calls = []
        real_stage, real_convert = (convert_mod.staged_matrix_storage,
                                    convert_mod.convert)

        def stage(dataset, scale, seed, fmt, use_cache=None):
            calls.append([use_cache, False])
            return real_stage(dataset, scale, seed, fmt, use_cache)

        def convert(*args, **kwargs):  # only a staging *compute* converts
            calls[-1][1] = True
            return real_convert(*args, **kwargs)

        monkeypatch.setattr(convert_mod, "staged_matrix_storage", stage)
        monkeypatch.setattr(convert_mod, "convert", convert)
        return calls

    @pytest.mark.parametrize("split", ["row", "sum"])
    def test_no_cache_request_stages_exactly_once(self, fresh_cache,
                                                  stagings, split):
        """P=4 uncached: four blocks, the reduce's nnz check and the
        oracle all read one staging (it was 2P + 2 before)."""
        from repro.api import CompileRequest, partition

        for _ in range(2):  # per request, not per process
            stagings.clear()
            partition(CompileRequest(action="partition", kernel="SpMV",
                                     dataset=DATASET, scale=TINY,
                                     partition=4, split=split),
                      use_cache=False)
            assert stagings == [[False, True]]

    def test_no_cache_dispatch_reduce_bypasses_the_cache(self, fresh_cache,
                                                         stagings):
        """The merge's oracle staging honours --no-cache too (it used to
        read the convert stage with the default ``use_cache``)."""
        from repro.pipeline.dispatch import dispatch

        artifact = partition_artifact("SpMV", DATASET, 2)
        result = dispatch(artifact, TINY, "inline:1", chunks_per_worker=2,
                          use_cache=False)
        assert result.ok
        assert stagings and all(call == [False, True] for call in stagings)

    def test_warm_block_is_answered_without_staging(self, fresh_cache,
                                                    stagings):
        plan = PartitionPlan("SpMV", DATASET, 2)
        run_jobs(plan.jobs(TINY))
        stagings.clear()
        warm = run_jobs(plan.jobs(TINY))
        assert all(res.ok for res in warm) and stagings == []


# ---------------------------------------------------------------------------
# Shard/dispatch integration
# ---------------------------------------------------------------------------


class TestShardIntegration:
    def test_run_shard_merge_equals_serial(self, fresh_cache):
        from repro.pipeline.shard import ShardSpec, merge_manifests, run_shard

        artifact = partition_artifact("SpMV", DATASET, 4)
        shards = [run_shard(artifact, TINY, ShardSpec(i, 2))
                  for i in (1, 2)]
        merged = merge_manifests(shards)
        assert merged.text == serial_report("SpMV", DATASET, TINY)

    def test_merge_error_names_partition_artefact(self, fresh_cache):
        from repro.pipeline.shard import (
            MergeError,
            ShardSpec,
            merge_manifests,
            run_shard,
        )

        artifact = partition_artifact("SpMV", DATASET, 4)
        shard = run_shard(artifact, TINY, ShardSpec(1, 2))
        with pytest.raises(MergeError,
                           match=r"missing job\(s\) for artefact "
                                 r"partition:SpMV:bcsstk30:p4:row"):
            merge_manifests([shard])

    def test_manifest_partials_are_binary_and_digest_checked(
            self, fresh_cache):
        """Partials cross the manifest boundary as raw float64 bytes
        plus a sha256; a flipped byte fails decode, naming the block."""
        import base64

        from repro.pipeline.shard import (
            MergeError,
            ShardManifest,
            ShardSpec,
            decode_result,
            merge_manifests,
            run_shard,
        )

        artifact = partition_artifact("DCSR-SpMM", DATASET, 2)
        manifest = run_shard(artifact, TINY, ShardSpec(1, 1))
        wire = json.loads(json.dumps(manifest.to_dict()))
        payload = wire["jobs"][1]["value"]
        raw = base64.b64decode(payload["values"])
        assert len(raw) == 8 * int(np.prod(payload["shape"]))
        clean = decode_result(artifact, payload)
        assert clean["values"].shape == tuple(payload["shape"])
        assert clean["values"].tobytes() == raw
        assert merge_manifests([ShardManifest.from_dict(wire)]).text == (
            serial_report("DCSR-SpMM", DATASET, TINY))

        flipped = bytearray(raw)
        flipped[len(raw) // 2] ^= 0x01
        payload["values"] = base64.b64encode(bytes(flipped)).decode("ascii")
        with pytest.raises(PartitionError, match="block 1 is corrupt"):
            decode_result(artifact, payload)
        with pytest.raises(MergeError, match="block 1 is corrupt"):
            merge_manifests([ShardManifest.from_dict(wire)])
        payload["values"] = "!" + payload["values"][1:]  # not even base64
        with pytest.raises(PartitionError, match="block 1 is corrupt"):
            decode_result(artifact, payload)

    def test_killed_queue_worker_blocks_are_released(self, fresh_cache,
                                                     tmp_path):
        """A worker that claims a block and vanishes loses its lease; the
        survivor recomputes it and the merge stays byte-identical."""
        from repro.pipeline.dispatch import QueueTransport, dispatch
        from repro.pipeline.fsqueue import worker_loop

        transport = QueueTransport(tmp_path / "pool")
        claimed = start_vanishing_worker(transport, "part-*.json")
        stop = {"exit": False}

        def survivor():
            # The survivor can finish all four blocks between two saboteur
            # polls: hold back until the doomed claim exists, or there is
            # no lease to lose.
            claimed.wait(30)
            worker_loop(root=transport.root, poll=0.02,
                        should_exit=lambda: stop["exit"])

        worker = threading.Thread(target=survivor, daemon=True)
        worker.start()
        events: list[str] = []
        result = dispatch(partition_artifact("SpMV", DATASET, 4), TINY,
                          transport, lease_timeout=1.0, retries=8,
                          on_event=events.append)
        stop["exit"] = True
        worker.join(10)
        assert not worker.is_alive()
        assert result.ok
        assert any("lease expired" in e for e in events)
        assert result.merged.text == serial_report("SpMV", DATASET, TINY)

    def test_resume_skips_completed_blocks(self, fresh_cache, tmp_path):
        from repro.pipeline.dispatch import dispatch

        artifact = partition_artifact("SpMV", DATASET, 4)
        kwargs = dict(chunks_per_worker=2, state_dir=tmp_path / "state",
                      resume=True)
        first = dispatch(artifact, TINY, "inline:2", **kwargs)
        again = dispatch(artifact, TINY, "inline:2", **kwargs)
        assert first.ok and again.ok
        assert first.resumed_chunks == 0 and again.resumed_chunks > 0
        assert again.merged.text == first.merged.text == serial_report(
            "SpMV", DATASET, TINY)

    def test_dispatch_inline_byte_identical(self, fresh_cache):
        from repro.pipeline.dispatch import dispatch

        artifact = partition_artifact("DCSR-SpMM", DATASET, 3)
        result = dispatch(artifact, TINY, "inline:2",
                          chunks_per_worker=2, lease_timeout=60.0,
                          retries=1, use_cache=None, worker_jobs=None,
                          state_dir=None, resume=False,
                          on_event=lambda m: None, engine=None)
        assert result.ok
        assert result.merged.text == serial_report("DCSR-SpMM", DATASET,
                                                   TINY)

    def test_dispatch_rejects_unknown_artifact(self, fresh_cache):
        from repro.pipeline.dispatch import DispatchError, dispatch

        with pytest.raises(DispatchError, match="partition:\\*"):
            dispatch("table9", TINY, "inline:1",
                     chunks_per_worker=1, lease_timeout=60.0, retries=1,
                     use_cache=None, worker_jobs=None, state_dir=None,
                     resume=False, on_event=lambda m: None, engine=None)


# ---------------------------------------------------------------------------
# part-* queue task naming
# ---------------------------------------------------------------------------


class TestQueueTasks:
    def test_partition_payloads_publish_as_part_tasks(self, tmp_path):
        from repro.pipeline.batch import resolve_artifact
        from repro.pipeline.fsqueue import QueueTransport

        queue = QueueTransport(tmp_path / "q")
        queue.prepare()
        for index, artifact in enumerate(
                [partition_artifact("SpMV", DATASET, 2), "table6"]):
            prefix = resolve_artifact(artifact).task_prefix
            queue.submit(f"{prefix}-{index:04d}", 0,
                         {"kind": "shard", "artifact": artifact,
                          "scale": TINY, "shard": "1/1"})
        names = sorted(p.name for p in queue.queue_dir.glob("*.json"))
        assert names == ["chunk-0001-a0.json", "part-0000-a0.json"]
        assert queue.pending_counts() == (2, 0)
        queue.revoke("part-0000")
        assert queue.pending_counts() == (1, 0)


# ---------------------------------------------------------------------------
# Typed API action
# ---------------------------------------------------------------------------


class TestApiAction:
    def test_partition_action_matches_serial(self, fresh_cache):
        from repro.api import CompileRequest, execute

        result = execute(CompileRequest(action="partition", kernel="SpMV",
                                        dataset=DATASET, scale=TINY,
                                        partition=2))
        assert result.partition["blocks"] == 2
        assert result.partition["text"] == serial_report("SpMV", DATASET,
                                                         TINY)

    def test_partition_result_round_trips(self, fresh_cache):
        from repro.api import CompileRequest, CompileResult, partition

        result = partition(CompileRequest(action="partition", kernel="SpMV",
                                          dataset=DATASET, scale=TINY,
                                          partition=2))
        clone = CompileResult.from_dict(json.loads(result.to_json()))
        assert clone.partition == result.partition

    def test_partition_request_validation(self):
        from repro.api import CompileRequest

        with pytest.raises(ValueError, match="not partitionable"):
            CompileRequest(action="partition", kernel="Plus3",
                           partition=2).resolved()
        with pytest.raises(ValueError, match="fixed evaluation seed"):
            CompileRequest(action="partition", kernel="SpMV", seed=11,
                           partition=2).resolved()
        with pytest.raises(ValueError):
            CompileRequest(action="partition", kernel="SpMV",
                           partition=0).resolved()

    def test_non_partition_canonical_keys_unchanged(self):
        """Adding the action must not perturb existing cache keys."""
        from repro.api import CompileRequest

        canonical = CompileRequest(kernel="SpMV", dataset=DATASET,
                                   scale=TINY).resolved().canonical()
        assert "partition" not in canonical
        assert "split" not in canonical
