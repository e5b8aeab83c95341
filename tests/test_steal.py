"""Tests for ``repro.pipeline.steal``: cost table, planner, --steal.

The contract: every run records observed per-job wall times into a
persistent ``cost`` cache stage; ``plan_chunks`` turns those costs into
a deterministic, cost-balanced partition (guided: big chunks first,
``min_chunk``-job slivers at the steal tail); and a ``--steal`` dispatch
over that partition still merges byte-identically to the serial run —
falling back to uniform chunking on a cold table.
"""

from __future__ import annotations

import pytest

from repro.pipeline.batch import artifact_jobs, format_artifact, run_artifact
from repro.pipeline.dispatch import InlineTransport, dispatch
from repro.pipeline.shard import (
    MergeError,
    ShardManifest,
    ShardSpec,
    merge_manifests,
    run_shard,
)
from repro.pipeline.steal import (
    explicit_specs,
    export_costs,
    load_costs,
    plan_chunks,
    record_cost,
    record_manifest_costs,
)
from tests.conftest import patch_cell

TINY = 0.02

# Cache isolation comes from the shared ``fresh_cache`` fixture in
# tests/conftest.py.


def _serial_text(artifact: str, scale: float = TINY) -> str:
    return format_artifact(artifact, run_artifact(artifact, scale))


# ---------------------------------------------------------------------------
# Explicit-index shard specs
# ---------------------------------------------------------------------------


class TestExplicitShardSpec:
    def test_parse_str_round_trip(self):
        spec = ShardSpec.parse("2/5=1,4,7")
        assert spec == ShardSpec(2, 5, (1, 4, 7))
        assert str(spec) == "2/5=1,4,7"
        assert ShardSpec.parse(str(spec)) == spec

    def test_uniform_unchanged(self):
        spec = ShardSpec.parse("2/5")
        assert spec.positions is None
        assert str(spec) == "2/5"

    @pytest.mark.parametrize("text", ["1/2=", "1/2=a", "1/2=3,1",
                                      "1/2=1,1", "1/2=-1"])
    def test_rejects_bad_positions(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    def test_select_takes_named_positions(self):
        jobs = list("abcdefgh")
        assert ShardSpec(1, 2, (0, 3, 7)).select(jobs) == ["a", "d", "h"]

    def test_select_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="stale chunk plan"):
            ShardSpec(1, 1, (9,)).select(list("abc"))

    def test_manifest_round_trips_positions(self, fresh_cache):
        manifest = run_shard("table3", TINY, ShardSpec(1, 2, (0, 2, 5)))
        loaded = ShardManifest.from_dict(manifest.to_dict())
        assert loaded.shard == ShardSpec(1, 2, (0, 2, 5))
        assert len(loaded.jobs) == 3

    def test_non_uniform_merge_byte_identical(self, fresh_cache):
        """An arbitrary non-uniform partition merges to exactly the
        serial artefact — the property the planner's chunks rely on."""
        total = len(artifact_jobs("table3", TINY))
        cut = total // 3 or 1
        parts = [tuple(range(0, cut)), tuple(range(cut, cut + 1)),
                 tuple(range(cut + 1, total))]
        parts = [p for p in parts if p]
        manifests = [run_shard("table3", TINY,
                               ShardSpec(i + 1, len(parts), positions))
                     for i, positions in enumerate(parts)]
        merged = merge_manifests(manifests)
        assert merged.text == _serial_text("table3")

    def test_merge_reports_originating_chunk(self, fresh_cache, monkeypatch):
        """A failed job inside a non-uniform chunk is attributed to the
        full chunk spec (positions included), not a bare I/N."""
        from repro.pipeline import batch

        def broken(kernel_name, scale, use_cache=None):
            raise RuntimeError("injected failure")

        patch_cell(monkeypatch, "table3", broken)
        bad = run_shard("table3", TINY, ShardSpec(2, 3, (1, 4)))
        with pytest.raises(MergeError, match=r"chunk 2/3=1,4"):
            merge_manifests([bad])

    def test_merge_reports_duplicate_chunks(self, fresh_cache):
        a = run_shard("table3", TINY, ShardSpec(1, 2, (0, 1)))
        b = run_shard("table3", TINY, ShardSpec(2, 2, (1, 2)))
        with pytest.raises(MergeError,
                           match=r"chunks 1/2=0,1 and 2/2=1,2"):
            merge_manifests([a, b])


# ---------------------------------------------------------------------------
# The cost table
# ---------------------------------------------------------------------------


class TestCostTable:
    def test_record_and_load(self, fresh_cache):
        keys = [("SpMV", "-", "loc"), ("SpMM", "-", "loc")]
        record_cost("table3", TINY, keys[0], 1.5)
        costs = load_costs("table3", TINY, keys)
        assert costs == {keys[0]: 1.5}

    def test_latest_observation_wins(self, fresh_cache):
        key = ("SpMV", "-", "loc")
        record_cost("table3", TINY, key, 5.0)
        record_cost("table3", TINY, key, 0.25)
        assert load_costs("table3", TINY, [key]) == {key: 0.25}

    def test_scales_do_not_collide(self, fresh_cache):
        key = ("SpMV", "-", "loc")
        record_cost("table3", 0.02, key, 1.0)
        record_cost("table3", 0.25, key, 9.0)
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
        recorded = record_manifest_costs([manifest])
        keys = [job.key for job in artifact_jobs("table3", TINY)]
        costs = load_costs("table3", TINY, keys)
        assert ("SpMV", "-", "loc") not in costs
        assert recorded == len(keys) - len(manifest.failures())

    def test_export_is_json_safe(self, fresh_cache):
        import json

        record_cost("table3", TINY, ("SpMV", "-", "loc"), 0.5)
        keys = [job.key for job in artifact_jobs("table3", TINY)]
        payload = json.loads(json.dumps(export_costs("table3", TINY, keys)))
        assert payload == {"SpMV:-:loc": 0.5}


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------


def _keys(n: int) -> list[tuple]:
    return [(f"k{i}", "-", "x") for i in range(n)]


class TestPlanChunks:
    def test_no_costs_means_fallback(self):
        assert plan_chunks(_keys(8), {}, slots=2) is None
        assert plan_chunks([], {}, slots=2) is None

    def test_partition_is_exact(self):
        keys = _keys(10)
        costs = {k: float(i + 1) for i, k in enumerate(keys)}
        chunks = plan_chunks(keys, costs, slots=3)
        flat = sorted(p for chunk in chunks for p in chunk)
        assert flat == list(range(10))

    def test_deterministic(self):
        """Same costs -> same chunk boundaries, run after run (the
        fault-injection determinism contract for cost-driven chunking)."""
        keys = _keys(17)
        costs = {k: ((i * 7919) % 13) / 3.0 + 0.1
                 for i, k in enumerate(keys)}
        first = plan_chunks(keys, costs, slots=3, min_chunk=2)
        for _ in range(5):
            assert plan_chunks(keys, costs, slots=3, min_chunk=2) == first

    def test_expensive_jobs_lead(self):
        """The most expensive job lands in the first chunk: nothing big
        is left to straggle at the end of the sweep."""
        keys = _keys(9)
        costs = {k: 1.0 for k in keys}
        costs[keys[5]] = 50.0
        chunks = plan_chunks(keys, costs, slots=2)
        assert 5 in chunks[0]

    def test_tail_shrinks_toward_min_chunk(self):
        """Chunk cost is non-increasing-ish: the tail chunks are the
        cheap slivers an idle worker steals."""
        keys = _keys(24)
        costs = {k: float(24 - i) for i, k in enumerate(keys)}
        chunks = plan_chunks(keys, costs, slots=2, min_chunk=1)
        chunk_costs = [sum(costs[keys[p]] for p in chunk)
                       for chunk in chunks]
        assert len(chunks) > 2
        assert chunk_costs[0] == max(chunk_costs)
        assert chunk_costs[-1] == min(chunk_costs)

    def test_min_chunk_floors_size(self):
        keys = _keys(12)
        costs = {k: 1.0 for k in keys}
        chunks = plan_chunks(keys, costs, slots=2, min_chunk=3)
        assert all(len(chunk) >= 3 for chunk in chunks[:-1])

    def test_zero_costs_degenerate(self):
        """A fully warm cache records ~0s everywhere; the planner still
        produces a valid partition (min_chunk-sized slices)."""
        keys = _keys(6)
        costs = {k: 0.0 for k in keys}
        chunks = plan_chunks(keys, costs, slots=2, min_chunk=2)
        flat = sorted(p for chunk in chunks for p in chunk)
        assert flat == list(range(6))
        assert all(len(chunk) == 2 for chunk in chunks)

    def test_unknown_jobs_priced_at_median(self):
        """One unseen job must not distort the plan: it is priced at the
        median, so it lands mid-pack rather than first or last."""
        keys = _keys(7)
        costs = {k: float(i + 1) for i, k in enumerate(keys[:-1])}
        chunks = plan_chunks(keys, costs, slots=2)
        flat = sorted(p for chunk in chunks for p in chunk)
        assert flat == list(range(7))

    def test_explicit_specs_shape(self):
        specs = explicit_specs([(0, 2), (1,), (3, 4, 5)])
        assert [str(s) for s in specs] == ["1/3=0,2", "2/3=1", "3/3=3,4,5"]


# ---------------------------------------------------------------------------
# --steal dispatches
# ---------------------------------------------------------------------------


class TestStealDispatch:
    def test_cold_table_falls_back_to_uniform(self, fresh_cache):
        events: list[str] = []
        result = dispatch("table3", TINY, InlineTransport(2), steal=True,
                          on_event=events.append)
        assert result.ok
        assert not result.steal  # fell back
        assert result.plan is None
        assert any("falling back to uniform" in e for e in events)
        assert result.merged.text == _serial_text("table3")
        # ... but the fallback sweep recorded costs for the next one.
        assert result.costs_recorded > 0

    def test_warm_table_plans_and_stays_byte_identical(self, fresh_cache):
        """The acceptance property: a --steal dispatch over a warm cost
        table produces output byte-identical to the serial run."""
        warm = dispatch("table3", TINY, InlineTransport(2))
        assert warm.ok and warm.costs_recorded > 0
        events: list[str] = []
        result = dispatch("table3", TINY, InlineTransport(2), steal=True,
                          on_event=events.append)
        assert result.ok and result.steal
        assert result.plan is not None
        assert sum(entry["jobs"] for entry in result.plan) == len(
            artifact_jobs("table3", TINY))
        assert result.merged.text == _serial_text("table3")
        assert any("cost-balanced" in e for e in events)
        assert "cost-planned" in result.summary()
        # Guided chunks bound the critical path. Pulled in plan order by
        # four workers (two would make the bound vacuous: a makespan
        # never exceeds the total), the recorded costs finish within
        # twice the ideal total/4, give or take the one job a chunk may
        # overshoot its target by.
        keys = [job.key for job in artifact_jobs("table3", TINY)]
        costs = load_costs("table3", TINY, keys)
        finish = [0.0] * 4
        for chunk in plan_chunks(keys, costs, slots=4):
            finish[finish.index(min(finish))] += sum(
                costs[keys[p]] for p in chunk)
        assert max(finish) <= 2 * sum(finish) / 4 + max(costs.values())

    @pytest.mark.parametrize("artifact", ["table6", "format_sweep"])
    def test_paper_sweeps_steal_byte_identical(self, fresh_cache, artifact):
        """The acceptance artefacts under --steal: table6 and
        format_sweep match the serial run byte for byte."""
        warm = dispatch(artifact, TINY, InlineTransport(2))
        assert warm.ok
        result = dispatch(artifact, TINY, InlineTransport(2), steal=True)
        assert result.ok and result.steal
        assert result.merged.text == _serial_text(artifact)

    def test_steal_plan_deterministic_across_dispatches(self, fresh_cache):
        """Same recorded costs -> the same chunk plan on every dispatch
        (dispatches over a warm cache record identical ~0 replay times,
        so plans from the same table must not drift)."""
        warm = dispatch("table3", TINY, InlineTransport(2))
        assert warm.ok
        keys = [job.key for job in artifact_jobs("table3", TINY)]
        costs = load_costs("table3", TINY, keys)
        first = plan_chunks(keys, costs, slots=2)
        assert first is not None
        assert plan_chunks(keys, costs, slots=2) == first

    def test_steal_resume_round_trip(self, fresh_cache, tmp_path):
        """A --steal dispatch resumed into the same state dir reuses its
        planned chunks when the plan is unchanged."""
        warm = dispatch("table3", TINY, InlineTransport(2))
        assert warm.ok
        state = tmp_path / "state"
        first = dispatch("table3", TINY, InlineTransport(2), steal=True,
                         state_dir=state, resume=True)
        assert first.ok and first.steal
        again = dispatch("table3", TINY, InlineTransport(2), steal=True,
                         state_dir=state, resume=True)
        assert again.ok
        assert again.merged.text == first.merged.text

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
        record_cost("table3", TINY, key, 123.0)  # a fresher observation
        again = dispatch("table3", TINY, InlineTransport(1),
                         state_dir=state, resume=True)
        assert again.ok
        assert again.resumed_chunks == again.chunks  # nothing executed
        assert again.costs_recorded == 0
        assert load_costs("table3", TINY, [key]) == {key: 123.0}

    def test_steal_cli_round_trip(self, fresh_cache, capsys):
        from repro.__main__ import main

        assert main(["dispatch", "table3", "--workers", "inline:2",
                     "--scale", "0.02", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["dispatch", "table3", "--workers", "inline:2",
                     "--scale", "0.02", "--quiet", "--steal",
                     "--min-chunk", "1"]) == 0
        assert capsys.readouterr().out == _serial_text("table3") + "\n"
