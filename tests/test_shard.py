"""Tests for ``repro.pipeline.shard``: determinism, manifests, merging.

The contract under test is the Section 8 sweep-distribution guarantee:
any partition of an artefact's job list into shards, run in any order
with any worker count, merges back into output byte-identical to the
serial harness — and a merge over an incompatible or incomplete shard
set is refused loudly rather than silently wrong.
"""

from __future__ import annotations

import json

import pytest

from repro.pipeline.batch import ARTIFACT_NAMES, artifact_jobs
from repro.pipeline.cache import compiler_version
from repro.pipeline.shard import (
    ManifestError,
    MergeError,
    ShardManifest,
    ShardSpec,
    decode_result,
    encode_result,
    merge_manifests,
    run_shard,
)
from tests.conftest import patch_cell

TINY = 0.02

# Cache isolation comes from the shared ``fresh_cache`` fixture in
# tests/conftest.py.


def _strip_seconds(manifest: ShardManifest) -> list[dict]:
    """Job entries without the wall-time field (the only nondeterminism)."""
    return [{k: v for k, v in entry.items() if k != "seconds"}
            for entry in manifest.jobs]


# ---------------------------------------------------------------------------
# Shard specification and determinism
# ---------------------------------------------------------------------------


class TestShardSpec:
    def test_parse(self):
        assert ShardSpec.parse("2/8") == ShardSpec(2, 8)
        assert str(ShardSpec.parse("1/1")) == "1/1"

    @pytest.mark.parametrize("text", ["", "2", "0/3", "4/3", "a/b", "1/0",
                                      "-1/3", "1/3/5", "1/2=0,3"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            ShardSpec.parse(text)

    def test_union_of_shards_is_full_job_list(self):
        jobs = artifact_jobs("table6", TINY)
        for count in (1, 2, 3, 5, len(jobs), len(jobs) + 3):
            picked = [job.key
                      for i in range(1, count + 1)
                      for job in ShardSpec(i, count).select(jobs)]
            assert sorted(picked) == sorted(j.key for j in jobs)

    def test_shards_are_disjoint(self):
        jobs = artifact_jobs("table6", TINY)
        seen: set = set()
        for i in range(1, 4):
            keys = {job.key for job in ShardSpec(i, 3).select(jobs)}
            assert not keys & seen
            seen |= keys

    def test_selection_independent_of_worker_count(self):
        # Sharding slices the job list *before* execution, so the slice
        # cannot depend on --jobs; assert it from the selection API.
        jobs = artifact_jobs("table6", TINY)
        assert ([j.key for j in ShardSpec(2, 3).select(jobs)]
                == [j.key for j in ShardSpec(2, 3).select(list(jobs))])

    def test_round_robin_balances(self):
        jobs = artifact_jobs("table6", TINY)
        sizes = [len(ShardSpec(i, 3).select(jobs)) for i in range(1, 4)]
        assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# Result codecs
# ---------------------------------------------------------------------------


class TestCodecs:
    def test_table6_round_trip(self):
        from repro.api import PlatformTimes

        times = PlatformTimes("SpMV", "bcsstk30",
                              {"Capstan (HBM2E)": 0.1, "V100 GPU": 0.3})
        wire = json.loads(json.dumps(encode_result("table6", times)))
        assert decode_result("table6", wire) == times

    def test_table5_round_trip(self):
        from repro.capstan.resources import ResourceEstimate

        est = ResourceEstimate("TTV", 4, 100, 50, 20, 3)
        wire = json.loads(json.dumps(encode_result("table5", est)))
        assert decode_result("table5", wire) == est

    def test_figure12_round_trip_restores_int_keys(self):
        series = {20: 1.0, 2000: 17.25}
        wire = json.loads(json.dumps(encode_result("figure12", series)))
        assert decode_result("figure12", wire) == series

    def test_floats_survive_json_exactly(self):
        # The byte-identical merge guarantee rests on this property.
        from repro.api import PlatformTimes

        ugly = 0.1 + 0.2  # 0.30000000000000004
        times = PlatformTimes("k", "d", {"p": ugly, "q": 1e-17})
        wire = json.loads(json.dumps(encode_result("table6", times)))
        decoded = decode_result("table6", wire)
        assert decoded.seconds["p"] == ugly
        assert decoded.seconds["q"] == 1e-17

    def test_unknown_artifact_rejected(self):
        with pytest.raises(KeyError):
            encode_result("table7", {})
        with pytest.raises(KeyError):
            decode_result("table7", {})


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------


class TestManifest:
    def test_round_trip(self, fresh_cache, tmp_path):
        manifest = run_shard("table3", TINY, ShardSpec(1, 2))
        path = manifest.save(tmp_path / "shard1.json")
        loaded = ShardManifest.load(path)
        assert loaded.artifact == "table3"
        assert loaded.scale == TINY
        assert loaded.shard == ShardSpec(1, 2)
        assert loaded.compiler == compiler_version()
        assert loaded.total_jobs == len(artifact_jobs("table3", TINY))
        assert _strip_seconds(loaded) == _strip_seconds(manifest)

    def test_stable_under_worker_count(self, fresh_cache, tmp_path):
        serial = run_shard("table3", TINY, ShardSpec(1, 2), jobs=1,
                           use_cache=False)
        parallel = run_shard("table3", TINY, ShardSpec(1, 2), jobs=4,
                             use_cache=False)
        assert _strip_seconds(serial) == _strip_seconds(parallel)

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ManifestError, match="not a repro-shard-manifest"):
            ShardManifest.load(path)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(ManifestError, match="cannot read"):
            ShardManifest.load(path)

    def test_load_rejects_wrong_version(self, fresh_cache, tmp_path):
        data = run_shard("table3", TINY, ShardSpec(1, 1)).to_dict()
        data["version"] = 99
        with pytest.raises(ManifestError, match="unsupported manifest version"):
            ShardManifest.from_dict(data)

    def test_load_rejects_missing_fields(self):
        with pytest.raises(ManifestError, match="missing field"):
            ShardManifest.from_dict(
                {"format": "repro-shard-manifest", "version": 1}
            )

    def test_load_rejects_unknown_artifact(self, fresh_cache):
        data = run_shard("table3", TINY, ShardSpec(1, 1)).to_dict()
        data["artifact"] = "table7"
        with pytest.raises(ManifestError, match="unknown artefact"):
            ShardManifest.from_dict(data)

    def test_load_rejects_explicit_positions(self, fresh_cache):
        """An explicit-position manifest of an older checkout must not be
        read as the uniform chunk of the same I/N."""
        data = run_shard("table3", TINY, ShardSpec(1, 2)).to_dict()
        assert sorted(data["shard"]) == ["count", "index"]
        data["shard"]["positions"] = [0, 3]
        with pytest.raises(ManifestError, match="bad shard spec.*positions"):
            ShardManifest.from_dict(data)

    def test_captures_failures_instead_of_raising(self, fresh_cache,
                                                  monkeypatch):
        from repro.pipeline import batch

        def broken(kernel_name, scale, use_cache=None):
            raise RuntimeError("injected failure")

        patch_cell(monkeypatch, "table3", broken)
        manifest = run_shard("table3", TINY, ShardSpec(1, 1))
        assert len(manifest.failures()) == len(manifest.jobs)
        assert "injected failure" in manifest.failures()[0]["error"]


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def _shards(artifact: str, count: int, scale: float = TINY):
    return [run_shard(artifact, scale, ShardSpec(i, count))
            for i in range(1, count + 1)]


#: Every registered artefact plus one partition plan, sharded 2, 4 and 3
#: ways in turn: a new artefact is covered by registering it.
MERGE_CASES = [(name, (2, 4, 3)[i % 3]) for i, name in enumerate(
    (*ARTIFACT_NAMES, "partition:SpMV:bcsstk30:p2:row"))]


class TestMerge:
    @pytest.mark.parametrize("artifact,count", MERGE_CASES)
    def test_merge_equals_serial(self, fresh_cache, artifact, count):
        from repro.pipeline.batch import format_artifact, run_artifact

        merged = merge_manifests(_shards(artifact, count))
        serial = run_artifact(artifact, TINY)
        assert merged.data == serial
        assert merged.text == format_artifact(artifact, serial)

    def test_merge_survives_json_round_trip(self, fresh_cache, tmp_path):
        from repro.eval.harness import format_table6
        from repro.pipeline.batch import run_artifact

        paths = [m.save(tmp_path / f"s{m.shard.index}.json")
                 for m in _shards("table6", 3)]
        merged = merge_manifests([ShardManifest.load(p) for p in paths])
        assert merged.text == format_table6(run_artifact("table6", TINY))

    def test_merge_order_independent(self, fresh_cache):
        shards = _shards("table3", 3)
        assert (merge_manifests(shards[::-1]).text
                == merge_manifests(shards).text)

    def test_rejects_empty(self):
        with pytest.raises(MergeError, match="no manifests"):
            merge_manifests([])

    def test_rejects_mismatched_scale(self, fresh_cache):
        a = run_shard("table3", TINY, ShardSpec(1, 2))
        b = run_shard("table3", 0.03, ShardSpec(2, 2))
        with pytest.raises(MergeError, match="disagree on scale"):
            merge_manifests([a, b])

    def test_rejects_mismatched_artifact(self, fresh_cache):
        a = run_shard("table3", TINY, ShardSpec(1, 2))
        b = run_shard("table5", TINY, ShardSpec(2, 2))
        with pytest.raises(MergeError, match="disagree on artefact"):
            merge_manifests([a, b])

    def test_rejects_mismatched_compiler_hash(self, fresh_cache):
        a, b = _shards("table3", 2)
        b.compiler = "0" * 16
        with pytest.raises(MergeError, match="disagree on compiler hash"):
            merge_manifests([a, b])

    def test_rejects_stale_compiler(self, fresh_cache):
        (a,) = _shards("table3", 1)
        a.compiler = "0" * 16
        with pytest.raises(MergeError, match="this checkout"):
            merge_manifests([a])
        # ... unless explicitly allowed (same-source reruns elsewhere).
        merged = merge_manifests([a], require_current_compiler=False)
        assert "Table 3" in merged.text

    def test_rejects_missing_jobs(self, fresh_cache):
        shards = _shards("table6", 3)
        with pytest.raises(MergeError, match="missing job"):
            merge_manifests(shards[:2])

    def test_rejects_duplicate_shard(self, fresh_cache):
        shards = _shards("table3", 2)
        with pytest.raises(MergeError, match="duplicate shard"):
            merge_manifests([shards[0], shards[0], shards[1]])

    def test_rejects_duplicate_jobs(self, fresh_cache):
        a, b = _shards("table3", 2)
        b.jobs.append(dict(a.jobs[0]))  # b smuggles in one of a's jobs
        with pytest.raises(MergeError, match="duplicate job"):
            merge_manifests([a, b])

    def test_rejects_malformed_payload(self, fresh_cache):
        a, b = _shards("table6", 2)
        b.jobs[0]["value"] = {"wrong": "shape"}
        with pytest.raises(MergeError, match="malformed result payload"):
            merge_manifests([a, b])

    def test_rejects_unexpected_jobs(self, fresh_cache):
        a, b = _shards("table3", 2)
        rogue = dict(a.jobs[0])
        rogue["key"] = ["NotAKernel", "-", "loc"]
        b.jobs.append(rogue)
        with pytest.raises(MergeError, match="unexpected job"):
            merge_manifests([a, b])

    def test_rejects_failed_jobs(self, fresh_cache, monkeypatch):
        from repro.pipeline import batch

        good = run_shard("table3", TINY, ShardSpec(1, 2))

        def broken(kernel_name, scale, use_cache=None):
            raise RuntimeError("injected failure")

        patch_cell(monkeypatch, "table3", broken)
        bad = run_shard("table3", TINY, ShardSpec(2, 2))
        with pytest.raises(MergeError, match="failed job"):
            merge_manifests([good, bad])

    def test_merge_reports_originating_chunk(self, fresh_cache, monkeypatch):
        """A failed job is attributed to the chunk that ran it."""
        def broken(kernel_name, scale, use_cache=None):
            raise RuntimeError("injected failure")

        patch_cell(monkeypatch, "table3", broken)
        bad = run_shard("table3", TINY, ShardSpec(2, 3))
        with pytest.raises(MergeError, match=r"\(chunk 2/3\)"):
            merge_manifests([bad])

    def test_merge_reports_duplicate_chunks(self, fresh_cache):
        """A job two manifests both carry names both chunks (uniform
        specs cannot overlap, so one entry is copied across)."""
        a, b = _shards("table3", 2)
        b.jobs.append(dict(a.jobs[0]))
        with pytest.raises(MergeError, match=r"chunks 1/2 and 2/2"):
            merge_manifests([a, b])


# ---------------------------------------------------------------------------
# CLI round trip: batch --shard ... | merge == tables
# ---------------------------------------------------------------------------


class TestCli:
    def test_shard_merge_byte_identical_to_tables(self, fresh_cache,
                                                  tmp_path, capsys):
        from repro.__main__ import main

        paths = []
        for i in (1, 2, 3):
            out = tmp_path / f"shard{i}.json"
            assert main(["batch", "table6", "--scale", "0.02",
                         "--shard", f"{i}/3", "--out", str(out)]) == 0
            paths.append(out)
        capsys.readouterr()

        assert main(["tables", "table6", "--scale", "0.02"]) == 0
        serial = capsys.readouterr().out
        assert main(["merge", *map(str, paths)]) == 0
        merged = capsys.readouterr().out
        assert merged == serial

    def test_shard_list(self, capsys):
        from repro.__main__ import main

        assert main(["batch", "table6", "--list", "--scale", "0.02",
                     "--shard", "1/3"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == len(ShardSpec(1, 3).select(
            artifact_jobs("table6", TINY)))

    def test_shard_rejects_multiple_artifacts(self, capsys):
        from repro.__main__ import main

        assert main(["batch", "table3", "table5", "--shard", "1/2"]) == 2

    def test_shard_rejects_bad_spec(self, capsys):
        from repro.__main__ import main

        assert main(["batch", "table3", "--shard", "9/3"]) == 2

    def test_merge_reports_errors(self, fresh_cache, tmp_path, capsys):
        from repro.__main__ import main

        m = run_shard("table3", TINY, ShardSpec(1, 2))
        path = m.save(tmp_path / "only.json")
        assert main(["merge", str(path)]) == 1
        assert "missing job" in capsys.readouterr().err

    def test_merge_writes_out_file(self, fresh_cache, tmp_path, capsys):
        from repro.__main__ import main

        paths = [m.save(tmp_path / f"s{m.shard.index}.json")
                 for m in _shards("table3", 2)]
        out = tmp_path / "merged.txt"
        assert main(["merge", *map(str, paths), "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
