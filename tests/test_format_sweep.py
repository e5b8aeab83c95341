"""The format_sweep artefact: jobs, assembly, sharding, and merge."""

import numpy as np
import pytest

from repro.eval.harness import FORMAT_SWEEP_KERNELS, format_format_sweep
from repro.pipeline.batch import (
    ARTIFACT_NAMES,
    artifact_jobs,
    assemble_artifact,
    format_sweep_cell,
    resolve_artifact,
    run_artifact,
)
from repro.pipeline.executor import run_jobs
from repro.pipeline.shard import (
    ShardSpec,
    merge_manifests,
    run_shard,
)

TINY = 0.02


def test_format_sweep_registered():
    assert "format_sweep" in ARTIFACT_NAMES


def test_job_list_covers_kernels_and_datasets():
    jobs = artifact_jobs("format_sweep", TINY)
    kernels = {job.key[0] for job in jobs}
    assert kernels == set(FORMAT_SWEEP_KERNELS)
    assert len(jobs) == 12  # 4 kernels x 3 SuiteSparse matrices


def test_cell_metrics_shape(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    cell = format_sweep_cell("COO-SpMV", "ckt11752_dc_1", TINY)
    assert cell["nnz"] > 0
    assert cell["storage_bytes"] > 0
    assert cell["seconds"] > 0
    assert "singleton" in cell["format"]


def test_encode_decode_round_trip():
    cell = {"format": "f", "nnz": 3, "storage_bytes": 12, "spatial_loc": 7,
            "pcu": 1, "pmu": 2, "dram_bytes": 64, "seconds": 1.25e-6}
    record = resolve_artifact("format_sweep")
    assert record.decode(record.encode(cell)) == cell


@pytest.mark.slow
def test_serial_assembly_and_formatting(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    data = run_artifact("format_sweep", TINY)
    assert set(data) == set(FORMAT_SWEEP_KERNELS)
    text = format_format_sweep(data)
    assert "Format sweep" in text
    for kernel in FORMAT_SWEEP_KERNELS:
        assert kernel in text


@pytest.mark.slow
def test_sharded_merge_matches_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    manifests = [run_shard("format_sweep", TINY, ShardSpec(i, 3))
                 for i in (1, 2, 3)]
    # Round-trip each manifest through its JSON file form.
    from repro.pipeline.shard import ShardManifest

    loaded = []
    for k, manifest in enumerate(manifests):
        path = manifest.save(tmp_path / f"shard{k}.json")
        loaded.append(ShardManifest.load(path))
    merged = merge_manifests(loaded)
    serial = run_artifact("format_sweep", TINY)
    assert merged.text == format_format_sweep(serial)
    assert merged.data == serial


def test_format_sweep_rows_monotone_storage(tmp_path, monkeypatch):
    """BCSR materialises zeros inside tiles, so its stored entry count is
    at least CSR's for the same matrix."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    csr = format_sweep_cell("SpMV", "ckt11752_dc_1", TINY)
    bcsr = format_sweep_cell("BCSR-SpMV", "ckt11752_dc_1", TINY)
    assert bcsr["nnz"] >= csr["nnz"]
    assert bcsr["nnz"] % 16 == 0


def test_job_results_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    jobs = artifact_jobs("format_sweep", TINY)
    subset = [j for j in jobs if j.key[0] in ("SpMV", "COO-SpMV")
              and j.key[1] == "ckt11752_dc_1"]
    first = assemble_artifact("format_sweep", run_jobs(subset))
    second = assemble_artifact("format_sweep", run_jobs(subset))
    assert first == second
    assert np.isclose(first["SpMV"]["ckt11752_dc_1"]["seconds"],
                      second["SpMV"]["ckt11752_dc_1"]["seconds"])
