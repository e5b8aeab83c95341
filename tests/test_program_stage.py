"""The ``program`` stage: one compiled program per kernel structure.

``api.build`` binds every cell's statement to the program its structure
(expression, formats, schedule) compiles to, compiled once from a
data-free copy of the statement. These tests pin that a bound kernel is
indistinguishable from compiling the cell's own statement, that the
shared entry holds no operand data, and how often a cold Table 6 lowers.
"""

import io
import json
import pickle
import sys

import numpy as np
import pytest

from repro import api, obs
from repro.backends.gpu import GpuBackend
from repro.capstan.resources import estimate_resources
from repro.capstan.simulator import CapstanSimulator
from repro.capstan.stats import compute_stats
from repro.core.compiler import compile_stmt
from repro.core.runner import bind_dram, bind_symbols
from repro.formats import CSC, offChip
from repro.pipeline.batch import ARTEFACTS, run_artifact
from repro.pipeline.cache import fingerprint_program
from repro.service.compute import _platform_models
from repro.tensor import Tensor

SCALE = 0.05

#: Cells the interpreter takes over a second to run at :data:`SCALE`
#: (SDDMM on Trefethen alone takes ~28 s). They are compared on what the
#: interpreter reads instead: the program text, the bound symbols and
#: the initial DRAM, which determine its output.
_SLOW_TO_INTERPRET = {("SDDMM", "bcsstk30"), ("SDDMM", "ckt11752_dc_1"),
                      ("SDDMM", "Trefethen_20000"),
                      ("DCSR-SpMM", "Trefethen_20000")}


def _cells() -> list[tuple[str, str]]:
    return list(dict.fromkeys(
        (*ARTEFACTS["table6"].rows(), *ARTEFACTS["format_sweep"].rows())))


def _seconds(kernel) -> dict[str, float]:
    stats = compute_stats(kernel)
    models = _platform_models(kernel, stats, CapstanSimulator(),
                              estimate_resources(kernel))
    return {name: model() for name, model in models.items()}


def _interpreter_inputs(kernel):
    output = kernel.analysis.output.name
    dram = bind_dram(kernel.program, kernel.tensors)
    return (bind_symbols(kernel.program, kernel.tensors, output),
            {name: array.tobytes() for name, array in dram.items()})


def _same_storage(got, want) -> bool:
    return (got.fmt == want.fmt and got.dims == want.dims
            and pickle.dumps(got.levels) == pickle.dumps(want.levels)
            and np.array_equal(got.vals, want.vals))


class _TensorCollector(pickle.Pickler):
    """Pickles an object graph, recording every :class:`Tensor` in it."""

    def __init__(self) -> None:
        super().__init__(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
        self.tensors: list[Tensor] = []

    def persistent_id(self, obj):
        if isinstance(obj, Tensor):
            self.tensors.append(obj)
        return None


def test_bound_kernels_equal_their_own_compile(fresh_cache):
    programs = {}
    for kernel_name, dataset in _cells():
        kernel = api.build(api.CompileRequest(
            kernel=kernel_name, dataset=dataset, scale=SCALE))
        own = compile_stmt(kernel.stmt, kernel.name, cache=False)
        cell = f"{kernel_name}/{dataset}"
        # Bound to a program compiled from another statement.
        assert kernel.analysis.stmt is not kernel.stmt, cell
        assert (fingerprint_program(kernel.analysis.stmt, kernel.name)
                == kernel.program_key), cell
        programs.setdefault(kernel.program_key, kernel.compiled)
        assert kernel.compiled is programs[kernel.program_key], cell

        assert compute_stats(kernel) == compute_stats(own), cell
        assert estimate_resources(kernel) == estimate_resources(own), cell
        assert _seconds(kernel) == _seconds(own), cell
        gpu = GpuBackend()
        assert (gpu.dense_output_bytes(kernel)
                == gpu.dense_output_bytes(own)), cell
        assert kernel.source == own.source, cell
        assert kernel.memory_report() == own.memory_report(), cell
        assert _interpreter_inputs(kernel) == _interpreter_inputs(own), cell
        if (kernel_name, dataset) not in _SLOW_TO_INTERPRET:
            assert _same_storage(kernel.run(), own.run()), cell
    # Fewer programs than cells: datasets of one kernel share one.
    assert len(programs) < len(_cells())

    for compiled in programs.values():
        collector = _TensorCollector()
        collector.dump(compiled)
        assert collector.tensors, compiled.name
        for t in collector.tensors:
            assert t._storage is None, (compiled.name, t.name)
            assert not t._pending, (compiled.name, t.name)
            assert t._draw is None, (compiled.name, t.name)


def _lower_spans(root) -> int:
    records = [json.loads(line) for path in root.glob("*.jsonl")
               for line in path.read_text().splitlines() if line]
    return sum(r.get("k") == "span" and r["name"] == "lower"
               for r in records)


def test_cold_table6_lowers_each_program_once(fresh_cache, monkeypatch,
                                              tmp_path):
    monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "cached"))
    run_artifact("table6", SCALE, jobs=1)
    stats = fresh_cache.stats
    assert stats.stage_misses["program"] == 10
    assert stats.stage_hits["program"] == 14
    assert stats.stage_misses["resources"] == 10
    assert _lower_spans(tmp_path / "cached") == 10

    monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "no-cache"))
    run_artifact("table6", SCALE, jobs=1, use_cache=False)
    assert stats.stage_hits["program"] == 14
    assert stats.stage_misses["program"] == 10
    assert _lower_spans(tmp_path / "no-cache") == 24


def test_threads_sharing_programs_agree_with_serial(fresh_cache):
    # Cells of one kernel run on different threads, bound to one program
    # entry and reading one resources entry; a program or estimate torn
    # between threads would show as a different table.
    serial = run_artifact("table6", SCALE, jobs=1, use_cache=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = run_artifact("table6", SCALE, jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


class TestOverrides:
    """``run(**overrides)`` refuses an operand the program was not bound
    for, instead of reading it wrongly."""

    @pytest.fixture
    def spmv(self, fresh_cache):
        return api.build(api.CompileRequest(kernel="SpMV", scale=SCALE))

    def test_format_mismatch_is_refused(self, spmv):
        bound = spmv.tensors["A"]
        csc = Tensor("A", bound.shape, CSC(offChip)).from_dense(
            bound.to_dense())
        with pytest.raises(ValueError, match=r"'A'.*format") as err:
            spmv.run(A=csc)
        assert str(csc.format) in str(err.value)
        assert str(bound.format) in str(err.value)

    def test_shape_mismatch_is_refused(self, spmv):
        bound = spmv.tensors["A"]
        small = Tensor("A", (10, 10), bound.format).from_dense(
            np.eye(10))
        with pytest.raises(ValueError, match=r"'A'.*shape") as err:
            spmv.run(A=small)
        assert "(10, 10)" in str(err.value)
        assert str(bound.shape) in str(err.value)
