"""``compile_stmt`` binds a statement to a program lowered without data.

A cached compile lowers ``stmt.with_tensors(Tensor.copy_structure)``,
the same statement over operands that hold no data, and binds the
caller's statement to that ``program`` entry. These tests pin that the
rebound statement is the structure the kernel records build over
data-free operands, that keying never draws a deferred operand, and
that a partition plan's blocks share one lowering.
"""

import pytest

from repro import api, obs
from repro.core.compiler import compile_stmt
from repro.kernels.suite import KERNELS
from repro.pipeline.batch import run_artifact
from repro.pipeline.cache import fingerprint_program
from repro.tensor import Tensor
from tests.test_program_stage import _lower_spans, _TensorCollector

SCALE = 0.02


def _operands(kernel: str) -> dict[str, Tensor]:
    return api.load_dataset(api.CompileRequest(kernel=kernel, scale=SCALE))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_with_tensors_is_the_data_free_build(kernel, fresh_cache):
    spec = KERNELS[kernel]
    tensors = _operands(kernel)
    stmt, _out = spec.build(tensors)
    rebound = stmt.with_tensors(Tensor.copy_structure)
    built = spec.build({name: t.copy_structure(name)
                        for name, t in tensors.items()})[0]

    assert (fingerprint_program(rebound, kernel)
            == fingerprint_program(built, kernel)
            == fingerprint_program(stmt, kernel))
    ours = compile_stmt(rebound, kernel, cache=False)
    theirs = compile_stmt(built, kernel, cache=False)
    assert ours.source == theirs.source
    assert ours.memory_report() == theirs.memory_report()

    collector = _TensorCollector()
    collector.dump(rebound)
    assert len({id(t) for t in collector.tensors}) == len(stmt.cin.tensors())
    for t in collector.tensors:
        assert t not in stmt.cin.tensors(), t.name
        assert t._storage is None and not t._pending and t._draw is None, \
            t.name


def test_compile_leaves_a_deferred_operand_undrawn(fresh_cache):
    tensors = _operands("SpMV")
    deferred = [t for t in tensors.values() if t._draw is not None]
    assert deferred
    stmt, _out = KERNELS["SpMV"].build(tensors)
    kernel = compile_stmt(stmt, "SpMV", cache=True)
    # The generation is the one dataset entry; the operands are not one.
    assert fresh_cache.stats.stage_misses == {"dataset": 1, "program": 1}
    for t in deferred:
        assert t._draw is not None and t._storage is None, t.name
    assert kernel.tensors["x"] is tensors["x"]


def test_cached_partition_plan_lowers_once(fresh_cache, monkeypatch,
                                           tmp_path):
    """A run's blocks bind to the program its first block compiled,
    cached or not."""
    plan = "partition:SpMV:bcsstk30:p4:row"
    monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "cached"))
    cached = run_artifact(plan, 0.05, jobs=1)
    assert _lower_spans(tmp_path / "cached") == 1

    monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "no-cache"))
    assert run_artifact(plan, 0.05, jobs=1, use_cache=False) == cached
    assert _lower_spans(tmp_path / "no-cache") == 1
