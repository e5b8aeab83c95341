"""A compile never draws operand data.

The ``compile`` verb (and so Table 3), the Table 5 cells and ``repro
compile --cpu`` build over :func:`repro.data.datasets.structure`, the
kernel's operand tensors without data. These tests hold that build to
the data-bound one: the same shapes and formats, workspaces included,
the same ``program`` key and byte-identical ``compile`` results, and
they check that no dataset is generated on the way.
"""

import pytest

from repro import api
from repro.data import datasets
from repro.data.datasets import datasets_for, structure
from repro.kernels.suite import KERNELS
from repro.pipeline.batch import run_artifact

CASES = [(kernel, dataset.name)
         for kernel in KERNELS for dataset in datasets_for(kernel)]


def _layout(kernel):
    """Every tensor of a compiled kernel: name -> (shape, format)."""
    return {name: (t.shape, t.format) for name, t in kernel.tensors.items()}


@pytest.fixture
def no_generation(monkeypatch):
    """Fail any dataset generation in this process."""
    def refuse(*args):
        raise AssertionError("a dataset was generated")

    monkeypatch.setattr(datasets, "_generate", refuse)


@pytest.mark.parametrize("scale", [0.02, 0.05, 0.25])
@pytest.mark.parametrize("kernel, dataset", CASES)
def test_data_free_operands_have_the_loaded_shapes(kernel, dataset, scale,
                                                  fresh_cache):
    free = structure(kernel, dataset, scale)
    loaded = datasets.load(kernel, dataset, scale)
    assert ({n: (t.shape, t.format) for n, t in free.items()}
            == {n: (t.shape, t.format) for n, t in loaded.items()})
    assert all(t._storage is None and not t._pending and t._draw is None
               for t in free.values())

    request = api.CompileRequest(kernel=kernel, dataset=dataset, scale=scale)
    bound = api.build(request)
    data_free = api.build_structure(request)
    assert _layout(data_free) == _layout(bound)
    assert data_free.compiled.key == bound.compiled.key is not None


def _bound_render(request, use_cache):
    """The ``compile`` result rendered from the data-bound build."""
    req = request.resolved()
    kernel = api.build(req, use_cache=use_cache)
    return api.CompileResult(
        request=req, source=kernel.source, spatial_loc=int(kernel.spatial_loc),
        input_loc=int(KERNELS[req.kernel].input_loc()),
        memory_report=kernel.memory_report()).to_json()


@pytest.mark.parametrize("use_cache", [None, False])
@pytest.mark.parametrize("scale", [0.02, 0.05])
@pytest.mark.parametrize("kernel, dataset", CASES)
def test_compile_renders_the_data_bound_bytes(kernel, dataset, scale,
                                             use_cache, fresh_cache):
    request = api.CompileRequest(kernel=kernel, dataset=dataset, scale=scale,
                                 action="compile")
    assert (api.compile(request, use_cache=use_cache).to_json()
            == _bound_render(request, use_cache))


def test_a_compile_on_an_unseen_seed_generates_nothing(fresh_cache,
                                                       no_generation):
    request = api.CompileRequest(kernel="SpMV", scale=0.05, seed=12345)
    assert api.compile(request).spatial_loc > 0
    assert "dataset" not in fresh_cache.stats.stage_misses
    assert "dataset" not in fresh_cache.stats.stage_hits


def test_a_cold_table5_draws_no_dataset(fresh_cache, no_generation):
    assert run_artifact("table5", 0.05)
    assert "dataset" not in fresh_cache.stats.stage_misses
    assert "dataset" not in fresh_cache.stats.stage_hits


def test_a_traced_compile_miss_puts_no_dataset(fresh_cache, monkeypatch,
                                               tmp_path):
    """Every disk read and write is a ``disk.get`` / ``disk.put`` span with
    its stage and size: a compile miss writes its own entries and no
    dataset, an evaluate writes the generation, and a fresh process's
    compile reads its entry back."""
    from repro import obs
    from repro.obs.timeline import load_trace_dir
    from repro.pipeline import cache as cache_mod

    monkeypatch.setenv(obs.TRACE_ENV, str(tmp_path / "trace"))
    request = api.CompileRequest(kernel="SpMV", scale=0.05, seed=99)

    def disk(name):
        return [r["attrs"] for r in load_trace_dir(tmp_path / "trace").spans
                if r["name"] == f"disk.{name}"]

    api.compile(request)
    puts = disk("put")
    assert {p["stage"] for p in puts} == {"compile", "program"}
    assert all(p["bytes"] > 0 for p in puts)

    api.evaluate(request)
    assert "dataset" in {p["stage"] for p in disk("put")[len(puts):]}

    monkeypatch.setattr(cache_mod, "_default_cache",
                        cache_mod.CompilationCache())
    api.compile(request)
    assert [(g["stage"], g["bytes"] > 0) for g in disk("get")][-1] \
        == ("compile", True)
