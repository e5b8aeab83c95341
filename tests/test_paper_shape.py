"""The paper's headline shape, asserted on the regenerated artefacts.

Tables 3/5/6, Figure 12 (Figure 13 is Table 6's GPU and CPU rows) and the
two ablation claims of Sections 8.1 / 8.3. The runtime artefacts are
regenerated at a pinned scale of 0.25: the GPU SDDMM / SpMV ratio only
holds from there up (the dense result grows quadratically with scale).
"""

from statistics import geometric_mean

import pytest

from repro.api import CompileRequest, build, evaluate
from repro.capstan import compute_stats
from repro.core import compile_stmt
from repro.data import datasets_for
from repro.eval.paper_results import FIG12_BANDWIDTHS, TABLE5_RESOURCES
from repro.kernels import KERNEL_ORDER, KERNELS
from repro.pipeline.batch import STRUCTURAL_SCALE, run_artifact
from tests.helpers_kernels import make_small_tensors

SCALE = 0.25


@pytest.fixture(scope="module")
def table6():
    return run_artifact("table6", SCALE)


def test_table6_capstan_beats_cpu_and_gpu(table6):
    cpu = geometric_mean(table6["128-Thread CPU"].values())
    gpu = geometric_mean(table6["V100 GPU"].values())
    # Abstract headline: 138x vs CPU, 41x vs GPU; the model reproduces
    # the order of magnitude.
    assert cpu > 10
    assert gpu > 5
    # CPU is the slowest platform in geomean, as in Figure 13.
    assert cpu > gpu or gpu / cpu < 5


def test_table6_ddr4_never_beats_hbm2e(table6):
    ddr = table6["Capstan (DDR4)"]
    assert all(v >= 1.0 for v in ddr.values())
    # The gap shrinks for the compute-bound kernels.
    assert ddr["Plus2"] < ddr["SpMV"]


def test_table6_gpu_pays_for_sparse_outputs(table6):
    gpu = table6["V100 GPU"]  # dense zero-initialisation of the result
    assert gpu["SDDMM"] > 3 * gpu["SpMV"]
    assert gpu["TTM"] > 3 * gpu["MTTKRP"]


def test_table5_shuffle_column_and_limits():
    results = run_artifact("table5", STRUCTURAL_SCALE)
    for name in KERNEL_ORDER:
        assert results[name].shuffle == TABLE5_RESOURCES[name][4], name
    assert results["Plus2"].pcu == min(r.pcu for r in results.values())
    for name in ("SpMV", "MatTransMul", "Residual", "TTV"):
        assert "Shuf" in results[name].limiting, name


def test_table3_input_is_smaller_than_generated_spatial():
    for name, row in run_artifact("table3", STRUCTURAL_SCALE).items():
        assert row["input_loc"] < row["spatial_loc"], name
        assert row["input_loc"] <= 2 * row["paper_input_loc"], name
        kernel = build(CompileRequest(
            kernel=name, dataset=datasets_for(name)[0].name,
            scale=STRUCTURAL_SCALE))
        assert "Accel {" in kernel.source, name


def test_figure12_bandwidth_sensitivity():
    series = run_artifact("figure12", SCALE)
    for name, points in series.items():
        speedups = [points[bw] for bw in FIG12_BANDWIDTHS]
        assert speedups == sorted(speedups), name
    # Outer-parallelised kernels exploit bandwidth; Plus2 (par = 1,
    # compute-bound) barely moves.
    top = FIG12_BANDWIDTHS[-1]
    assert series["SpMV"][top] > 5.0
    assert series["Plus2"][top] < min(4.0, series["SpMV"][top])


def _scan_words_per_useful_element(density: float) -> float:
    dims = {"alpha_out": (), "B": (32, 64, 64), "C": (32, 64, 64)}
    tensors = make_small_tensors("InnerProd", seed=5, density=density,
                                 dims=dims)
    stmt, _ = KERNELS["InnerProd"].build(tensors)
    stats = compute_stats(compile_stmt(stmt, "innerprod", cache=False))
    return stats.total_scan_words / max(1, stats.loop("k").iters)


def test_bitvector_scans_degrade_on_highly_sparse_data():
    """Section 8.1: bit-vector co-iteration is not performant below
    about 5 % density (why Plus3 / InnerProd / Plus2 use denser data)."""
    words = [_scan_words_per_useful_element(d)
             for d in (0.01, 0.02, 0.05, 0.10, 0.25, 0.50)]
    assert words[0] > 10 * words[-1]
    assert words == sorted(words, reverse=True)


@pytest.mark.parametrize("dataset", [d.name for d in datasets_for("SpMV")])
def test_duplicating_the_vector_beats_the_shuffle_network(dataset):
    """Section 8.3: the handwritten SpMV duplicates x per partition."""
    seconds = evaluate(CompileRequest(kernel="SpMV", dataset=dataset,
                                      scale=SCALE)).platform_times().seconds
    assert (seconds["Capstan (HBM2E, handwritten)"]
            <= seconds["Capstan (HBM2E)"])
