"""Smoke tests for the evaluation harness (tiny scale)."""

import pytest

from repro.api import CompileRequest, build, evaluate
from repro.eval.harness import (
    figure13,
    format_figure12,
    format_table3,
    format_table5,
    format_table6,
)
from repro.kernels import KERNEL_ORDER
from repro.pipeline.batch import run_artifact

TINY = 0.02


def test_build_kernel_compiles():
    kernel = build(CompileRequest(kernel="SpMV", dataset="bcsstk30",
                                  scale=TINY))
    assert kernel.spatial_loc > 10


def test_evaluate_platforms_present():
    times = evaluate(CompileRequest(kernel="SpMV", dataset="bcsstk30",
                                    scale=TINY)).platform_times()
    assert {"Capstan (Ideal)", "Capstan (HBM2E)", "Capstan (DDR4)",
            "V100 GPU", "128-Thread CPU",
            "Capstan (HBM2E, handwritten)",
            "Plasticine (HBM2E, handwritten)"} == set(times.seconds)
    norm = times.normalised()
    assert norm["Capstan (HBM2E)"] == 1.0


def test_evaluate_non_spmv_has_no_handwritten_rows():
    times = evaluate(CompileRequest(kernel="Plus2", dataset="random3-1pct",
                                    scale=0.2)).platform_times()
    assert "Plasticine (HBM2E, handwritten)" not in times.seconds


def test_table3_rows_complete():
    rows = run_artifact("table3", TINY)
    assert set(rows) == set(KERNEL_ORDER)
    text = format_table3(rows)
    assert "SpMV productivity" in text


def test_table5_rows_complete():
    res = run_artifact("table5", TINY)
    assert set(res) == set(KERNEL_ORDER)
    assert "limit=" in format_table5(res)


@pytest.mark.slow
def test_table6_and_figures_tiny():
    results = run_artifact("table6", 0.05)
    assert set(results["Capstan (HBM2E)"]) == set(KERNEL_ORDER)
    text = format_table6(results)
    assert "gmean" in text
    series = figure13(0.05)
    assert set(series) == {"Capstan", "GPU", "CPU"}


def test_figure12_series_shape():
    series = run_artifact("figure12", 0.05)
    assert set(series) == set(KERNEL_ORDER)
    for points in series.values():
        assert points[20] == pytest.approx(1.0)
    assert "Figure 12" in format_figure12(series)
