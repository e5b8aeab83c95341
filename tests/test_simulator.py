"""Unit tests for the cycle-approximate Capstan simulator."""

import pytest

from repro.capstan import (
    DDR4,
    HBM2E,
    IDEAL,
    CapstanSimulator,
    compute_stats,
    custom_bandwidth,
)
from repro.core import compile_stmt
from repro.kernels import KERNEL_ORDER
from tests.helpers_kernels import build_small_kernel_stmt


@pytest.fixture(scope="module")
def compiled():
    out = {}
    for name in KERNEL_ORDER:
        stmt, _, _ = build_small_kernel_stmt(name)
        out[name] = compile_stmt(stmt, name)
    return out


@pytest.fixture(scope="module")
def sim():
    return CapstanSimulator()


class TestMemoryOrdering:
    @pytest.mark.parametrize("name", KERNEL_ORDER)
    def test_ideal_fastest_ddr4_slowest(self, compiled, sim, name):
        kernel = compiled[name]
        stats = compute_stats(kernel)
        t_ideal = sim.simulate(kernel, dram=IDEAL, stats=stats).seconds
        t_hbm = sim.simulate(kernel, dram=HBM2E, stats=stats).seconds
        t_ddr = sim.simulate(kernel, dram=DDR4, stats=stats).seconds
        assert t_ideal <= t_hbm <= t_ddr

    def test_bandwidth_monotone(self, compiled, sim):
        kernel = compiled["SpMV"]
        stats = compute_stats(kernel)
        times = [
            sim.simulate(kernel, dram=custom_bandwidth(bw), stats=stats).seconds
            for bw in (20, 100, 500, 2000)
        ]
        assert times == sorted(times, reverse=True)

    def test_sweep_helper(self, compiled, sim):
        kernel = compiled["SpMV"]
        sweep = sim.sweep_bandwidth(kernel, (20, 200, 2000))
        assert set(sweep) == {20, 200, 2000}
        assert sweep[20].seconds >= sweep[2000].seconds


class TestResults:
    def test_breakdown_sums_to_bottleneck(self, compiled, sim):
        res = sim.simulate(compiled["SpMV"], dram=HBM2E)
        assert res.bottleneck in res.breakdown
        assert res.seconds >= max(res.breakdown.values())

    def test_cycles_consistent_with_seconds(self, compiled, sim):
        res = sim.simulate(compiled["SpMV"], dram=HBM2E)
        assert res.cycles == pytest.approx(res.seconds * 1.6e9)

    def test_speedup_over(self, compiled, sim):
        kernel = compiled["SpMV"]
        stats = compute_stats(kernel)
        hbm = sim.simulate(kernel, dram=HBM2E, stats=stats)
        ddr = sim.simulate(kernel, dram=DDR4, stats=stats)
        assert hbm.speedup_over(ddr) >= 1.0

    def test_ideal_has_no_dram_term(self, compiled, sim):
        res = sim.simulate(compiled["SpMV"], dram=IDEAL)
        assert res.breakdown["dram"] == 0.0

    @pytest.mark.parametrize("name", KERNEL_ORDER)
    def test_positive_times(self, compiled, sim, name):
        res = sim.simulate(compiled[name], dram=HBM2E)
        assert res.seconds > 0
        assert all(v >= 0 for v in res.breakdown.values())

    def test_scan_term_present_for_union_kernels(self, compiled, sim):
        res = sim.simulate(compiled["Plus2"], dram=HBM2E)
        assert res.breakdown["scan"] > 0

    def test_gather_term_present_for_spmv(self, compiled, sim):
        res = sim.simulate(compiled["SpMV"], dram=HBM2E)
        assert res.breakdown["gather"] > 0

    def test_no_gather_for_sddmm(self, compiled, sim):
        res = sim.simulate(compiled["SDDMM"], dram=HBM2E)
        assert res.breakdown["gather"] == 0.0


class TestParallelismEffects:
    def test_outer_par_speeds_up_compute(self, sim):
        def time_at(par):
            stmt, _, _ = build_small_kernel_stmt("SDDMM", outer_par=par)
            kernel = compile_stmt(stmt, "sddmm")
            return sim.simulate(kernel, dram=IDEAL).seconds

        assert time_at(8) < time_at(1)

    def test_shuffle_caps_outer_par(self, sim):
        """Outer parallelization beyond 16 is capped for shuffle users."""
        stmt, _, _ = build_small_kernel_stmt("SpMV", outer_par=64)
        kernel = compile_stmt(stmt, "spmv")
        res = sim.simulate(kernel, dram=IDEAL)
        stmt16, _, _ = build_small_kernel_stmt("SpMV", outer_par=16)
        res16 = sim.simulate(compile_stmt(stmt16, "spmv"), dram=IDEAL)
        assert res.seconds == pytest.approx(res16.seconds, rel=0.3)
