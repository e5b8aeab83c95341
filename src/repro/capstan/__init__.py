"""The Capstan RDA model: architecture, DRAM, resources, and simulator."""

from repro import lazy_exports

_EXPORTS = {
    "CapstanConfig": ("repro.capstan.arch", "CapstanConfig"),
    "CapstanCostModel": ("repro.capstan.calibration", "CapstanCostModel"),
    "CapstanSimulator": ("repro.capstan.simulator", "CapstanSimulator"),
    "CpuModel": ("repro.capstan.calibration", "CpuModel"),
    "DDR4": ("repro.capstan.dram", "DDR4"),
    "DEFAULT_CONFIG": ("repro.capstan.arch", "DEFAULT_CONFIG"),
    "DEFAULT_COST": ("repro.capstan.calibration", "DEFAULT_COST"),
    "DEFAULT_CPU": ("repro.capstan.calibration", "DEFAULT_CPU"),
    "DEFAULT_GPU": ("repro.capstan.calibration", "DEFAULT_GPU"),
    "DEFAULT_RESOURCES": ("repro.capstan.calibration", "DEFAULT_RESOURCES"),
    "DramModel": ("repro.capstan.dram", "DramModel"),
    "FIG12_BANDWIDTHS": ("repro.capstan.dram", "FIG12_BANDWIDTHS"),
    "GpuModel": ("repro.capstan.calibration", "GpuModel"),
    "HBM2E": ("repro.capstan.dram", "HBM2E"),
    "IDEAL": ("repro.capstan.dram", "IDEAL"),
    "LoopStats": ("repro.capstan.stats", "LoopStats"),
    "NetworkModel": ("repro.capstan.network", "NetworkModel"),
    "ResourceEstimate": ("repro.capstan.resources", "ResourceEstimate"),
    "ResourceModel": ("repro.capstan.calibration", "ResourceModel"),
    "SimResult": ("repro.capstan.simulator", "SimResult"),
    "WorkloadStats": ("repro.capstan.stats", "WorkloadStats"),
    "compute_stats": ("repro.capstan.stats", "compute_stats"),
    "custom_bandwidth": ("repro.capstan.dram", "custom_bandwidth"),
    "estimate_resources": ("repro.capstan.resources", "estimate_resources"),
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
