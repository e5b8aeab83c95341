"""Evaluation datasets (Table 4) and synthetic generators."""

from repro.data.datasets import (
    DATASETS,
    DATASETS_BY_NAME,
    DatasetSpec,
    datasets_for,
    load,
)
from repro.kernels.suite import FACTOR_RANK, SDDMM_K

__all__ = [
    "DATASETS",
    "DATASETS_BY_NAME",
    "DatasetSpec",
    "FACTOR_RANK",
    "SDDMM_K",
    "datasets_for",
    "load",
]
