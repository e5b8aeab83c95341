"""Cache isolation for ``python -m pytest benchmarks/e2e``."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def _isolated_cache_dir(tmp_path_factory):
    """Never read or pollute ~/.cache/repro: the ledger self-tests build
    kernels through ``repro.api``, which writes the default disk store."""
    if "REPRO_CACHE_DIR" not in os.environ:
        os.environ["REPRO_CACHE_DIR"] = str(
            tmp_path_factory.mktemp("repro-cache")
        )
