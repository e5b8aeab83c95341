"""Regenerate the golden-file snapshots under tests/golden/.

The golden tests (tests/test_golden_code.py) diff the emitted Spatial and
CPU C code for the reference kernels against these files, so any change
to the lowering, memory analysis, or code generators shows up as a
readable diff. ``datasets.json`` (tests/test_datasets.py) pins one sha256
per (kernel, dataset) over the packed operand tensors, so a change to the
generators or to ``pack`` that moves a single byte shows up too.
``requests.json`` (tests/test_registry.py) pins every action's canonical
request JSON, which is every result cache key, and two shard manifests
without their per-run fields. After an
*intentional* change, rerun this script and commit the updated files;
CI's golden-drift job runs it too and fails if the checked-in files do
not match what the code produces.

Usage:  python scripts/regen_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from repro.backends import lower_cpu
from repro.core import compile_stmt
from tests.helpers_kernels import (
    DATASET_GOLDEN_SEED,
    build_small_kernel_stmt,
    dataset_digests,
    request_goldens,
)

GOLDEN = REPO / "tests" / "golden"

#: Kernels with Spatial golden snapshots. COO-SpMV and BCSR-SpMV pin the
#: singleton-scanner and static-block code shapes of the format subsystem.
SPATIAL_KERNELS = ("SpMV", "SDDMM", "Plus3", "COO-SpMV", "BCSR-SpMV")


def regenerate() -> list[Path]:
    """Write all golden files; return the paths written."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    written = []
    for name in SPATIAL_KERNELS:
        stmt, _, _ = build_small_kernel_stmt(name)
        # Bypass the cache: goldens must reflect the compiler as it is.
        source = compile_stmt(stmt, name.lower(), cache=False).source
        path = GOLDEN / f"{name.lower()}.spatial"
        path.write_text(source)
        written.append(path)
    stmt, _, _ = build_small_kernel_stmt("SpMV")
    path = GOLDEN / "spmv.c"
    path.write_text(lower_cpu(stmt, "spmv"))
    written.append(path)
    path = GOLDEN / "datasets.json"
    path.write_text(json.dumps(
        {"seed": DATASET_GOLDEN_SEED, "digests": dataset_digests()},
        indent=1, sort_keys=True) + "\n")
    written.append(path)
    path = GOLDEN / "requests.json"
    path.write_text(json.dumps(request_goldens(), indent=1, sort_keys=True)
                    + "\n")
    written.append(path)
    return written


def main() -> int:
    for path in regenerate():
        print(f"wrote {path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
