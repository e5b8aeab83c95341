"""Regenerate the golden-file snapshots under tests/golden/.

The golden tests (tests/test_golden_code.py) diff the emitted Spatial of
every kernel record, and SpMV's CPU C code, against these files, so any
change to the lowering, memory analysis, or code generators shows up as
a readable diff; ``notes.json`` pins each record's lowering notes (the
memory-analysis report and every forall's strategy trace, the text of
``repro compile --memory-report``). ``datasets.json`` (tests/test_datasets.py) pins one sha256
per (kernel, dataset) over the packed operand tensors, so a change to the
generators or to ``pack`` that moves a single byte shows up too.
``conversions.json`` (tests/test_convert.py) pins, for every ordered pair
of registered formats with and without pinned dims, the conversion
plan's ``describe()`` text (or its refusal) and a sha256 of the
converted level arrays and ``vals``.
``requests.json`` (tests/test_registry.py) pins every action's canonical
request JSON, which is every result cache key, and two shard manifests
without their per-run fields. ``execution.json`` (tests/test_interp.py)
pins the sha256 of every kernel record's ``run_dense()`` and every
pipeline's output checksum, so an interpreter change that moves one bit
of a result shows up; its ``numpy`` section (tests/test_numpy_exec.py)
does the same for the numpy engine's densified result, and its
``partitions`` section (tests/test_partition.py) holds the report text of
five partition plans at scale 0.25, ``oracle maxerr`` included.
``cli.json`` (tests/test_cli.py) pins the command-line surface: each
subcommand's option strings and positional names, and the exit code and
stderr of a fixed list of refused argv.
``table6-1.0.txt`` (tests/test_golden_code.py, ``slow``) is a cold
``tables table6 --scale 1.0`` render, so a model change that moves a
paper-scale cell shows up as a text diff; ``table3.txt`` and
``table5.txt`` are the ``tables table3`` and ``tables table5`` texts
(lines of code and Capstan resources; neither depends on the scale), and
``pipeline_sweep-0.05.txt`` is the ``tables pipeline_sweep --scale 0.05``
text, so a change that moves one fusion cut decision or its traffic shows
up.
After an
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
    PIPELINE_GOLDEN_SCALE,
    SPATIAL_GOLDEN_KERNELS,
    STRUCTURAL_GOLDENS,
    TABLE6_GOLDEN_SCALE,
    artifact_text,
    build_small_kernel_stmt,
    cli_goldens,
    conversion_digests,
    dataset_digests,
    execution_digests,
    request_goldens,
)

GOLDEN = REPO / "tests" / "golden"


def regenerate() -> list[Path]:
    """Write all golden files; return the paths written."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    written = []
    notes = {}
    for name in SPATIAL_GOLDEN_KERNELS:
        stmt, _, _ = build_small_kernel_stmt(name)
        # Bypass the cache: goldens must reflect the compiler as it is.
        kernel = compile_stmt(stmt, name.lower(), cache=False)
        notes[name] = list(kernel.notes)
        path = GOLDEN / f"{name.lower()}.spatial"
        path.write_text(kernel.source)
        written.append(path)
    path = GOLDEN / "notes.json"
    path.write_text(json.dumps(notes, indent=1, sort_keys=True) + "\n")
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
    path = GOLDEN / "conversions.json"
    path.write_text(json.dumps(conversion_digests(), indent=1, sort_keys=True)
                    + "\n")
    written.append(path)
    path = GOLDEN / "requests.json"
    path.write_text(json.dumps(request_goldens(), indent=1, sort_keys=True)
                    + "\n")
    written.append(path)
    path = GOLDEN / "cli.json"
    path.write_text(json.dumps(cli_goldens(), indent=1, sort_keys=True)
                    + "\n")
    written.append(path)
    path = GOLDEN / "execution.json"
    path.write_text(json.dumps(execution_digests(), indent=1, sort_keys=True)
                    + "\n")
    written.append(path)
    path = GOLDEN / f"table6-{TABLE6_GOLDEN_SCALE}.txt"
    path.write_text(artifact_text("table6", TABLE6_GOLDEN_SCALE))
    written.append(path)
    for name in STRUCTURAL_GOLDENS:
        path = GOLDEN / f"{name}.txt"
        path.write_text(artifact_text(name))
        written.append(path)
    path = GOLDEN / f"pipeline_sweep-{PIPELINE_GOLDEN_SCALE}.txt"
    path.write_text(artifact_text("pipeline_sweep", PIPELINE_GOLDEN_SCALE))
    written.append(path)
    return written


def main() -> int:
    for path in regenerate():
        print(f"wrote {path.relative_to(REPO)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
