"""Golden-file snapshots of generated code.

Any change to the lowering, memory analysis, or code generator that alters
the emitted Spatial (of every kernel record), its lowering notes, or CPU
C (of SpMV) shows up here as a readable diff; so does a change that moves
a line of Table 3 (lines of code) or Table 5 (Capstan resources), a
fusion cut decision or its traffic in ``pipeline_sweep`` at scale 0.05,
and a model change that moves a cell of Table 6 at the paper's scale
(``slow``). Regenerate
intentionally with:

    python scripts/regen_golden.py

and commit the result. CI's golden-drift job runs the same script and
fails on any uncommitted difference.
"""

import json
from pathlib import Path

import pytest

from repro.backends import lower_cpu
from repro.core import compile_stmt
from tests.helpers_kernels import (
    PIPELINE_GOLDEN_SCALE,
    SPATIAL_GOLDEN_KERNELS,
    STRUCTURAL_GOLDENS,
    TABLE6_GOLDEN_SCALE,
    artifact_text,
    build_small_kernel_stmt,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _diff_message(name: str, got: str, want: str) -> str:
    import difflib

    diff = "\n".join(difflib.unified_diff(
        want.splitlines(), got.splitlines(),
        fromfile=f"golden/{name}", tofile="generated", lineterm="",
    ))
    return (f"generated code for {name} changed; if intentional, "
            f"regenerate the golden file (see module docstring)\n{diff}")


@pytest.mark.parametrize("name", SPATIAL_GOLDEN_KERNELS)
def test_spatial_matches_golden(name):
    stmt, _, _ = build_small_kernel_stmt(name)
    got = compile_stmt(stmt, name.lower()).source
    want = (GOLDEN / f"{name.lower()}.spatial").read_text()
    assert got == want, _diff_message(f"{name.lower()}.spatial", got, want)


@pytest.mark.parametrize("name", SPATIAL_GOLDEN_KERNELS)
def test_lowering_notes_match_golden(name):
    stmt, _, _ = build_small_kernel_stmt(name)
    got = "\n".join(compile_stmt(stmt, name.lower()).notes)
    want = "\n".join(json.loads((GOLDEN / "notes.json").read_text())[name])
    assert got == want, _diff_message(f"notes.json[{name}]", got, want)


def test_cpu_code_matches_golden():
    stmt, _, _ = build_small_kernel_stmt("SpMV")
    got = lower_cpu(stmt, "spmv")
    want = (GOLDEN / "spmv.c").read_text()
    assert got == want, _diff_message("spmv.c", got, want)


@pytest.mark.parametrize("name", STRUCTURAL_GOLDENS)
def test_structural_table_matches_golden(name):
    got = artifact_text(name)
    want = (GOLDEN / f"{name}.txt").read_text()
    assert got == want, _diff_message(f"{name}.txt", got, want)


def test_pipeline_sweep_matches_golden():
    got = artifact_text("pipeline_sweep", PIPELINE_GOLDEN_SCALE)
    name = f"pipeline_sweep-{PIPELINE_GOLDEN_SCALE}.txt"
    want = (GOLDEN / name).read_text()
    assert got == want, _diff_message(name, got, want)


@pytest.mark.slow
def test_table6_paper_scale_matches_golden():
    got = artifact_text("table6", TABLE6_GOLDEN_SCALE)
    name = f"table6-{TABLE6_GOLDEN_SCALE}.txt"
    want = (GOLDEN / name).read_text()
    assert got == want, _diff_message(name, got, want)
