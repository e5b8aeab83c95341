"""``scripts/run_experiments.py``: the one loop over every artefact."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.__main__ import main
from repro.pipeline import batch
from tests.conftest import patch_cell

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_experiments.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_serial_loop_isolates_a_failing_artefact(fresh_cache, tmp_path,
                                                 monkeypatch, capsys):
    script = _load_script()

    def broken(kernel_name, scale, use_cache=None):
        raise RuntimeError("injected failure")

    patch_cell(monkeypatch, "table5", broken)
    out = tmp_path / "results"
    monkeypatch.setattr(script, "OUT", out)
    monkeypatch.setattr(script, "ARTEFACTS", {
        name: batch.ARTEFACTS[name] for name in ("table3", "table5")})

    assert script.main(["0.02"]) == 1
    captured = capsys.readouterr()
    assert "FAILED" in captured.err and "injected failure" in captured.err
    assert [p.name for p in out.iterdir()] == ["table3.txt"]

    assert main(["tables", "table3"]) == 0
    assert (out / "table3.txt").read_text() == capsys.readouterr().out
