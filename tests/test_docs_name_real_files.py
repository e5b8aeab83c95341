"""Docs and workflows may only name files that exist, and no CI step may
swallow its exit status."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / ".claude/skills/verify/SKILL.md",
        *sorted(ROOT.glob(".github/workflows/*.yml")),
        *sorted(ROOT.glob(".github/actions/**/action.yml"))]

_PATH = re.compile(r"\b(?:benchmarks|scripts|tests)/[\w/.-]*\.py\b")
_MODULE = re.compile(r"python3? -m (benchmarks(?:\.\w+)+)")


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_named_files_exist(doc):
    text = doc.read_text()
    named = set(_PATH.findall(text)) | {
        m.replace(".", "/") + ".py" for m in _MODULE.findall(text)}
    assert [p for p in sorted(named) if not (ROOT / p).is_file()] == []


def test_no_workflow_step_swallows_its_exit_status():
    for workflow in ROOT.glob(".github/workflows/*.yml"):
        for n, line in enumerate(workflow.read_text().splitlines(), 1):
            if not line.lstrip().startswith("#"):
                assert "|| true" not in line, f"{workflow.name}:{n}"
