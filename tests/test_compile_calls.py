"""The compiler's per-call floor, counted: one ``api.compile`` plus one
``api.evaluate`` (``use_cache=False``) per kernel record makes no more
Python calls into ``repro`` than ``compile_calls.json`` allows.

This is the ``compile_nocache`` pair of the benchmark ledger, counted
with ``sys.setprofile`` instead of timed, so a fact derived again on
every lowering, or a node built only to be discarded, fails here
without a clock. A ceiling may only go down.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

import repro
from repro import api, obs
from repro.kernels import KERNELS

SCALE = 0.02
SEED = 7

#: Per-record ceilings on the Python calls into ``repro`` of one
#: compile + evaluate pair, measured on CPython 3.11 (3.12 inlines
#: comprehensions and counts fewer).
COMPILE_CALLS = json.loads(
    (Path(__file__).resolve().parent / "compile_calls.json").read_text())


def test_compile_call_ceilings_cover_every_record():
    assert set(COMPILE_CALLS) == set(KERNELS)


@pytest.mark.parametrize("name", KERNELS)
def test_compile_pair_stays_under_its_call_ceiling(name, monkeypatch):
    monkeypatch.delenv(obs.TRACE_ENV, raising=False)
    request = api.CompileRequest(kernel=name, scale=SCALE, seed=SEED)

    def pair():
        api.compile(request, use_cache=False)
        api.evaluate(request, use_cache=False)

    pair()  # first use: imports, the dataset and process-wide memos
    root = str(Path(repro.__file__).resolve().parent) + os.sep
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    sys.setprofile(count)
    try:
        pair()
    finally:
        sys.setprofile(None)
    assert calls <= COMPILE_CALLS[name], (
        f"{name}: {calls} calls into repro per compile + evaluate pair, "
        f"ceiling {COMPILE_CALLS[name]}")
