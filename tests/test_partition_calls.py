"""A partition request's per-request floor, counted: one
``api.execute(..., use_cache=False)`` of each ``partition_fuse``
partition request at scale 0.25 makes no more Python calls into
``repro`` and no more lowerings than ``partition_calls.json`` allows.

This is the partition half of the ``partition_fuse`` workload of the
benchmark ledger, counted with ``sys.setprofile`` instead of timed. A
lowering is one call of ``core.compiler._lower`` (one ``lower`` span):
a run's blocks bind to the program its first block compiled, so a
``p4`` request that lowers per block fails here. A ceiling may only go
down.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

import repro
from repro import api, obs
from repro.core import compiler

SCALE = 0.25

#: Per-request ceilings (``<kernel>:p<blocks>``): Python calls into
#: ``repro`` and lowerings of one uncached request, measured on CPython
#: 3.11 (3.12 inlines comprehensions and counts fewer calls).
PARTITION_CALLS = json.loads(
    (Path(__file__).resolve().parent / "partition_calls.json").read_text())


@pytest.mark.parametrize("case", PARTITION_CALLS)
def test_partition_request_stays_under_its_ceilings(case, monkeypatch):
    monkeypatch.delenv(obs.TRACE_ENV, raising=False)
    kernel, blocks = case.split(":p")
    request = api.CompileRequest(kernel=kernel, scale=SCALE,
                                 partition=int(blocks), action="partition")

    def run():
        api.execute(request, use_cache=False)

    run()  # first use: imports, the dataset and process-wide memos
    root = str(Path(repro.__file__).resolve().parent) + os.sep
    lower = compiler._lower.__code__
    calls = lowerings = 0

    def count(frame, event, arg):
        nonlocal calls, lowerings
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1
            lowerings += frame.f_code is lower

    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(None)
    ceiling = PARTITION_CALLS[case]
    assert lowerings <= ceiling["lowerings"], (
        f"{case}: {lowerings} lowerings per request, ceiling "
        f"{ceiling['lowerings']}")
    assert calls <= ceiling["calls"], (
        f"{case}: {calls} calls into repro per request, ceiling "
        f"{ceiling['calls']}")
