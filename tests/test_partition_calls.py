"""A partition request's per-request floor, counted: one
``api.execute(..., use_cache=False)`` of each ``partition_fuse``
partition request at scale 0.25 makes no more Python calls into
``repro`` and no more lowerings than ``partition_calls.json`` allows,
and none of its numpy-engine ``ExecPlan`` builds peaks above the
request's ``plan_kib`` of traced memory.

This is the partition half of the ``partition_fuse`` workload of the
benchmark ledger, counted with ``sys.setprofile`` instead of timed. A
lowering is one call of ``core.compiler._lower`` (one ``lower`` span):
a run's blocks bind to the program its first block compiled, so a
``p4`` request that lowers per block fails here. A ceiling may only go
down. A block's plan is built for one run, so what it allocates is
paid once per block: ``plan_kib`` is the largest ``tracemalloc`` peak
one build reaches above what was traced when it started (a plan that
walks, keys and sorts every entry peaks at several int64 arrays of the
block's nonzeros).
"""

from __future__ import annotations

import json
import os
import sys
import tracemalloc
from pathlib import Path

import pytest

import repro
from repro import api, obs
from repro.backends import numpy_exec
from repro.core import compiler

SCALE = 0.25

#: Per-request ceilings (``<kernel>:p<blocks>``): Python calls into
#: ``repro``, lowerings and the largest plan build's peak KiB of one
#: uncached request, measured on CPython 3.11 (3.12 inlines
#: comprehensions and counts fewer calls).
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

    build, peaks = numpy_exec.ExecPlan.__init__, []

    def traced(plan, assignment):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build(plan, assignment)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)

    monkeypatch.setattr(numpy_exec.ExecPlan, "__init__", traced)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
    assert peaks, f"{case}: no ExecPlan was built"
    plan_kib = max(peaks) / 1024
    assert plan_kib <= ceiling["plan_kib"], (
        f"{case}: a plan build peaked at {plan_kib:.0f} KiB, ceiling "
        f"{ceiling['plan_kib']}")
