"""The two registries: ``pipeline.batch.ARTEFACTS`` and ``service.api.ACTIONS``.

An artefact is one :class:`~repro.pipeline.batch.Artefact` record and a
request verb one :class:`~repro.service.api.Action` record; every other
surface (CLI, shard codecs, manifests, serve routes) is derived from
them. The tests below iterate the registries, so registering a record is
what covers it, and an ``ast`` walk keeps name ladders from growing back
anywhere else. ``tests/golden/requests.json`` pins the bytes a registry
refactor could silently move: canonical request JSON (every result cache
key) and shard manifests.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import repro
from repro import api
from repro.__main__ import main
from repro.pipeline.batch import (
    ARTEFACTS,
    ARTIFACT_NAMES,
    STRUCTURAL_SCALE,
    UnknownArtifact,
    resolve_artifact,
)
from repro.pipeline.executor import JobResult, run_jobs
from tests.helpers_kernels import GOLDEN_REQUESTS, request_goldens

TINY = 0.02
PLAN = "partition:SpMV:bcsstk30:p2:row"

#: Every registered artefact plus one partition plan.
NAMES = (*ARTIFACT_NAMES, PLAN)

GOLDEN = Path(__file__).resolve().parent / "golden" / "requests.json"


def _stdout(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


# ---------------------------------------------------------------------------
# Frozen bytes
# ---------------------------------------------------------------------------


def test_request_goldens_are_frozen(fresh_cache):
    """Regenerate with ``python scripts/regen_golden.py`` only for an
    intentional change: these strings are cache keys and wire formats."""
    assert request_goldens() == json.loads(GOLDEN.read_text())


def test_every_action_has_a_golden_request():
    assert set(GOLDEN_REQUESTS) == set(api.ACTIONS)


# ---------------------------------------------------------------------------
# Artefacts
# ---------------------------------------------------------------------------


class TestArtefacts:
    def test_names_are_the_registry_key_order(self):
        assert ARTIFACT_NAMES == tuple(ARTEFACTS)
        assert all(ARTEFACTS[name].name == name for name in ARTEFACTS)

    def test_one_error_for_an_unknown_name(self):
        for bad in ("nope", "partition:SpMV", None):
            with pytest.raises(UnknownArtifact):
                resolve_artifact(bad)
        with pytest.raises(UnknownArtifact, match="unknown artefact 'nope'"):
            resolve_artifact("nope")

    @pytest.mark.parametrize("name", NAMES)
    def test_codec_round_trips_through_json(self, fresh_cache, name):
        record = resolve_artifact(name)
        results = run_jobs(record.jobs(TINY))
        wired = [
            JobResult(res.job, True, value=record.decode(
                json.loads(json.dumps(record.encode(res.unwrap())))))
            for res in results
        ]
        assert (record.render(record.assemble(wired))
                == record.render(record.assemble(results)))

    @pytest.mark.parametrize("name", NAMES)
    def test_tables_batch_and_merged_shards_print_one_text(
            self, fresh_cache, tmp_path, capsys, name):
        scale = ["--scale", str(TINY)]
        batch = _stdout(capsys, ["batch", name, *scale])
        # `batch` frames the text in rules and appends its summary line.
        text = batch.split("=" * 78 + "\n")[1]
        shards = [str(tmp_path / f"s{i}.json") for i in (1, 2)]
        for i, path in enumerate(shards, 1):
            _stdout(capsys, ["batch", name, *scale, "--shard", f"{i}/2",
                             "--out", path])
        assert _stdout(capsys, ["merge", *shards]) == text
        if name in ARTEFACTS:
            assert _stdout(capsys, ["tables", name, *scale]) == text
        else:  # a plan's `tables` is the unpartitioned run
            assert _stdout(capsys, ["spmm-dist", "SpMV", "--serial",
                                    *scale]) == text

    def test_structural_artefacts_default_to_one_small_scale(self):
        structural = [r.name for r in ARTEFACTS.values()
                      if r.default_scale == STRUCTURAL_SCALE]
        assert structural == ["table3", "table5"]

    @pytest.mark.parametrize("scale", [["--scale", "0.03"], []])
    def test_tables_batch_dispatch_key_the_same_entries(
            self, fresh_cache, capsys, scale):
        """An explicit ``--scale`` is honoured by all three commands and an
        omitted one means the record's default on all three: whichever
        runs first, the others only hit (per memoized stage: the
        dispatcher's look at its cold cost table computes nothing)."""
        _stdout(capsys, ["tables", "table3", *scale])
        misses = dict(fresh_cache.stats.stage_misses)
        assert misses
        _stdout(capsys, ["batch", "table3", *scale])
        _stdout(capsys, ["dispatch", "table3", "--workers", "inline:1",
                         "--quiet", *scale])
        assert fresh_cache.stats.stage_misses == misses


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", api.ACTIONS)
class TestActions:
    def _request(self, name):
        minimal, _full = GOLDEN_REQUESTS[name]
        return api.CompileRequest(action=name, scale=TINY, **minimal)

    def test_canonical_form_round_trips(self, name):
        request = self._request(name)
        again = api.CompileRequest.from_dict(request.canonical())
        assert again == request.resolved()
        assert again.canonical_json() == request.canonical_json()
        assert request.stage == name

    def test_execute_serves_it_and_cached_finds_it(self, fresh_cache, name):
        request = self._request(name)
        assert api.cached(request) is None
        result = api.execute(request)
        assert result.request == request.resolved()
        assert api.cached(request).to_json() == result.to_json()
        assert fresh_cache.stats.stage_hits[name] == 1
        # The public verb is `execute` with the action pinned.
        verb = getattr(api, name)
        assert verb(self._request(name)).to_json() == result.to_json()


def test_server_lists_every_action():
    import asyncio

    from repro.service import server

    service = server.CompileService(server.ServeConfig(port=0))
    status, body, _ct = asyncio.run(service._route("GET", "/nope", b""))
    assert status == 404
    for name in api.ACTIONS:
        assert f"/{name}" in body.decode()
        assert f"POST /{name} " in server.__doc__
        status, _body, _ct = asyncio.run(service._route("GET", f"/{name}", b""))
        assert status == 405


# ---------------------------------------------------------------------------
# The guard: no name ladders outside the registries
# ---------------------------------------------------------------------------

#: The registries and the partition-name parser tell names apart.
_MAY_BRANCH = {"pipeline/batch.py", "pipeline/partition.py", "service/api.py"}
_SUBJECTS = {"artifact", "artefact", "action"}


def _is_subject(node: ast.AST, path: str) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _SUBJECTS
    if isinstance(node, ast.Attribute) and node.attr in _SUBJECTS:
        # `cache` / `trace` sub-command dispatch: args.action == "info".
        cli_verb = (path == "__main__.py" and node.attr == "action"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "args")
        return not cli_verb
    return False


def _is_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(_is_literal(e) for e in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _ladders(tree: ast.AST, path: str) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if (any(_is_subject(n, path) for n in operands)
                    and any(_is_literal(n) for n in operands)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            called = getattr(func, "id", getattr(func, "attr", None))
            if called == "is_partition_artifact":
                lines.append(node.lineno)
    return lines


def test_the_guard_sees_a_ladder():
    tree = ast.parse("if artifact == 'table6': pass\n"
                     "if req.action in ('compile', 'evaluate'): pass\n"
                     "if is_partition_artifact(name): pass\n"
                     "if args.action == 'info': pass\n")
    assert _ladders(tree, "__main__.py") == [1, 2, 3]
    assert _ladders(tree, "pipeline/shard.py") == [1, 2, 3, 4]


def test_no_name_ladders_outside_the_registries():
    root = Path(repro.__file__).resolve().parent
    found = []
    for source in sorted(root.rglob("*.py")):
        path = source.relative_to(root).as_posix()
        if path in _MAY_BRANCH:
            continue
        found += [f"{path}:{line}"
                  for line in _ladders(ast.parse(source.read_text()), path)]
    assert found == []


def test_dispatch_lost_its_partition_spelling(capsys):
    with pytest.raises(SystemExit):
        main(["dispatch", "--help"])
    usage = capsys.readouterr().out
    assert "--workers" in usage
    for flag in ("--partition", "--dataset", "--mode"):
        assert flag not in usage


# ---------------------------------------------------------------------------
# The guard: a kernel is its ``KernelSpec`` record, named nowhere above it
# ---------------------------------------------------------------------------

#: Orchestration, service, compiler and models hold no kernel name
#: (ROADMAP item 1); ``handwritten.py`` *is* the SpMV baseline.
_KERNEL_FREE = ("pipeline/", "service/", "core/", "spatial/", "capstan/",
                "backends/")
_NAMES_KERNELS = {"backends/handwritten.py"}


def _kernel_names(tree: ast.AST) -> list[int]:
    """Lines of string literals equal to a ``KERNELS`` key, docstrings
    excluded."""
    from repro.kernels import KERNELS

    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and id(node) not in docstrings
            and isinstance(node.value, str) and node.value in KERNELS]


def test_the_kernel_guard_sees_a_name():
    tree = ast.parse('"""SpMV."""\n'
                     'FORMATS = {"SpMV": "csr"}\n'
                     'def dense(kernel):\n'
                     '    "TTV"\n'
                     '    if kernel == "DCSR-SpMM": pass\n')
    assert _kernel_names(tree) == [2, 5]


def test_no_kernel_names_above_the_record():
    root = Path(repro.__file__).resolve().parent
    found = []
    for source in sorted(root.rglob("*.py")):
        path = source.relative_to(root).as_posix()
        if path in _NAMES_KERNELS or not (path.startswith(_KERNEL_FREE)
                                          or path == "convert.py"):
            continue
        found += [f"{path}:{line}"
                  for line in _kernel_names(ast.parse(source.read_text()))]
    assert found == []


# ---------------------------------------------------------------------------
# The guard: one lease loop (``pipeline.lease``) over one Transport
# ---------------------------------------------------------------------------


def _sleeps(tree: ast.AST, module: str) -> list[str]:
    """Names of the functions that call ``<module>.sleep``, once per call."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sleep"
                    and getattr(node.func.value, "id", None) == module):
                found.append(func.name)
    return found


def _queue_isinstance(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "isinstance"
            and any(getattr(n, "id", getattr(n, "attr", None))
                    == "QueueTransport" for n in ast.walk(node.args[-1]))]


def test_the_loop_guard_sees_a_second_loop():
    tree = ast.parse("def loop():\n"
                     "    if isinstance(t, (Local, fsqueue.QueueTransport)):\n"
                     "        time.sleep(1)\n"
                     "async def tick():\n"
                     "    await asyncio.sleep(1)\n")
    assert _queue_isinstance(tree) == [2]
    assert _sleeps(tree, "time") == ["loop"]
    assert _sleeps(tree, "asyncio") == ["tick"]


def test_no_second_lease_loop():
    from repro.pipeline.fsqueue import QueueTransport
    from repro.pipeline.lease import Transport

    src = Path(repro.__file__).resolve().parent
    scripts = src.parents[1] / "scripts"
    branches = [f"{source}:{line}"
                for root in (src, scripts)
                for source in sorted(root.rglob("*.py"))
                for line in _queue_isinstance(ast.parse(source.read_text()))]
    assert branches == []
    assert issubclass(QueueTransport, Transport)
    for twin in ("enqueue_request", "withdraw_request", "collect_requests",
                 "expired_requests"):
        assert not hasattr(QueueTransport, twin)
    # dispatch() waits through Transport.wait; the daemon sleeps in its
    # drain's read window and the queue backend's one poll tick.
    dispatch_tree = ast.parse((src / "pipeline/dispatch.py").read_text())
    assert _sleeps(dispatch_tree, "time") == []
    server_tree = ast.parse((src / "service/server.py").read_text())
    assert sorted(_sleeps(server_tree, "asyncio")) == ["_finish_drain",
                                                       "_poll_loop"]
