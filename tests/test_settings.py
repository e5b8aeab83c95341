"""The knob rule: every ``REPRO_*`` variable is declared once in
``repro.settings``, read live through it and nowhere else, and the hot
paths read none of them through ``os.environ``.

* An ``ast`` guard allows ``os.environ`` only in ``settings.py``, in
  ``dispatch.worker_env`` (it copies the environment to a child) and in
  ``__main__.main`` (it writes ``--trace``).
* A counting ``os._Environ.__getitem__`` sees no ``REPRO_*`` key during
  a reused numpy run, an ``api.cached`` hit or an uncached compile and
  evaluate pair.
* A ``setenv`` or ``delenv`` of each knob is seen by the next read.
* The README's knob table is ``settings.KNOBS``, row by row.
"""

from __future__ import annotations

import ast
import os
import re
from pathlib import Path

import pytest

import repro
from repro import api, obs, settings
from repro.core.compiler import compile_stmt
from repro.engines import default_engine
from repro.pipeline.cache import CompilationCache, cache_enabled, disk_cache_dir
from repro.pipeline.dispatch import SshTransport
from tests.helpers_kernels import build_small_kernel_stmt
from tests.test_numpy_exec import ALL_KERNELS

SRC = Path(repro.__file__).resolve().parent
README = SRC.parents[1] / "README.md"

# ---------------------------------------------------------------------------
# One reader
# ---------------------------------------------------------------------------

#: (file under ``src/repro``, enclosing function or None for the whole
#: file) that may touch the process environment.
_ENVIRON_ALLOWED = {("settings.py", None),
                    ("pipeline/dispatch.py", "worker_env"),
                    ("__main__.py", "main")}
_ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv",
              "unsetenv"}


def _environ_uses(tree: ast.AST) -> list[tuple[str | None, int]]:
    """``(innermost enclosing function, line)`` of every ``os.environ``
    (or ``getenv`` / ``putenv`` ...) attribute and ``from os import``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
                and getattr(node.value, "id", None) == "os") or (
                isinstance(node, ast.ImportFrom) and node.module == "os"
                and {a.name for a in node.names} & _ENV_NAMES):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_environ_guard_sees_a_read():
    tree = ast.parse("import os\n"
                     "x = os.environ.get('REPRO_ENGINE')\n"
                     "def f():\n"
                     "    return os.getenv('A')\n"
                     "from os import environ\n"
                     "y = os.path.join('a', 'b')\n")
    assert _environ_uses(tree) == [(None, 2), ("f", 4), (None, 5)]


def test_only_settings_reads_the_environment():
    stray = []
    for source in sorted(SRC.rglob("*.py")):
        path = source.relative_to(SRC).as_posix()
        for function, line in _environ_uses(ast.parse(source.read_text())):
            if ((path, None) not in _ENVIRON_ALLOWED
                    and (path, function) not in _ENVIRON_ALLOWED):
                stray.append(f"{path}:{line} ({function})")
    assert stray == [], "read a knob through repro.settings"


# ---------------------------------------------------------------------------
# No hot path reads os.environ
# ---------------------------------------------------------------------------


@pytest.fixture
def environ_reads(monkeypatch):
    """The ``REPRO_*`` keys read through ``os.environ`` (``get``, ``[]``
    and ``in`` all go through ``__getitem__``); clear it to start."""
    monkeypatch.delenv(obs.TRACE_ENV, raising=False)
    reads: list[str] = []
    getitem = os._Environ.__getitem__

    def counting(self, key):
        if str(key).startswith("REPRO_"):
            reads.append(key)
        return getitem(self, key)

    monkeypatch.setattr(os._Environ, "__getitem__", counting)
    return reads


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_a_reused_numpy_run_reads_no_environment(name, environ_reads):
    kernel = compile_stmt(build_small_kernel_stmt(name)[0], name, cache=False)
    kernel.run_engine("numpy")
    environ_reads.clear()
    kernel.run_engine("numpy")
    assert environ_reads == []


def test_a_cached_hit_reads_no_environment(fresh_cache, environ_reads):
    request = api.CompileRequest(kernel="SpMV", scale=0.02)
    api.compile(request)
    environ_reads.clear()
    hit = api.cached(api.CompileRequest(kernel="SpMV", scale=0.02,
                                        action="compile"))
    assert hit is not None
    assert environ_reads == []


def test_an_uncached_compile_pair_reads_no_environment(fresh_cache,
                                                       environ_reads):
    request = api.CompileRequest(kernel="Plus2", scale=0.02)

    def pair():
        api.compile(request, use_cache=False)
        api.evaluate(request, use_cache=False)

    pair()
    environ_reads.clear()
    pair()
    assert environ_reads == []


# ---------------------------------------------------------------------------
# Reads are live
# ---------------------------------------------------------------------------


def _ssh_command() -> str:
    return SshTransport(["h"]).argv(0)[4]


_REPO = str(SRC.parents[1])

#: knob -> (a value to set, its reader, what it reads set, what unset).
_LIVE = {
    "REPRO_TRACE_DIR": ("/tmp/trace-here", obs.trace_dir,
                        Path("/tmp/trace-here"), None),
    "REPRO_ENGINE": ("cpu", default_engine, "cpu", "numpy"),
    "REPRO_NO_CACHE": ("1", cache_enabled, False, True),
    "REPRO_CACHE_DISK": ("0", disk_cache_dir, None,
                         Path.home() / ".cache" / "repro"),
    "REPRO_CACHE_DIR": ("/tmp/cache-here", disk_cache_dir,
                        Path("/tmp/cache-here"),
                        Path.home() / ".cache" / "repro"),
    "REPRO_CACHE_MEM": ("7", lambda: CompilationCache()._capacity(), 7, 64),
    "REPRO_SSH_REPO": ("/srv/x", lambda: _ssh_command().split(" && ")[0],
                       "cd /srv/x", f"cd {_REPO}"),
    "REPRO_SSH_PYTHON": ("python3.9", lambda: _ssh_command().split()[-5],
                         "python3.9", "python3"),
}


def test_every_knob_has_a_live_read_case():
    assert set(_LIVE) == {knob.name for knob in settings.KNOBS}


@pytest.mark.parametrize("name", _LIVE)
def test_a_knob_change_is_seen_by_the_next_read(name, monkeypatch):
    value, read, when_set, when_unset = _LIVE[name]
    for knob in settings.KNOBS:
        monkeypatch.delenv(knob.name, raising=False)
    assert read() == when_unset
    monkeypatch.setenv(name, value)
    assert read() == when_set
    monkeypatch.delenv(name)
    assert read() == when_unset
    monkeypatch.setenv(name, value)
    assert read() == when_set


def test_a_refused_value_reads_as_the_default(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MEM", "lots")
    assert settings.CACHE_MEM.get() == 64
    monkeypatch.setenv("REPRO_CACHE_MEM", "")
    assert settings.CACHE_MEM.get() == 64


# ---------------------------------------------------------------------------
# One table
# ---------------------------------------------------------------------------


def test_the_readme_table_is_the_declarations():
    section = README.read_text().split("### Environment knobs\n", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = [line for line in section.splitlines()
            if re.match(r"\| `REPRO_", line)]
    assert rows == [
        f"| `{knob.name}` | "
        f"{f'`{knob.default}`' if knob.default else 'unset'} | {knob.doc} |"
        for knob in settings.KNOBS]
