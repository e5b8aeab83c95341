"""The import budget: a cache hit never imports the compute layer.

``python -m repro`` is what every ``local:N`` / ``ssh:`` dispatch worker
runs, so what a warm command imports is the fixed cost of a sweep chunk.
Each case below runs in its own interpreter against a disk cache warmed
in this process and reports ``sys.modules``; one table says what each
case may and may not have loaded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main

SCALE = "0.02"

#: The compute layer (README, "Layering"): only a miss may load it.
COMPUTE = (
    "repro.core.lowering",
    "repro.core.compiler",
    "repro.spatial",
    "repro.capstan",
    "repro.backends",
    "repro.pipeline.dispatch",
    "repro.pipeline.fsqueue",
    "repro.pipeline.lease",
    "repro.pipeline.partition",
    "repro.pipeline.fusion",
    "repro.service.server",
)

#: case -> (what the interpreter runs, module prefixes it must not load,
#: the only ``repro`` modules it may load or None for "anything else").
#: A list is CLI argv run against the warm cache; a string is a statement.
BUDGET = {
    "import repro": ("import repro", COMPUTE, {"repro"}),
    "import repro.api": ("import repro.api", COMPUTE, {
        "repro", "repro.api", "repro.engines", "repro.obs",
        "repro.obs.metrics", "repro.obs.trace", "repro.service",
        "repro.service.api"}),
    "kernels": (["kernels"], COMPUTE, None),
    "compile": (["compile", "SpMV", "--scale", SCALE], COMPUTE, None),
    "tables": (["tables", "table6", "--scale", SCALE], COMPUTE, None),
    "batch shard": (["batch", "table6", "--scale", SCALE, "--shard", "1/2",
                     "--out", "-"], COMPUTE, None),
}

#: README "Layering", bottom to top. Module-level imports only point down
#: or sideways; upward references are function-level (a miss, not a hit).
LAYERS = (
    ("engines", "formats", "ir", "schedule", "tensor", "obs"),
    ("kernels", "data", "convert"),
    ("api", "service.api", "service.stats", "pipeline.cache",
     "pipeline.executor", "pipeline.batch", "pipeline.shard", "eval"),
    ("core", "spatial", "capstan", "backends"),
    ("pipeline.dispatch", "pipeline.fsqueue", "pipeline.lease",
     "pipeline.partition", "pipeline.fusion", "service.server", "__main__"),
)

_PROBE = """\
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")),
      file=sys.stderr)
sys.exit(code)
"""


def _run(what, cache_dir, **env):
    """Run one case in a fresh interpreter: (stdout, loaded repro modules)."""
    if isinstance(what, str):
        body = f"{what}\ncode = 0"
    else:
        body = f"from repro.__main__ import main\ncode = main({what!r})"
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "REPRO_CACHE_DIR": str(cache_dir), **env,
             "PYTHONPATH": str(Path(repro.__file__).parents[1])})
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout, set(json.loads(done.stderr.splitlines()[-1]))


def _over_budget(loaded, deny):
    return sorted(m for m in loaded
                  if any(m == d or m.startswith(d + ".") for d in deny))


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A disk cache holding every CLI case's entries, and their stdout."""
    from repro.pipeline import cache as cache_mod

    cache_dir = tmp_path_factory.mktemp("budget-cache")
    expected = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(cache_dir))
        mp.setattr(cache_mod, "_default_cache", cache_mod.CompilationCache())
        for case, (what, _deny, _allow) in BUDGET.items():
            if isinstance(what, list):
                expected[case] = _capture(what)
    return cache_dir, expected


def _capture(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    return out.getvalue()


def _stable(case, text):
    """Shard manifests carry per-run wall times; compare the rest."""
    if case != "batch shard":
        return text
    manifest = json.loads(text)
    for job in manifest["jobs"]:
        del job["seconds"], job["computed"]
    return manifest


@pytest.mark.parametrize("case", BUDGET)
def test_warm_case_stays_inside_its_budget(case, warm):
    cache_dir, expected = warm
    what, deny, allow = BUDGET[case]
    stdout, loaded = _run(what, cache_dir)
    assert _over_budget(loaded, deny) == []
    if allow is not None:
        assert loaded <= allow, sorted(loaded - allow)
    if case in expected:
        assert _stable(case, stdout) == _stable(case, expected[case])


@pytest.mark.parametrize("case, flags, env", [
    ("compile", [], {"REPRO_NO_CACHE": "1"}),  # `compile` has no --no-cache
    ("tables", ["--no-cache"], {}),
])
def test_a_miss_loads_the_compute_layer_on_demand(case, flags, env, warm,
                                                  tmp_path):
    """The deny list is a hit-path budget, not a ban: the same command
    against nothing cached compiles, and prints the same bytes."""
    _cache_dir, expected = warm
    stdout, loaded = _run(BUDGET[case][0] + flags, tmp_path / "cold", **env)
    assert stdout == expected[case]
    assert {"repro.core.compiler", "repro.core.lowering",
            "repro.spatial.ir"} <= loaded


def _layer(module):
    """Index into LAYERS of the longest entry naming ``module``, or None
    (the package roots, which import nothing)."""
    name = module.removeprefix("repro.")
    hits = [(len(entry), depth) for depth, layer in enumerate(LAYERS)
            for entry in layer
            if name == entry or name.startswith(entry + ".")]
    return max(hits)[1] if hits else None


def test_module_level_imports_only_point_down_the_layers():
    import ast

    src = Path(repro.__file__).parent
    upward = []
    for path in sorted(src.rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        module = ".".join(p for p in parts if p != "__init__")
        here = _layer(module)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module]
            elif isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            else:
                continue
            for target in targets:
                there = _layer(target) if target.startswith("repro.") else None
                if None not in (here, there) and there > here:
                    upward.append(f"{module} -> {target}")
    assert upward == []
