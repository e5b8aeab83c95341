"""The PEP 562 package roots keep the public surface they had when eager."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

LAZY_ROOTS = ("repro", "repro.pipeline", "repro.core", "repro.capstan",
              "repro.backends", "repro.service", "repro.eval",
              "repro.spatial")


@pytest.mark.parametrize("package", LAZY_ROOTS)
def test_every_public_name_is_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    assert list(pkg.__all__) == sorted(pkg._EXPORTS)
    assert set(pkg.__all__) <= set(dir(pkg))
    for name, (module, attr) in pkg._EXPORTS.items():
        defined = importlib.import_module(module)
        if attr is not None:
            defined = getattr(defined, attr)
        assert getattr(pkg, name) is defined, f"{package}.{name}"


@pytest.mark.parametrize("package", LAZY_ROOTS)
def test_unknown_attribute_names_the_package(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"'{package}'.*'no_such_name'"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")


def test_star_import_binds_all_and_submodules_still_import():
    scope: dict = {}
    exec("from repro import *", scope)
    assert set(repro.__all__) <= set(scope)
    # Not in the table: found because __getattr__ raised AttributeError.
    from repro import api

    assert api.ENGINES is repro.ENGINES


@pytest.mark.parametrize("first", [
    "import repro.pipeline.dispatch",
    "from repro.pipeline import dispatch",
    "import repro.pipeline",
])
def test_pipeline_dispatch_is_the_callable_in_either_import_order(first):
    """``dispatch`` is a submodule *and* the function the root exports;
    importing the submodule must not shadow the function."""
    code = (f"{first}\n"
            "import repro.pipeline.dispatch\n"
            "from repro.pipeline import dispatch\n"
            "import sys\n"
            "module = sys.modules['repro.pipeline.dispatch']\n"
            "assert callable(dispatch) and dispatch is module.dispatch\n"
            "assert repro.pipeline.dispatch is dispatch\n"
            "from repro.pipeline.dispatch import DispatchError\n")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ,
                          "PYTHONPATH": str(Path(repro.__file__).parents[1])})
    assert done.returncode == 0, done.stderr[-2000:]
