"""The execution-engine names: a leaf module that imports nothing of
``repro`` at import time but :mod:`repro.settings`.

Validating an engine string is all most callers need (the request API,
the CLI's ``--engine`` choices), so the names live here and
:mod:`repro.core.compiler` — which runs the engines — re-exports them.
The one comparison their results are held to,
:func:`repro.tensor.storage.oracle_maxerr`, lives beside the storage it
compares.
"""

from __future__ import annotations

from repro import settings

#: Execution engines for running a compiled kernel functionally.
#:
#: * ``interp`` — the Spatial program interpreter
#:   (:func:`repro.core.runner.run_program`), the semantic oracle: handles
#:   every format in the registry.
#: * ``cpu``    — the merge-lattice walker (``repro.backends.cpu_exec``),
#:   a second, independent Python implementation.
#: * ``numpy``  — the vectorized backend (``repro.backends.numpy_exec``);
#:   orders of magnitude faster, falls back to ``cpu`` for shapes it
#:   cannot vectorize.
ENGINES = ("interp", "cpu", "numpy")

#: Default engine for artefact generation (functional execution checks).
DEFAULT_ENGINE = settings.ENGINE.default


def default_engine() -> str:
    """The engine to use when none is requested (``REPRO_ENGINE`` env)."""
    engine = settings.ENGINE.get()
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    return engine

