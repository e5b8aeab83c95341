"""The execution-engine names: a leaf module that imports nothing of
``repro`` at import time but :mod:`repro.settings`.

Validating an engine string is all most callers need (the request API,
the CLI's ``--engine`` choices), so the names live here and
:mod:`repro.core.compiler` — which runs the engines — re-exports them.
:func:`oracle_maxerr` is the one comparison their results are held to.
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


def oracle_maxerr(got, expected, error: type[Exception], what: str) -> float:
    """``max |got - expected|``, held to the one tolerance every oracle
    comparison shares: 1e-8 of the oracle's largest magnitude (at least
    1). Past it, raises ``error`` with ``what`` disagreed.

    Two engine results (``TensorStorage``) meet on the union of their
    stored coordinates, an entry one side does not store counting as 0:
    the same ``maxerr`` as their dense arrays, without building them.
    """
    import numpy as np

    if not isinstance(expected, np.ndarray):
        from repro.tensor.storage import aligned_values

        got, expected = aligned_values(got, expected)
    if not expected.size:
        return 0.0
    maxerr = float(np.max(np.abs(got - expected)))
    tol = 1e-8 * max(1.0, float(np.max(np.abs(expected))))
    if maxerr > tol:
        raise error(f"{what} (max |err| {maxerr:.3e} > tol {tol:.3e})")
    return maxerr
