"""Stardust reproduction: sparse tensor algebra → reconfigurable dataflow.

Public API re-exports — the names a downstream user needs:

>>> from repro import Tensor, index_vars, compile_stmt, CSR, offChip
"""

import importlib
import sys

__version__ = "1.0.0"


def lazy_exports(package: str, table: dict[str, tuple[str, str | None]]):
    """PEP 562 ``(__getattr__, __dir__)`` hooks for a lazy package root.

    ``table`` maps each public name to ``(module, attr)`` — ``attr=None``
    exports the module itself. A name loads its module on first access
    and is then bound on the package, so the hook runs once per name;
    anything else raises a real ``AttributeError``, which is what lets
    ``from package import submodule`` fall through to the import system.
    """

    def __getattr__(name: str):
        try:
            module, attr = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module)
        if attr is not None:
            value = getattr(value, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *table})

    return __getattr__, __dir__


_EXPORTS = {
    "CSC": ("repro.formats", "CSC"),
    "CSF": ("repro.formats", "CSF"),
    "CSR": ("repro.formats", "CSR"),
    "CapstanConfig": ("repro.capstan", "CapstanConfig"),
    "CapstanSimulator": ("repro.capstan", "CapstanSimulator"),
    "CompilationCache": ("repro.pipeline", "CompilationCache"),
    "CompileRequest": ("repro.service.api", "CompileRequest"),
    "CompileResult": ("repro.service.api", "CompileResult"),
    "CompiledKernel": ("repro.core", "CompiledKernel"),
    "DDR4": ("repro.capstan", "DDR4"),
    "DENSE_MATRIX": ("repro.formats", "DENSE_MATRIX"),
    "DENSE_MATRIX_CM": ("repro.formats", "DENSE_MATRIX_CM"),
    "DENSE_VECTOR": ("repro.formats", "DENSE_VECTOR"),
    "ENGINES": ("repro.engines", "ENGINES"),
    "Format": ("repro.formats", "Format"),
    "HBM2E": ("repro.capstan", "HBM2E"),
    "IDEAL": ("repro.capstan", "IDEAL"),
    "INNER_PAR": ("repro.schedule", "INNER_PAR"),
    "IndexStmt": ("repro.schedule", "IndexStmt"),
    "IndexVar": ("repro.ir", "IndexVar"),
    "Job": ("repro.pipeline", "Job"),
    "JobResult": ("repro.pipeline", "JobResult"),
    "MemoryRegion": ("repro.formats", "MemoryRegion"),
    "MemoryType": ("repro.formats", "MemoryType"),
    "OUTER_PAR": ("repro.schedule", "OUTER_PAR"),
    "REDUCTION": ("repro.schedule", "REDUCTION"),
    "SPARSE_VECTOR": ("repro.formats", "SPARSE_VECTOR"),
    "SPATIAL": ("repro.schedule", "SPATIAL"),
    "Tensor": ("repro.tensor", "Tensor"),
    "UCC": ("repro.formats", "UCC"),
    "compile_stmt": ("repro.core", "compile_stmt"),
    "compressed": ("repro.formats", "compressed"),
    "compute_stats": ("repro.capstan", "compute_stats"),
    "default_cache": ("repro.pipeline", "default_cache"),
    "dense": ("repro.formats", "dense"),
    "estimate_resources": ("repro.capstan", "estimate_resources"),
    "evaluate_dense": ("repro.tensor", "evaluate_dense"),
    "index_vars": ("repro.ir", "index_vars"),
    "offChip": ("repro.formats", "offChip"),
    "onChip": ("repro.formats", "onChip"),
    "run_jobs": ("repro.pipeline", "run_jobs"),
    "scalar": ("repro.tensor", "scalar"),
    "to_dense": ("repro.tensor", "to_dense"),
    "vector": ("repro.tensor", "vector"),
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
