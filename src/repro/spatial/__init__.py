"""The Spatial parallel-pattern IR, code generator, and interpreter."""

from repro import lazy_exports

_EXPORTS = {
    "InterpError": ("repro.spatial.interp", "InterpError"),
    "Machine": ("repro.spatial.interp", "Machine"),
    "SpatialProgram": ("repro.spatial.ir", "SpatialProgram"),
    "codegen": ("repro.spatial.codegen", None),
    "count_loc": ("repro.spatial.codegen", "count_loc"),
    "execute": ("repro.spatial.interp", "execute"),
    "generate": ("repro.spatial.codegen", "generate"),
    "interp": ("repro.spatial.interp", None),
    "ir": ("repro.spatial.ir", None),
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
