"""Evaluation harness and published reference numbers."""

from repro import lazy_exports

_EXPORTS = {
    "DEFAULT_SCALE": ("repro.eval.harness", "DEFAULT_SCALE"),
    "figure13": ("repro.eval.harness", "figure13"),
    "format_figure12": ("repro.eval.harness", "format_figure12"),
    "format_table3": ("repro.eval.harness", "format_table3"),
    "format_table5": ("repro.eval.harness", "format_table5"),
    "format_table6": ("repro.eval.harness", "format_table6"),
    "paper_results": ("repro.eval.paper_results", None),
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
