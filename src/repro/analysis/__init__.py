"""Static analysis for the repro codebase.

Two pillars, one :class:`~repro.analysis.findings.Finding` vocabulary:

- :mod:`repro.analysis.graph` — static model auditor: symbolic
  shape/dtype propagation (:func:`shapecheck`) plus module-tree audits
  (quantization coverage, parameter registration, batch statistics,
  state-dict symmetry).  CLI: ``python -m repro.analysis.graph``.
- :mod:`repro.analysis.lint` — AST invariant linter with stable
  ``RPRxxx`` codes and ``# noqa`` suppression, including the
  lock-discipline rules RPR009-RPR011 from
  :mod:`repro.analysis.concurrency`.  CLI:
  ``python -m repro.analysis.lint src/``.

A concurrency companion shares the vocabulary:
:mod:`repro.analysis.sanitize`, the runtime lock-order/lockset
sanitizer (``REPRO_SANITIZE=1``), dynamic counterpart to RPR009/010.

The CLIs exit nonzero iff any error-severity finding exists, which is
what the CI ``analysis`` job gates on.

Exports resolve lazily (PEP 562) so ``python -m repro.analysis.lint``
does not import the model stack, and runpy never sees the submodule
pre-imported.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "Finding": "findings",
    "ERROR": "findings",
    "WARNING": "findings",
    "INFO": "findings",
    "render_text": "findings",
    "render_json": "findings",
    "render_github": "findings",
    "sort_findings": "findings",
    "exit_code": "findings",
    "LockEdge": "concurrency",
    "analyze_tree": "concurrency",
    "cycle_findings": "concurrency",
    "ShapeEntry": "graph",
    "ShapeReport": "graph",
    "ShapeError": "graph",
    "register_shape_handler": "graph",
    "shapecheck": "graph",
    "QuantLayerEntry": "graph",
    "QuantizationReport": "graph",
    "audit_quantization": "graph",
    "audit_parameters": "graph",
    "audit_batch_statistics": "graph",
    "audit_state_dict": "graph",
    "audit_model": "graph",
    "RULES": "lint",
    "SANCTIONED": "lint",
    "lint_source": "lint",
    "lint_file": "lint",
    "lint_paths": "lint",
    "discover_autograd_functions": "functions",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from .concurrency import LockEdge, analyze_tree, cycle_findings
    from .findings import (ERROR, INFO, WARNING, Finding, exit_code,
                           render_github, render_json, render_text,
                           sort_findings)
    from .functions import discover_autograd_functions
    from .graph import (QuantizationReport, QuantLayerEntry, ShapeEntry,
                        ShapeError, ShapeReport, audit_batch_statistics,
                        audit_model, audit_parameters, audit_quantization,
                        audit_state_dict, register_shape_handler,
                        shapecheck)
    from .lint import (RULES, SANCTIONED, lint_file, lint_paths,
                       lint_source)
