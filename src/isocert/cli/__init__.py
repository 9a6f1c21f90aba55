"""Expression parsing, problem files, reports, the command line and the
built-in example reproduction suite.

The public names are imported on first access (PEP 562), so that
``python -m isocert.cli.main`` runs the command-line module once and a
command loads only the modules it runs.  Reading a name imports its module
and binds every public name of that module; reading ``main`` or
``run_command`` binds both to the functions.  Until then, an import of the
submodule ``isocert.cli.main`` binds the package attribute ``main`` to that
module.
"""

import importlib

# Submodule -> the public names it provides.
_EXPORTS = {
    ".examples": ("run_all", "run_example"),
    ".exprio": ("ExprSyntaxError", "UnknownIdentifier", "evaluate",
                "parse_expression", "parse_to_rational"),
    ".files": ("LoadedProblem", "load_problem", "parse_matrix"),
    ".main": ("main", "run_command"),
    ".reports": ("EXAMPLE_NAMES", "ExampleFailure", "ProblemFileError", "Report",
                 "emit_report", "matrix_text", "operator_text", "value_text"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(module, __name__)
    globals().update({n: getattr(loaded, n) for n in _EXPORTS[module]})
    return globals()[name]
