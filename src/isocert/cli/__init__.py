"""Expression parsing, problem files, reports, the command line and the
built-in example reproduction suite.

``main`` and ``run_command`` are imported on first access, so that
``python -m isocert.cli.main`` runs the command-line module once.  Reading
either name binds both to the functions; until then, an import of the
submodule ``isocert.cli.main`` binds the package attribute ``main`` to that
module.
"""

from .examples import EXAMPLE_NAMES, ExampleFailure, run_all, run_example
from .exprio import (ExprSyntaxError, UnknownIdentifier, evaluate,
                     parse_expression, parse_to_rational)
from .files import LoadedProblem, ProblemFileError, load_problem, parse_matrix
from .reports import Report, emit_report, matrix_text, operator_text, value_text

__all__ = [
    "EXAMPLE_NAMES", "ExampleFailure", "ExprSyntaxError", "LoadedProblem",
    "ProblemFileError", "Report", "UnknownIdentifier", "emit_report",
    "evaluate", "load_problem", "main", "matrix_text", "operator_text",
    "parse_expression", "parse_matrix", "parse_to_rational", "run_all",
    "run_command", "run_example", "value_text",
]


def __getattr__(name: str):
    if name in ("main", "run_command"):
        import importlib

        module = importlib.import_module(".main", __name__)
        globals().update(main=module.main, run_command=module.run_command)
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
