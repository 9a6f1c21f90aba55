"""Reports: one structured payload with deterministic dual rendering
(human-readable text and stable-key JSON), and the outcomes a report can
carry besides a result: the errors that become its malformed-input and
expectation-failed statuses, and the names of the built-in examples.  They
live here, next to `Report`, so that the command line can name them without
loading the problem-file and example modules."""

from __future__ import annotations

import json

from ..exactalg import RationalFunction, VariableRegistry, format_rational
from ..exactalg.linalg import Matrix
from ..exactalg.printing import _top_level_ops

# The order of EXAMPLE_NAMES is the payload order of `examples run all`.
EXAMPLE_NAMES = ("heisenberg-obstruction", "iterated-integrals", "legendre",
                 "incomplete-gamma", "replace-bi", "per-derivation-triviality")


class ProblemFileError(ValueError):
    pass


class ExampleFailure(AssertionError):
    pass


class Report:
    __slots__ = ("command", "payload")

    def __init__(self, command: str, payload: dict):
        self.command = command
        self.payload = payload


def check_curve_names(registry: VariableRegistry) -> None:
    """Reports print the square root on a curve w^2 = f as w, so no variable
    next to a curve may be named w."""
    if "w" in registry:
        raise ProblemFileError("the name 'w' is reserved for the square root "
                               "on the curve w^2 = f")


def matrix_text(mat: Matrix) -> list[list[str]]:
    return [[value_text(e) for e in row] for row in mat]


def value_text(value) -> str:
    if isinstance(value, RationalFunction):
        return format_rational(value)
    if hasattr(value, "even") and hasattr(value, "odd"):
        even = format_rational(value.even)
        odd = format_rational(value.odd)
        if value.odd.is_zero():
            return even
        if value.even.is_zero():
            return f"({odd})*w"
        return f"{even} + ({odd})*w"
    return str(value)


def operator_text(op) -> str:
    """Monic operator rendered in the expression grammar, e.g.
    Dt^2 + ((2*t-1)/(t*(t-1)))*Dt + 1/(4*t*(t-1))."""
    head = f"D{op.symbol}"
    n = op.order
    if n == 0:
        return "1"
    out = f"{head}^{n}" if n > 1 else head
    for i in range(n - 1, -1, -1):
        c = -op.coeffs[i]
        if c.is_zero():
            continue
        # The sign is read off the coefficient's own text: a term c*Dt is
        # never atomic, so its text cannot tell.
        text = format_rational(c)
        sign = " + "
        if text.startswith("-") and _atomic(text):
            sign, text = " - ", text[1:]
        out += sign + (text if _atomic(text) else f"({text})")
        if i:
            out += f"*{head}" if i == 1 else f"*{head}^{i}"
    return out


def _atomic(text: str) -> bool:
    return not _top_level_ops(text) & {"+", "*", "-"}


def emit_report(report: Report, fmt: str = "human") -> str:
    if fmt == "json":
        return json.dumps(report.payload, sort_keys=True, indent=2)
    if fmt != "human":
        raise ValueError(f"unknown format {fmt!r}")
    lines: list[str] = []
    if report.command:
        lines.append(f"== {report.command} ==")
    _render(report.payload, lines, indent=0)
    return "\n".join(lines) if lines else "(empty report)"


def _render(obj, lines: list[str], indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                _render(value, lines, indent + 1)
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        if obj and all(isinstance(r, list) for r in obj):
            for row in obj:
                lines.append(pad + "[ " + "  ".join(str(e) for e in row) + " ]")
        else:
            for item in obj:
                if isinstance(item, (dict, list)):
                    _render(item, lines, indent)
                    lines.append("")
                else:
                    lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{obj}")
