"""Problem files: JSON documents describing fields (with optional tower
generators), connection systems (with the dual-convention flag), curves and
integrands.  Validated against PROBLEM_SCHEMA before any computation, by a
small validator for the few JSON Schema keywords that schema uses, so that
loading a file needs no third-party package."""

from __future__ import annotations

import json
import numbers
from typing import Optional

from ..connection import ConnectionSystem
from ..curve import CurveSpec
from ..difftower import DerivationSymbol, Tower, TowerError
from ..exactalg import (DuplicateVariable, RationalFunction, VariableRegistry,
                        VarKind)
from ..exactalg.linalg import Matrix, mat_neg, mat_transpose
from ..fields import FieldContext, RationalFieldContext
from .exprio import ExprSyntaxError, UnknownIdentifier, parse_to_rational
from .reports import ProblemFileError, check_curve_names


_MATRIX = {"type": "array", "items": {"type": "array", "items": {"type": "string"}}}
_MATRICES = {"type": "array", "items": _MATRIX}

PROBLEM_SCHEMA: dict = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "title": {"type": "string"},
        "field": {
            "type": "object",
            "properties": {
                "principal": {"type": "string"},
                "parametric": {"type": "array", "items": {"type": "string"}},
                "tower": {
                    "type": "object",
                    "properties": {
                        "generators": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {"type": "object",
                                              "additionalProperties": {"type": "string"}},
                                },
                                "required": ["name"],
                            },
                        }
                    },
                },
            },
            "required": ["parametric"],
        },
        "system": {
            "type": "object",
            "properties": {
                "size": {"type": "integer", "minimum": 1},
                "dual": {"type": "boolean"},
                "matrices": {"type": "object", "additionalProperties": _MATRIX},
            },
            "required": ["size", "matrices"],
        },
        "curve": {
            "type": "object",
            "properties": {
                "f": {"type": "string"},
                "form": {"type": "integer", "minimum": 0},
                "param": {"type": "string"},
            },
            "required": ["f"],
        },
        "integrand": {
            "type": "object",
            "properties": {
                "expression": {"type": "string"},
                "var": {"type": "string"},
                "param": {"type": "string"},
            },
            "required": ["expression", "var"],
        },
        "rebase": {
            "type": "object",
            "properties": {
                "new": {"type": "array", "items": {"type": "string"}},
                "old": {"type": "array", "items": {"type": "string"}},
                "matrix": _MATRIX,
            },
            "required": ["new", "old", "matrix"],
        },
        "operator": {
            "type": "object",
            "properties": {
                "param": {"type": "string"},
                "coefficients": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["param", "coefficients"],
        },
        "gauge_matrix": _MATRIX,
        "constant_system": {"type": "object"},
        "commutant_generators": _MATRICES,
        "expect": {"type": "object"},
    },
    "required": ["field"],
}


# Gauge and commutant files, by the key of their payload.
_MATRIX_FILES = {key: {"type": "object", "properties": {key: schema}, "required": [key]}
                 for key, schema in (("matrix", _MATRIX), ("matrices", _MATRICES))}


class LoadedProblem:
    __slots__ = ("registry", "field", "tower", "principal", "parametric", "system",
                 "curve", "raw")

    def __init__(self, registry: VariableRegistry, field: FieldContext,
                 tower: Optional[Tower], principal: Optional[str], parametric: list[str],
                 system: Optional[ConnectionSystem], curve: Optional[CurveSpec], raw: dict):
        self.registry = registry
        self.field = field
        self.tower = tower
        self.principal = principal
        self.parametric = parametric
        self.system = system
        self.curve = curve
        self.raw = raw

    def parse(self, text: str) -> RationalFunction:
        try:
            return parse_to_rational(text, self.registry, self.tower and self.tower.jet)
        except (ExprSyntaxError, UnknownIdentifier) as exc:
            raise ProblemFileError(f"bad expression {text!r}: {exc}") from None


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _schema_errors(instance, schema: dict, path: tuple):
    """Yield (path, matches_type, message) for each violation of schema by
    instance, in the order JSON Schema (draft 2020-12) validators report
    them: keywords in schema order, properties in schema order.  Supports
    the keywords PROBLEM_SCHEMA uses and raises on any other."""
    matches = "type" in schema and _TYPES[schema["type"]](instance)
    for keyword, value in schema.items():
        if keyword == "type":
            if not matches:
                yield path, False, f"{instance!r} is not of type {value!r}"
        elif keyword == "minimum":
            if (isinstance(instance, numbers.Number) and not isinstance(instance, bool)
                    and instance < value):
                yield path, matches, f"{instance!r} is less than the minimum of {value!r}"
        elif keyword == "required":
            if isinstance(instance, dict):
                for name in value:
                    if name not in instance:
                        yield path, matches, f"{name!r} is a required property"
        elif keyword == "properties":
            if isinstance(instance, dict):
                for name, sub in value.items():
                    if name in instance:
                        yield from _schema_errors(instance[name], sub, path + (name,))
        elif keyword == "additionalProperties":
            if isinstance(instance, dict):
                known = schema.get("properties", {})
                for name in instance:
                    if name not in known:
                        yield from _schema_errors(instance[name], value, path + (name,))
        elif keyword == "items":
            if isinstance(instance, list):
                for index, item in enumerate(instance):
                    yield from _schema_errors(item, value, path + (index,))
        else:
            raise ValueError(f"unsupported schema keyword {keyword!r}")


def schema_violation(instance, schema: dict = PROBLEM_SCHEMA) -> Optional[str]:
    """The message of the most relevant violation, or None if instance is
    valid.  The choice follows jsonschema's best_match: the shallowest
    error, then the largest path, then one whose instance has the wrong
    type, then the first reported; the messages are jsonschema's too."""
    best = max(_schema_errors(instance, schema, ()), default=None,
               key=lambda error: (-len(error[0]), error[0], not error[1]))
    return None if best is None else best[2]


def read_json(path: str):
    """The decoded contents of a JSON input file.  A file that cannot be read
    or decoded, or that nests too deeply for the decoder, is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ProblemFileError(str(exc)) from None
    except (ValueError, RecursionError) as exc:
        raise ProblemFileError(f"invalid JSON in {path}: {exc}") from None


def read_matrices(path: str, key: str) -> list:
    """The payload of a gauge file (key "matrix": one matrix) or a commutant
    file (key "matrices": a list of matrices), stored as {key: payload} or
    as the bare payload, after checking its shape."""
    data = read_json(path)
    if not isinstance(data, dict):
        data = {key: data}
    message = schema_violation(data, _MATRIX_FILES[key])
    if message is not None:
        raise ProblemFileError(f"schema violation in {path}: {message}")
    return data[key]


def load_problem(source, tower_consistency: str = "error") -> LoadedProblem:
    """Load and validate a problem from a path or dict.

    Towers are checked for commuting derivations (depth 2) before use;
    tower_consistency may be "error" (refuse) or "skip"."""
    data = source if isinstance(source, dict) else read_json(source)
    message = schema_violation(data)
    if message is not None:
        raise ProblemFileError(f"schema violation: {message}")

    field_spec = data["field"]
    principal = field_spec.get("principal")
    parametric = list(field_spec["parametric"])
    symbols = []
    if principal:
        symbols.append(DerivationSymbol(principal, "principal"))
    symbols.extend(DerivationSymbol(p, "parametric") for p in parametric)

    tower: Optional[Tower] = None
    # A name the tower or the registry refuses is malformed input.  Rule
    # errors are ProblemFileErrors, so they pass through with their text.
    try:
        if "tower" in field_spec:
            tower = Tower(symbols)
            registry = tower.registry
            gens = field_spec["tower"].get("generators", [])
            for gen in gens:
                tower.add_generator(gen["name"])
            for gen in gens:
                for sym, rule_text in gen.get("rules", {}).items():
                    try:
                        value = parse_to_rational(rule_text, registry, tower.jet)
                    except (ExprSyntaxError, UnknownIdentifier) as exc:
                        raise ProblemFileError(
                            f"bad rule for {gen['name']}/{sym}: {exc}") from None
                    tower.set_rule(gen["name"], sym, value)
            if tower_consistency != "skip":
                tower.validate(depth=2)
            field_ctx: FieldContext = tower
        else:
            registry = VariableRegistry()
            if principal:
                registry.add(principal, VarKind.PRINCIPAL)
            for p in parametric:
                registry.add(p, VarKind.PARAMETRIC)
            field_ctx = RationalFieldContext(registry)
    except (TowerError, DuplicateVariable, ValueError) as exc:
        raise ProblemFileError(str(exc)) from None

    problem = LoadedProblem(registry=registry, field=field_ctx, tower=tower,
                            principal=principal, parametric=parametric,
                            system=None, curve=None, raw=data)

    if "system" in data:
        problem.system = _build_system(problem, data["system"])
    if "curve" in data:
        if not principal:
            raise ProblemFileError("a curve section needs a principal variable")
        check_curve_names(registry)
        f_expr = problem.parse(data["curve"]["f"])
        if not f_expr.is_poly():
            raise ProblemFileError("curve polynomial must have denominator 1")
        problem.curve = CurveSpec(f_expr.num, principal, registry)
    return problem


def parse_matrix(problem: LoadedProblem, rows: list[list[str]], size: int) -> Matrix:
    if len(rows) != size or any(len(r) != size for r in rows):
        raise ProblemFileError(f"matrix is not {size}x{size}")
    return [[problem.parse(entry) for entry in row] for row in rows]


def _build_system(problem: LoadedProblem, spec: dict) -> ConnectionSystem:
    size = spec["size"]
    dual = spec.get("dual", False)
    matrices: dict[str, Matrix] = {}
    known = set(problem.parametric) | ({problem.principal} if problem.principal else set())
    for name, rows in spec["matrices"].items():
        if name not in known:
            raise ProblemFileError(f"matrix for unknown derivation {name!r}")
        mat = parse_matrix(problem, rows, size)
        if dual:
            mat = apply_dual(mat)
        matrices[name] = mat
    principal = problem.principal if problem.principal in matrices else None
    return ConnectionSystem(problem.field, size, matrices, principal)


def apply_dual(mat: Matrix) -> Matrix:
    """The module-convention/solution-convention involution M -> -M^T."""
    return mat_neg(mat_transpose(mat))
