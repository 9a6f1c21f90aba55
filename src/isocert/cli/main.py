"""Command-line interface.

Exit codes: 0 success / property holds; 1 property fails (not integrable,
obstruction proven, example expectation failed); 2 unsupported input;
3 not found within bounds; 4 malformed input.

Each command imports the modules it runs when it runs, so that a cold
process loads only those; the light modules every command needs are
imported here.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..exactalg import ExactAlgError, VariableRegistry, VarKind, ZeroDenominator
from ..operators import TelescoperNotFound
from .exprio import (ExprSyntaxError, UnknownIdentifier, parse_expression,
                     parse_to_rational)
from .reports import (EXAMPLE_NAMES, ExampleFailure, ProblemFileError, Report,
                      check_curve_names, emit_report, matrix_text, operator_text,
                      value_text)

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_UNSUPPORTED = 2
EXIT_NOT_FOUND = 3
EXIT_MALFORMED = 4


def _registry_for(expr_text: str, var: str, param: str | None
                  ) -> tuple[VariableRegistry, list[tuple]]:
    """Registry inferred from an expression, and the expression's postfix
    list: the principal variable first, then the declared parameter, then
    any remaining identifiers.  An invalid variable name, or a parameter
    equal to the principal variable, is malformed input."""
    postfix = parse_expression(expr_text)
    names = {item[1] for item in postfix if item[0] == "var"}
    if param == var:
        raise ProblemFileError(f"the parameter {param!r} is the integration variable")
    registry = VariableRegistry()
    try:
        registry.add(var, VarKind.PRINCIPAL)
        if param is not None:
            registry.add(param, VarKind.PARAMETRIC)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from None
    for name in sorted(names):
        if name not in registry:
            registry.add(name, VarKind.PARAMETRIC)
    return registry, postfix


def _load_system(path: str):
    """A problem file that must have a system section."""
    from .files import load_problem

    problem = load_problem(path)
    if problem.system is None:
        raise ProblemFileError("file has no system section")
    return problem


def _operator_payload(result) -> dict:
    """Payload of a telescoper or Picard-Fuchs result."""
    return {
        "operator": operator_text(result.operator),
        "order": result.operator.order,
        "certificate": value_text(result.certificate),
        "minimal_certified": result.minimal_certified,
    }


def _cmd_check(args) -> tuple[int, Report]:
    from ..connection import check_integrability

    problem = _load_system(args.file)
    report_obj = check_integrability(problem.system, args.mode)
    payload = {
        "mode": args.mode,
        "flat": report_obj.flat,
        "pairs": [
            {
                "pair": list(v.pair),
                "ok": v.ok,
                **({"defect": matrix_text(v.defect_matrix)} if v.defect_matrix else {}),
            }
            for v in report_obj.verdicts
        ],
    }
    code = EXIT_OK if report_obj.flat else EXIT_PROPERTY_FAILS
    return code, Report(f"check {args.file}", payload)


def _cmd_gauge(args) -> tuple[int, Report]:
    from ..connection import gauge
    from .files import parse_matrix, read_matrices

    problem = _load_system(args.file)
    g = parse_matrix(problem, read_matrices(args.matrix, "matrix"), problem.system.size)
    transformed = gauge(problem.system, g)
    payload = {
        "matrices": {name: matrix_text(mat)
                     for name, mat in transformed.matrices.items()},
    }
    return EXIT_OK, Report(f"gauge {args.file}", payload)


def _cmd_reduce(args) -> tuple[int, Report]:
    from ..derham import reduce as derham_reduce

    registry, postfix = _registry_for(args.integrand, args.var, None)
    f = parse_to_rational(postfix, registry)
    result = derham_reduce(f, args.var)
    payload = {
        "class": {value_text(p): value_text(r) for p, r in result.h1.residues.items()},
        "certificate": value_text(result.certificate),
        "class_is_zero": result.h1.is_zero(),
    }
    return EXIT_OK, Report("reduce", payload)


def _cmd_telescope(args) -> tuple[int, Report]:
    from ..derham import telescoper

    registry, postfix = _registry_for(args.integrand, args.var, args.param)
    b = parse_to_rational(postfix, registry)
    result = telescoper(b, args.var, args.param, max_order=args.max_order)
    return EXIT_OK, Report("telescope", _operator_payload(result))


def _cmd_picard_fuchs(args) -> tuple[int, Report]:
    from ..curve import CurveSpec, picard_fuchs

    registry, postfix = _registry_for(args.curve, "x", args.param)
    check_curve_names(registry)
    f = parse_to_rational(postfix, registry)
    if not f.is_poly():
        raise ProblemFileError("curve polynomial must have denominator 1")
    curve = CurveSpec(f.num, "x", registry)
    result = picard_fuchs(curve, args.form, args.param, max_order=args.max_order)
    return EXIT_OK, Report("picard-fuchs", _operator_payload(result))


def _cmd_flatten(args) -> tuple[int, Report]:
    from ..connection import FlattenFound, FlattenObstruction, flatten
    from .files import parse_matrix, read_matrices

    problem = _load_system(args.file)
    constraint = None
    if args.commutant:
        constraint = [parse_matrix(problem, rows, problem.system.size)
                      for rows in read_matrices(args.commutant, "matrices")]
    outcome = flatten(problem.system, degree_bound=args.degree_bound,
                      constraint=constraint)
    if isinstance(outcome, FlattenFound):
        payload = {
            "outcome": "found",
            "moves": {name: matrix_text(mat) for name, mat in outcome.moves.items()},
            "flat": True,
        }
        return EXIT_OK, Report(f"flatten {args.file}", payload)
    if isinstance(outcome, FlattenObstruction):
        w = outcome.witness
        payload = {
            "outcome": "obstruction",
            "pair": list(w.pair),
            "component": w.component,
            "detail": w.detail,
        }
        if w.pole is not None:
            payload["witness_pole"] = value_text(w.pole)
        if w.residue is not None:
            payload["witness_residue"] = value_text(w.residue)
        return EXIT_PROPERTY_FAILS, Report(f"flatten {args.file}", payload)
    payload = {"outcome": "not-found-within-bounds",
               "degree_bound": outcome.degree_bound, "detail": outcome.detail}
    return EXIT_NOT_FOUND, Report(f"flatten {args.file}", payload)


def _cmd_galois(args) -> tuple[int, Report]:
    from ..galois import galois_descriptor

    registry, postfix = _registry_for(args.integrand, args.var, args.param)
    b = parse_to_rational(postfix, registry)
    descriptor = galois_descriptor(b, args.var, args.param, max_order=args.max_order)
    payload = {
        "operator": operator_text(descriptor.operator),
        "verdict": descriptor.verdict,
        "rational_solutions": [value_text(u) for u in descriptor.rational_basis],
    }
    return EXIT_OK, Report("galois", payload)


def _cmd_examples(args) -> tuple[int, Report]:
    from .examples import run_all, run_example

    if args.name == "all":
        reports = run_all()
        payload = {"examples": [r.payload for r in reports],
                   "all_pass": True}
        return EXIT_OK, Report("examples run all", payload)
    report = run_example(args.name)
    return EXIT_OK, report


class _Parser(argparse.ArgumentParser):
    """Prints help and exits as argparse does, but turns a usage error into
    malformed input, reported like any other."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ProblemFileError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isocert",
        description="Exact isomonodromy toolkit: integrability checks, "
                    "reductions, telescopers and certificates over Q.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output with stable key order")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="integrability of a system file")
    p.add_argument("file")
    p.add_argument("--mode", choices=["pairwise", "full"], default="full")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gauge", help="apply a gauge transformation")
    p.add_argument("file")
    p.add_argument("--matrix", required=True, help="JSON file with the gauge matrix")
    p.set_defaults(func=_cmd_gauge)

    p = sub.add_parser("reduce", help="canonical class and certificate mod d/dx")
    p.add_argument("--integrand", required=True)
    p.add_argument("--var", required=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("telescope", help="minimal telescoper with certificate")
    p.add_argument("--integrand", required=True)
    p.add_argument("--var", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--max-order", type=int, default=8)
    p.set_defaults(func=_cmd_telescope)

    p = sub.add_parser("picard-fuchs", help="operator of a basis form on w^2=f(x)")
    p.add_argument("--curve", required=True, help="polynomial f(x; params)")
    p.add_argument("--form", type=int, default=0)
    p.add_argument("--param", default="t")
    p.add_argument("--max-order", type=int, default=4)
    p.set_defaults(func=_cmd_picard_fuchs)

    p = sub.add_parser("flatten", help="search for a curvature-killing move")
    p.add_argument("file")
    p.add_argument("--degree-bound", type=int, default=4)
    p.add_argument("--commutant", help="JSON file with constraint basis matrices")
    p.set_defaults(func=_cmd_flatten)

    p = sub.add_parser("galois", help="constancy descriptor of an integral")
    p.add_argument("--integrand", required=True)
    p.add_argument("--var", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--max-order", type=int, default=8)
    p.set_defaults(func=_cmd_galois)

    p = sub.add_parser("examples", help="run the built-in reproduction suite")
    p.add_argument("action", choices=["run"])
    p.add_argument("name", choices=list(EXAMPLE_NAMES) + ["all"])
    p.set_defaults(func=_cmd_examples)

    return parser


def run_command(argv: list[str]) -> tuple[int, Report]:
    """The exit code and report of one command.  A request for help prints
    it and raises SystemExit(0), as argparse does; a usage error is
    malformed input of the command "argparse"."""
    command = "argparse"
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        for option in ("max_order", "form", "degree_bound"):
            if getattr(args, option, 0) < 0:
                raise ProblemFileError(f"--{option.replace('_', '-')} must be "
                                       f"non-negative, got {getattr(args, option)}")
        return args.func(args)
    except ExampleFailure as exc:
        return EXIT_PROPERTY_FAILS, Report(command, {
            "status": "expectation-failed", "detail": str(exc)})
    except (ProblemFileError, ExprSyntaxError, UnknownIdentifier,
            ZeroDenominator) as exc:
        return EXIT_MALFORMED, Report(command, {
            "status": "malformed-input", "detail": str(exc)})
    except TelescoperNotFound as exc:
        return EXIT_NOT_FOUND, Report(command, {
            "status": "not-found-within-bounds", "detail": str(exc)})
    # The remaining exact-algebra errors, curve errors among them, refuse
    # an input the toolkit does not support.
    except ExactAlgError as exc:
        return EXIT_UNSUPPORTED, Report(command, {
            "status": "unsupported-input", "detail": str(exc)})


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    json_mode = "--json" in argv
    code, report = run_command(argv)
    try:
        print(emit_report(report, "json" if json_mode else "human"), flush=True)
    except BrokenPipeError:
        # The reader closed the pipe.  Point stdout at devnull so that the
        # flush at exit does not raise again, and keep the command's code.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
