"""Expression grammar, problem files, reports and the command runner."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from isocert.cli.examples import EXAMPLE_NAMES, fixture_path
from isocert.cli.exprio import (MAX_EXPONENT, ExprSyntaxError, UnknownIdentifier,
                                parse_expression, parse_to_rational, print_tree)
from isocert.cli.files import ProblemFileError, apply_dual, load_problem
from isocert.cli.main import run_command
from isocert.cli.reports import Report, emit_report, operator_text
from isocert.exactalg import RationalFunction, VarKind, VariableRegistry, format_rational
from isocert.operators import LinearDiffOperator


def test_parse_basic(xt):
    f = parse_to_rational("1/((x-t)*(x-1))", xt["reg"])
    x, t, one = xt["x"], xt["t"], xt["one"]
    assert f == one / ((x - t) * (x - one))


def test_parse_precedence_and_unary(xt):
    x, t, one = xt["x"], xt["t"], xt["one"]
    assert parse_to_rational("-x^2 + 3*t/2", xt["reg"]) == -(x ** 2) + 3 * t / 2
    assert parse_to_rational("2 - 3 - 4", xt["reg"]) == \
        RationalFunction.const(-5, xt["reg"])
    assert parse_to_rational("12/4/3", xt["reg"]) == one
    assert parse_to_rational("x^-1", xt["reg"]) == one / x


def test_parse_syntax_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x+")
    assert err.value.position == 2
    with pytest.raises(ExprSyntaxError):
        parse_expression("(x")
    with pytest.raises(ExprSyntaxError):
        parse_expression("x^t")


def test_unknown_identifier(xt):
    with pytest.raises(UnknownIdentifier):
        parse_to_rational("x + y", xt["reg"])


@pytest.mark.parametrize("text", [
    "1/((x-t)*(x-1))",
    "(3*x^2 - 2*(1+t)*x + t)/(2*z)",
    "-x + t*(x - 2)^3",
    "x^-2 + 1/2",
    "a*-b",
    "x-(t-1)",
])
def test_round_trip_stability(text):
    t1 = parse_expression(text)
    t2 = parse_expression(print_tree(t1))
    assert t1 == t2
    # and printing is a fixed point from then on
    assert print_tree(t2) == print_tree(parse_expression(print_tree(t2)))


def _tree_strategy():
    from hypothesis import strategies as st

    leaves = st.one_of(
        st.integers(0, 30).map(lambda n: ("num", Fraction(n))),
        st.sampled_from(["x", "t", "u1"]).map(lambda s: ("var", s)),
    )

    def extend(children):
        binary = st.tuples(st.sampled_from(["add", "sub", "mul", "div"]),
                           children, children).map(tuple)
        neg = children.map(lambda c: ("neg", c))
        power = st.tuples(children, st.integers(-3, 3)).map(
            lambda it: ("pow", it[0], it[1]))
        return st.one_of(binary, neg, power)

    from hypothesis import strategies as st2

    return st2.recursive(leaves, extend, max_leaves=12)


def test_print_parse_is_identity_on_trees():
    from hypothesis import given, settings

    @settings(max_examples=150, deadline=None)
    @given(_tree_strategy())
    def inner(tree):
        assert parse_expression(print_tree(tree)) == tree

    inner()


def test_printer_round_trips_canonical_values(xt):
    x, t, one = xt["x"], xt["t"], xt["one"]
    values = [
        one / ((x - t) * (x - one)),
        -x ** 3 / (2 * (t - one)),
        (x + t) ** 2 / (x * t),
        RationalFunction.const(Fraction(-7, 3), xt["reg"]),
        x / 2 + t / 3,
    ]
    for v in values:
        assert parse_to_rational(format_rational(v), xt["reg"]) == v


def test_operator_text_round_trip(xt):
    t, one = xt["t"], xt["one"]
    op = LinearDiffOperator(
        "t", (-one / (4 * t * (t - one)), -(2 * t - one) / (t * (t - one))))
    text = operator_text(op)
    assert text.startswith("Dt^2")
    # re-parse the printed coefficients: Dt is a placeholder identifier
    reg = xt["reg"]

    class DT:
        def __init__(self, coeffs):
            self.coeffs = coeffs

    # evaluate with Dt |-> fresh variable exponents: cheap check that the
    # string is grammatical
    reg2 = VariableRegistry()
    reg2.add("t", VarKind.PARAMETRIC)
    reg2.add("Dt", VarKind.PARAMETRIC)
    parse_to_rational(text, reg2)


def test_load_problem_and_dual():
    path = fixture_path("per-derivation-triviality")
    problem = load_problem(path)
    # dual flag: stored -1 becomes +1
    assert problem.system.matrices["t2"][0][0] == \
        RationalFunction.const(1, problem.registry)
    mat = [[problem.parse("0"), problem.parse("1")],
           [problem.parse("t1"), problem.parse("t2")]]
    assert apply_dual(apply_dual(mat)) == mat


def test_load_problem_schema_violation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"parametric": "oops"}}))
    with pytest.raises(ProblemFileError):
        load_problem(str(bad))
    bad2 = tmp_path / "bad2.json"
    bad2.write_text("{not json")
    with pytest.raises(ProblemFileError):
        load_problem(str(bad2))


def test_load_problem_schema_violation_message():
    # The cached validator reports what jsonschema.validate reported.
    with pytest.raises(ProblemFileError) as err:
        load_problem({"field": {"parametric": "oops"}})
    assert str(err.value) == "schema violation: 'oops' is not of type 'array'"
    with pytest.raises(ProblemFileError) as err:
        load_problem({"field": {"parametric": ["t"]}, "system": {"size": 1}})
    assert str(err.value) == "schema violation: 'matrices' is a required property"


def test_load_problem_refuses_inconsistent_tower(tmp_path):
    doc = {"field": {"principal": "x", "parametric": ["t"],
                     "tower": {"generators": [
                         {"name": "g", "rules": {"x": "t", "t": "0"}}]}}}
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError):
        load_problem(str(p))
    with pytest.warns(UserWarning):
        load_problem(str(p), tower_consistency="warn")


def test_load_problem_bad_expression(tmp_path):
    doc = {"field": {"parametric": ["t1"]},
           "system": {"size": 1, "matrices": {"t1": [["t1 +"]]}}}
    p = tmp_path / "p.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError):
        load_problem(str(p))


def test_run_command_check_heisenberg():
    code, report = run_command(["check", fixture_path("heisenberg-obstruction"),
                                "--mode", "full"])
    assert code == 1
    pairs = report.payload["pairs"]
    assert any(not p["ok"] and p["defect"][0][2] == "1/(t1*t2)" for p in pairs)


def test_run_command_check_pairwise_ok():
    code, report = run_command(["check", fixture_path("replace-bi"),
                                "--mode", "pairwise"])
    assert code == 0
    assert report.payload["flat"] is True


def test_run_command_telescope():
    code, report = run_command(["telescope", "--integrand", "1/((x-t)*(x-1))",
                                "--var", "x", "--param", "t"])
    assert code == 0
    assert report.payload["operator"] == "Dt + 1/(t-1)"


def test_run_command_examples():
    code, report = run_command(["examples", "run", "legendre"])
    assert code == 0
    assert report.payload["status"] == "pass"


def test_run_command_picard_fuchs():
    code, report = run_command(["picard-fuchs", "--curve", "x*(x-1)*(x-t)",
                                "--form", "0", "--param", "t"])
    assert code == 0
    assert report.payload["order"] == 2


@pytest.mark.parametrize("curve, form", [
    ("x^5-t", "0"),             # degree outside {3, 4}
    ("x*(x-1)*(x-t)", "5"),     # form index out of range
    ("(x-1)^2*(x-t)", "0"),     # not squarefree
])
def test_run_command_picard_fuchs_unsupported_curve(curve, form):
    code, report = run_command(["picard-fuchs", "--curve", curve, "--form", form,
                                "--param", "t"])
    assert code == 2
    assert report.payload["status"] == "unsupported-input"


def _python(args, timeout):
    import isocert

    src = os.path.dirname(os.path.dirname(isocert.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def _python_m_main(args, timeout):
    return _python(["-m", "isocert.cli.main", *args], timeout)


def test_cli_import_leaves_jsonschema_unloaded():
    # Importing jsonschema is most of the CLI's start-up; only loading a
    # problem file needs it.
    done = _python(["-c", "import sys, isocert.cli.main; "
                          "print('jsonschema' in sys.modules)"], timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_python_m_runs_main_once():
    done = _python_m_main(["examples", "run", "legendre"], timeout=120)
    assert done.returncode == 0
    assert done.stdout.count("== examples run legendre ==") == 1
    assert done.stderr == ""


def test_huge_exponent_is_refused_quickly():
    done = _python_m_main(["--json", "reduce", "--integrand", "x^1000000000",
                           "--var", "x"], timeout=10)
    assert done.returncode == 2
    payload = json.loads(done.stdout)
    assert payload["status"] == "unsupported-input"
    assert f"|n| <= {MAX_EXPONENT}" in payload["detail"]
    code, _ = run_command(["reduce", "--integrand", f"x^-{MAX_EXPONENT + 1}", "--var", "x"])
    assert code == 2
    code, _ = run_command(["reduce", "--integrand", f"x^{MAX_EXPONENT}", "--var", "x"])
    assert code == 0


def test_huge_constant_poles_finish_quickly():
    # Rational roots come from p-adic lifting, not from the divisors of the
    # constant term, so 37-digit and 21-digit constants cost no more than
    # small ones.
    done = _python_m_main(["--json", "reduce", "--integrand",
                           "1/(x^2-1000000000000000000000000000000000001)",
                           "--var", "x"], timeout=10)
    assert done.returncode == 2
    payload = json.loads(done.stdout)
    assert payload["status"] == "unsupported-input"
    assert "does not split over Q" in payload["detail"]
    done = _python_m_main(["--json", "reduce", "--integrand",
                           "1/((x-123456789012345678901)*(3*x+7))",
                           "--var", "x"], timeout=10)
    assert done.returncode == 0
    payload = json.loads(done.stdout)
    assert set(payload["class"]) == {"-7/3", "123456789012345678901"}
    assert not payload["class_is_zero"]


def test_run_command_exit_codes(tmp_path):
    # malformed input -> 4
    code, _ = run_command(["check", str(tmp_path / "missing.json")])
    assert code == 4
    code, _ = run_command(["telescope", "--integrand", "x+", "--var", "x",
                           "--param", "t"])
    assert code == 4
    # unsupported input -> 2
    code, _ = run_command(["reduce", "--integrand", "1/(x^2+1)", "--var", "x"])
    assert code == 2
    # not found within bounds -> 3
    code, _ = run_command(["telescope", "--integrand", "1/((x-t)*(x-1)*x)",
                           "--var", "x", "--param", "t", "--max-order", "1"])
    assert code == 3


def test_run_command_flatten(tmp_path):
    doc = {"field": {"parametric": ["t1", "t2"]},
           "system": {"size": 1,
                      "matrices": {"t1": [["t2"]], "t2": [["0"]]}}}
    p = tmp_path / "scalar.json"
    p.write_text(json.dumps(doc))
    code, report = run_command(["flatten", str(p)])
    assert code == 0
    assert report.payload["outcome"] == "found"

    commutant = tmp_path / "commutant.json"
    commutant.write_text(json.dumps({"matrices": [
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
    ]}))
    code, report = run_command(["flatten", fixture_path("heisenberg-obstruction"),
                                "--commutant", str(commutant)])
    assert code == 1
    assert report.payload["outcome"] == "obstruction"
    assert report.payload["witness_residue"] == "1/t2"


def test_run_command_gauge(tmp_path):
    g = tmp_path / "gauge.json"
    g.write_text(json.dumps({"matrix": [["1", "0", "0"], ["0", "1", "0"],
                                        ["0", "0", "1"]]}))
    code, report = run_command(["gauge", fixture_path("heisenberg-obstruction"),
                                "--matrix", str(g)])
    assert code == 0
    assert report.payload["matrices"]["t1"][0][1] == "1/t1"


def test_emit_report_minimal_and_roundtrip():
    empty = Report("", {})
    assert emit_report(empty, "json") == "{}"
    code, report = run_command(["check", fixture_path("heisenberg-obstruction"),
                                "--mode", "full"])
    text = emit_report(report, "json")
    assert json.loads(text) == report.payload
    # determinism: identical runs produce byte-identical output
    code2, report2 = run_command(["check", fixture_path("heisenberg-obstruction"),
                                  "--mode", "full"])
    assert emit_report(report2, "json") == text


def test_examples_run_all_names():
    assert set(EXAMPLE_NAMES) == {
        "heisenberg-obstruction", "iterated-integrals", "legendre",
        "incomplete-gamma", "replace-bi", "per-derivation-triviality"}
    code, report = run_command(["examples", "run", "all"])
    assert code == 0
    assert report.payload["all_pass"] is True


def test_system_matrix_serialization_round_trip():
    from isocert.cli.files import parse_matrix
    from isocert.cli.reports import matrix_text

    problem = load_problem(fixture_path("iterated-integrals"))
    for sym, mat in problem.system.matrices.items():
        text = matrix_text(mat)
        back = parse_matrix(problem, text, problem.system.size)
        assert back == mat


def test_fixture_dual_involution_on_all_fixtures():
    for name in EXAMPLE_NAMES:
        problem = load_problem(fixture_path(name))
        raw = problem.raw
        if "system" not in raw:
            continue
        from isocert.cli.files import parse_matrix

        for sym, rows in raw["system"]["matrices"].items():
            stored = parse_matrix(problem, rows, raw["system"]["size"])
            loaded = problem.system.matrices[sym]
            if raw["system"].get("dual", False):
                assert apply_dual(stored) == loaded
                assert apply_dual(apply_dual(stored)) == stored
            else:
                assert stored == loaded
