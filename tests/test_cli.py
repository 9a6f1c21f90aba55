"""Expression grammar, problem files, reports and the command runner."""

import json
import os
import random
import subprocess
import sys
import time
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


# Operator and certificate of each form on curves whose leading x-coefficient
# is not 1, some not even a constant: the reduction folds lc_x(f) into its
# x-free denominator there.
_NONMONIC_PICARD_FUCHS = [
    ("t*x^3+x+1", 0,
     "Dt^2 + (2*t+4/27)/(t^2+4/27*t)*Dt + (2/9*t-1/108)/(t^3+4/27*t^2)",
     ("((1/18*x^4*t^2-1/18*x^4*t+5/18*x^2*t-1/54*x^2+2/9*x*t-1/27*x-1/5"
      "4)/(x^6*t^5+4/27*x^6*t^4+2*x^4*t^4+8/27*x^4*t^3+2*x^3*t^4+8/27*x"
      "^3*t^3+x^2*t^3+4/27*x^2*t^2+2*x*t^3+8/27*x*t^2+t^3+4/27*t^2))*w")),
    ("t*x^3+x+1", 1,
     "Dt^2 + (3*t+8/27)/(t^2+4/27*t)*Dt + (8/9*t+1/36)/(t^3+4/27*t^2)",
     ("((5/18*x^5*t^2-1/54*x^5*t+25/54*x^3*t+1/54*x^3+4/9*x^2*t-1/18*x-"
      "1/27)/(x^6*t^5+4/27*x^6*t^4+2*x^4*t^4+8/27*x^4*t^3+2*x^3*t^4+8/2"
      "7*x^3*t^3+x^2*t^3+4/27*x^2*t^2+2*x*t^3+8/27*x*t^2+t^3+4/27*t^2))"
      "*w")),
    ("2*x^3-x+t", 0,
     "Dt^2 + (2*t/(t^2-2/27))*Dt + 5/(36*(t^2-2/27))",
     ("((-5/36*x^4+7/72*x^2-1/36*x*t-1/108)/(x^6*t^2-2/27*x^6-x^4*t^2+x"
      "^3*t^3+2/27*x^4-2/27*x^3*t+1/4*x^2*t^2-1/2*x*t^3+1/4*t^4-1/54*x^"
      "2+1/27*x*t-1/54*t^2))*w")),
    ("2*x^3-x+t", 1,
     "Dt^2 + (2*t/(t^2-2/27))*Dt - 7/(36*(t^2-2/27))",
     ("((-7/36*x^5+35/216*x^3-1/18*x^2*t-1/36*x+1/54*t)/(x^6*t^2-2/27*x"
      "^6-x^4*t^2+x^3*t^3+2/27*x^4-2/27*x^3*t+1/4*x^2*t^2-1/2*x*t^3+1/4"
      "*t^4-1/54*x^2+1/27*x*t-1/54*t^2))*w")),
    ("(t*x-1)*(x-1)*x", 0,
     "Dt^2 + (2*t-1)/(t^2-t)*Dt + 1/(4*(t^2-t))",
     "(1/(2*(x^2*t^4-x^2*t^3-2*x*t^3+2*x*t^2+t^2-t)))*w"),
    ("(t*x-1)*(x-1)*x", 1,
     "Dt^2 + (3*t-2)/(t^2-t)*Dt + 3/(4*(t^2-t))",
     "((1/2*x)/(x^2*t^4-x^2*t^3-2*x*t^3+2*x*t^2+t^2-t))*w"),
    ("(t+1)*x^4+x+1", 0,
     ("Dt^2 + (2*t+485/256)/(t^2+485/256*t+229/256)*Dt + (3/16*t+195/10"
      "24)/(t^3+741/256*t^2+357/128*t+229/256)"),
     ("((1/64*x^6*t^2+1/32*x^6*t+1/16*x^5*t^2+1/64*x^6+19/128*x^5*t+11/"
      "128*x^5+3/128*x^3*t+3/128*x^3+15/64*x^2*t+123/512*x^2+3/16*x*t+5"
      "1/256*x+3/512)/(x^8*t^5+1253/256*x^8*t^4+613/64*x^8*t^3+1199/128"
      "*x^8*t^2+293/64*x^8*t+2*x^5*t^4+229/256*x^8+997/128*x^5*t^3+2*x^"
      "4*t^4+1455/128*x^5*t^2+997/128*x^4*t^3+943/128*x^5*t+1455/128*x^"
      "4*t^2+229/128*x^5+943/128*x^4*t+x^2*t^3+229/128*x^4+741/256*x^2*"
      "t^2+2*x*t^3+357/128*x^2*t+741/128*x*t^2+t^3+229/256*x^2+357/64*x"
      "*t+741/256*t^2+229/128*x+357/128*t+229/256))*w")),
    ("(t+1)*x^4+x+1", 1,
     ("Dt^3 + (11/2*t+2627/512)/(t^2+485/256*t+229/256)*Dt^2 + (87/16*t"
      "+5409/1024)/(t^3+741/256*t^2+357/128*t+229/256)*Dt + (15/32*t+96"
      "3/2048)/(t^4+997/256*t^3+1455/256*t^2+943/256*t+229/256)"),
     ("((3/64*x^10*t^3+17/128*x^10*t^2+1/8*x^10*t+5/128*x^10+11/128*x^7"
      "*t^2+49/256*x^7*t+3/32*x^6*t^2+27/256*x^7+101/512*x^6*t+53/512*x"
      "^6+145/512*x^4*t+291/1024*x^4+65/128*x^3*t+521/1024*x^3+15/64*x^"
      "2*t+237/1024*x^2-5/1024*x-1/512)/(x^12*t^7+1765/256*x^12*t^6+260"
      "7/128*x^12*t^5+8555/256*x^12*t^4+2105/64*x^12*t^3+3*x^9*t^6+4971"
      "/256*x^12*t^2+4527/256*x^9*t^5+3*x^8*t^6+815/128*x^12*t+11115/25"
      "6*x^9*t^4+4527/256*x^8*t^5+229/256*x^12+7275/128*x^9*t^3+11115/2"
      "56*x^8*t^4+5355/128*x^9*t^2+7275/128*x^8*t^3+3*x^6*t^5+4203/256*"
      "x^9*t+5355/128*x^8*t^2+3759/256*x^6*t^4+6*x^5*t^5+687/256*x^9+42"
      "03/256*x^8*t+1839/64*x^6*t^3+3759/128*x^5*t^4+3*x^4*t^5+687/256*"
      "x^8+3597/128*x^6*t^2+1839/32*x^5*t^3+3759/256*x^4*t^4+879/64*x^6"
      "*t+3597/64*x^5*t^2+1839/64*x^4*t^3+x^3*t^4+687/256*x^6+879/32*x^"
      "5*t+3597/128*x^4*t^2+997/256*x^3*t^3+3*x^2*t^4+687/128*x^5+879/6"
      "4*x^4*t+1455/256*x^3*t^2+2991/256*x^2*t^3+3*x*t^4+687/256*x^4+94"
      "3/256*x^3*t+4365/256*x^2*t^2+2991/256*x*t^3+t^4+229/256*x^3+2829"
      "/256*x^2*t+4365/256*x*t^2+997/256*t^3+687/256*x^2+2829/256*x*t+1"
      "455/256*t^2+687/256*x+943/256*t+229/256))*w")),
]


@pytest.mark.parametrize("curve, form, operator, certificate", _NONMONIC_PICARD_FUCHS,
                         ids=[f"{c} form {f}" for c, f, _, _ in _NONMONIC_PICARD_FUCHS])
def test_run_command_picard_fuchs_nonmonic(curve, form, operator, certificate):
    code, report = run_command(["picard-fuchs", "--curve", curve, "--form", str(form),
                                "--param", "t"])
    assert code == 0
    assert report.payload["operator"] == operator
    assert report.payload["certificate"] == certificate


_FUZZ_COEFFS = ["0", "1", "-1", "2", "-3", "t", "t+1", "-t"]


def test_run_command_picard_fuchs_fuzz():
    """Random curves of x-degree 2 to 5, both forms: every case ends in a
    documented exit code, without a traceback, within a time budget."""
    rnd = random.Random(9)
    codes = []
    for _ in range(20):
        degree = rnd.randint(2, 5)
        coeffs = [rnd.choice(_FUZZ_COEFFS) for _ in range(degree)] + \
            [rnd.choice(_FUZZ_COEFFS[1:])]
        curve = "+".join(f"({c})*x^{k}" for k, c in enumerate(coeffs) if c != "0")
        for form in ("0", "1"):
            start = time.perf_counter()
            code, _ = run_command(["picard-fuchs", "--curve", curve, "--form", form,
                                   "--param", "t"])
            assert code in (0, 2, 3), (curve, form, code)
            assert time.perf_counter() - start < 10.0, (curve, form)
            codes.append(code)
    assert 0 in codes and 2 in codes


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
