"""Expression grammar, problem files, reports and the command runner."""

import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from isocert.cli.examples import EXAMPLE_NAMES, fixture_path
from isocert.cli.exprio import (MAX_EXPONENT, ExprSyntaxError, UnknownIdentifier,
                                parse_expression, parse_to_rational)
from isocert.cli.files import ProblemFileError, apply_dual, load_problem
from isocert.cli.main import run_command
from isocert.cli.reports import Report, emit_report, operator_text
from isocert.exactalg import (RationalFunction, VarKind, VariableRegistry, ZeroDenominator,
                              format_rational)
from isocert.exactalg.poly import MAX_DEGREE
from isocert.exactalg.printing import int_text
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
    for text, message, position in (("x)", "unexpected token ')'", 1),
                                    ("x y", "unexpected token 'ident'", 2),
                                    ("x^2^3", "unexpected token '^'", 3)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text)
        assert str(err.value) == f"{message} at offset {position}"
        assert err.value.position == position


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
    t1 = _tree(parse_expression(text))
    t2 = _tree(parse_expression(print_tree(t1)))
    assert t1 == t2
    # and printing is a fixed point from then on
    assert print_tree(t2) == print_tree(_tree(parse_expression(print_tree(t2))))


_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4,
         "num": 5, "var": 5}


def print_tree(node) -> str:
    op = node[0]
    if op == "num":
        return str(node[1])
    if op == "var":
        return node[1]
    if op == "neg":
        inner = _wrap(node[1], _PREC["neg"], strict=False)
        return f"-{inner}"
    if op == "pow":
        base = _wrap(node[1], _PREC["pow"], strict=True)
        exp = node[2]
        return f"{base}^{exp}" if exp >= 0 else f"{base}^-{-exp}"
    a_strict = {"add": False, "sub": False, "mul": False, "div": False}[op]
    sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[op]
    left = _wrap(node[1], _PREC[op], strict=a_strict)
    right = _wrap(node[2], _PREC[op], strict=(op in ("sub", "div", "mul", "add")))
    return f"{left}{sym}{right}"


def _wrap(node, parent_prec: int, strict: bool) -> str:
    text = print_tree(node)
    prec = _PREC[node[0]]
    if prec < parent_prec or (strict and prec == parent_prec):
        return f"({text})"
    return text


def _tree(postfix):
    """The tuple tree of a postfix list: ("add", a, b), ("neg", a),
    ("pow", a, n) and the leaves ("num", q) and ("var", name)."""
    stack = []
    for item in postfix:
        if item[0] in ("num", "var"):
            stack.append(item)
        elif item[0] == "neg":
            stack.append(("neg", stack.pop()))
        elif item[0] == "pow":
            stack.append(("pow", stack.pop(), item[1]))
        else:
            right = stack.pop()
            stack.append((item[0], stack.pop(), right))
    (tree,) = stack
    return tree


def _tree_strategy(max_exponent=3, names=("x", "t", "u1")):
    from hypothesis import strategies as st

    leaves = st.one_of(
        st.integers(0, 30).map(lambda n: ("num", Fraction(n))),
        st.sampled_from(list(names)).map(lambda s: ("var", s)),
    )

    def extend(children):
        binary = st.tuples(st.sampled_from(["add", "sub", "mul", "div"]),
                           children, children).map(tuple)
        neg = children.map(lambda c: ("neg", c))
        power = st.tuples(children, st.integers(-max_exponent, max_exponent)).map(
            lambda it: ("pow", it[0], it[1]))
        return st.one_of(binary, neg, power)

    from hypothesis import strategies as st2

    return st2.recursive(leaves, extend, max_leaves=12)


def test_print_parse_is_identity_on_trees():
    from hypothesis import given, settings

    @settings(max_examples=150, deadline=None)
    @given(_tree_strategy())
    def inner(tree):
        assert _tree(parse_expression(print_tree(tree))) == tree

    inner()


def _tree_value(node, registry):
    """A tree evaluated directly with RationalFunction arithmetic."""
    op = node[0]
    if op == "num":
        return RationalFunction.const(node[1], registry)
    if op == "var":
        return RationalFunction.var(node[1], registry)
    if op == "neg":
        return -_tree_value(node[1], registry)
    if op == "pow":
        return _tree_value(node[1], registry) ** node[2]
    a, b = _tree_value(node[1], registry), _tree_value(node[2], registry)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    return a / b


def test_printed_trees_parse_to_their_values(xt):
    """Parsing a printed tree gives the tree's value, and a division by zero
    is refused by both or by neither."""
    from hypothesis import example, given, seed, settings

    registry = xt["reg"]
    registry.add("u1", VarKind.PARAMETRIC)

    def value(thunk):
        try:
            return thunk()
        except ZeroDenominator:
            return ZeroDenominator

    @seed(20261020)
    @settings(max_examples=200, deadline=None, database=None)
    @given(_tree_strategy())
    @example(("div", ("var", "x"), ("num", Fraction(0))))
    @example(("pow", ("sub", ("var", "t"), ("var", "t")), -2))
    def inner(tree):
        expected = value(lambda: _tree_value(tree, registry))
        assert value(lambda: parse_to_rational(print_tree(tree), registry)) == expected

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
    # A negative coefficient of a derivative term prints as a subtraction,
    # and the text reads back as the operator it came from.
    dt, t2 = RationalFunction.var("Dt", reg2), RationalFunction.var("t", reg2)
    for coeffs, expected, value in (
            ((2 * one, 3 * one), "Dt^2 - 3*Dt - 2", dt ** 2 - 3 * dt - 2),
            ((xt["zero"], one / t), "Dt^2 - 1/t*Dt", dt ** 2 - dt / t2)):
        text = operator_text(LinearDiffOperator("t", coeffs))
        assert text == expected
        assert parse_to_rational(text, reg2) == value


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
    # The messages are those jsonschema.validate reported.
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
    assert load_problem(str(p), tower_consistency="skip").tower is not None


def test_rule_naming_a_jet_in_a_defined_direction_is_malformed(tmp_path):
    # d_x g is defined, so the rule for d_t g may not name the jet g_x.
    doc = {"field": {"principal": "x", "parametric": ["t"],
                     "tower": {"generators": [
                         {"name": "g", "rules": {"x": "t", "t": "g_x"}}]}},
           "system": {"size": 1, "matrices": {"t": [["g"]]}}}
    p = tmp_path / "tower.json"
    p.write_text(json.dumps(doc))
    code, report = run_command(["check", str(p)])
    assert code == 4
    assert report.payload == {"status": "malformed-input",
                              "detail": "bad rule for g/t: 'g_x'"}


def test_load_problem_bad_expression(tmp_path):
    doc = {"field": {"parametric": ["t1"]},
           "system": {"size": 1, "matrices": {"t1": [["t1 +"]]}}}
    p = tmp_path / "p.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ProblemFileError):
        load_problem(str(p))


def _tower_field(generators, parametric=("t",)):
    return {"principal": "x", "parametric": list(parametric),
            "tower": {"generators": generators}}


# One problem file per way a name can be refused, with the detail naming the
# clashing or invalid name.
_NAMING_REFUSALS = [
    (_tower_field([{"name": "I", "rules": {}}, {"name": "I_x"}]),
     "generator 'I_x' reads as a jet of 'I'"),
    (_tower_field([{"name": "I_x"}, {"name": "I", "rules": {}}]),
     "generator 'I' has the jet name 'I_x', which is already a variable"),
    (_tower_field([{"name": "I"}], parametric=["I_x"]),
     "derivation symbol 'I_x' contains '_', the jet separator"),
    (_tower_field([{"name": "I"}, {"name": "J", "rules": {"x": "I_t_1"}}],
                  parametric=["t_1"]),
     "derivation symbol 't_1' contains '_', the jet separator"),
    ({"principal": "x", "parametric": ["t-1"]}, "invalid variable name: 't-1'"),
    (_tower_field([{"name": "a-b"}]), "invalid variable name: 'a-b'"),
    (_tower_field([{"name": ""}]), "invalid variable name: ''"),
    (_tower_field([{"name": "I"}, {"name": "I"}]), "variable 'I' is declared twice"),
    (_tower_field([{"name": "t"}]), "variable 't' is declared twice"),
]


@pytest.mark.parametrize("field, detail", _NAMING_REFUSALS, ids=[
    "I-then-I_x", "I_x-then-I", "parameter-I_x", "parameter-t_1", "parameter-t-1",
    "generator-a-b", "generator-empty", "generator-twice", "generator-is-parameter"])
def test_naming_refusals_are_malformed_input(tmp_path, field, detail):
    p = tmp_path / "names.json"
    p.write_text(json.dumps({"field": field,
                             "system": {"size": 1, "matrices": {"x": [["x"]]}}}))
    code, report = run_command(["check", str(p)])
    assert code == 4
    assert report.payload == {"status": "malformed-input", "detail": detail}


def test_curve_without_a_principal_variable_is_malformed_input(tmp_path):
    p = tmp_path / "curve.json"
    p.write_text(json.dumps({"field": {"parametric": ["t"]},
                             "curve": {"f": "x^3-t"},
                             "system": {"size": 1, "matrices": {"t": [["t"]]}}}))
    code, report = run_command(["check", str(p)])
    assert code == 4
    assert report.payload == {"status": "malformed-input",
                              "detail": "a curve section needs a principal variable"}


def test_run_command_check_and_flatten_tower_fuzz(tmp_path):
    """Random tower problem files through `check` and `flatten`: generator
    names drawn from a pool of jet-like names, rules that name jets in
    defined directions or do not commute.  Every case ends in a documented
    exit code, without an exception, within a time budget, and a drawn name
    collision exits 4."""
    from hypothesis import given, seed, settings, strategies as st

    symbols = ("x", "t")
    rules = st.dictionaries(st.sampled_from(symbols), st.sampled_from(
        ["0", "1", "t", "1/x", "x*g", "g_t", "g_x", "h_t", "g*h_x", "t/(x-1)", "g_x_t"]),
        max_size=2)
    generators = st.lists(st.tuples(st.sampled_from(["g", "h", "k", "g_x", "g_t", "h_x_t"]),
                                    rules), min_size=1, max_size=3, unique_by=lambda g: g[0])
    entries = st.sampled_from(["0", "g", "g_t", "h_x", "g_x_t", "x*t", "1/(x-t)"])

    def reads_as_jet(name, generator):
        suffix = name[len(generator) + 1:]
        return name.startswith(generator + "_") and set(suffix.split("_")) <= set(symbols)

    @seed(20261020)
    @settings(max_examples=40, deadline=None, database=None)
    @given(generators, entries, entries)
    def inner(gens, a_x, a_t):
        names = [name for name, _ in gens]
        collision = any(
            a == b or reads_as_jet(a, b)
            for i, a in enumerate(names) for j, b in enumerate(list(symbols) + names)
            if j != i + len(symbols))
        p = tmp_path / "tower.json"
        p.write_text(json.dumps({
            "field": _tower_field([{"name": n, "rules": r} for n, r in gens]),
            "system": {"size": 1, "matrices": {"x": [[a_x]], "t": [[a_t]]}}}))
        for argv in (["check", str(p)], ["flatten", str(p)]):
            start = time.perf_counter()
            code, _ = run_command(argv)
            assert code in (0, 1, 2, 3, 4), (argv, code)
            assert time.perf_counter() - start < 10.0, argv
            if collision:
                assert code == 4, (gens, argv)

    inner()


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


def _env():
    import isocert

    src = os.path.dirname(os.path.dirname(isocert.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _python(args, timeout):
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=_env(), timeout=timeout)


def _python_m_main(args, timeout):
    return _python(["-m", "isocert.cli.main", *args], timeout)


def test_file_commands_run_without_jsonschema(tmp_path):
    # Problem files are validated without jsonschema, so with it made
    # unimportable every file-loading command still runs, and a file that
    # violates the schema still gets its exit-4 report.
    heisenberg = fixture_path("heisenberg-obstruction")
    gauge = tmp_path / "gauge.json"
    gauge.write_text(json.dumps({"matrix": [["1", "0", "0"], ["0", "1", "0"],
                                            ["0", "0", "1"]]}))
    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps({"field": {"parametric": ["t1", "t2"]},
                                  "system": {"size": 1, "matrices": {
                                      "t1": [["t2"]], "t2": [["0"]]}}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"parametric": "oops"}}))
    runs = [["check", heisenberg, "--mode", "full"], ["flatten", str(scalar)],
            ["gauge", heisenberg, "--matrix", str(gauge)],
            ["examples", "run", "all"], ["check", str(bad)]]
    script = ("import json, sys\n"
              "sys.modules['jsonschema'] = None\n"
              "from isocert.cli.main import run_command\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    code, report = run_command(argv)\n"
              "    print(json.dumps([code, report.payload]))\n")
    done = _python(["-c", script, json.dumps(runs)], timeout=120)
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()]
    assert [code for code, _ in results] == [1, 0, 0, 0, 4]
    (_, check), (_, flat), (_, gauged), (_, suite), (_, refusal) = results
    assert check["flat"] is False
    assert flat["outcome"] == "found"
    assert gauged["matrices"]["t1"][0][1] == "1/t1"
    assert suite["all_pass"] is True
    assert refusal == {
        "status": "malformed-input",
        "detail": "schema violation: 'oops' is not of type 'array'"}


_HEISENBERG = fixture_path("heisenberg-obstruction")
_REPLACE_BI = fixture_path("replace-bi")  # a 2x2 system

# Inputs whose depth or length once overflowed the stack, or whose characters
# or file shapes once escaped as a traceback: (id, argv with {file} standing
# for the written input file, its text, exit code, report check).
_DEEP_AND_MALFORMED = [
    ("sum-1200", ["reduce", "--integrand=" + "+".join(["x"] * 1200), "--var", "x"], None,
     0, {"certificate": "600*x^2"}),
    ("parentheses-1200", ["reduce", "--integrand=" + "(" * 1200 + "x" + ")" * 1200,
                          "--var", "x"], None, 0, {"certificate": "1/2*x^2"}),
    ("unary-minus-1200", ["reduce", "--integrand=" + "-" * 1200 + "x", "--var", "x"], None,
     0, {"certificate": "1/2*x^2"}),
    ("matrix-entry-sum-3000", ["check", "{file}"], json.dumps(
        {"field": {"parametric": ["t"]},
         "system": {"size": 1, "matrices": {"t": [["+".join(["t"] * 3000)]]}}}),
     0, {"flat": True}),
    ("superscript-after-plus", ["reduce", "--integrand=x+\u00b2", "--var", "x"], None,
     4, "unexpected character '\u00b2' at offset 2"),
    ("superscript-in-name", ["reduce", "--integrand=x\u00b2", "--var", "x"], None,
     4, "unexpected character '\u00b2' at offset 1"),
    ("json-nested-100000", ["check", "{file}"], "[" * 100000 + "]" * 100000,
     4, "invalid JSON in {file}: maximum recursion depth exceeded"),
    ("gauge-empty-object", ["gauge", _REPLACE_BI, "--matrix", "{file}"], "{}",
     4, "schema violation in {file}: 'matrix' is a required property"),
    ("gauge-vector", ["gauge", _REPLACE_BI, "--matrix", "{file}"], "[1, 2]",
     4, "schema violation in {file}: 2 is not of type 'array'"),
    ("gauge-number-entries", ["gauge", _REPLACE_BI, "--matrix", "{file}"],
     "[[1, 0], [0, 1]]", 4, "schema violation in {file}: 1 is not of type 'string'"),
    ("gauge-number-matrix", ["gauge", _REPLACE_BI, "--matrix", "{file}"],
     '{"matrix": 5}', 4, "schema violation in {file}: 5 is not of type 'array'"),
    ("commutant-empty-object", ["flatten", _HEISENBERG, "--commutant", "{file}"], "{}",
     4, "schema violation in {file}: 'matrices' is a required property"),
    ("commutant-number-list", ["flatten", _HEISENBERG, "--commutant", "{file}"], "[5]",
     4, "schema violation in {file}: 5 is not of type 'array'"),
    ("commutant-number", ["flatten", _HEISENBERG, "--commutant", "{file}"],
     '{"matrices": 3}', 4, "schema violation in {file}: 3 is not of type 'array'"),
]


@pytest.mark.parametrize("argv, text, code, expected",
                         [case[1:] for case in _DEEP_AND_MALFORMED],
                         ids=[case[0] for case in _DEEP_AND_MALFORMED])
def test_deep_and_malformed_inputs_end_in_a_report(tmp_path, argv, text, code, expected):
    path = str(tmp_path / "input.json")
    if text is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    argv = [arg.replace("{file}", path) for arg in argv]
    start = time.perf_counter()
    got, report = run_command(argv)
    assert time.perf_counter() - start < 10.0
    assert got == code
    if code == 0:
        assert report.payload.items() >= expected.items()
    else:
        assert report.payload["status"] == "malformed-input"
        assert report.payload["detail"].startswith(expected.replace("{file}", path))


def test_a_long_sum_runs_through_python_m():
    done = _python_m_main(["--json", *_DEEP_AND_MALFORMED[0][1]], timeout=10)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    assert json.loads(done.stdout)["certificate"] == "600*x^2"


def test_python_m_runs_main_once():
    done = _python_m_main(["examples", "run", "legendre"], timeout=120)
    assert done.returncode == 0
    assert done.stdout.count("== examples run legendre ==") == 1
    assert done.stderr == ""


def test_closed_stdout_ends_with_the_command_code():
    # A reader that stops early, like `| head`, closes the pipe before the
    # report is written.  The process still ends with the command's own code
    # (0 here), not with a traceback and exit 1, which means "property fails".
    proc = subprocess.Popen([sys.executable, "-m", "isocert.cli.main", "--json",
                             "examples", "run", "all"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env())
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert b"Traceback" not in err


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


def test_integers_past_the_decimal_text_limit_are_read_and_printed():
    # Python refuses int <-> decimal text past 4300 digits by default; a
    # 5000-digit literal and a 10001-digit computed coefficient both go
    # through, and the printed text reads back as the same value.
    literal = "9" * 5000
    runs = [(["reduce", "--integrand", f"{literal}/(x-t)", "--var", "x"], "class"),
            (["reduce", "--integrand", "x*((10^100)^100)", "--var", "x"], "certificate")]
    for argv, key in runs:
        done = _python_m_main(["--json", *argv], timeout=30)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        payload = json.loads(done.stdout)
        assert "status" not in payload
    assert payload["certificate"] == "5" + "0" * 9999 + "*x^2"
    code, report = run_command(runs[0][0])
    assert code == 0
    assert report.payload["class"] == {"t": literal}
    reg = VariableRegistry()
    reg.add("x", VarKind.PRINCIPAL)
    value = parse_to_rational(report.payload["class"]["t"] + "*x/(x+1)", reg)
    assert format_rational(value) == literal + "*x/(x+1)"
    assert parse_to_rational(format_rational(value), reg) == value
    # An exponent literal of 5000 digits is refused with its bound.
    code, report = run_command(["reduce", "--integrand", "x^" + "1" * 5000, "--var", "x"])
    assert code == 2
    assert report.payload["detail"].startswith("exponent " + "1" * 5000 + " at offset 2")


def test_int_text_matches_str_across_chunks():
    for n in (0, 7, -7, 10 ** 599, 10 ** 600 - 1, 10 ** 600, -(10 ** 600) - 3,
              10 ** 1200 + 7, 3 ** 4000):
        text = int_text(n)
        assert parse_to_rational(text.lstrip("-"), VariableRegistry()).num.const_value() == abs(n)
        if abs(n) < 10 ** 600:
            assert text == str(n)
    assert int_text(10 ** 1200 + 7) == "1" + "0" * 1199 + "7"
    assert int_text(-(10 ** 600) - 3) == "-1" + "0" * 599 + "3"


def test_nested_powers_past_the_degree_cap_are_refused_quickly():
    # Every exponent is within MAX_EXPONENT, but the nesting reaches x^1000000.
    done = _python_m_main(["--json", "reduce", "--integrand", "((x^100)^100)^100",
                           "--var", "x"], timeout=10)
    assert done.returncode == 2
    payload = json.loads(done.stdout)
    assert payload["status"] == "unsupported-input"
    assert "total degree 1000000" in payload["detail"]
    assert f"<= {MAX_DEGREE}" in payload["detail"]
    at_cap = "((t^100)^100)^6*(t^100)^55*t^34"
    code, report = run_command(["reduce", "--integrand", f"{at_cap}/x", "--var", "x"])
    assert code == 0
    assert report.payload["class"] == {"0": f"t^{MAX_DEGREE}"}
    code, _ = run_command(["reduce", "--integrand", f"{at_cap}*t/x", "--var", "x"])
    assert code == 2


def test_reduce_of_two_high_order_poles_is_quick():
    # The certificate is built over its known denominator
    # (x-t)^29*(x-1)^29, so building and checking it takes no gcd in x.
    done = _python_m_main(["--json", "reduce", "--integrand", "1/((x-t)^30*(x-1)^30)",
                           "--var", "x"], timeout=10)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["class_is_zero"] is False
    assert set(payload["class"]) == {"1", "t"}
    # Three poles of order 20, two of them at a/b with b != 1: each principal
    # part comes from one q-adic expansion and one series division.
    done = _python_m_main(["--json", "reduce", "--integrand",
                           "x^3/((x-t^2)^20*(2*x+t)^20*(t*x-1)^20)", "--var", "x"],
                          timeout=10)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["class_is_zero"] is False
    assert set(payload["class"]) == {"-1/2*t", "1/t", "t^2"}


def test_reduce_of_a_sparse_high_power_is_quick():
    # The antiderivative goes term by term, so one term of x-degree 60000
    # costs no more than one of degree 1.
    done = _python_m_main(["--json", "reduce", "--integrand", "((x^100)^100)^6",
                           "--var", "x"], timeout=10)
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["certificate"] == "1/60001*x^60001"
    assert payload["class_is_zero"]


def test_reduce_of_a_high_order_pole_is_quick():
    # gcd(w, w') in the squarefree decomposition of (x-t)^100 is answered by
    # exact division, since w' divides w.
    start = time.perf_counter()
    done = _python_m_main(["--json", "reduce", "--integrand", "1/(x-t)^100",
                           "--var", "x"], timeout=60)
    assert time.perf_counter() - start < 2.0
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["class_is_zero"]


def test_run_command_reduce_telescope_and_galois_fuzz():
    """Random expression trees through `reduce`, `telescope`, `galois` and
    `picard-fuchs`, with variable and parameter names drawn from a pool that
    holds invalid names and lets the two coincide: every case ends in a
    documented exit code, without an exception, within a time budget."""
    from hypothesis import given, seed, settings, strategies as st

    names = st.sampled_from(["x", "t", "u1", "2t"])

    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(_tree_strategy(max_exponent=6), names, names)
    def inner(tree, var, param):
        text = print_tree(tree)
        for argv in (["reduce", f"--integrand={text}", "--var", var],
                     ["telescope", f"--integrand={text}", "--var", var, "--param", param],
                     ["galois", f"--integrand={text}", "--var", var, "--param", param],
                     ["picard-fuchs", f"--curve={text}", "--param", param]):
            start = time.perf_counter()
            code, _ = run_command(argv)
            assert code in (0, 1, 2, 3, 4), (argv, code)
            assert time.perf_counter() - start < 10.0, argv

    inner()


def test_bad_variable_names_are_malformed_input():
    # An invalid name, a parameter equal to the integration variable, or a
    # curve variable named w is refused before any computation.
    for argv, detail in (
            (["reduce", "--integrand", "x", "--var", "1x"], "invalid variable name: '1x'"),
            (["telescope", "--integrand", "1/(x-t)", "--var", "x", "--param", "2t"],
             "invalid variable name: '2t'"),
            (["telescope", "--integrand", "1/(x-t)", "--var", "x", "--param", "x"],
             "the parameter 'x' is the integration variable"),
            (["galois", "--integrand", "1/(x-t)", "--var", "x", "--param", "x"],
             "the parameter 'x' is the integration variable"),
            (["picard-fuchs", "--curve", "x^3-t", "--param", "x"],
             "the parameter 'x' is the integration variable"),
            # Reports print the square root on the curve as w.
            (["picard-fuchs", "--curve", "x^3-w", "--param", "w"],
             "the name 'w' is reserved for the square root on the curve w^2 = f"),
            (["picard-fuchs", "--curve", "x^3-t*w"],
             "the name 'w' is reserved for the square root on the curve w^2 = f")):
        code, report = run_command(argv)
        assert code == 4, argv
        assert report.payload == {"status": "malformed-input", "detail": detail}
    done = _python_m_main(["--json", "telescope", "--integrand", "1/(x-t)", "--var", "x",
                           "--param", "2t"], timeout=60)
    assert done.returncode == 4
    assert json.loads(done.stdout)["status"] == "malformed-input"
    assert "Traceback" not in done.stderr


def test_an_oversized_flatten_ansatz_is_refused_quickly(tmp_path):
    # At degree bound 1000 the ansatz of this system has 9 * C(1002, 2)
    # unknowns, far more than a search builds in bounded time and memory.
    # The size is refused before any monomial is built, naming the bound,
    # while small bounds still search.
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"field": {"parametric": ["t1", "t2"]}, "system": {
        "size": 3, "dual": False, "matrices": {
            "t1": [["0", "2/(t1-1)", "0"], ["0", "0", "0"], ["0", "0", "0"]],
            "t2": [["0", "0", "0"], ["0", "0", "3/(t2+1)^2"], ["0", "0", "0"]]}}}))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = _python_m_main(["--json", "flatten", str(path), "--degree-bound", "1000"],
                          timeout=10)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime) < 1.0
    assert done.returncode == 2, done.stderr
    assert json.loads(done.stdout) == {
        "status": "unsupported-input",
        "detail": "degree bound 1000 gives 4513509 ansatz unknowns, outside the "
                  "supported size <= 100000"}
    code, report = run_command(["flatten", str(path), "--degree-bound", "6"])
    assert code == 3
    assert report.payload["degree_bound"] == 6


def test_negative_bounds_are_malformed_input():
    # A negative order bound, form index or degree bound names its flag and
    # exits 4; 0 is a valid bound.
    heisenberg = fixture_path("heisenberg-obstruction")
    for argv, detail in (
            (["telescope", "--integrand", "1/(x-t)", "--var", "x", "--param", "t",
              "--max-order", "-1"], "--max-order must be non-negative, got -1"),
            (["galois", "--integrand", "1/(x-t)", "--var", "x", "--param", "t",
              "--max-order", "-3"], "--max-order must be non-negative, got -3"),
            (["picard-fuchs", "--curve", "x^3-t", "--max-order", "-1"],
             "--max-order must be non-negative, got -1"),
            (["picard-fuchs", "--curve", "x^3-t", "--form", "-1"],
             "--form must be non-negative, got -1"),
            (["flatten", heisenberg, "--degree-bound", "-1"],
             "--degree-bound must be non-negative, got -1")):
        code, report = run_command(argv)
        assert code == 4, argv
        assert report.payload == {"status": "malformed-input", "detail": detail}
    code, report = run_command(["telescope", "--integrand", "1/(x-t)", "--var", "x",
                                "--param", "t", "--max-order", "0"])
    assert code == 3
    assert report.payload["detail"] == "no telescoper up to order 0"
    code, report = run_command(["flatten", heisenberg, "--degree-bound", "0"])
    assert code == 3
    assert report.payload["degree_bound"] == 0


def test_load_problem_refuses_a_curve_variable_named_w():
    doc = {"field": {"principal": "x", "parametric": ["w"]},
           "curve": {"f": "x^3-w"}}
    with pytest.raises(ProblemFileError, match="reserved for the square root"):
        load_problem(doc)
    doc["field"]["parametric"] = ["t"]
    doc["curve"]["f"] = "x^3-t"
    assert load_problem(doc).curve is not None


def test_reduce_splits_a_two_parameter_cubic():
    # Roots over Q(s, t) are rebuilt from an image at an integer s.
    code, report = run_command(["reduce", "--integrand",
                                "1/((x-t-s)*(x-t+s)*(x-2*t-s))", "--var", "x"])
    assert code == 0
    assert set(report.payload["class"]) == {"-s+t", "s+t", "s+2*t"}
    assert not report.payload["class_is_zero"]
    code, report = run_command(["reduce", "--integrand", "1/(x^2-t*s)", "--var", "x"])
    assert code == 2
    assert report.payload["detail"] == "factor of degree 2 in x does not split over Q(s, t)"


def test_run_command_check_gauge_and_flatten_fuzz(tmp_path):
    """Random 2x2 problem files, shaped like the fixtures, through `check`,
    `gauge` and `flatten`: every case ends in a documented exit code, without
    an exception, within a time budget."""
    from hypothesis import given, seed, settings, strategies as st

    def shape(field, names):
        """The field, one matrix per derivation, and a gauge matrix."""
        entry = _tree_strategy(max_exponent=6, names=names).map(print_tree)
        matrix = st.lists(st.lists(entry, min_size=2, max_size=2), min_size=2, max_size=2)
        return st.tuples(st.just(field), st.fixed_dictionaries({s: matrix for s in names}),
                         matrix)

    # With a principal variable x, or over the parameters alone.
    shapes = st.one_of(shape({"principal": "x", "parametric": ["t", "u1"]}, ("x", "t", "u1")),
                       shape({"parametric": ["t", "u1"]}, ("t", "u1")))

    @seed(20261019)
    @settings(max_examples=40, deadline=None, database=None)
    @given(shapes, st.booleans())
    def inner(shape, dual):
        field, matrices, g = shape
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"field": field, "system": {
            "size": 2, "dual": dual, "matrices": matrices}}))
        gauge_file = tmp_path / "gauge.json"
        gauge_file.write_text(json.dumps({"matrix": g}))
        for argv in (["check", str(system), "--mode", "full"],
                     ["check", str(system), "--mode", "pairwise"],
                     ["gauge", str(system), "--matrix", str(gauge_file)],
                     ["flatten", str(system)]):
            start = time.perf_counter()
            code, _ = run_command(argv)
            assert code in (0, 1, 2, 3, 4), (argv, code)
            assert time.perf_counter() - start < 10.0, argv

    inner()


def test_every_exported_name_resolves():
    import importlib

    for package in ("isocert", "isocert.exactalg", "isocert.cli"):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name, None) is not None, (package, name)
        star: dict = {}
        exec(f"from {package} import *", star)
        for name in module.__all__:
            assert star.get(name) is getattr(module, name), (package, name)


# Modules only the file commands, the examples and the Galois and curve
# computations need.
_HEAVY = {"isocert.connection", "isocert.galois", "isocert.curve", "isocert.difftower",
          "isocert.ansatz", "isocert.cli.files", "isocert.cli.examples"}


@pytest.mark.parametrize("argv, code, not_loaded", [
    (["reduce", "--integrand", "1/((x-t)^2*(x-1)) + x", "--var", "x"], 0, _HEAVY),
    (["telescope", "--integrand", "1/((x-t)*(x-1))", "--var", "x", "--param", "t"], 0,
     _HEAVY),
    (["picard-fuchs", "--curve", "x*(x-1)*(x-t)", "--param", "t"], 0,
     _HEAVY - {"isocert.curve"}),
    # The usage error a misplaced --json gets loads no computing module at all.
    (["examples", "run", "all", "--json"], 4, _HEAVY | {"isocert.derham"}),
], ids=["reduce", "telescope", "picard-fuchs", "usage-error"])
def test_a_cold_command_loads_only_the_modules_it_runs(argv, code, not_loaded):
    script = ("import json, sys\n"
              "from isocert.cli.main import run_command\n"
              "code, _ = run_command(json.loads(sys.argv[1]))\n"
              "print(json.dumps([code, sorted(m for m in sys.modules\n"
              "                               if m.startswith('isocert'))]))\n")
    done = _python(["-c", script, json.dumps(argv)], timeout=60)
    assert done.returncode == 0, done.stderr
    got, loaded = json.loads(done.stdout.splitlines()[-1])
    assert got == code
    assert not not_loaded & set(loaded), sorted(not_loaded & set(loaded))


def test_importing_the_package_loads_no_submodule():
    done = _python(["-c", "import sys, isocert; "
                    "print(sorted(m for m in sys.modules if m.startswith('isocert')))"],
                   timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['isocert']"


def test_help_prints_only_the_help():
    for argv, usage in ((["--help"], "usage: isocert [-h]"),
                        (["--json", "reduce", "--help"], "usage: isocert reduce [-h]")):
        done = _python_m_main(argv, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(usage), done.stdout
        assert "argparse" not in done.stdout
        assert not done.stdout.rstrip().endswith("{}")
        assert done.stderr == ""


def test_a_usage_error_is_reported_as_malformed_input():
    cases = [(["reduce", "--var", "x"], "the following arguments are required: --integrand"),
             (["telescope", "--integrand", "x", "--var", "x", "--param", "t",
               "--max-order", "two"], "argument --max-order: invalid int value: 'two'"),
             # --json is an option of isocert, not of its commands.
             (["examples", "run", "all", "--json"], "unrecognized arguments: --json")]
    for argv, detail in cases:
        expected = {"status": "malformed-input", "detail": detail}
        code, report = run_command(argv)
        assert (code, report.command, report.payload) == (4, "argparse", expected)
    argv, detail = cases[0]
    done = _python_m_main(["--json", *argv], timeout=60)
    assert done.returncode == 4
    assert json.loads(done.stdout) == {"status": "malformed-input", "detail": detail}
    assert done.stderr.startswith("usage: isocert reduce")
    done = _python_m_main(argv, timeout=60)
    assert done.returncode == 4
    assert done.stdout == f"== argparse ==\ndetail: {detail}\nstatus: malformed-input\n"


def test_the_self_test_types_stay_dataclasses():
    """perfbench's self-test corrupts outputs with dataclasses.replace on these
    types and deep-copies the rest."""
    import copy
    import dataclasses

    from isocert.cli.files import parse_matrix
    from isocert.connection import (FlattenFound, IntegrabilityReport, ObstructionWitness,
                                    PairVerdict, check_integrability, flatten)
    from isocert.galois import GaloisDescriptor
    from isocert.operators import LinearDiffOperator, TelescoperResult

    for cls in (LinearDiffOperator, TelescoperResult, PairVerdict, IntegrabilityReport,
                ObstructionWitness, GaloisDescriptor):
        assert dataclasses.is_dataclass(cls), cls.__name__
    problem = load_problem(fixture_path("heisenberg-obstruction"))
    system = problem.system
    span = [parse_matrix(problem, m, system.size)
            for m in problem.raw["expect"]["centralizer_span"]]
    out = {"system": system, "full": check_integrability(system, "full"),
           "obstruction": flatten(system, order=system.parametric_symbols(), constraint=span),
           "found": FlattenFound({}, system)}
    bad = copy.deepcopy(out)
    assert bad["system"] is not system and bad["system"].matrices == system.matrices
    assert bad["full"] == out["full"]
    assert bad["obstruction"].witness == out["obstruction"].witness
    assert bad["found"].system.size == system.size


def test_traced_functions_exist():
    """perfbench's layer tracer wraps program functions and methods by name;
    installing it fails when one of them is renamed or deleted."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import isocert.cli.main, spans; spans.install(spans.Tracer())")
    done = _python(["-c", code, os.path.join(root, "perfbench")], timeout=60)
    assert done.returncode == 0, done.stderr


def test_galois_refusal_names_the_telescopers_leading_coefficient():
    # The order-3 telescoper exists, but its leading coefficient has a
    # squarefree factor of degree 12 that does not split over Q, so the
    # rational-solution test refuses.
    argv = ["--integrand", "1/((x-t^2)*(x+t)*(x-1)*(x-t+1))", "--var", "x",
            "--param", "t", "--max-order", "3"]
    code, report = run_command(["--json", "galois", *argv])
    assert code == 2
    assert report.payload["status"] == "unsupported-input"
    assert report.payload["detail"].startswith(
        "telescoper of order 3: its leading coefficient does not split over Q")
    code, report = run_command(["--json", "telescope", *argv])
    assert code == 0
    assert report.payload["order"] == 3


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
    code, _ = run_command(["check", fixture_path("heisenberg-obstruction"),
                           "--mode", "pairwise"])
    assert code == 2
    bad_pair = tmp_path / "bad-pair.json"
    bad_pair.write_text(json.dumps({
        "field": {"principal": "x", "parametric": ["t"]},
        "system": {"size": 1, "matrices": {"x": [["t"]], "t": [["0"]]}}}))
    code, report = run_command(["flatten", str(bad_pair)])
    assert code == 2
    assert "pairwise principal check" in report.payload["detail"]
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
    assert [e["name"] for e in report.payload["examples"]] == list(EXAMPLE_NAMES)


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
