"""Built-in reproduction suite: named fixtures with expected outcomes stored
as data.  Each runner loads its fixture, performs the computation, asserts
every expectation exactly and returns a Report; a failed expectation raises
ExampleFailure."""

from __future__ import annotations

from importlib import resources

from ..connection import (FlattenObstruction, centralizer, check_integrability,
                          defect, flatten, gauge)
from ..curve import CurveContext, curve_derive, curve_reduce, picard_fuchs
from ..exactalg import (RationalFunction, linear_solve, mat_eq, mat_is_zero)
from ..galois import (DerivationRebase, companion_system,
                      descriptor_from_operator, horizontal_sections,
                      rebase_derivations)
from ..operators import LinearDiffOperator
from .files import LoadedProblem, load_problem, parse_matrix
from .reports import (EXAMPLE_NAMES, ExampleFailure, ProblemFileError, Report,
                      matrix_text, operator_text, value_text)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ExampleFailure(message)


def load_fixture(name: str) -> LoadedProblem:
    if name not in EXAMPLE_NAMES:
        raise ProblemFileError(f"unknown example {name!r}")
    return load_problem(fixture_path(name))


def fixture_path(name: str) -> str:
    return str(resources.files("isocert.cli").joinpath(f"fixtures/{name}.json"))


def run_example(name: str) -> Report:
    runner = _RUNNERS[name]
    return runner()


def run_all() -> list[Report]:
    return [run_example(name) for name in EXAMPLE_NAMES]


def _span_equal(basis_a, basis_b, field) -> bool:
    """Equality of matrix spans over the field, both directions."""
    def contains(basis, mats) -> bool:
        if not basis:
            return all(mat_is_zero(m, field.zero) for m in mats)
        n = len(basis[0])
        rows = [{k: basis[k][i][j] for k in range(len(basis))}
                for i in range(n) for j in range(n)]
        for m in mats:
            rhs = [m[i][j] for i in range(n) for j in range(n)]
            if linear_solve(rows, rhs, len(basis), field.zero, field.one).inconsistent:
                return False
        return True

    return contains(basis_a, basis_b) and contains(basis_b, basis_a)


def run_heisenberg() -> Report:
    problem = load_fixture("heisenberg-obstruction")
    expect = problem.raw["expect"]
    system = problem.system
    u, v = expect["defect_pair"]
    d = defect(system, u, v)
    want = parse_matrix(problem, expect["defect_matrix"], system.size)
    _expect(mat_eq(d, want), "defect matrix differs from the expected one")

    gens = [parse_matrix(problem, m, system.size)
            for m in problem.raw["commutant_generators"]]
    basis = centralizer(gens, problem.field)
    want_span = [parse_matrix(problem, m, system.size)
                 for m in expect["centralizer_span"]]
    _expect(len(basis) == len(want_span), "centralizer dimension differs")
    _expect(_span_equal(basis, want_span, problem.field),
            "centralizer span differs")

    outcome = flatten(system, order=system.parametric_symbols(), constraint=want_span)
    _expect(isinstance(outcome, FlattenObstruction), "flatten did not prove an obstruction")
    witness = outcome.witness
    _expect(witness.pole == problem.parse(expect["witness_pole"]),
            "witness pole differs")
    _expect(witness.residue == problem.parse(expect["witness_residue"]),
            "witness residue differs")
    _expect(witness.residue_class is not None and not witness.residue_class.is_zero(),
            "witness residue class should be nonzero")

    return Report("examples run heisenberg-obstruction", {
        "name": "heisenberg-obstruction",
        "status": "pass",
        "defect_pair": [u, v],
        "defect": matrix_text(d),
        "centralizer_dimension": len(basis),
        "flatten": "ProvenObstruction",
        "witness": {
            "pole": value_text(witness.pole),
            "residue": value_text(witness.residue),
            "residue_class_zero": witness.residue_class.is_zero(),
        },
    })


def run_iterated_integrals() -> Report:
    problem = load_fixture("iterated-integrals")
    expect = problem.raw["expect"]
    system = problem.system
    pairwise = check_integrability(system, "pairwise")
    _expect(pairwise.flat == expect["pairwise"], "pairwise verdict differs")
    full = check_integrability(system, "full")
    _expect(full.flat == expect["full"], "full verdict differs")
    u, v = expect["failing_pair"]
    _expect(full.failing_pairs() == [(u, v)], "failing pair set differs")
    d = defect(system, u, v)
    want = parse_matrix(problem, expect["defect_matrix"], system.size)
    _expect(mat_eq(d, want), "joint defect differs")

    constant = problem.raw["constant_system"]
    const_mats = {name: parse_matrix(problem, rows, system.size)
                  for name, rows in constant["matrices"].items()}
    base = system.with_matrices(const_mats)
    phi = parse_matrix(problem, problem.raw["gauge_matrix"], system.size)
    gauged = gauge(base, phi)
    same = all(mat_eq(gauged.matrices[name], system.matrices[name])
               for name in system.symbols())
    _expect(same == expect["gauge_reproduces_system"],
            "gauge of the constant pair does not reproduce the displayed system")

    return Report("examples run iterated-integrals", {
        "name": "iterated-integrals",
        "status": "pass",
        "pairwise_flat": pairwise.flat,
        "full_flat": full.flat,
        "failing_pair": [u, v],
        "defect": matrix_text(d),
        "gauge_reproduces_system": same,
    })


def run_legendre() -> Report:
    problem = load_fixture("legendre")
    expect = problem.raw["expect"]
    curve = problem.curve
    spec = problem.raw["curve"]
    result = picard_fuchs(curve, spec.get("form", 0), spec.get("param", "t"))
    _expect(result.operator.order == expect["order"], "operator order differs")
    factor = problem.parse(expect["scale_factor"])
    scaled = result.operator.scaled_coefficients(factor)
    want = [problem.parse(c) for c in expect["scaled_coefficients"]]
    _expect(len(scaled) == len(want) and all(a == b for a, b in zip(scaled, want)),
            "scaled coefficients differ from the displayed operator")

    cert_scale = problem.parse(expect["certificate_scale"])
    scaled_cert = result.certificate * cert_scale
    _expect(scaled_cert.even.is_zero(), "certificate has an unexpected even part")
    _expect(scaled_cert.odd == problem.parse(expect["certificate_odd_part"]),
            "certificate differs from the displayed one")

    # The displayed non-monic operator annihilates dx/w up to d/dx of the
    # displayed certificate, identically modulo w^2 = f.
    ctx = CurveContext(curve)
    b = curve.basis_form(0)
    applied = result.operator.apply(ctx, b) * factor
    _expect((applied - curve_derive(scaled_cert, curve.x_name)).is_zero(),
            "certificate identity fails")

    # Minimality: the order-1 dependence search must be inconsistent.
    r0 = curve_reduce(b)
    r1 = curve_reduce(curve_derive(b, spec.get("param", "t")))
    rows = [{0: r0.h1.coords[i]} for i in range(curve.basis_size())]
    rhs = [-r1.h1.coords[i] for i in range(curve.basis_size())]
    zero = RationalFunction.const(0, curve.registry)
    one = RationalFunction.const(1, curve.registry)
    sol = linear_solve(rows, rhs, 1, zero, one)
    _expect(sol.inconsistent == expect["minimality_order_1_inconsistent"],
            "order-1 minimality check differs")

    return Report("examples run legendre", {
        "name": "legendre",
        "status": "pass",
        "operator": operator_text(result.operator),
        "order": result.operator.order,
        "scaled_coefficients": [value_text(c) for c in scaled],
        "certificate": value_text(result.certificate),
        "scaled_certificate": value_text(scaled_cert),
        "order_1_inconsistent": sol.inconsistent,
    })


def run_incomplete_gamma() -> Report:
    problem = load_fixture("incomplete-gamma")
    expect = problem.raw["expect"]
    tower = problem.tower
    op_spec = problem.raw["operator"]
    coeffs = tuple(problem.parse(c) for c in op_spec["coefficients"])
    operator = LinearDiffOperator(op_spec["param"], coeffs)
    b = problem.parse(problem.raw["integrand"]["expression"])
    a = problem.parse(problem.raw["certificate"])
    x_name = problem.raw["integrand"]["var"]

    lhs = operator.apply(tower, b)
    rhs = tower.derive(a, x_name)
    _expect((lhs == rhs) == expect["identity_holds"], "tower identity differs")

    system = companion_system(operator, b, a, tower, x_name=x_name)
    flat = check_integrability(system, "full").flat
    _expect(flat == expect["companion_flat"], "companion flatness differs")

    descriptor = descriptor_from_operator(operator, problem.registry)
    _expect(len(descriptor.rational_basis) == expect["rational_solution_dimension"],
            "rational solution dimension differs")
    _expect(descriptor.verdict == expect["verdict"], "verdict differs")

    return Report("examples run incomplete-gamma", {
        "name": "incomplete-gamma",
        "status": "pass",
        "operator": operator_text(operator),
        "identity_holds": lhs == rhs,
        "companion_flat": flat,
        "rational_solution_dimension": len(descriptor.rational_basis),
        "verdict": descriptor.verdict,
    })


def run_replace_bi() -> Report:
    problem = load_fixture("replace-bi")
    expect = problem.raw["expect"]
    system = problem.system
    pairwise = check_integrability(system, "pairwise")
    _expect(pairwise.flat == expect["pairwise"], "pairwise verdict differs")
    full = check_integrability(system, "full")
    _expect(full.flat == expect["full"], "full verdict differs")
    u, v = expect["failing_pair"]
    _expect(full.failing_pairs() == [(u, v)], "failing pairs differ")
    d = defect(system, v, u)
    want = parse_matrix(problem, expect["defect_t1_t2"], system.size)
    _expect(mat_eq(d, want), "defect of the broken pair differs")
    return Report("examples run replace-bi", {
        "name": "replace-bi",
        "status": "pass",
        "pairwise_flat": pairwise.flat,
        "full_flat": full.flat,
        "failing_pair": [u, v],
        "defect_t1_td": matrix_text(d),
    })


def run_per_derivation_triviality() -> Report:
    problem = load_fixture("per-derivation-triviality")
    expect = problem.raw["expect"]
    spec = problem.raw["rebase"]
    matrix = tuple(tuple(problem.parse(e) for e in row) for row in spec["matrix"])
    rebase = DerivationRebase(tuple(spec["new"]), tuple(spec["old"]), matrix)
    rebased = rebase_derivations(problem.system, rebase)
    bound = expect["degree_bound"]
    d1, d2 = spec["new"]
    sections_1 = horizontal_sections(rebased, [d1], degree_bound=bound)
    _expect(bool(sections_1) == expect["d1_sections_nonzero"],
            "first-direction sections differ")
    sections_2 = horizontal_sections(rebased, [d2], degree_bound=bound)
    want_2 = [[problem.parse(e) for e in row] for row in expect["d2_sections"]]
    _expect(len(sections_2) == len(want_2)
            and all(a == b for Y, W in zip(sections_2, want_2) for a, b in zip(Y, W)),
            "second-direction sections differ")
    joint = horizontal_sections(rebased, [d1, d2], degree_bound=bound)
    _expect((not joint) == expect["joint_sections_empty"], "joint sections differ")
    return Report("examples run per-derivation-triviality", {
        "name": "per-derivation-triviality",
        "status": "pass",
        "d1_section_count": len(sections_1),
        "d2_sections": [[value_text(e) for e in Y] for Y in sections_2],
        "joint_section_count": len(joint),
        "degree_bound": bound,
    })


# In the order of EXAMPLE_NAMES.
_RUNNERS = dict(zip(EXAMPLE_NAMES, (
    run_heisenberg, run_iterated_integrals, run_legendre, run_incomplete_gamma,
    run_replace_bi, run_per_derivation_triviality)))
