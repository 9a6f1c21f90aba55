"""isomonodromy: connection systems taken through the paper's decisions.

Each item is one system.  Depending on what applies to it, an item runs the
pairwise and the full integrability check, a gauge transformation and the
defects of the gauged system, flatten by the bivariate obstruction route and
by the bounded ansatz, horizontal sections per derivation and jointly, or a
companion system with its constancy descriptor.

The systems are the inputs of five built-in examples (iterated-integrals,
replace-bi, heisenberg-obstruction, per-derivation-triviality,
incomplete-gamma) plus seeded Heisenberg-type systems and companion systems
of seeded telescopers.  Every pass
rebuilds each system from its problem data outside the timed region, so no
tower derivative table or jet carries over from one pass to the next.
"""

from __future__ import annotations

import json
import random
from importlib import resources

from harness import Item, expect

# Degree bound of the horizontal-section ansatz unless a case sets its own.
HS_BOUND = 4


def _fixture(name: str) -> dict:
    path = resources.files("isocert.cli").joinpath(f"fixtures/{name}.json")
    return json.loads(path.read_text(encoding="utf-8"))


def _identity(n: int) -> list[list[str]]:
    return [["1" if i == j else "0" for j in range(n)] for i in range(n)]


def _heisenberg_family(rnd: random.Random, double_pole: bool) -> dict:
    """A_t1 = a*E12, A_t2 = b*E23 over Q(t1, t2): the defect a*b*E13 lies in
    span{Id, E13}.  With a simple pole in b the residue class is nonzero and
    flatten proves an obstruction; with a double pole it finds a move."""
    c1, c2 = rnd.choice([-2, -1, 1, 2, 3]), rnd.choice([-2, -1, 1, 2, 3])
    p1, p2 = rnd.choice([-2, -1, 0, 1, 2]), rnd.choice([-2, -1, 0, 1, 2])
    a = f"{c1}/(t1-({p1}))"
    b = f"{c2}/(t2-({p2}))^2" if double_pole else f"{c2}/(t2-({p2}))"
    return {
        "field": {"parametric": ["t1", "t2"]},
        "system": {"size": 3, "matrices": {
            "t1": [["0", a, "0"], ["0", "0", "0"], ["0", "0", "0"]],
            "t2": [["0", "0", "0"], ["0", "0", b], ["0", "0", "0"]]}},
        "gauge": [["1", f"{rnd.choice([1, 2])}*t1+{rnd.choice([1, 2, 3])}", "0"],
                  ["0", "1", "0"], ["0", "0", "1"]],
        "constraint": [_identity(3),
                       [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]],
    }


def _replace_bi_family(rnd: random.Random) -> dict:
    """The gauge-trivial pair A_s = d_s(e)*E12 over Q(x, t1, t2), with c*t1*Id
    added to A_t2: every principal pair stays flat and exactly (t2, t1)
    breaks, with defect c*Id."""
    # e = k1*x*t1 + k2*t2^2 + k3*x
    k1, k2, k3 = rnd.sample([-3, -2, -1, 1, 2, 3], 3)
    derivs = {"x": f"{k1}*t1 + {k3}", "t1": f"{k1}*x", "t2": f"{2 * k2}*t2"}
    c = rnd.choice([-2, -1, 1, 2])
    mats = {s: [["0", d], ["0", "0"]] for s, d in derivs.items()}
    mats["t2"] = [[f"{c}*t1", derivs["t2"]], ["0", f"{c}*t1"]]
    return {
        "field": {"principal": "x", "parametric": ["t1", "t2"]},
        "system": {"size": 2, "matrices": mats},
        "gauge": [["1", "0"], [f"{rnd.choice([1, 2])}*t2", "1"]],
        "constraint": [_identity(2)],
    }


class SystemCase:
    """Problem data of one system item, readable by the program's loader and
    by the sympy checks alike."""

    def __init__(self, name: str, data: dict, degree_bound: int | None,
                 gauge_base: str = "system", rebase: dict | None = None):
        self.name = name
        self.data = data
        self.degree_bound = degree_bound
        self.gauge_base = gauge_base
        self.rebase = rebase

    # -- program side -----------------------------------------------------

    def prepare(self):
        from isocert.cli.files import load_problem, parse_matrix
        from isocert.galois import DerivationRebase, rebase_derivations

        # The examples' towers are known to commute; skipping the load-time
        # check leaves jet creation and derivative-table fills to the timed
        # decisions instead of the loader.
        problem = load_problem(self.data, tower_consistency="skip")
        system = problem.system
        if self.rebase is not None:
            matrix = tuple(tuple(problem.parse(e) for e in row)
                           for row in self.rebase["matrix"])
            system = rebase_derivations(system, DerivationRebase(
                tuple(self.rebase["new"]), tuple(self.rebase["old"]), matrix))
        if self.gauge_base == "constant_system":
            base = system.with_matrices({
                n: parse_matrix(problem, rows, system.size)
                for n, rows in self.data["constant_system"]["matrices"].items()})
        else:
            base = system
        g = parse_matrix(problem, self.data["gauge"], system.size)
        constraint = [parse_matrix(problem, m, system.size)
                      for m in self.data.get("constraint", [])]
        return system, base, g, constraint

    def run(self, state):
        from isocert.connection import check_integrability, defect, flatten, gauge
        from isocert.galois import horizontal_sections

        system, base, g, constraint = state
        out = {}
        if system.principal is not None:
            out["pairwise"] = check_integrability(system, "pairwise")
        out["full"] = check_integrability(system, "full")
        gauged = gauge(base, g)
        out["gauged"] = gauged.matrices
        syms = system.symbols()
        out["gauged_defects"] = {(u, v): defect(gauged, u, v)
                                 for i, v in enumerate(syms) for u in syms[i + 1:]}
        if constraint:
            out["flatten_bivariate"] = flatten(system, constraint=constraint)
        if self.degree_bound is not None:
            out["flatten_ansatz"] = flatten(system, degree_bound=self.degree_bound)
        bound = self.data.get("hs_bound", HS_BOUND)
        sections = {s: horizontal_sections(system, [s], degree_bound=bound) for s in syms}
        sections["joint"] = horizontal_sections(system, syms, degree_bound=bound)
        out["sections"] = sections
        return out

    def digest(self, out) -> str:
        return json.dumps(_texts(out), sort_keys=True)

    # -- sympy side -------------------------------------------------------

    def _sym_system(self):
        import sympy
        import symcheck

        spec = self.data["field"]
        symbols = ([spec["principal"]] if spec.get("principal") else []) + spec["parametric"]
        gens = {g["name"]: g.get("rules", {})
                for g in spec.get("tower", {}).get("generators", [])}
        mats = {n: symcheck.matrix(rows) for n, rows in self.data["system"]["matrices"].items()}
        if self.data["system"].get("dual"):
            mats = {n: -m.T for n, m in mats.items()}
        if self.rebase is None:
            return symcheck.SymField(symbols, gens), mats
        R = symcheck.matrix(self.rebase["matrix"])
        old = self.rebase["old"]
        combos = {new: [(self.rebase["matrix"][i][j], o) for j, o in enumerate(old)]
                  for i, new in enumerate(self.rebase["new"])}
        new_mats = {new: sum((R[i, j] * mats[o] for j, o in enumerate(old)),
                             sympy.zeros(*mats[old[0]].shape))
                    for i, new in enumerate(self.rebase["new"])}
        return symcheck.SymField(symbols, gens, combos), new_mats

    def check(self, out) -> None:
        import symcheck

        field, mats = self._sym_system()
        texts = _texts(out)
        for mode in ("pairwise", "full"):
            for pair, ok, d_text in texts.get(mode, []):
                h = symcheck.defect(field, mats, *pair)
                expect(symcheck.matrix_is_zero(h) == ok,
                       f"{mode} verdict for {pair} differs from the sympy defect")
                if not ok:
                    expect(symcheck.matrix_is_zero(h - symcheck.matrix(d_text)),
                           f"{mode} defect for {pair} differs from sympy")
        # Gauge: g A g^-1 + d(g) g^-1, and defects conjugate by g.
        g = symcheck.matrix(self.data["gauge"])
        g_inv = g.inv()
        if self.gauge_base == "constant_system":
            base = {n: symcheck.matrix(r)
                    for n, r in self.data["constant_system"]["matrices"].items()}
        else:
            base = mats
        for name, rows in texts["gauged"].items():
            want = g * base[name] * g_inv + field.derive_matrix(g, name) * g_inv
            expect(symcheck.matrix_is_zero(want - symcheck.matrix(rows)),
                   f"gauged matrix for {name} differs from sympy")
        for key, rows in texts["gauged_defects"].items():
            u, v = key.split(",")
            want = g * symcheck.defect(field, base, u, v) * g_inv
            expect(symcheck.matrix_is_zero(want - symcheck.matrix(rows)),
                   f"defect ({u}, {v}) of the gauged system is not g*h*g^-1")
        for route in ("flatten_bivariate", "flatten_ansatz"):
            if route in texts:
                self._check_flatten(field, mats, texts[route])
        for label, basis in texts["sections"].items():
            syms = list(mats) if label == "joint" else [label]
            for Y in basis:
                y = symcheck.matrix([[e] for e in Y])
                for s in syms:
                    expect(symcheck.matrix_is_zero(field.derive_matrix(y, s) - mats[s] * y),
                           f"horizontal section fails d_{s} Y = A_{s} Y")

    def _check_flatten(self, field, mats, outcome) -> None:
        import sympy
        import symcheck

        kind = outcome["outcome"]
        if kind == "found":
            moved = {n: m + symcheck.matrix(outcome["moves"][n]) if n in outcome["moves"] else m
                     for n, m in mats.items()}
            names = list(moved)
            for i, v in enumerate(names):
                for u in names[i + 1:]:
                    expect(symcheck.matrix_is_zero(symcheck.defect(field, moved, u, v)),
                           f"flatten moves leave a nonzero defect for ({u}, {v})")
        elif kind == "obstruction":
            v, u = outcome["pair"]
            residue = symcheck.sym(outcome["residue"])
            pole = symcheck.sym(outcome["pole"])
            expect(symcheck.simple_pole_in_apart(residue, v),
                   "obstruction residue has no simple pole in apart")
            # The residue is the 1/(u - pole) coefficient of the defect's
            # coordinate in the constraint span.
            basis = [symcheck.matrix(m) for m in self.data["constraint"]]
            h = symcheck.defect(field, mats, v, u)
            lam = sympy.symbols(f"lam0:{len(basis)}")
            eqs = list(h - sum((lam[k] * B for k, B in enumerate(basis)),
                               sympy.zeros(*h.shape)))
            sol = sympy.solve(eqs, lam, dict=True)
            expect(len(sol) == 1, "defect does not have unique span coordinates")
            m = int(outcome["component"][len("span["):-1])
            us = sympy.Symbol(u)
            coeff = 0
            for term in sympy.Add.make_args(sympy.apart(sympy.together(sol[0][lam[m]]), us)):
                c = sympy.cancel(term * (us - pole))
                if not c.has(us) and sympy.cancel(term).has(us):
                    coeff += c
            expect(symcheck.same(coeff, residue),
                   "witness residue is not the residue of the defect coordinate")


class CompanionCase:
    """companion_system for an identity D(b) = d_x(a) with an operator
    computed during set-up, once with the true certificate and once with a
    wrong one, plus the constancy descriptor of D."""

    def __init__(self, name: str, data: dict, b: str, a: str, coeffs: list[str]):
        self.name = name
        self.data = data
        self.b, self.a, self.coeffs = b, a, coeffs

    def prepare(self):
        from isocert.cli.files import load_problem
        from isocert.operators import LinearDiffOperator

        problem = load_problem(self.data, tower_consistency="skip")
        op = LinearDiffOperator("t", tuple(problem.parse(c) for c in self.coeffs))
        x = problem.parse("x")
        return problem, op, problem.parse(self.b), problem.parse(self.a), x

    def run(self, state):
        from isocert.connection import check_integrability
        from isocert.galois import companion_system, descriptor_from_operator

        problem, op, b, a, x = state
        good = companion_system(op, b, a, problem.field)
        bad = companion_system(op, b, a + x, problem.field)
        return {
            "flat": check_integrability(good, "full").flat,
            "wrong_certificate_flat": check_integrability(bad, "full").flat,
            "descriptor": descriptor_from_operator(op, problem.registry),
        }

    def digest(self, out) -> str:
        return json.dumps(_texts(out), sort_keys=True)

    def check(self, out) -> None:
        import sympy
        import symcheck

        texts = _texts(out)
        spec = self.data["field"]
        field = symcheck.SymField(
            [spec["principal"]] + spec["parametric"],
            {g["name"]: g.get("rules", {})
             for g in spec.get("tower", {}).get("generators", [])})
        coeffs = symcheck.program_operator(self.coeffs)
        b, a, x = symcheck.sym(self.b), symcheck.sym(self.a), sympy.Symbol("x")
        lhs = symcheck.apply_operator(coeffs, b, lambda e: field.derive(e, "t"))
        expect(symcheck.is_zero(lhs - field.derive(a, "x")) == texts["flat"],
               "companion flatness differs from the sympy certificate identity")
        expect(symcheck.is_zero(lhs - field.derive(a + x, "x")) == texts["wrong_certificate_flat"],
               "companion flatness with a wrong certificate differs from sympy")
        desc = texts["descriptor"]
        t = sympy.Symbol("t")
        for u in desc["rational_solutions"]:
            expect(symcheck.is_zero(symcheck.apply_operator(
                coeffs, symcheck.sym(u), lambda e: sympy.diff(e, t))),
                "a rational solution does not satisfy the operator")
        expect((desc["verdict"] == "constant") == (len(desc["rational_solutions"]) == len(self.coeffs)),
               "constancy verdict does not match the rational solution count")


def _texts(out):
    """Program outputs as plain text, for pass-to-pass comparison and for
    the sympy checks."""
    from isocert.cli.reports import matrix_text, value_text
    from isocert.connection import (FlattenFound, FlattenNotFound, FlattenObstruction,
                                    IntegrabilityReport)
    from isocert.exactalg import RationalFunction
    from isocert.galois import GaloisDescriptor

    def conv(v):
        if isinstance(v, RationalFunction):
            return value_text(v)
        if isinstance(v, IntegrabilityReport):
            return [[list(p.pair), p.ok, matrix_text(p.defect_matrix) if p.defect_matrix else None]
                    for p in v.verdicts]
        if isinstance(v, FlattenFound):
            return {"outcome": "found", "moves": {n: matrix_text(m) for n, m in v.moves.items()}}
        if isinstance(v, FlattenObstruction):
            w = v.witness
            return {"outcome": "obstruction", "pair": list(w.pair), "component": w.component,
                    "pole": conv(w.pole), "residue": conv(w.residue)}
        if isinstance(v, FlattenNotFound):
            return {"outcome": "not-found", "degree_bound": v.degree_bound, "detail": v.detail}
        if isinstance(v, GaloisDescriptor):
            return {"verdict": v.verdict,
                    "rational_solutions": [value_text(u) for u in v.rational_basis]}
        if isinstance(v, dict):
            return {(",".join(k) if isinstance(k, tuple) else k): conv(x) for k, x in v.items()}
        if isinstance(v, list):
            return [conv(x) for x in v]
        return v

    return conv(out)


def build(seed: int) -> list[Item]:
    from isocert.cli.exprio import parse_to_rational
    from isocert.derham import telescoper
    from isocert.exactalg import VariableRegistry, VarKind, format_rational

    rnd = random.Random(seed)
    cases = []
    # Flatten ansatz degree bounds 3-5.  The most expensive systems are fixed
    # examples, so the slowest item of a pass does not depend on the seed.
    ii = _fixture("iterated-integrals")
    ii["gauge"] = ii["gauge_matrix"]
    cases.append(SystemCase("iterated-integrals", ii, degree_bound=3,
                            gauge_base="constant_system"))

    rb = _fixture("replace-bi")
    rb["gauge"] = [["1", "t2"], ["0", "1"]]
    rb["constraint"] = [_identity(2)]
    cases.append(SystemCase("replace-bi", rb, degree_bound=4))

    hz = _fixture("heisenberg-obstruction")
    hz["gauge"] = [["1", "t2", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    hz["constraint"] = hz["expect"]["centralizer_span"]
    cases.append(SystemCase("heisenberg-obstruction", hz, degree_bound=5))

    pd = _fixture("per-derivation-triviality")
    pd["gauge"] = [["t1+1"]]
    pd["hs_bound"] = pd["expect"]["degree_bound"]
    cases.append(SystemCase("per-derivation-triviality", pd, degree_bound=None,
                            rebase=pd["rebase"]))

    cases.append(SystemCase("seeded heisenberg, simple pole",
                            _heisenberg_family(rnd, double_pole=False), degree_bound=4))
    cases.append(SystemCase("seeded heisenberg, double pole",
                            _heisenberg_family(rnd, double_pole=True), degree_bound=3))

    ig = _fixture("incomplete-gamma")
    cases.append(CompanionCase("incomplete-gamma", ig, ig["integrand"]["expression"],
                               ig["certificate"], ig["operator"]["coefficients"]))

    # Operators computed during set-up: telescopers of seeded integrands.
    reg = VariableRegistry()
    reg.add("x", VarKind.PRINCIPAL)
    reg.add("t", VarKind.PARAMETRIC)
    xt = {"field": {"principal": "x", "parametric": ["t"]}}
    pool = [-3, -2, -1, 1, 2, 3]
    for template in ("{c}/((x-(t+{a}))*(x-({b})))", "{c}/((x-(t+{a}))*(x-(2*t+{b})))"):
        a, b = rnd.sample(pool, 2)
        text = template.format(a=a, b=b, c=rnd.choice(pool))
        res = telescoper(parse_to_rational(text, reg), "x", "t")
        cases.append(CompanionCase(f"companion {text}", xt, text,
                                   format_rational(res.certificate),
                                   [format_rational(c) for c in res.operator.coeffs]))

    return [Item(c.name, run=c.run, digest=c.digest, check=c.check, prepare=c.prepare)
            for c in cases]
