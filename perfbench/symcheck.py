"""Independent checks in sympy.

Every check recomputes an identity from the inputs the benchmark generated
(as expression text) and from the program's printed outputs; none compares
against a saved copy of an earlier output.  Expressions use the program's
grammar (``^`` for powers), and every identifier is read as a plain symbol.
Workloads import this module only when they check, so sympy is not loaded
while the program is timed or its memory measured.
"""

from __future__ import annotations

import re

import sympy

from harness import CheckFailed, expect

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def sym(text: str) -> sympy.Expr:
    names = {n: sympy.Symbol(n) for n in _IDENT.findall(text)}
    return sympy.parse_expr(text.replace("^", "**"), local_dict=names)


def is_zero(expr) -> bool:
    return sympy.cancel(sympy.together(expr)) == 0


def same(a, b) -> bool:
    return is_zero(a - b)


def operator_coeffs(text: str, symbol: str) -> list:
    """Coefficients a_0..a_n of a printed monic operator such as
    ``Dt^2 + (1/t)*Dt - 1/4``; a_n is 1."""
    d = sympy.Symbol("__D")
    expr = sym(text.replace(f"D{symbol}", "__D"))
    poly = sympy.Poly(sympy.expand(expr), d)
    n = poly.degree()
    coeffs = [sympy.cancel(poly.coeff_monomial(d ** i)) for i in range(n + 1)]
    expect(coeffs[n] == 1, "printed operator is not monic")
    return coeffs


def apply_operator(coeffs: list, y, derive) -> sympy.Expr:
    """sum coeffs[i] * derive^i(y)."""
    total = 0
    d = y
    for i, c in enumerate(coeffs):
        if c != 0:
            total += c * d
        if i + 1 < len(coeffs):
            d = derive(d)
    return total


def qx_field():
    """Q(x, t) as a sympy rational function field, with its generators."""
    field, x, t = sympy.polys.fields.field("x,t", sympy.QQ)
    return field, {"x": x, "t": t}


def program_operator(coeffs_text: list[str]) -> list:
    """The program stores D = d^n - sum c_i d^i; return a_0..a_n, a_n = 1."""
    return [-sym(c) for c in coeffs_text] + [sympy.Integer(1)]


def check_telescoper(b_text: str, coeffs: list, cert) -> None:
    """D(b) = d_x(certificate) in Q(x, t), for D = sum coeffs[i] d_t^i."""
    K, g = qx_field()
    lhs = apply_operator([K.from_expr(c) for c in coeffs], K.from_expr(sym(b_text)),
                         lambda e: e.diff(g["t"]))
    expect(lhs == K.from_expr(cert).diff(g["x"]), "telescoper identity fails in sympy")


def check_picard_fuchs(f_text: str, form: int, coeffs: list, even, odd) -> None:
    """D(x^i / w) = d_x(even + odd*w) on w^2 = f, for D = sum coeffs[i] d_t^i.
    An element A + B*w is a pair (A, B) of elements of Q(x, t); since
    w = sqrt(f), a derivation d acts as d(A + B*w) = d(A) + (d(B) + B*d(f)/(2f))*w."""
    K, g = qx_field()
    f = K.from_expr(sym(f_text))

    def derive(pair, v):
        a, b = pair
        return a.diff(v), b.diff(v) + b * f.diff(v) / (2 * f)

    d = (K.zero, g["x"] ** form / f)
    lhs_even, lhs_odd = K.zero, K.zero
    for i, c in enumerate(coeffs):
        c = K.from_expr(c)
        lhs_even += c * d[0]
        lhs_odd += c * d[1]
        if i + 1 < len(coeffs):
            d = derive(d, g["t"])
    rhs = derive((K.from_expr(even), K.from_expr(odd)), g["x"])
    expect((lhs_even, lhs_odd) == rhs, "Picard-Fuchs identity fails in sympy")


class SymField:
    """Derivations on sympy expressions: plain partial derivatives over
    Q(variables), a tower of named generators with derivative rules and
    lazily named jets, or derivations rebased as field combinations."""

    def __init__(self, symbols: list[str], generators: dict[str, dict[str, str]] | None = None,
                 combos: dict[str, list[tuple[str, str]]] | None = None):
        self.symbols = list(symbols)
        self.rules = {g: {s: sym(r) for s, r in rules.items()}
                      for g, rules in (generators or {}).items()}
        self.combos = {new: [(sym(c), old) for c, old in combo]
                       for new, combo in (combos or {}).items()}

    def _jet(self, name: str):
        for gen in sorted(self.rules, key=len, reverse=True):
            if name == gen:
                return gen, {}
            if name.startswith(gen + "_"):
                parts = name[len(gen) + 1:].split("_")
                if all(p in self.symbols for p in parts):
                    counts: dict[str, int] = {}
                    for p in parts:
                        counts[p] = counts.get(p, 0) + 1
                    return gen, counts
        raise CheckFailed(f"no derivation rule for {name!r}")

    def _jet_symbol(self, gen: str, counts: dict[str, int]) -> sympy.Symbol:
        parts = [s for s in self.symbols for _ in range(counts.get(s, 0))]
        return sympy.Symbol(gen + "_" + "_".join(parts)) if parts else sympy.Symbol(gen)

    def _var(self, name: str, s: str):
        if name in self.symbols:
            return sympy.Integer(1 if name == s else 0)
        gen, counts = self._jet(name)
        rule = self.rules[gen].get(s)
        if rule is None:
            bumped = dict(counts)
            bumped[s] = bumped.get(s, 0) + 1
            return self._jet_symbol(gen, bumped)
        value = rule
        for free_sym in self.symbols:
            for _ in range(counts.get(free_sym, 0)):
                value = self.derive(value, free_sym)
        return value

    def derive(self, expr, s: str):
        if s in self.combos:
            return sum((c * self.derive(expr, old) for c, old in self.combos[s]),
                       sympy.Integer(0))
        total = sympy.Integer(0)
        for v in expr.free_symbols:
            dv = self._var(v.name, s)
            if dv != 0:
                total += sympy.diff(expr, v) * dv
        return total

    def derive_matrix(self, m: sympy.Matrix, s: str) -> sympy.Matrix:
        return m.applyfunc(lambda e: self.derive(e, s))


def matrix(rows: list[list[str]]) -> sympy.Matrix:
    return sympy.Matrix([[sym(e) for e in row] for row in rows])


def matrix_is_zero(m: sympy.Matrix) -> bool:
    return all(is_zero(e) for e in m)


def defect(field: SymField, mats: dict[str, sympy.Matrix], u: str, v: str) -> sympy.Matrix:
    """d_u A_v - d_v A_u - [A_u, A_v], computed here independently."""
    Au, Av = mats[u], mats[v]
    return field.derive_matrix(Av, u) - field.derive_matrix(Au, v) - (Au * Av - Av * Au)


def simple_pole_in_apart(expr, var: str) -> bool:
    """True when apart(expr, var) has a term c/(var - p) with c != 0."""
    v = sympy.Symbol(var)
    for term in sympy.Add.make_args(sympy.apart(sympy.together(expr), v)):
        _, den = sympy.fraction(sympy.factor(term))
        for factor in sympy.Mul.make_args(den):
            base, exp = factor.as_base_exp()
            if exp == 1 and base.has(v) and sympy.degree(base, v) == 1:
                return True
    return False
