"""Differential checks of command outputs against an independent oracle.

Each case runs one command as the console script does (`--json`), reads the
printed payload and checks it in sympy with `perfbench/symcheck.py`, which
recomputes every identity from the inputs and shares no code with the
package.  Each case also corrupts its payload in one way (a defect entry
+ 1, a move dropped, certificate + x, an operator coefficient + 1) and
requires the oracle to reject that.  The inputs are drawn from a fixed seed.
"""

import copy
import json
import random
import sys
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import symcheck  # noqa: E402
from harness import CheckFailed, expect  # noqa: E402

from isocert.cli.main import run_command  # noqa: E402
from isocert.cli.reports import emit_report  # noqa: E402

SEED = 20240611
SYMBOLS = ["t1", "t2"]
IDENTITY = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
E13 = [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]]


def _payload(argv: list[str], code: int) -> dict:
    got, report = run_command(["--json", *argv])
    assert got == code, report.payload
    return json.loads(emit_report(report, "json"))


def _rejected(check, *args) -> None:
    with pytest.raises(CheckFailed):
        check(*args)


def _plus(text: str, term: str) -> str:
    return f"({text})+{term}"


# -- connection systems: check --mode full and flatten --commutant ----------


def _heisenberg(rnd: random.Random, double_pole: bool) -> dict[str, list[list[str]]]:
    """A_t1 = a(t1)*E12 + r(t1)*Id and A_t2 = b(t2)*E23 + s(t2)*Id: the
    defect a*b*E13 lies in span{Id, E13}.  A simple pole in b gives a
    residue class that obstructs flattening; a double pole does not."""
    c1, c2 = rnd.choice([-2, -1, 1, 2, 3]), rnd.choice([-2, -1, 1, 2, 3])
    p1, p2 = rnd.choice([-2, -1, 0, 1, 2]), rnd.choice([-2, -1, 0, 1, 2])
    a = f"{c1}/(t1-({p1}))"
    b = f"{c2}/(t2-({p2}))" + ("^2" if double_pole else "")
    r, s = f"{rnd.randint(-3, 3)}*t1", f"{rnd.randint(-3, 3)}*t2^2"
    return {"t1": [[r, a, "0"], ["0", r, "0"], ["0", "0", r]],
            "t2": [[s, "0", "0"], ["0", s, b], ["0", "0", s]]}


def _sym_mats(mats: dict) -> dict:
    return {name: symcheck.matrix(rows) for name, rows in mats.items()}


def check_full_report(mats: dict, payload: dict) -> None:
    """Every unordered pair once, each verdict and printed defect equal to
    the sympy defect of the printed pair."""
    field = symcheck.SymField(SYMBOLS)
    sm = _sym_mats(mats)
    pairs = [tuple(p["pair"]) for p in payload["pairs"]]
    expect(sorted(map(sorted, pairs)) == [sorted(SYMBOLS)], "pairs are not every pair once")
    for p in payload["pairs"]:
        h = symcheck.defect(field, sm, *p["pair"])
        expect(symcheck.matrix_is_zero(h) == p["ok"], "pair verdict differs from sympy")
        if not p["ok"]:
            expect(symcheck.matrix_is_zero(h - symcheck.matrix(p["defect"])),
                   "printed defect differs from sympy")
    expect(payload["flat"] == all(p["ok"] for p in payload["pairs"]),
           "flat verdict differs from the pair verdicts")


def check_flatten(mats: dict, span: list, payload: dict) -> None:
    """A found move leaves every sympy defect zero.  An obstruction's witness
    residue is the residue at the witness pole of the defect's span
    coordinate, and it has a simple pole in the other parameter."""
    field = symcheck.SymField(SYMBOLS)
    sm = _sym_mats(mats)
    if payload["outcome"] == "found":
        moves = payload["moves"]
        moved = {n: m + symcheck.matrix(moves[n]) if n in moves else m
                 for n, m in sm.items()}
        expect(symcheck.matrix_is_zero(symcheck.defect(field, moved, "t2", "t1")),
               "the moves leave a nonzero defect")
        return
    expect(payload["outcome"] == "obstruction", "unknown flatten outcome")
    v, u = payload["pair"]
    residue = symcheck.sym(payload["witness_residue"])
    pole = symcheck.sym(payload["witness_pole"])
    expect(symcheck.simple_pole_in_apart(residue, v), "witness residue has no simple pole")
    h = symcheck.defect(field, sm, v, u)
    basis = [symcheck.matrix(m) for m in span]
    lam = sympy.symbols(f"lam0:{len(basis)}")
    sol = sympy.solve(list(h - sum((lam[k] * B for k, B in enumerate(basis)),
                                   sympy.zeros(*h.shape))), lam, dict=True)
    expect(len(sol) == 1, "defect has no unique span coordinates")
    coordinate = sol[0][lam[int(payload["component"][len("span["):-1])]]
    us = sympy.Symbol(u)
    expect(symcheck.same(sympy.residue(coordinate, us, pole), residue),
           "witness residue is not the residue of the defect coordinate")


def _moves_dropped(payload: dict) -> dict:
    """A found payload without its first nonzero move; an obstruction
    claimed as found with no moves."""
    if payload["outcome"] != "found":
        return {"outcome": "found", "moves": {}, "flat": True}
    moves = dict(payload["moves"])
    name = next(n for n, rows in moves.items() if any(e != "0" for row in rows for e in row))
    del moves[name]
    return {**payload, "moves": moves}


def test_check_and_flatten_match_sympy(tmp_path):
    rnd = random.Random(SEED)
    span_path = tmp_path / "span.json"
    span_path.write_text(json.dumps({"matrices": [IDENTITY, E13]}), encoding="utf-8")
    for k, double_pole in enumerate((False, True, True)):
        mats = _heisenberg(rnd, double_pole)
        path = tmp_path / f"system{k}.json"
        path.write_text(json.dumps({"field": {"parametric": SYMBOLS},
                                    "system": {"size": 3, "matrices": mats}}),
                        encoding="utf-8")
        report = _payload(["check", str(path), "--mode", "full"], 1)
        check_full_report(mats, report)
        bad = copy.deepcopy(report)
        failing = next(p for p in bad["pairs"] if not p["ok"])
        failing["defect"][0][0] = _plus(failing["defect"][0][0], "1")
        _rejected(check_full_report, mats, bad)

        found = _payload(["flatten", str(path), "--commutant", str(span_path)],
                         0 if double_pole else 1)
        assert found["outcome"] == ("found" if double_pole else "obstruction")
        check_flatten(mats, [IDENTITY, E13], found)
        _rejected(check_flatten, mats, [IDENTITY, E13], _moves_dropped(found))


# -- reduce: f = d_x(certificate) + sum residue / (x - pole) ----------------


def check_reduction(integrand: str, payload: dict) -> None:
    """Compared in the sympy field Q(x, s, t), where equality is exact."""
    K, x, _, _ = sympy.polys.fields.field("x,s,t", sympy.QQ)

    def value(text: str):
        return K.from_expr(symcheck.sym(text))

    total = value(payload["certificate"]).diff(x)
    for pole, residue in payload["class"].items():
        total += value(residue) / (x - value(pole))
    expect(total == value(integrand), "f != d_x(certificate) + sum residue/(x - pole)")
    expect(payload["class_is_zero"] == (not payload["class"]),
           "class_is_zero disagrees with the class")


def _reduce_integrand(rnd: random.Random) -> str:
    """1 to 4 distinct x-linear poles of order at most 5 over Q(t), a
    numerator of degree at most 2 and a polynomial part."""
    factors = [f"(x-({a}*t+{b}))" for a in (0, 1, 2) for b in (-2, 1, 3)]
    factors += ["(2*x-t)", "(3*x+t)", "(t*x-1)"]
    den = "*".join(f"{q}^{rnd.randint(1, 5)}"
                   for q in rnd.sample(factors, rnd.randint(1, 4)))
    num = f"{rnd.randint(1, 4)}*x^{rnd.randint(0, 2)} + ({rnd.randint(-3, 3)})*t"
    return f"({num})/({den}) + {rnd.randint(1, 3)}*x^2 - t*x"


def test_reduce_matches_sympy():
    rnd = random.Random(SEED)
    integrands = [_reduce_integrand(rnd) for _ in range(4)]
    integrands.append("(x+s)/((x-t)^2*(x-s)^3*(s*x-t)) + s*t*x")
    for integrand in integrands:
        payload = _payload(["reduce", f"--integrand={integrand}", "--var", "x"], 0)
        check_reduction(integrand, payload)
        _rejected(check_reduction, integrand,
                  {**payload, "certificate": _plus(payload["certificate"], "x")})


# -- telescope and picard-fuchs: D(b) = d_x(certificate) ---------------------


def _coefficient_plus_one(coeffs: list) -> list:
    return [coeffs[0] + 1, *coeffs[1:]]


def _operator(payload: dict) -> list:
    """a_0..a_n of the printed monic operator in d_t."""
    coeffs = symcheck.operator_coeffs(payload["operator"], "t")
    assert payload["order"] == len(coeffs) - 1
    return coeffs


def test_telescope_matches_sympy():
    rnd = random.Random(SEED)
    a, b, c = rnd.sample([-3, -2, -1, 1, 2, 3], 3)
    for integrand in (f"{c}/((x-(t+{a}))*(x-({b})))",
                      f"(x+({a}))/((x-({b})*t)^2*(2*x+({c})))"):
        payload = _payload(["telescope", f"--integrand={integrand}", "--var", "x",
                            "--param", "t"], 0)
        coeffs = _operator(payload)
        cert = symcheck.sym(payload["certificate"])
        symcheck.check_telescoper(integrand, coeffs, cert)
        _rejected(symcheck.check_telescoper, integrand, _coefficient_plus_one(coeffs), cert)


# The quartic's form 0: its forms 1 and 2 have order-3 operators whose sympy
# check takes seconds each.
@pytest.mark.parametrize("curve, form", [
    ("x*(x-1)*(x-t)", 0),
    ("x*(x-1)*(x-t)", 1),
    ("(t^2+1)*x^4-3*x^3+t*x+2", 0),
])
def test_picard_fuchs_matches_sympy(curve, form):
    payload = _payload(["picard-fuchs", f"--curve={curve}", "--form", str(form),
                        "--param", "t"], 0)
    coeffs = _operator(payload)
    w = sympy.Symbol("w")
    cert = symcheck.sym(payload["certificate"])
    even, odd = cert.subs(w, 0), sympy.diff(cert, w)
    symcheck.check_picard_fuchs(curve, form, coeffs, even, odd)
    _rejected(symcheck.check_picard_fuchs, curve, form, _coefficient_plus_one(coeffs),
              even, odd)
