"""cli-cold: one cold process per command, started the way the ``isocert``
console script starts ``isocert.cli.main:main``.

Commands: reduce, telescope, picard-fuchs, galois, check, flatten and
examples run all, each in human and --json form, on seeded inputs; the
problem files for check and flatten are written into the run's work
directory.  One more item, picard-fuchs on the degree-5 curve x^5-t, must
exit 2 with an unsupported-input report; it fails every time today.

Children run one at a time.  Each child is timed from the start of process
creation to its exit, and its peak resident memory comes from wait4.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
from time import perf_counter

from harness import ITEM_LIMIT_S, Item, ItemFailed, expect
import wl_isomonodromy

CONSOLE = ("import sys; sys.path.insert(0, {src!r}); "
           "from isocert.cli.main import main; sys.exit(main())")
KNOWN_FAULT = ["--json", "picard-fuchs", "--curve", "x^5-t", "--param", "t"]


class Child:
    """How children are started: plain (as the console script), or through
    the tracing wrapper that writes per-layer figures to a file."""

    def __init__(self, root: str, work: str, traced: bool):
        self.root = root
        self.work = work
        self.traced = traced
        self.peak_kb = 0
        self.layers: dict[str, float] = {}
        self.keep_spans = False

    def reset_pass(self) -> None:
        self.layers = {}

    def layer_totals(self, _=None) -> dict[str, float]:
        """Per-layer figures of the children run since the last reset."""
        return dict(self.layers)

    def command(self, argv: list[str]) -> tuple[list[str], dict]:
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        if not self.traced:
            code = CONSOLE.format(src=os.path.join(self.root, "src"))
            return [sys.executable, "-c", code, *argv], env
        env["PERFBENCH_TRACE_OUT"] = self.trace_path()
        return [sys.executable, os.path.join(self.root, "perfbench", "cli_child.py"), *argv], env

    def trace_path(self) -> str:
        return os.path.join(self.work, "child-layers.json")

    def run(self, argv: list[str]) -> tuple[dict, float]:
        cmd, env = self.command(argv)
        out_path = os.path.join(self.work, "child.out")
        err_path = os.path.join(self.work, "child.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=self.root, env=env)
            timer = threading.Timer(ITEM_LIMIT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            seconds = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if self.traced and os.path.exists(self.trace_path()):
            with open(self.trace_path(), encoding="utf-8") as handle:
                for key, value in json.load(handle).items():
                    self.layers[key] = self.layers.get(key, 0.0) + value
            os.remove(self.trace_path())
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        if proc.returncode < 0:
            raise ItemFailed(f"killed after the {ITEM_LIMIT_S:g} s item limit", seconds)
        if "Traceback (most recent call last)" in stderr:
            last = stderr.strip().splitlines()[-1]
            raise ItemFailed(f"exit {proc.returncode} with a traceback: {last}", seconds)
        return {"code": proc.returncode, "stdout": stdout}, seconds


def parse_human(text: str) -> dict:
    """Top-level ``key: value`` lines of a human report, plus one level of
    ``key:`` blocks with indented ``k: v`` lines."""
    out: dict = {}
    block = None
    for line in text.splitlines()[1:]:
        if not line.strip():
            continue
        if not line.startswith(" "):
            key, _, value = line.partition(":")
            value = value.strip()
            if value:
                out[key] = {"True": True, "False": False}.get(value, value)
                block = None
            else:
                block = out[key] = {}
        elif block is not None and ": " in line:
            k, _, v = line.strip().partition(": ")
            block[k] = v
    return out


def _curve_parts(text: str):
    import sympy
    import symcheck

    w = sympy.Symbol("w")
    expr = symcheck.sym(text)
    return expr.subs(w, 0), sympy.diff(expr, w)


def verify_reduce(integrand):
    def verify(p, deep):
        import sympy
        import symcheck

        x = sympy.Symbol("x")
        total = symcheck.sym(p["certificate"]).diff(x)
        for pole, res in p["class"].items():
            total += symcheck.sym(res) / (x - symcheck.sym(pole))
        expect(symcheck.same(total, symcheck.sym(integrand)),
               "f != d_x(certificate) + sum residue/(x - pole)")
        expect(p["class_is_zero"] == (not p["class"]), "class_is_zero disagrees with the class")
    return verify


def verify_telescope(integrand):
    def verify(p, deep):
        import symcheck

        coeffs = symcheck.operator_coeffs(p["operator"], "t")
        symcheck.check_telescoper(integrand, coeffs, symcheck.sym(p["certificate"]))
        expect(int(p["order"]) == len(coeffs) - 1, "order disagrees with the operator")
    return verify


def verify_picard_fuchs(curve, form):
    def verify(p, deep):
        import symcheck

        coeffs = symcheck.operator_coeffs(p["operator"], "t")
        even, odd = _curve_parts(p["certificate"])
        symcheck.check_picard_fuchs(curve, form, coeffs, even, odd)
    return verify


def verify_galois(p, deep):
    import sympy
    import symcheck

    coeffs = symcheck.operator_coeffs(p["operator"], "t")
    if not deep:
        return
    t = sympy.Symbol("t")
    sols = p["rational_solutions"]
    for u in sols:
        expect(symcheck.is_zero(symcheck.apply_operator(
            coeffs, symcheck.sym(u), lambda e: sympy.diff(e, t))),
            "a rational solution does not satisfy the operator")
    expect((p["verdict"] == "constant") == (len(sols) == len(coeffs) - 1),
           "constancy verdict does not match the rational solution count")


def verify_check(case):
    def verify(p, deep):
        expect(p["flat"] is False, "the seeded system breaks one pair")
        if not deep:
            return
        import symcheck

        field, mats = case._sym_system()
        for pair in p["pairs"]:
            h = symcheck.defect(field, mats, *pair["pair"])
            expect(symcheck.matrix_is_zero(h) == pair["ok"], "pair verdict differs from sympy")
            if not pair["ok"]:
                expect(symcheck.matrix_is_zero(h - symcheck.matrix(pair["defect"])),
                       "printed defect differs from sympy")
    return verify


def verify_flatten(case):
    def verify(p, deep):
        expect(p["outcome"] == "found", "flatten should find a move")
        if deep:
            field, mats = case._sym_system()
            case._check_flatten(field, mats, {"outcome": "found", "moves": p["moves"]})
    return verify


def verify_examples(p, deep):
    expect(p["all_pass"] is True, "examples did not all pass")
    if not deep:
        return
    import sympy
    import symcheck

    by_name = {e["name"]: e for e in p["examples"]}
    expect(set(by_name) == {"heisenberg-obstruction", "iterated-integrals", "legendre",
                            "incomplete-gamma", "replace-bi", "per-derivation-triviality"},
           "examples are missing")
    t, t1, t2 = sympy.symbols("t t1 t2")
    expect(symcheck.same(symcheck.sym(by_name["heisenberg-obstruction"]["defect"][0][2]),
                         1 / (t1 * t2)), "Heisenberg defect differs")
    # 2 * (t(1-t)y'' + (1-2t)y' - y/4), the classical Legendre operator.
    scaled = [symcheck.sym(c) for c in by_name["legendre"]["scaled_coefficients"]]
    classical = [-sympy.Rational(1, 4), 1 - 2 * t, t * (1 - t)]
    expect(all(symcheck.same(a, 2 * b) for a, b in zip(scaled, classical)),
           "Legendre operator differs from t(1-t)y'' + (1-2t)y' - y/4")
    expect(symcheck.simple_pole_in_apart(
        symcheck.sym(by_name["heisenberg-obstruction"]["witness"]["residue"]), "t2"),
        "Heisenberg witness residue has no simple pole")


def verify_known_fault(p, deep):
    expect(p.get("status") == "unsupported-input", "x^5-t should be reported as unsupported")


def _item(child: Child, name: str, argv: list[str], code: int, verify) -> Item:
    json_form = "--json" in argv

    def run(_):
        return child.run(argv)

    def digest(out):
        return f"{out['code']}\n{out['stdout']}"

    def check(out):
        expect(out["code"] == code, f"exit code {out['code']}, expected {code}")
        text = out["stdout"]
        payload = json.loads(text) if json_form else parse_human(text)
        verify(payload, json_form)

    return Item(name, run=run, digest=digest, check=check, self_timed=True)


def build(seed: int, child: Child) -> list[Item]:
    rnd = random.Random(seed)
    pool = [-3, -2, -1, 1, 2, 3]
    a, b, c = rnd.sample(pool, 3)
    reduce_f = f"{c}/((x-(t+{a}))^2*(x-({b}))) + {rnd.choice(pool)}*x"
    a, b, c = rnd.sample(pool, 3)
    tele_b = f"{c}/((x-(t+{a}))*(x-({b})))"
    a, b, c = rnd.sample(pool, 3)
    galois_b = f"{c}/((x-(t+{a}))*(x-(2*t+{b})))"
    a, b = sorted(rnd.sample(pool, 2))
    curve = f"(x-({a}))*(x-({b}))*(x-t)"
    form = rnd.randrange(2)

    check_case = wl_isomonodromy.SystemCase(
        "check", wl_isomonodromy._replace_bi_family(rnd), degree_bound=None)
    flatten_case = wl_isomonodromy.SystemCase(
        "flatten", wl_isomonodromy._replace_bi_family(rnd), degree_bound=3)
    files = {}
    for case in (check_case, flatten_case):
        path = os.path.join(child.work, f"{case.name}.json")
        data = {k: v for k, v in case.data.items() if k in ("field", "system")}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        files[case.name] = os.path.relpath(path, child.root)

    # Expressions go in as --option=value: a leading minus sign would
    # otherwise read as an option.
    commands = [
        ("reduce", ["reduce", f"--integrand={reduce_f}", "--var", "x"], 0,
         verify_reduce(reduce_f)),
        ("telescope", ["telescope", f"--integrand={tele_b}", "--var", "x", "--param", "t"], 0,
         verify_telescope(tele_b)),
        ("picard-fuchs", ["picard-fuchs", f"--curve={curve}", "--form", str(form),
                          "--param", "t"], 0, verify_picard_fuchs(curve, form)),
        ("galois", ["galois", f"--integrand={galois_b}", "--var", "x", "--param", "t"], 0,
         verify_galois),
        ("check", ["check", files["check"], "--mode", "full"], 1, verify_check(check_case)),
        ("flatten", ["flatten", files["flatten"], "--degree-bound", "3"], 0,
         verify_flatten(flatten_case)),
        ("examples", ["examples", "run", "all"], 0, verify_examples),
    ]
    items = []
    for name, argv, code, verify in commands:
        items.append(_item(child, f"{name} (human)", argv, code, verify))
        items.append(_item(child, f"{name} --json", ["--json", *argv], code, verify))
    items.append(_item(child, "picard-fuchs x^5-t --json", KNOWN_FAULT, 2, verify_known_fault))
    return items
