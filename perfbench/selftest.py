"""Self-test of the output checks: every checker must accept the program's
real output and reject a corrupted copy of it.

    python3 perfbench/selftest.py

Runs each workload's corpus for seed 1 once (cli-cold starts its children),
then corrupts outputs one way at a time.  Exits 1 if any corruption is
accepted or any real output is rejected.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)


def _one(registry):
    from isocert.exactalg import RationalFunction
    return RationalFunction.const(1, registry)


def _var(name, registry):
    from isocert.exactalg import RationalFunction
    return RationalFunction.var(name, registry)


def telescoper_corruptions(out):
    # A constant added to a certificate keeps it valid; x does not.
    x = _var("x", out.certificate.registry)
    yield "certificate + x", dataclasses.replace(out, certificate=out.certificate + x)
    if out.operator.coeffs:
        coeffs = (out.operator.coeffs[0] + _one(out.certificate.registry),) + out.operator.coeffs[1:]
        yield "operator coefficient + 1", dataclasses.replace(
            out, operator=dataclasses.replace(out.operator, coeffs=coeffs))


def picard_corruptions(out):
    one = _one(out.certificate.curve.registry)
    yield "certificate odd part + 1", dataclasses.replace(
        out, certificate=type(out.certificate)(out.certificate.even, out.certificate.odd + one,
                                               out.certificate.curve))
    coeffs = (out.operator.coeffs[0] + one,) + out.operator.coeffs[1:]
    yield "operator coefficient + 1", dataclasses.replace(
        out, operator=dataclasses.replace(out.operator, coeffs=coeffs))


def isomonodromy_corruptions(out):
    from isocert.connection import FlattenFound, FlattenObstruction

    if "full" in out:
        bad = copy.deepcopy(out)
        rep = bad["full"]
        v = rep.verdicts[0]
        if v.ok:
            some = next(iter(bad["gauged"].values()))
            flipped = dataclasses.replace(v, ok=False, defect_matrix=some)
        else:
            flipped = dataclasses.replace(v, ok=True, defect_matrix=None)
        bad["full"] = dataclasses.replace(rep, verdicts=(flipped,) + rep.verdicts[1:])
        yield "full verdict flipped", bad

        bad = copy.deepcopy(out)
        name = next(iter(bad["gauged"]))
        entry = bad["gauged"][name][0][0]
        bad["gauged"][name][0][0] = entry + _one(entry.registry)
        yield "gauged matrix entry + 1", bad

        # A constant multiple of a section is a section, and a constant added
        # to a move can commute with the system; adding a variable breaks both.
        for label, basis in out["sections"].items():
            if basis:
                bad = copy.deepcopy(out)
                Y = bad["sections"][label][0]
                Y[0] = Y[0] + _var(label if label in Y[0].registry else "t1", Y[0].registry)
                yield f"horizontal section ({label}) changed", bad
                break

        for route in ("flatten_bivariate", "flatten_ansatz"):
            result = out.get(route)
            if isinstance(result, FlattenFound) and result.moves:
                bad = copy.deepcopy(out)
                moves = bad[route].moves
                name = next(iter(moves))
                other = next(s for s in out["gauged"] if s != name)
                entry = moves[name][0][0]
                moves[name][0][0] = entry + _var(other, entry.registry)
                yield f"{route} move entry + {other}", bad
            if isinstance(result, FlattenObstruction):
                bad = copy.deepcopy(out)
                w = bad[route].witness
                bad[route] = FlattenObstruction(dataclasses.replace(w, residue=w.residue * 2))
                yield f"{route} witness residue doubled", bad
    else:
        bad = dict(out, flat=not out["flat"])
        yield "companion flatness flipped", bad
        d = out["descriptor"]
        verdict = "constant" if d.verdict != "constant" else "nonconstant-over-k"
        yield "constancy verdict flipped", dict(out, descriptor=dataclasses.replace(d, verdict=verdict))


# A certificate plus x, and an operator that is no longer monic.
CHANGES = {"certificate": "({}) + x", "operator": "({})*2 + 1"}


def cli_corruptions(out):
    yield "exit code changed", dict(out, code=out["code"] + 1)
    text = out["stdout"]
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        for key, change in CHANGES.items():
            if isinstance(payload.get(key), str):
                bad = dict(payload)
                bad[key] = change.format(payload[key])
                yield f"json {key} changed", dict(out, stdout=json.dumps(bad))
        if "pairs" in payload:
            bad = copy.deepcopy(payload)
            bad["pairs"][0]["ok"] = not bad["pairs"][0]["ok"]
            yield "json pair verdict flipped", dict(out, stdout=json.dumps(bad))
        if "moves" in payload:
            bad = copy.deepcopy(payload)
            name = next(iter(bad["moves"]))
            bad["moves"][name][0][0] = "1"
            yield "json move changed", dict(out, stdout=json.dumps(bad))
        if "examples" in payload:
            bad = copy.deepcopy(payload)
            for ex in bad["examples"]:
                if ex["name"] == "legendre":
                    ex["scaled_coefficients"][0] = "1/2"
            yield "json legendre operator changed", dict(out, stdout=json.dumps(bad))
    else:
        for key, change in CHANGES.items():
            marker = f"\n{key}: "
            if marker in text:
                head, _, tail = text.partition(marker)
                value, _, rest = tail.partition("\n")
                yield f"human {key} changed", dict(
                    out, stdout=f"{head}{marker}{change.format(value)}\n{rest}")


def main() -> int:
    import harness
    import wl_cli
    import wl_isomonodromy
    import wl_picard
    import wl_telescoper

    work = os.path.join(ROOT, ".perfbench", "work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    child = wl_cli.Child(ROOT, work, traced=False)
    suites = [
        ("telescoper", wl_telescoper.build(1), telescoper_corruptions),
        ("picard-fuchs", wl_picard.build(1), picard_corruptions),
        ("isomonodromy", wl_isomonodromy.build(1), isomonodromy_corruptions),
        ("cli-cold", wl_cli.build(1, child), cli_corruptions),
    ]
    problems = 0
    try:
        for workload, items, corruptions in suites:
            tried = rejected = 0
            for item in items:
                try:
                    _, out = harness.run_item(item)
                except harness.ItemFailed:
                    continue  # a failing item has no output to corrupt
                try:
                    item.check(out)
                except Exception as exc:
                    print(f"FAIL {workload}: real output of {item.name} rejected: {exc}")
                    problems += 1
                    continue
                for label, bad in corruptions(out):
                    tried += 1
                    try:
                        item.check(bad)
                    except Exception:  # CheckFailed, or a checker that gives up
                        rejected += 1
                        continue
                    print(f"FAIL {workload}: {item.name}: corruption accepted: {label}")
                    problems += 1
            print(f"{workload}: {rejected} of {tried} corrupted outputs rejected")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("ok" if not problems else f"{problems} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
