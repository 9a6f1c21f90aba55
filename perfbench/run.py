"""isocert benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; isocert is imported from the checkout's
``src/``, never from an installed copy.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  Details of every run (commit, pass times, failures) go to
``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("telescoper", "picard-fuchs", "isomonodromy", "cli-cold")
# Set-up is repeated in this many fresh processes; setup_s is their median.
SETUP_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description="isocert benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def source_digest() -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "isocert"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    h.update(handle.read())
    return h.hexdigest()


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def work_dir(args, label: str) -> str:
    path = os.path.join(OUT, "work", f"{args.workload}-{args.seed}-{label}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def set_up(args, work: str, traced: bool):
    """Imports and corpus generation.  Returns the items, the child launcher
    for cli-cold, and the in-process cli import time."""
    if args.workload == "cli-cold":
        import wl_cli

        child = wl_cli.Child(ROOT, work, traced)
        items = wl_cli.build(args.seed, child)
        # The program's own set-up here is one cold start of the whole
        # command line, which also brings every source file into the cache.
        child.run(["examples", "run", "all", "--json"])
        child.reset_pass()
        return items, child, None
    start = perf_counter()
    import isocert.cli.main  # noqa: F401  (the corpora use the cli parsers)
    cli_import_ms = 1000.0 * (perf_counter() - start)
    import wl_isomonodromy
    import wl_picard
    import wl_telescoper

    module = {"telescoper": wl_telescoper, "picard-fuchs": wl_picard,
              "isomonodromy": wl_isomonodromy}[args.workload]
    return module.build(args.seed), None, cli_import_ms


def time_set_up(args) -> tuple[list[float], list[float]]:
    """Seconds from process creation to the end of set-up, in fresh
    processes started one at a time: as measured, and rescaled to the
    reference speed measured just before and after each process."""
    from harness import REFERENCE_S, reference_loop

    samples, scaled = [], []
    for _ in range(SETUP_PROBES):
        reference = [reference_loop() for _ in range(5)]
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--probe"]
        start = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline().strip()
            samples.append(perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, {line!r})")
        reference += [reference_loop() for _ in range(5)]
        scaled.append(samples[-1] * REFERENCE_S / statistics.median(reference))
    return samples, scaled


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "isocert", "__init__.py")):
        print(f"perfbench: no isocert sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    if args.probe:
        work = work_dir(args, "probe")
        try:
            set_up(args, work, traced=False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print("ready", flush=True)
        return 0

    # Byte-compile first, so that no run pays for compiling the sources.
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    import harness
    import spans

    setup_samples, setup_scaled = time_set_up(args)
    work = work_dir(args, "run")
    traced = bool(args.trace)
    try:
        items, child, cli_import_ms = set_up(args, work, traced)
        tracer = None
        layer_fn = None
        if traced and child is None:
            tracer = spans.Tracer()
            spans.install(tracer)
            layer_fn = spans.layer_values
        elif traced:
            tracer, layer_fn = child, child.layer_totals
        passes, ref = harness.timed_passes(items, args.seconds, tracer, layer_fn)
        if child is None:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            peak_kb = child.peak_kb
        wrong = harness.run_checks(items, ref)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary = harness.summarize(items, passes, wrong)
    mismatched = sorted({n for rec in passes for n, why in rec.failures.items()
                         if why == harness.MISMATCH})
    correct = not wrong and not mismatched
    end_to_end = {
        "items_per_s": (summary["items_per_s"], "1/s"),
        "item_p50_ms": (summary["item_p50_ms"], "ms"),
        "item_max_ms": (summary["item_max_ms"], "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_scaled), "s"),
    }
    layers = {}
    if traced:
        for name, unit in spans.LAYER_METRICS:
            values = [rec.layers.get(name, 0.0) * (rec.scale if unit == "ms" else 1.0)
                      for rec in passes]
            if name == "cli.import_ms" and cli_import_ms is not None:
                values = [cli_import_ms * passes[0].scale]
            layers[name] = (statistics.median(values), unit)
    metrics = layers if traced else end_to_end

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stem = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None and child is None:
        tracer.write_spans(stem + "-spans.json.gz")
    failures = {}
    for rec in passes:
        for name, why in rec.failures.items():
            failures.setdefault(name, why)
    for name, why in wrong.items():
        failures[name] = why
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit(), "source_sha256": source_digest(),
        "python": sys.version.split()[0], "cpus": os.cpu_count(),
        "items": len(items), "passes": len(passes),
        "pass_seconds": [rec.wall for rec in passes],
        "item_ms": {item.name: 1000.0 * statistics.median(
            [rec.times[item.name] for rec in passes if item.name in rec.times] or [0.0])
            for item in items},
        "pass_scale": [rec.scale for rec in passes],
        "setup_samples_s": setup_samples,
        "setup_scaled_s": setup_scaled,
        "end_to_end": {k: v[0] for k, v in end_to_end.items()},
        "item_p90_ms": summary["item_p90_ms"],
        "layers": {k: v[0] for k, v in layers.items()},
        "failures": failures,
    }
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(details, handle, indent=1, sort_keys=True)
    print(f"perfbench: {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(items)} items; commit {details['commit'] or 'unknown'}, "
          f"sources {details['source_sha256'][:16]}")
    for name, why in sorted(failures.items()):
        print(f"perfbench: failed item {name}: {why}")
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
