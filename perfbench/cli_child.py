"""Traced cold start of the isocert command line.

Run as ``python3 perfbench/cli_child.py <isocert arguments>`` with
PERFBENCH_TRACE_OUT naming the file for the per-layer figures.  It times the
import of ``isocert.cli.main``, installs the layer wrappers, and then calls
``main`` exactly as the console script does.
"""

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


def _run() -> int:
    import spans

    start = perf_counter()
    from isocert.cli.main import main
    import_ms = 1000.0 * (perf_counter() - start)
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.on = True
    try:
        return main()
    finally:
        tracer.on = False
        values = spans.layer_values(tracer)
        values["cli.import_ms"] = import_ms
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as handle:
            json.dump(values, handle)


if __name__ == "__main__":
    sys.exit(_run())
