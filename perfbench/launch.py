"""Run the warpforge CLI with the benchmark's tracer installed.

usage: python3 perfbench/launch.py TRACE_OUT COMMAND -c CONFIG

Times the numpy and warpforge imports, wraps warpforge's public functions
(tracer.install), calls warpforge.cli.main with the remaining arguments,
writes the spans, counters and import times to TRACE_OUT as JSON and exits
with main's exit code.
"""

import json
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import warpforge.cli
    t2 = time.perf_counter()

    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    code = warpforge.cli.main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump({"trace": tracer.dump(),
                   "import": {"numpy_ms": (t1 - t0) * 1e3, "warpforge_ms": (t2 - t1) * 1e3}}, fh)
    sys.exit(code)
