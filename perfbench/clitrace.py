"""Run one specfactor CLI command through the benchmark's launcher.

Usage: python perfbench/clitrace.py OUT.json traced|untraced <specfactor arguments...>

Standard output and the exit code are the CLI's own.  OUT.json gets the
seconds the CLI's ``main`` took, the speed factor of host speed probes
around it (speed.py) and, when traced, the per-layer totals of the
process.  Interpreter start and imports are the same in both modes and
stay outside that time, so the untraced and traced times of one command
differ by the cost of tracing alone.
"""

import json
import sys
import time

import specfactor.cli
import specfactor.jsonio  # noqa: F401  (its functions are trace boundaries)

import spans
import speed


def main() -> int:
    out, mode, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        tracer.install()
        tracer.active = True
    before = speed.probe()
    start = time.perf_counter()
    try:
        code = specfactor.cli.main(args)
    finally:
        main_s = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        factor = speed.scale(before, speed.probe())
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"main_s": main_s, "factor": factor,
                       "trace": tracer.raw() if tracer else None}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
