"""One measured run of one workload, in a fresh interpreter.

Usage (started by run.py with PYTHONPATH pointing at the checkout's src):
    python perfbench/worker.py WORKLOAD SEED SECONDS MODE WORKDIR

The run is SECONDS divided by the workload's nominal round length
(workloads.py) in whole rounds, so the operations of a run depend on
SECONDS and the seed only, never on measured speed.  MODE is plain,
untraced or traced (workloads.py).  Each call is timed alone and bracketed
by host speed probes (speed.py); input generation, probes and the exact
checks happen outside the timers.  An exception or a failed
check is counted and the run goes on.  The last line of standard output is
one JSON object with the per-operation samples.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import specfactor as sf
import specfactor.jsonio  # noqa: F401  (its functions are trace boundaries)

import spans
import speed
from workloads import FAILED, WORKLOADS


def run_rounds(wl, rounds: int, caches: dict, tracer=None) -> dict:
    """Drive ``wl`` through ``rounds`` rounds.

    Returns per-operation samples (reference seconds, passed, raw seconds),
    per-round totals (operations passed, reference seconds, raw seconds)
    and the sizes of the memo ``caches`` (name -> function, taken before
    any tracer wrapped them) just before the first call.
    """
    samples: list[tuple[float, bool, float]] = []
    per_round: list[tuple[int, float, float]] = []
    errors = 0
    cold = None
    for index in range(rounds):
        items = wl.round_items(index)
        if cold is None and wl.in_process:
            cold = {name: fn.cache_info().currsize for name, fn in caches.items()}
        round_ref = round_raw = 0.0
        passed = 0
        for item in items:
            before = speed.probe()
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                result = wl.call(item)
            except Exception:
                result = FAILED
                if errors == 0:
                    traceback.print_exc(file=sys.stderr)
                errors += 1
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            after = speed.probe()
            factor = speed.scale(before, after)
            try:
                outcomes = wl.outcomes(item, result, elapsed, factor)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                outcomes = [(elapsed, factor, False)]
            for raw, op_factor, ok in outcomes:
                samples.append((raw * op_factor, ok, raw))
                round_raw += raw
                round_ref += raw * op_factor
                passed += ok
        per_round.append((passed, round_ref, round_raw))
    return {"samples": samples, "per_round": per_round, "errors": errors, "cold_caches": cold}


def main(argv) -> int:
    name, seed, seconds, mode, workdir = argv
    seed, seconds = int(seed), float(seconds)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
    if os.path.realpath(src) != os.path.realpath(os.environ.get("PERFBENCH_SRC", "")):
        print(f"perfbench: specfactor was imported from {src}, not from this checkout",
              file=sys.stderr)
        return 2
    # the memo caches themselves: the tracer replaces some of them with
    # wrappers that have no cache_info
    caches = spans.library_caches()
    tracer = None
    if mode == "traced" and WORKLOADS[name].in_process:
        # before the workload exists, so the sweep's instance marks (and
        # their speed probes) stay outside the spans
        tracer = spans.Tracer()
        tracer.install()
    wl = WORKLOADS[name](seed, workdir, mode)
    rounds = max(1, round(seconds / wl.round_s))
    out = run_rounds(wl, rounds, caches, tracer)
    if tracer is not None:
        out["trace"] = tracer.raw()
        tracer.uninstall()
    elif mode == "traced":
        raws = []
        for path in wl.dumps:
            with open(path, encoding="utf-8") as fh:
                raws.append(json.load(fh)["trace"])
        out["trace"] = spans.merge(raws)
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    out["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
