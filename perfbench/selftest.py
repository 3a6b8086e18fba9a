"""Self-tests of the benchmark itself (not of the library).

Usage, from the root of a checkout:  python3 perfbench/selftest.py

1. Determinism: the same seed gives byte-identical serialized inputs for
   every workload, and a different seed gives different ones.
2. Cold caches: building the inputs of an in-process workload leaves every
   library memo cache empty.
3. Failure counting: a deliberately corrupted result and a raised exception
   are each counted as failed by the real run loop, which keeps going; a
   sweep call that does not mark its 12 instances fails all of them.
4. The cold-cache check sees every memo cache while the tracer is
   installed.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
# the cli workload's processes import the library from the same sources
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
WORK = os.path.join(ROOT, ".perfbench_work")

import specfactor as sf  # noqa: E402
from specfactor import AllPassFactorization, ElementaryFactor, RatMat  # noqa: E402

import spans  # noqa: E402
from worker import run_rounds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def serialize(items) -> bytes:
    """Canonical bytes of a nested structure of matrices and plain values."""

    def plain(x):
        if isinstance(x, RatMat):
            return [[[str(c) for c in e.num.coeffs] + ["/"] + [str(c) for c in e.den.coeffs]
                     for e in row] for row in x.entries]
        if isinstance(x, (list, tuple)):
            return [plain(y) for y in x]
        return x

    return json.dumps(plain(items), sort_keys=True, separators=(",", ":")).encode()


def serialized_rounds(name: str, seed: int, rounds: int = 2) -> bytes:
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        wl = WORKLOADS[name](seed, workdir, "plain")
        items = [item for index in range(rounds) for item in wl.round_items(index)]
        if name == "cli":
            # input files are part of the input set; their paths are not
            def contents(arg):
                if arg.startswith(workdir):
                    with open(arg, "rb") as fh:
                        return fh.read().decode()
                return arg

            items = [([contents(a) for a in argv], expected) for argv, expected in items]
        return serialize(items)
    finally:
        shutil.rmtree(workdir)


def check(condition: bool, message: str):
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def corrupt(name: str, result):
    """A wrong answer of the right type, for each workload."""
    if name == "peel":
        moved = [ElementaryFactor(f.alpha, [x + 1 for x in f.v]) for f in result.factors]
        return AllPassFactorization(result.constant, moved)
    if name == "cancel":
        points, reports = result
        bad = dataclasses.replace(reports[0], dp_gh=reports[0].dp_gh + 1)
        return points, [bad] + reports[1:]
    if name == "sweep":
        first = result["instances"][0]
        first["orthogonal_case"]["verdict"] = "HYPOTHESIS_FAILED"
        return result
    code, stdout = result
    return code, stdout.replace('"schema_version": "1"', '"schema_version": "0"')


class Sabotaged:
    """Delegates to a workload, corrupting the first call and failing the second."""

    def __init__(self, wl):
        self.wl = wl
        self.calls = 0

    def __getattr__(self, attr):
        return getattr(self.wl, attr)

    def call(self, item):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("injected failure")
        result = self.wl.call(item)
        return corrupt(self.wl.name, result) if self.calls == 1 else result


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=WORK)
    try:
        workloads = {name: cls(11, workdir, "plain") for name, cls in WORKLOADS.items()}
        # first, while nothing in this process has used the library yet
        for name, wl in workloads.items():
            if wl.in_process:
                wl.round_items(0)
                warm = {k: f.cache_info().currsize for k, f in spans.library_caches().items()
                        if f.cache_info().currsize}
                check(not warm, f"{name}: building inputs leaves the caches empty")

        for name in WORKLOADS:
            first = serialized_rounds(name, 7)
            check(first == serialized_rounds(name, 7), f"{name}: seed 7 twice gives identical inputs")
            check(first != serialized_rounds(name, 8), f"{name}: seeds 7 and 8 give different inputs")

        for name, wl in workloads.items():
            rounds = 2 if name == "sweep" else 1
            ops = rounds * len(wl.round_items(0)) * getattr(wl, "per_call", 1)
            out = run_rounds(Sabotaged(wl), rounds, spans.library_caches())
            failed = sum(1 for _, ok, _ in out["samples"] if not ok)
            expected = 1 + getattr(wl, "per_call", 1)
            check(len(out["samples"]) == ops, f"{name}: the run goes on after a failure")
            check(failed == expected, f"{name}: a corrupted result and an exception count "
                                      f"{expected} failed operations (got {failed})")

        sweep = workloads["sweep"]
        sweep.call = lambda base_seed: sweep.marks.clear() or sf.run_sweep(6, base_seed=base_seed)
        out = run_rounds(sweep, 1, {})
        failed = sum(1 for _, ok, _ in out["samples"] if not ok)
        check(failed == sweep.per_call, f"sweep: a call that marks 6 of {sweep.per_call} "
                                        f"instances fails all of them (got {failed})")

        caches = spans.library_caches()
        tracer = spans.Tracer()
        tracer.install()
        try:
            out = run_rounds(workloads["peel"], 1, caches, tracer)
        finally:
            tracer.uninstall()
        check(len(caches) >= len(spans.CACHES) and set(out["cold_caches"]) == set(caches),
              f"traced: the cold-cache check covers all {len(caches)} memo caches")
    finally:
        shutil.rmtree(workdir)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
