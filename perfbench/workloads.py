"""The four workloads: what one operation is, its inputs and its exact check.

A workload hands out its inputs in rounds.  Every round covers the same
strata (sizes, shapes or subcommands) with fresh seeded draws, so whole
rounds have the same mix whatever the seed.  ``round_s`` is the length of
a round in reference seconds (speed.py) at the commit that defined the
benchmark; a run of S seconds is S / round_s rounds, fixed by S alone, so
every commit runs the same operations.  Each item of a round is one timed
call, bracketed by host speed probes; ``outcomes`` turns it into (raw
latency, speed factor, verdict) per operation, where ``factor`` is the
one the worker's probes give for the whole call.  ``mode`` is "plain" for
end-to-end runs, and "untraced" or "traced" for the two halves of a traced
run; only the cli workload tells them apart.  Library functions are looked
up through the package at call time (``sf.name``), so the tracer's
wrappers are the ones called.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import specfactor as sf
from specfactor import jsonio
from specfactor.spectra import Region

import inputs
import speed

FAILED = object()  # result of a call that raised


class Peel:
    """``potapov_factorize`` on products of k elementary factors."""

    name = "peel"
    in_process = True
    # One round: 2x2 and 3x3 products with one to six factors and 4x4 products
    # with one to three.  4x4 products with four to six factors take 3..7 s
    # each; with them a round alone would outlast a 20 s run.
    strata = tuple((side, k) for side in (2, 3) for k in range(1, 7)) + tuple(
        (4, k) for k in range(1, 4))
    round_s = 6.5

    def __init__(self, seed: int, workdir: str, mode: str = "plain"):
        self.seed = seed

    def round_items(self, index: int):
        rng = random.Random(f"peel:{self.seed}:{index}")
        return [(side, k, inputs.peel_case(rng, side, k)) for side, k in self.strata]

    def call(self, item):
        return sf.potapov_factorize(item[2])

    def outcomes(self, item, result, elapsed, factor):
        _, k, v = item
        ok = (result is not FAILED and len(result.factors) == k and result.product() == v)
        return [(elapsed, factor, ok)]


class Cancel:
    """``support_points`` then ``analyze_product`` at each support point."""

    name = "cancel"
    in_process = True
    # (rows of G, inner rank r, cols of H): sides up to 4, r up to 2.  Pairs
    # with r = 3, or r = 2 and outer sides adding up to 7 or more, take
    # 1..4.5 s each and would leave a 20 s run a handful of operations.
    shapes = ((1, 1, 1), (2, 1, 3), (3, 1, 4), (4, 1, 4), (2, 2, 2), (2, 2, 4),
              (3, 2, 2), (3, 2, 3), (4, 2, 2))
    round_s = 2.2

    def __init__(self, seed: int, workdir: str, mode: str = "plain"):
        self.seed = seed

    def round_items(self, index: int):
        rng = random.Random(f"cancel:{self.seed}:{index}")
        return [inputs.cancel_pair(rng, n, r, m) for n, r, m in self.shapes]

    def call(self, item):
        g, h = item
        points = sf.support_points(g, h)
        return points, [sf.analyze_product(g, h, p) for p in points]

    def outcomes(self, item, result, elapsed, factor):
        ok = result is not FAILED and cancel_reports_hold(*result)
        return [(elapsed, factor, ok)]


def cancel_reports_hold(points, reports) -> bool:
    """The full-rank cancellation laws, read off the returned reports."""
    if not points or points[-1] != sf.INFINITY or len(reports) != len(points):
        return False
    for point, rep in zip(points, reports):
        if rep.point != point:
            return False
        if rep.dp_gh - rep.dp_g - rep.dp_h != rep.dz_gh - rep.dz_g - rep.dz_h:
            return False
        if (rep.pole_cancellation or rep.zero_cancellation) and not rep.zero_pole_cancellation:
            return False
    return True


class Sweep:
    """``run_sweep`` in calls of 12 instances, one operation per instance.

    Twelve is the period of the sweep's geometry (4) and size (6)
    rotation, so consecutive calls with base seeds 12 apart reproduce one
    long sweep exactly.  An instance starts where the sweep calls
    ``generate_instance``; a wrapper marks the time there and probes the
    host speed, so each instance gets its own latency and speed factor (a
    call lasts about 2 s, and the host's speed can change within a
    second).  A call that does not mark exactly 12 instances (it raised, or
    the sweep no longer goes through ``generate_instance``) fails all 12,
    so a per-instance latency never changes meaning unnoticed.
    """

    name = "sweep"
    in_process = True
    per_call = 12
    round_s = 2.0

    def __init__(self, seed: int, workdir: str, mode: str = "plain"):
        self.base = 1_000_000 + 10_000 * seed
        self.marks: list[tuple[float, float, float]] = []  # (probe start, probe end, probe)
        self.end = self.end_probe = 0.0
        original = sf.spectra.generate_instance
        marks = self.marks

        def marked(*args, **kwargs):
            start = time.perf_counter()
            probe = speed.probe()
            marks.append((start, time.perf_counter(), probe))
            return original(*args, **kwargs)

        sf.spectra.generate_instance = marked

    def round_items(self, index: int):
        return [self.base + self.per_call * index]

    def call(self, base_seed):
        self.marks.clear()
        try:
            return sf.run_sweep(self.per_call, base_seed=base_seed)
        finally:
            self.end = time.perf_counter()
            self.end_probe = speed.probe()

    def outcomes(self, base_seed, report, elapsed, factor):
        n = self.per_call
        if report is FAILED or len(self.marks) != n:
            if report is not FAILED:
                print(f"perfbench: sweep call marked {len(self.marks)} instances, not {n}; "
                      f"all {n} counted as failed", file=sys.stderr)
            return [(elapsed / n, factor, False)] * n
        ends = [m[0] for m in self.marks[1:]] + [self.end]
        probes = [m[2] for m in self.marks] + [self.end_probe]
        records = {rec["seed"]: rec for rec in report["instances"]}
        summary_ok = (report["summary"]["uniqueness_violated"] == 0
                      and report["summary"]["transfer_mismatches"] == 0)
        return [(ends[i] - self.marks[i][1], speed.scale(probes[i], probes[i + 1]),
                 summary_ok and sweep_record_holds(records.get(base_seed + i)))
                for i in range(n)]


def sweep_record_holds(rec) -> bool:
    """Criterion 6's verdict rules for one sweep instance."""
    if rec is None:
        return False
    orth = rec["orthogonal_case"]
    pert = rec["allpass_case"]
    return (orth["verdict"] == "UNIQUE" and orth["transfer_matches"] is True
            and pert["verdict"] == "HYPOTHESIS_FAILED"
            and any("minimality" in name or "analyticity" in name
                    for name in pert["failed_hypotheses"]))


# orthogonal constants that keep a factor co-spectral, by row count
_ORTHOGONAL = {
    1: [[-1]],
    2: [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]],
}


class Cli:
    """One-shot ``python -m specfactor.cli`` processes, one per subcommand."""

    name = "cli"
    # every operation is a fresh interpreter, so the caches of this process
    # (warmed while computing expected answers) never serve an operation
    in_process = False
    round_s = 6.0

    def __init__(self, seed: int, workdir: str, mode: str = "plain"):
        self.seed = seed
        self.workdir = workdir
        self.mode = mode
        here = os.path.dirname(os.path.abspath(__file__))
        if mode == "plain":
            self.prefix = [sys.executable, "-m", "specfactor.cli"]
        else:
            # both halves of a traced run start the same launcher, which
            # times the CLI's main() alone (clitrace.py)
            self.prefix = [sys.executable, os.path.join(here, "clitrace.py")]
        self.dumps: list[str] = []

    def _write(self, name: str, mat) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(jsonio.ratmat_to_json(mat), fh)
        return path

    def round_items(self, index: int):
        """(argv, expected payload) per subcommand; expected answers come
        from library calls in this process, outside any timer."""
        rng = random.Random(f"cli:{self.seed}:{index}")
        tag = f"r{index}"
        items = []
        outer = Region.parse("outer")

        m = inputs.cancel_pair(rng, 3, 2, 2)[0]
        items.append((["smform", self._write(f"{tag}_sm.json", m)],
                      jsonio.sm_to_json(m.sm_structure())))
        m = inputs.cancel_pair(rng, 2, 2, 3)[1]
        items.append((["degree", self._write(f"{tag}_deg.json", m)],
                      {"mcmillan": m.mcmillan_degree()}))
        m = inputs.cancel_pair(rng, 2, 2, 2)[0]
        items.append((["polezeros", self._write(f"{tag}_pz.json", m)], pole_zero_listing(m)))

        g, h = inputs.cancel_pair(rng, 3, 2, 2)
        point = rng.choice(sf.support_points(g, h))
        items.append((["analyze", self._write(f"{tag}_g.json", g), self._write(f"{tag}_h.json", h),
                       f"--point={point}"],
                      jsonio.cancellation_to_json(sf.analyze_product(g, h, point))))

        v = inputs.peel_case(rng, 2, rng.randint(1, 3))
        items.append((["allpass-factorize", self._write(f"{tag}_v.json", v)],
                      jsonio.factorization_to_json(sf.potapov_factorize(v))))

        size, degree = rng.choice((((1, 2), 2), ((2, 2), 2), ((2, 3), 1)))
        spectrum, w = sf.generate_instance(rng.randrange(10**6), size, degree, outer, outer)
        factor = sf.is_spectral_factor(w, spectrum)
        items.append((["verify-factor", self._write(f"{tag}_w.json", w),
                       self._write(f"{tag}_phi.json", spectrum.phi)],
                      {"is_spectral_factor": factor,
                       "stochastically_minimal": sf.is_stochastically_minimal(w, spectrum),
                       "factor_degree": w.mcmillan_degree(),
                       "spectrum_degree": spectrum.mcmillan_degree()}))

        w1 = sf.RatMat(_ORTHOGONAL[size[0]]) * w
        items.append((["check-uniqueness", self._write(f"{tag}_w0.json", w),
                       self._write(f"{tag}_w1.json", w1), "--region-p", "outer",
                       "--region-z", "outer"],
                      jsonio.uniqueness_to_json(sf.uniqueness_check(w, w1, outer, outer))))

        seed = rng.randrange(10**6)
        spectrum, w = sf.generate_instance(seed, (1, 2), 2, outer, outer)
        items.append((["generate", "--seed", str(seed), "--size", "1,2", "--degree", "2",
                       "--region-p", "outer", "--region-z", "outer"],
                      {"seed": seed, "size": [1, 2], "degree": 2, "region_p": "outer",
                       "region_z": "outer", "w": jsonio.ratmat_to_json(w),
                       "phi": jsonio.ratmat_to_json(spectrum.phi)}))
        return items

    def call(self, item):
        argv = list(self.prefix)
        if self.mode != "plain":
            dump = os.path.join(self.workdir, f"dump_{len(self.dumps)}.json")
            self.dumps.append(dump)
            argv += [dump, self.mode]
        # the environment (PYTHONPATH included) is the worker's own
        proc = subprocess.run(argv + item[0], capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def outcomes(self, item, result, elapsed, factor):
        if result is FAILED:
            return [(elapsed, factor, False)]
        code, stdout = result
        if self.mode != "plain":
            # a traced run compares the time of the CLI's main() alone, with
            # the speed probed around it in its process (clitrace.py)
            with open(self.dumps[-1], encoding="utf-8") as fh:
                dump = json.load(fh)
            elapsed, factor = dump["main_s"], dump["factor"]
        try:
            payload = json.loads(stdout)
        except ValueError:
            return [(elapsed, factor, False)]
        expected = {"schema_version": jsonio.SCHEMA_VERSION, **item[1]}
        return [(elapsed, factor, code == 0 and payload == expected)]


def pole_zero_listing(m) -> dict:
    """Expected ``polezeros`` payload, from pointwise pole and zero degrees."""

    def key(p):
        return (p.value.abs2(), p.value.re, p.value.im)

    listing = {}
    for kind, points, degree in (("poles", m.finite_pole_points(), m.pole_degree),
                                 ("zeros", m.finite_zero_points(), m.zero_degree)):
        entries = [{"point": str(p), "degree": degree(p)} for p in sorted(points, key=key)]
        if degree(sf.INFINITY):
            entries.append({"point": "inf", "degree": degree(sf.INFINITY)})
        listing[kind] = entries
    return listing


WORKLOADS = {cls.name: cls for cls in (Sweep, Peel, Cancel, Cli)}
