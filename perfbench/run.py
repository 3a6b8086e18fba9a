"""specfactor benchmark: end-to-end metrics per workload, or a traced run.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload {sweep,peel,cancel,cli} --seed N
                             --seconds S --trace {0,1}

Workloads (workloads.py) are closed loops with one client: one call at a
time, nothing in parallel, each run in fresh interpreters so the library's
memo caches start empty (the worker checks that before its first call).
A run is S seconds' worth of whole rounds at the defining commit's speed,
so every commit runs the same operations for a given seed and S.  The run
pins itself and its processes to one CPU, and times are reference seconds:
raw seconds scaled by the host speed probed around each call (speed.py);
the raw wall-clock equivalents are printed as ``# raw NAME VALUE UNIT``.

--trace 0 prints the end-to-end metrics:
  setup_s      median, over SETUP_SAMPLES fresh interpreters, of the time
               from interpreter start until ``specfactor`` (for cli,
               ``specfactor.cli``) is imported
  ops_per_s    operations that passed their exact check per second of timed
               calls; the median over the run's rounds
  op_p50_s     median operation latency
  op_tail_s    latency at the highest 5% step with ten samples beyond it
               (p90 of 120 for sweep, p75 of 45 for peel, p85 of 81 for
               cancel, p55 of 24 for cli at S = 20); both latencies are
               Harrell-Davis estimates
  peak_rss_mb  peak resident memory of the worker (cli: of its largest child)

--trace 1 runs TRACE_SECONDS' worth of rounds untraced and the same rounds
traced, and prints the per-layer metrics of the traced rounds (spans.py),
the CLI import breakdown from ``-X importtime`` and trace.overhead_ratio,
the traced over the untraced time of the rounds.  The cli workload starts
the same launcher (clitrace.py) in both halves and compares the time of
the CLI's main() in each process, as interpreter start and imports are the
same in both.  No end-to-end number comes from a traced run.

Every metric is printed as ``name value unit``; the last line is one JSON
object with correct, attempted, failed and metrics.  Failed operations
(raised, non-zero exit or a failed check) are counted, never fatal; their
share is printed as failed_ratio.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
TRACE_SECONDS = 24
WORKER_TIMEOUT_S = 160
# the keys of workloads.WORKLOADS, which this process does not import: it
# never imports the library, so its own start-up stays out of every figure
WORKLOAD_NAMES = ("sweep", "peel", "cancel", "cli")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PERFBENCH_SRC"] = SRC
    return env


def setup_time(module: str, env: dict) -> tuple[float, float]:
    """(reference, raw) seconds from starting an interpreter until
    ``module`` is imported."""
    before = speed.probe()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", f"import {module}; print('ready', flush=True)"],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or line.strip() != "ready":
        raise RuntimeError(f"importing {module} failed")
    return elapsed * speed.scale(before, speed.probe()), elapsed


def import_breakdown(env: dict) -> dict[str, float]:
    """Cumulative import reference seconds of specfactor.cli, sympy and numpy."""
    before = speed.probe()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import specfactor.cli"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    factor = speed.scale(before, speed.probe())
    if proc.returncode != 0:
        raise RuntimeError("importing specfactor.cli failed")
    out = {"cli.import_s": 0.0, "cli.import.sympy_s": 0.0, "cli.import.numpy_s": 0.0}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1]) / 1e6 * factor
        name = parts[2].rstrip()
        top_level = len(name) - len(name.lstrip()) == 1
        name = name.strip()
        if top_level and (name == "specfactor" or name.startswith("specfactor.")):
            out["cli.import_s"] += cumulative
        elif name in ("sympy", "numpy") and out[f"cli.import.{name}_s"] == 0.0:
            # a module that is never imported costs nothing and reads 0
            out[f"cli.import.{name}_s"] = cumulative
    return out


def run_worker(workload: str, seed: int, seconds: int, mode: str, workdir: str,
               env: dict) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            str(seconds), mode, workdir]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights, here integrated on a fine grid.  A round mixes strata whose
    costs differ several-fold, so a single order statistic jumps from one
    stratum to the next between runs; this estimate moves smoothly.
    """
    n = len(samples)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = [0.0] * n
    steps = 200 * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[int(x * n)] += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, sorted(samples))) / total


def tail_level(n: int) -> float:
    """The highest percentile, in steps of 5, with ten samples beyond it."""
    return max(0.5, math.floor((1 - 10 / n) * 20) / 20)


def end_to_end(workload: str, seed: int, seconds: int, workdir: str, env: dict):
    module = "specfactor.cli" if workload == "cli" else "specfactor"
    setup_time(module, env)  # warm-up: byte code and file caches, not reported
    setups = [setup_time(module, env) for _ in range(SETUP_SAMPLES)]
    out = run_worker(workload, seed, seconds, "plain", workdir, env)
    latencies = [t for t, _, _ in out["samples"]]
    raw = [t for _, _, t in out["samples"]]
    q = tail_level(len(latencies))
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": (statistics.median(n / t for n, t, _ in out["per_round"]), "1/s"),
        "op_p50_s": (quantile(latencies, 0.5), "s"),
        "op_tail_s": (quantile(latencies, q), "s"),
        "peak_rss_mb": (out["peak_rss_kb"] / 1024, "MB"),
    }
    passed = sum(1 for _, ok, _ in out["samples"] if ok)
    raw_time = sum(t for _, _, t in out["per_round"])
    raw_metrics = {
        "setup_s": (statistics.median(r for _, r in setups), "s"),
        "ops_per_s": (statistics.median(n / t for n, _, t in out["per_round"]), "1/s"),
        "op_p50_s": (quantile(raw, 0.5), "s"),
        "op_tail_s": (quantile(raw, q), "s"),
    }
    notes = [f"raw {name} {value!r} {unit}" for name, (value, unit) in raw_metrics.items()]
    notes += [
        "times are reference seconds (speed.py); the raw lines are wall-clock seconds",
        f"setup_s is the median of {SETUP_SAMPLES} interpreter starts",
        f"operations: {len(latencies)} in {len(out['per_round'])} rounds, {raw_time:.3f} s "
        f"raw timed; ops_per_s is the median of the rounds' rates",
        f"op_tail_s is p{round(q * 100)} of {len(latencies)} samples "
        f"({len(latencies) * (1 - q):.1f} beyond it); both latencies are Harrell-Davis estimates",
        f"failed_ratio {(len(latencies) - passed) / len(latencies):.6f} ratio",
    ]
    return out, metrics, notes


def traced(workload: str, seed: int, workdir: str, env: dict):
    plain = run_worker(workload, seed, TRACE_SECONDS, "untraced", workdir, env)
    out = run_worker(workload, seed, TRACE_SECONDS, "traced", workdir, env)
    raw = out["trace"]
    plain_time = sum(t for _, t, _ in plain["per_round"])
    traced_time = sum(t for _, t, _ in out["per_round"])
    # self times on the reference scale of the traced round as a whole
    factor = traced_time / sum(t for _, _, t in out["per_round"])
    metrics = {}
    for name, (value, unit) in spans.layer_metrics(raw).items():
        metrics[name] = (value * factor if unit == "s" else value, unit)
    imports = [import_breakdown(env) for _ in range(IMPORT_SAMPLES)]
    for key in imports[0]:
        metrics[key] = (statistics.median(sample[key] for sample in imports), "s")
    metrics["trace.overhead_ratio"] = (traced_time / plain_time, "ratio")
    notes = [f"{key}: {base}" for key, base in spans.ratio_bases(raw).items()]
    notes.append(f"{len(out['samples'])} operations in {len(out['per_round'])} rounds: "
                 f"{traced_time:.3f} s traced, {plain_time:.3f} s untraced (reference seconds); "
                 f"{sum(t for _, _, t in out['per_round']):.3f} s and "
                 f"{sum(t for _, _, t in plain['per_round']):.3f} s raw")
    notes.extend(f"absent (boundary missing): {name}" for name in raw["missing"])
    # tracing must not change any answer, so the traced operations count too
    out["samples"] = plain["samples"] + out["samples"]
    if plain["cold_caches"] is not None:
        out["cold_caches"] = {k: v + plain["cold_caches"].get(k, 0)
                              for k, v in out["cold_caches"].items()}
    return out, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "specfactor", "__init__.py")):
        print(f"perfbench: no specfactor sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    speed.pin_to_fastest_cpu()
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            out, metrics, notes = traced(args.workload, args.seed, workdir, env)
        else:
            out, metrics, notes = end_to_end(args.workload, args.seed, args.seconds, workdir, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    attempted = len(out["samples"])
    failed = sum(1 for _, ok, _ in out["samples"] if not ok)
    warm = {name: size for name, size in (out["cold_caches"] or {}).items() if size}
    if warm:
        print(f"perfbench: caches not empty at the first operation: {warm}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print(json.dumps({
        "correct": failed == 0 and not warm,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
