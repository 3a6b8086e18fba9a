"""Record the benchmark's baseline and check that it is steady.

Usage, from the root of a checkout:
    python3 perfbench/baseline.py

Runs every workload of BENCHMARK.json once for each of the seeds 1..10 with
tracing off, then once traced, one run at a time.  For each end-to-end
metric it prints the median of the runs and their spread, the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound, and the value of every
run; the same for the raw wall-clock figures the runs print beside the
reference-second ones (speed.py).  It writes the medians, spreads and
values, the traced run, the machine, the versions, the commit and the size
of src/ to perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's JSON result, and its raw wall-clock figures by metric name."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    raw = {}
    for line in lines:
        if line.startswith("# raw "):
            _, _, name, value, _ = line.split()
            raw[name] = float(value)
    return json.loads(lines[-1]), raw


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range over the median)"""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = {"python": platform.python_version()}
    for module in ("sympy", "numpy"):
        try:
            versions[module] = __import__(module).__version__
        except ImportError:
            versions[module] = None
    return {"nproc": os.cpu_count(), "cpu": cpu, "versions": versions}


def source_size() -> dict:
    lines = 0
    for folder, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    lines += sum(1 for _ in fh)
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", fh.read(), re.S | re.M)
    deps = re.findall(r'"([^"]+)"', block.group(1)) if block else []
    return {"src_py_lines": lines, "runtime_dependencies": len(deps)}


def commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = {"commit": commit(), "machine": machine(), **source_size(),
              "run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {"correct": all(r["correct"] for r, _ in results),
                 "failed": sum(r["failed"] for r, _ in results),
                 "attempted": sum(r["attempted"] for r, _ in results),
                 "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in results]
            median, share = spread(values)
            entry["end_to_end"][name] = {"median": median, "unit": units[name], "spread": share,
                                         "bound": bound, "values": values}
            steady &= name == "setup_s" or share < bound / 3
            print(f"{workload:7s} {name:12s} median {median:.6g} {units[name]:4s} "
                  f"spread {share:.4f} bound {bound}  runs: "
                  + " ".join(f"{v:.4g}" for v in values), flush=True)
            if all(name in raw for _, raw in results):
                values = [raw[name] for _, raw in results]
                median, share = spread(values)
                entry["end_to_end"][name]["raw"] = {"median": median, "spread": share,
                                                    "values": values}
                print(f"{workload:7s} {name:12s} raw    {median:.6g} {units[name]:4s} "
                      f"spread {share:.4f}", flush=True)
        traced, _ = run(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["traced"] = {name: m["value"] for name, m in traced["metrics"].items()}
        entry["correct"] = entry["correct"] and traced["correct"]
        report["workloads"][workload] = entry
        print(f"{workload:7s} correct {entry['correct']} failed {entry['failed']} "
              f"of {entry['attempted']}", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("every spread below a third of its bound" if steady
          else "some spread is a third of its bound or more")
    return 0


if __name__ == "__main__":
    sys.exit(main())
