"""Measure the benchmark's run-to-run spread and write its baseline.

    python3 perfbench/baseline.py

Runs ``perfbench/run.py`` one run at a time, each ``run_seconds`` of
BENCHMARK.json long, on seeds 1-10 of every workload of BENCHMARK.json and
of ``audit_wide`` and ``series_wide``, which BENCHMARK.json leaves out (see
README.md).  It then takes a second ten-seed set of the BENCHMARK.json
workloads, some minutes after the first, and compares the two sets' medians
against each metric's bound.  It prints for every end-to-end metric the median and the distance
between the first and third quartile (``statistics.quantiles(values, n=4)``)
as a share of the median, next to a third of the metric's bound.

Last it makes two traced runs of seed 1 per workload, checks that every
exact count repeats between them, and writes the schema, the workloads, the
machine and all of these numbers to ``perfbench/baseline.json``.  It exits
with status 1 when a spread or a gap between the two sets exceeds its bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import OVERHEAD_INCLUSIVE, WORK_COUNTS  # noqa: E402

SEEDS = range(1, 11)
OUT = os.path.join(HERE, "baseline.json")
GENERATORS = {
    "audit_default": "workloads.audit_default_ops: the built-in default grids in grid "
                     "order, pass after pass, a CSV report after each pass; seed unused",
    "series_eval": "workloads.series_eval_ops: random.Random('series_eval:<seed>'), "
                   "five kinds in strict rotation, series arguments from -6",
    "series_wide": "workloads.series_wide_ops: random.Random('series_wide:<seed>'), "
                   "five kinds in strict rotation, series arguments from -30 (w from -20)",
    "audit_wide": "workloads.audit_wide_ops: random.Random('audit_wide:<seed>'), "
                  "seven ids round-robin, no tuple repeated",
}
# Workloads run here but left out of BENCHMARK.json, and why they are run.
EXTRA_WHY = {
    "audit_wide": "Fresh points over the whole admissible domain: about 8% run the "
                  "quadrature to its 2000-panel budget at ~1.5 s each, where the panel "
                  "bookkeeping dominates; not in BENCHMARK.json because a 30 s run holds "
                  "too few of those points for a steady throughput.",
    "series_wide": "series_eval over the whole argument range, where the ROADMAP 3a "
                   "overflow and 3b cancellation make about 7% of ops fail; not in "
                   "BENCHMARK.json, whose workloads must run without failed ops.",
}


def _run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: status {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def schema(bench):
    rows = [{"name": m["name"], "unit": m["unit"], "better": m["better"],
             "bound": m["bound"], "layer": "end_to_end", "kind": "end_to_end"}
            for m in bench["end_to_end"]]
    for m in bench["per_layer"]:
        kind = {"count": "count", "bytes": "count", "s": "timed", "ns": "timed"}.get(
            m["unit"], "ratio")
        rows.append({"name": m["name"], "unit": m["unit"], "better": m["better"],
                     "layer": m["name"].split(".")[0],
                     "kind": "exact_count" if m["name"] in WORK_COUNTS else kind,
                     "overhead_inclusive": m["name"] in OVERHEAD_INCLUSIVE})
    return rows


def ten_seeds(bench, workload):
    """One untraced run per seed; returns the runs and a summary per metric."""
    runs = []
    for seed in SEEDS:
        detail, result = _run(bench, workload, seed, bench["run_seconds"], 0)
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed}: a correctness gate failed: "
                     f"{detail['gate_errors']}")
        runs.append({"seed": seed, "attempted": result["attempted"],
                     "failed": result["failed"],
                     **{k: v["value"] for k, v in result["metrics"].items()}})
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v:.5g}" for k, v in runs[-1].items() if k != "seed"), flush=True)
    summary = {}
    for m in bench["end_to_end"]:
        s = summary[m["name"]] = summarize([r[m["name"]] for r in runs])
        flag = "" if s["spread"] < m["bound"] / 3 else "   <-- not below a third of the bound"
        print(f"  {m['name']:14s} median {s['median']:.6g} {m['unit']:6s} "
              f"spread {s['spread']:.4f} (bound/3 {m['bound'] / 3:.4f}){flag}", flush=True)
    return runs, summary


def drift(bench, first, second):
    """How much worse the second set's median is than the first's, as a share
    of the first, per metric; negative when it is better."""
    out = {}
    for m in bench["end_to_end"]:
        a, b = first[m["name"]]["median"], second[m["name"]]["median"]
        gap = (b - a) / abs(a) if a else 0.0
        worse = gap if m["better"] == "lower" else -gap
        out[m["name"]] = {"first_median": a, "second_median": b, "worse_by": worse,
                          "bound": m["bound"], "within_bound": worse <= m["bound"]}
        flag = "" if worse <= m["bound"] else "   <-- exceeds the bound"
        print(f"  {m['name']:14s} second set worse by {worse:+.4f} "
              f"(bound {m['bound']}){flag}", flush=True)
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    kept = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs, first = {}, {}
    for workload in kept + list(EXTRA_WHY):
        runs[workload], first[workload] = ten_seeds(bench, workload)
    second_runs, second, gaps = {}, {}, {}
    for workload in kept:
        print(f"second set, {workload}", flush=True)
        second_runs[workload], second[workload] = ten_seeds(bench, workload)
        gaps[workload] = drift(bench, first[workload], second[workload])
    ok = all(g["within_bound"] for w in kept for g in gaps[w].values()) and all(
        s[name]["spread"] <= bounds[name] for w in kept for s in (first[w], second[w])
        for name in bounds if name != "setup_s")

    per_layer = {}
    for workload in kept + list(EXTRA_WHY):
        one, traced = _run(bench, workload, 1, bench["run_seconds"], 1)
        two, traced_again = _run(bench, workload, 1, bench["run_seconds"], 1)
        counts = {k: traced["metrics"][k]["value"] for k in WORK_COUNTS}
        if (one["exact_counts"] != two["exact_counts"]
                or counts != {k: traced_again["metrics"][k]["value"] for k in WORK_COUNTS}):
            sys.exit(f"{workload}: counts differ between two traced runs of seed 1")
        per_layer[workload] = {
            "seed": 1, "prefix_ops": one["prefix_ops"], "counts_repeat_exactly": True,
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            "counters": one["exact_counts"]}

    doc = {
        "about": "Baseline of the benchmark defined in BENCHMARK.json; written by "
                 "perfbench/baseline.py. Times are scaled to the nominal machine "
                 "of perfbench/calibration.py.",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform(terse=True), "numpy": version("numpy"),
                    "mpmath": version("mpmath")},
        "run_seconds": bench["run_seconds"],
        "seeds": f"{SEEDS[0]}-{SEEDS[-1]}",
        "workloads": [
            {"name": w["name"], "in_benchmark_json": True, "why": w["why"],
             "generator": GENERATORS[w["name"]], "seed_argument": "--seed"}
            for w in bench["workloads"]] + [
            {"name": name, "in_benchmark_json": False, "why": why,
             "generator": GENERATORS[name], "seed_argument": "--seed"}
            for name, why in EXTRA_WHY.items()],
        "schema": schema(bench),
        "end_to_end": first,
        "second_set": {"about": "a second ten-seed set of the BENCHMARK.json workloads, "
                                "taken after the first; worse_by is the share of the "
                                "first set's median by which the second is worse",
                       "end_to_end": second, "drift": gaps},
        "per_layer": per_layer,
        "runs": runs,
        "second_runs": second_runs,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
