"""The repository benchmark: seeded workloads, correctness gates, metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
gives the details behind the numbers.

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json for
``--seconds`` of ops, untraced.  ``--trace 1`` measures the per-layer
metrics instead: it runs a fixed prefix of the workload's ops once untraced
and once traced (so the exact counts repeat on any machine), and writes the
spans to ``perfbench/out/``.  A failed correctness gate prints the result
with ``"correct": false`` and exits with status 1; a checkout without the
library sources exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from array import array
from collections import Counter

from calibration import Speed, timed_starts

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 7          # fresh interpreters timed per run for setup_s
CLI_PROBES = 3            # fresh `python -m besselstruve audit` runs per traced run
CHECK_RATE = 1 / 10       # share of series ops checked against mpmath
# Ops of the traced prefix; sized so that one traced pass takes a few seconds.
TRACE_PREFIX = {"audit_default": 2 * 277, "audit_wide": 28, "series_eval": 2000,
                "series_wide": 2000}
# ops_per_s is the median over windows of this many ops (a default-grid
# window is one pass and its report), which keeps short bursts of machine
# noise out of the throughput.
WINDOW_OPS = {"audit_default": None, "audit_wide": 28, "series_eval": 1000,
              "series_wide": 1000}
# Ops between two calibrations: about 0.1 s of work, so that the scale
# follows the machine's speed closely.
CAL_OPS = {"audit_default": 23, "audit_wide": 7, "series_eval": 250, "series_wide": 250}
CLI_ARGS = ["audit", "--id", "T3", "--mu", "1", "--lambda", "2.5", "--a", "1", "--y", "0.5"]

clock = time.perf_counter


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("audit_default", "audit_wide", "series_eval", "series_wide"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import and warm up, print 'ready', exit")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------
# running ops

class Tally:
    """Outcomes of a run's ops, folded in as each op completes, so that the
    benchmark's own memory does not grow with the length of the run."""

    def __init__(self, workload, seed, keep_results=False):
        import workloads

        self._w = workloads
        self.workload = workload
        self.n = 0
        self.lat = array("d")        # scaled latency of every op, filled per calibration
        self.decided = 0
        self.raised = Counter()
        self.escaped_audit = Counter()
        self.verdicts = Counter()
        self.stage_errors = Counter()
        self.errors = []
        self.reports = Counter()
        self.results = [] if keep_results else None
        # series workloads: a seeded sample of converged results for the mpmath
        # check, kept in flat arrays (op position in the stream; two value and
        # converged slots per op) so that the sample adds little to peak_rss_mb
        self.seed = seed
        self.checkable = 0
        self.sample_at = array("q")
        self.sample_value = array("d")
        self.sample_converged = array("b")
        self._pick = (random.Random(f"check:{seed}")
                      if workload in workloads.SERIES_WORKLOADS else None)

    def add(self, op, result):
        self.n += 1
        self.decided += self._w.decided(op, result)
        if self.results is not None:
            self.results.append(result)
        if isinstance(result, BaseException):
            self.raised[type(result).__name__] += 1
            if op.kind == "audit":
                self.escaped_audit[type(result).__name__] += 1
        elif op.kind == "audit":
            self.verdicts[result.verdict] += 1
            for stage, field in (("lhs", "lhs_error"), ("derived", "rhs_derived_error"),
                                 ("stated", "rhs_stated_error")):
                self.stage_errors[stage] += getattr(result, field) is not None
        if op.kind == "audit":
            self.errors.extend(self._w.audit_record_errors(self.workload, op, result))
        elif self._pick is not None:
            picked = self._pick.random() < CHECK_RATE
            parts = () if isinstance(result, BaseException) else (
                result if isinstance(result, tuple) else (result,))
            if any(p.converged for p in parts):
                self.checkable += 1
                if picked:
                    self.sample_at.append(self.n - 1)
                    for p in (parts + parts)[:2]:
                        self.sample_value.append(p.value)
                        self.sample_converged.append(p.converged)

    def add_report(self, text):
        self.reports[text] += 1
        if text.count("\n") != self._w.DEFAULT_PASS_LEN + 1:
            self.errors.append("default-grid report does not hold one row per point")
        if len(self.reports) > 1:
            self.errors.append("default-grid reports differ between passes")

    def check_sample(self):
        """(checked, mismatched) of the sample against the mpmath references."""
        from reference import check

        ops = self._w.GENERATORS[self.workload](self.seed)
        verdicts, pos = [], 0
        for k, at in enumerate(self.sample_at):
            op = next(itertools.islice(ops, at - pos, None))
            pos = at + 1
            parts = zip(self.sample_value[2 * k:2 * k + 2], self.sample_converged[2 * k:2 * k + 2])
            verdicts.append(check(op, list(parts)))
        checked = [v for v in verdicts if v is not None]
        return len(checked), checked.count(False)


def run_ops(ops, tally, seconds=None, tracer=None):
    """Run ops in a closed loop, one at a time, until they run out or their
    raw timed total reaches ``seconds`` (on audit_default: at the end of the
    pass during which it does).  Only the library calls are timed,
    not the benchmark's bookkeeping between them.  A calibration brackets
    every CAL_OPS ops, and the times in between are scaled by it (see
    :mod:`calibration`).  Returns (scaled timed seconds, raw timed seconds,
    scaled ops per second of each complete window of WINDOW_OPS ops)."""
    from workloads import REPORT, execute, render

    window_ops = WINDOW_OPS[tally.workload]
    cal_ops = CAL_OPS[tally.workload]
    speed = Speed()
    raw = scaled = 0.0
    windows = []
    seg_lat, seg_t = [], 0.0       # ops since the last calibration
    win_n, win_t = 0, 0.0          # ops of the current window, scaled time
    speed.sample()
    records = []

    def close_segment():
        nonlocal seg_lat, seg_t, scaled, win_t
        speed.sample()
        f = speed.factor()
        tally.lat.extend(d * f for d in seg_lat)
        scaled += seg_t * f
        win_t += seg_t * f
        seg_lat, seg_t = [], 0.0

    for item in ops:
        if item is REPORT:
            t0 = clock()
            text = render(records)
            dt = clock() - t0
            records = []
            tally.add_report(text)
        else:
            if tracer is not None:
                tracer.op_id = tally.n
            t0 = clock()
            try:
                result = execute(item)
            except Exception as exc:  # an escaped exception is the op's outcome
                result = exc
            dt = clock() - t0
            seg_lat.append(dt)
            win_n += 1
            tally.add(item, result)
            if item.kind == "audit" and not isinstance(result, BaseException):
                records.append(result)
        raw += dt
        seg_t += dt
        # the default sweep stops at the end of a pass, so every run holds
        # whole passes and its latency percentiles always rank the same points
        done = (seconds is not None and raw >= seconds
                and (window_ops is not None or item is REPORT))
        window_done = item is REPORT or win_n == window_ops
        if window_done or len(seg_lat) == cal_ops or done:
            close_segment()
        if window_done:
            windows.append(win_n / win_t)
            win_n, win_t = 0, 0.0
        if done:
            break
    if seg_lat or seg_t:
        close_segment()
    return scaled, raw, windows


def op_latencies(workload, lat):
    """The latency of every op for the percentiles.  The default sweep runs
    the same 276 points once per pass, in whole passes, and the slowest 1%
    of single executions is set by machine noise on ~10 ms ops, which the
    ~0.1 s calibration cannot follow; there each execution counts with its
    point's median over the run's passes.  Other workloads never repeat an
    op, so their latencies are taken as measured."""
    if workload != "audit_default":
        return lat
    from workloads import DEFAULT_PASS_LEN

    passes = len(lat) // DEFAULT_PASS_LEN
    return [statistics.median(lat[i::DEFAULT_PASS_LEN])
            for i in range(DEFAULT_PASS_LEN)] * passes


def tail_percentile(sorted_lat):
    """The highest percentile, at most the 99th, with at least ten samples
    beyond it: (value, percentile, samples beyond)."""
    n = len(sorted_lat)
    k = min(math.ceil(0.99 * n) - 1, n - 11)
    if k < 0:
        k = n - 1
    return sorted_lat[k], 100.0 * (k + 1) / n, n - 1 - k


# --------------------------------------------------------------------------
# set-up time

def warm_up(workload):
    """Untimed warm-up: import-time caches, first calls and one report."""
    from workloads import REPORT, execute, render, warmup_ops

    records = []
    for item in warmup_ops(workload):
        if item is REPORT:
            render(records)
        else:
            records.append(execute(item))


def setup_probe(workload):
    warm_up(workload)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def measure_setup(workload):
    """Time from starting a fresh interpreter to the end of its import and
    warm-up, for SETUP_PROBES interpreters: (scaled, raw) samples."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload]
    scaled, raw, outputs = timed_starts(cmd, SETUP_PROBES, cwd=ROOT)
    if any(out.strip() != "ready" for out in outputs):
        raise RuntimeError("set-up probe did not report ready")
    return scaled, raw


def measure_cli():
    """Cold start of ``python -m besselstruve audit ...`` to its verdict:
    (scaled, raw) samples."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    scaled, raw, outputs = timed_starts([sys.executable, "-m", "besselstruve"] + CLI_ARGS,
                                        CLI_PROBES, cwd=ROOT, env=env)
    if any("VERIFIED" not in out for out in outputs):
        raise RuntimeError("CLI cold start did not print the verdict")
    return scaled, raw


# --------------------------------------------------------------------------
# the two kinds of run

def end_to_end(workload, seed, seconds):
    from workloads import GENERATORS, SERIES_WORKLOADS

    setup, setup_raw = measure_setup(workload)
    warm_up(workload)
    tally = Tally(workload, seed)
    timed, raw, windows = run_ops(GENERATORS[workload](seed), tally, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = tally.n
    n_raised = sum(tally.raised.values())
    detail = {}
    est_mismatched = 0.0
    if workload in SERIES_WORKLOADS:
        checked, mismatched = tally.check_sample()
        if checked:
            est_mismatched = mismatched / checked * tally.checkable
        detail.update(checked=checked, mismatched=mismatched, checkable=tally.checkable)
    lat = sorted(op_latencies(workload, tally.lat))
    tail, pct, beyond = tail_percentile(lat)
    metrics = {
        "ops_per_s": statistics.median(windows) if windows else n / timed,
        "op_ms.p50": statistics.median(lat) * 1e3,
        "op_ms.p99": tail * 1e3,
        "ok_frac": 1.0 - (n_raised + est_mismatched) / n,
        "decided_frac": tally.decided / n,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    detail.update(samples=n, windows=len(windows), timed_s=timed, raw_timed_s=raw,
                  raw_ops_per_s=n / raw, speed_scale=timed / raw,
                  p99_percentile=pct, p99_beyond=beyond, raised=dict(tally.raised),
                  setup_samples=setup, raw_setup_samples=setup_raw,
                  report_passes=sum(tally.reports.values()), gate_errors=tally.errors[:20])
    return not tally.errors, n, n_raised + round(est_mismatched), metrics, detail


def traced(workload, seed):
    import numpy as np

    import tracing
    from workloads import GENERATORS

    prefix = list(itertools.islice(GENERATORS[workload](seed), TRACE_PREFIX[workload]))
    warm_up(workload)
    plain = Tally(workload, seed, keep_results=True)
    untraced, _, _ = run_ops(prefix, plain)
    tally = Tally(workload, seed, keep_results=True)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced_s, raw, _ = run_ops(prefix, tally, tracer=tracer)

    errors = list(tally.errors)
    if [repr(r) for r in plain.results] != [repr(r) for r in tally.results]:
        errors.append("traced results differ from untraced results")
    # span times are raw; scale them like every other time of the run
    f = traced_s / raw
    metrics = {k: v * f if k.endswith(("_s", "ns_per_call")) else v
               for k, v in tracing.summarize(tracer).items()}
    for verdict in ("VERIFIED", "REFUTED", "INCONCLUSIVE"):
        metrics[f"audit.verdict.{verdict}"] = tally.verdicts[verdict]
    for stage in ("lhs", "derived", "stated"):
        metrics[f"audit.errors.{stage}"] = tally.stage_errors[stage]
    escaped = Counter(tally.escaped_audit)
    metrics["audit.raised.OverflowError"] = escaped.pop("OverflowError", 0)
    metrics["audit.raised.other"] = sum(escaped.values())
    cli, cli_raw = measure_cli()
    metrics["cli.cold_start_s"] = statistics.median(cli)
    metrics["trace.overhead_frac"] = traced_s / untraced - 1.0

    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{workload}-seed{seed}.npz")
    np.savez_compressed(spans_path, **tracer.spans())
    detail = dict(prefix_ops=tally.n, untraced_s=untraced, traced_s=traced_s,
                  speed_scale=f, spans=len(tracer.start),
                  spans_file=os.path.relpath(spans_path, ROOT),
                  raised=dict(tally.raised), audit_raised=dict(tally.escaped_audit),
                  cli_samples=cli, raw_cli_samples=cli_raw, exact_counts=dict(sorted(tracer.counts.items())),
                  gate_errors=errors[:20])
    return not errors, tally.n, sum(tally.raised.values()), metrics, detail


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "besselstruve", "__init__.py")):
        sys.stderr.write("perfbench: no library sources under src/; "
                         "run from the root of a repository checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    if args.trace:
        ok, attempted, failed, metrics, detail = traced(args.workload, args.seed)
    else:
        ok, attempted, failed, metrics, detail = end_to_end(
            args.workload, args.seed, args.seconds)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, nproc=os.cpu_count())
    result = {
        "correct": ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
