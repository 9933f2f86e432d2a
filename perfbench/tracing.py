"""Spans and exact work counts recorded from outside the library.

Each public function is wrapped at the place where its calling module bound
it (``besselstruve.wright.signed_log_gamma``, ``besselstruve.audit.quad_lhs``,
the ``sum_series`` name in ``kernels``, ``wright`` and ``quadrature``, ...),
so the library's own code is untouched and every call it makes through those
names is seen.  The wrappers are installed for one traced pass and removed
afterwards.

A span records its name, start, end, parent span and op id; spans are kept
in flat arrays in memory and written out when the run ends.  Calls too
cheap to carry a span of their own (the gamma primitives, about 1 us each)
are leaves: they add to a count, to their layer's busy time and to the
leaf time of the enclosing span, which the self-time computation subtracts.
Leaf timings include the wrapper's own clock reads, so ``gammakit.busy_s``
and ``gammakit.ns_per_call`` are overhead-inclusive.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np

import besselstruve.audit as audit_mod
import besselstruve.kernels as kernels_mod
import besselstruve.quadrature as quadrature_mod
import besselstruve.report as report_mod
import besselstruve.wright as wright_mod
from besselstruve.errors import NonConvergenceError

_clock = time.perf_counter


class Tracer:
    """In-memory span store and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.leaf = array("d")       # time in leaf calls made directly under the span
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.gamma_busy = 0.0
        self.quad_depth = 0
        self.coeff_count = 0         # truncation length of the last coefficients() call

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.leaf.append(0.0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self.stack.pop()

    def add_leaf(self, dt: float) -> None:
        if self.stack:
            self.leaf[self.stack[-1]] += dt

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "leaf": np.frombuffer(self.leaf, dtype=np.float64),
        }


# --------------------------------------------------------------------------
# wrappers

def _span(tracer: Tracer, name: str, fn, after=None):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(result)
        return result
    return wrapped


def _gamma_leaf(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapped(x):
        t0 = _clock()
        try:
            return fn(x)
        finally:
            dt = _clock() - t0
            tracer.counts["gammakit.calls"] += 1
            tracer.gamma_busy += dt
            tracer.add_leaf(dt)
    return wrapped


def _counted(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapped


def _add_terms(tracer: Tracer, key: str):
    def after(result):
        tracer.counts[key] += result.terms_used
    return after


def _quad_lhs(tracer: Tracer, fn):
    nid = tracer.name_id("quadrature.quad_lhs")

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        i = tracer.open(nid)
        tracer.quad_depth += 1
        try:
            result = fn(*args, **kwargs)
        except NonConvergenceError as exc:
            if "budget exhausted" in str(exc):
                tracer.counts["quadrature.budget_exhausted"] += 1
            raise
        finally:
            tracer.quad_depth -= 1
            tracer.close(i)
        tracer.counts["quadrature.converged"] += 1
        tracer.counts["quadrature.subdivisions"] += result.subdivisions
        return result
    return wrapped


def _evaluate_many(tracer: Tracer, fn):
    nid = tracer.name_id("kernels.evaluate_many")

    @functools.wraps(fn)
    def wrapped(self, w, *args, **kwargs):
        tracer.coeff_count = 0
        i = tracer.open(nid)
        try:
            result = fn(self, w, *args, **kwargs)
        finally:
            tracer.close(i)
        points = int(np.size(w))
        tracer.counts["kernels.evaluate_many.points"] += points
        tracer.counts["kernels.horner_madds"] += points * tracer.coeff_count
        if tracer.quad_depth:
            tracer.counts["quadrature.n_evals"] += points
        return result
    return wrapped


def _coefficients(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapped(self, count):
        tracer.coeff_count = count
        return fn(self, count)
    return wrapped


def _coeff_lookup(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapped(self, n):
        tracer.counts["kernels.coeff_requested"] += 1
        if n not in self._cache:
            tracer.counts["kernels.coeff_computed"] += 1
        return fn(self, n)
    return wrapped


def _report_bytes(tracer: Tracer):
    def after(text):
        tracer.counts["report.bytes"] += len(text.encode("utf-8"))
    return after


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every binding the tracer replaces."""
    psk = kernels_mod.PowerSeriesKernel
    t = tracer

    def orig(owner, attr):
        return vars(owner)[attr]

    def span(owner, attr, name, after=None):
        return owner, attr, _span(t, name, orig(owner, attr), after)

    patches = [
        span(audit_mod, "audit_point", "audit.audit_point"),
        (audit_mod, "quad_lhs", _quad_lhs(t, orig(audit_mod, "quad_lhs"))),
        span(audit_mod, "proof_series", "quadrature.proof_series",
             _add_terms(t, "quadrature.proof_series.terms")),
        span(audit_mod, "wright_eval", "wright.wright_eval", _add_terms(t, "wright.terms")),
        span(audit_mod, "pfq_eval", "wright.pfq_eval", _add_terms(t, "wright.terms")),
        span(audit_mod.WrightClosedForm, "evaluate", "audit.stated"),
        span(audit_mod.PfqClosedForm, "evaluate", "audit.stated"),
        span(kernels_mod, "kernel_eval", "kernels.kernel_eval"),
        span(kernels_mod, "bessel_i", "kernels.bessel_struve"),
        span(kernels_mod, "struve_l", "kernels.bessel_struve"),
        (psk, "evaluate_many", _evaluate_many(t, orig(psk, "evaluate_many"))),
        (psk, "coefficients", _coefficients(t, orig(psk, "coefficients"))),
        (psk, "_c", _coeff_lookup(t, orig(psk, "_c"))),
        span(report_mod, "render_report", "report.render_report", _report_bytes(t)),
        (audit_mod, "as_power_series",
         _counted(t, "kernels.kernels_built", orig(audit_mod, "as_power_series"))),
        (audit_mod, "catalog", _counted(t, "audit.catalog.calls", orig(audit_mod, "catalog"))),
        (quadrature_mod, "oberhettinger_closed",
         _counted(t, "quadrature.oberhettinger_closed.calls",
                  orig(quadrature_mod, "oberhettinger_closed"))),
    ]
    for mod in (kernels_mod, wright_mod, quadrature_mod):
        patches.append(span(mod, "sum_series", "series.sum_series",
                            _add_terms(t, "series.terms")))
    for mod, attr in ((wright_mod, "signed_log_gamma"), (kernels_mod, "log_gamma"),
                      (kernels_mod, "reciprocal_gamma"), (quadrature_mod, "log_gamma"),
                      (audit_mod, "_gamma_fn")):
        patches.append((mod, attr, _gamma_leaf(t, orig(mod, attr))))
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced binding for the duration of the block."""
    patches = _patches(tracer)
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# --------------------------------------------------------------------------
# analysis

def self_times(start, end, parent, leaf) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover (the
    union of their intervals clipped to the parent) minus its leaf time."""
    start = [float(v) for v in start]
    end = [float(v) for v in end]
    parent = [int(v) for v in parent]
    cover = [0.0] * len(start)
    order = sorted((p, s, i) for i, (p, s) in enumerate(zip(parent, start)) if p >= 0)
    cur, lo_run, hi_run = -1, 0.0, 0.0
    for p, _, i in order:
        lo, hi = max(start[i], start[p]), min(end[i], end[p])
        if hi <= lo:
            continue
        if p != cur:
            if cur >= 0:
                cover[cur] += hi_run - lo_run
            cur, lo_run, hi_run = p, lo, hi
        elif lo > hi_run:
            cover[cur] += hi_run - lo_run
            lo_run, hi_run = lo, hi
        else:
            hi_run = max(hi_run, hi)
    if cur >= 0:
        cover[cur] += hi_run - lo_run
    dur = np.asarray(end) - np.asarray(start)
    return np.maximum(dur - np.asarray(cover) - np.asarray(leaf, dtype=float), 0.0)


# Metrics of summarize() that the library does not decide by timing: they
# repeat exactly between traced runs of one seed on any machine, so a later
# change can cite them as counts.
WORK_COUNTS = ("gammakit.calls", "series.terms", "wright.terms", "kernels.horner_madds",
               "kernels.coeff_computed", "quadrature.n_evals", "quadrature.subdivisions",
               "quadrature.budget_exhausted")
# The wrapped call is cheaper than its wrapper: these include the wrapper's
# own clock reads and must not be read as the speed of the function.
OVERHEAD_INCLUSIVE = ("gammakit.busy_s", "gammakit.ns_per_call")


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced pass."""
    sp = tracer.spans()
    names = list(sp["names"])
    name, parent = sp["name"], sp["parent"]
    dur = sp["end"] - sp["start"]
    own = self_times(sp["start"], sp["end"], parent, sp["leaf"])
    c = tracer.counts

    def mask(span_name):
        if span_name not in names:
            return np.zeros(len(name), dtype=bool)
        return name == names.index(span_name)

    def calls(n):
        return int(mask(n).sum())

    def busy(n):
        return float(dur[mask(n)].sum())

    def self_s(n):
        return float(own[mask(n)].sum())

    def stage(n):
        m = mask(n)
        under_audit = np.zeros(len(name), dtype=bool)
        pm = parent >= 0
        under_audit[pm] = mask("audit.audit_point")[parent[pm]]
        return float(dur[m & under_audit].sum())

    quad_calls = calls("quadrature.quad_lhs")
    gamma_calls = c["gammakit.calls"]
    requested = c["kernels.coeff_requested"]
    return {
        "gammakit.calls": gamma_calls,
        "gammakit.busy_s": tracer.gamma_busy,
        "gammakit.ns_per_call": tracer.gamma_busy / gamma_calls * 1e9 if gamma_calls else 0.0,
        "series.sum_series.calls": calls("series.sum_series"),
        "series.terms": c["series.terms"],
        "series.self_s": self_s("series.sum_series"),
        "wright.wright_eval.calls": calls("wright.wright_eval"),
        "wright.wright_eval.busy_s": busy("wright.wright_eval"),
        "wright.pfq_eval.busy_s": busy("wright.pfq_eval"),
        "wright.terms": c["wright.terms"],
        "kernels.kernels_built": c["kernels.kernels_built"],
        "kernels.coeff_computed": c["kernels.coeff_computed"],
        "kernels.coeff_reuse_ratio":
            1.0 - c["kernels.coeff_computed"] / requested if requested else 0.0,
        "kernels.evaluate_many.calls": calls("kernels.evaluate_many"),
        "kernels.evaluate_many.points": c["kernels.evaluate_many.points"],
        "kernels.evaluate_many.busy_s": busy("kernels.evaluate_many"),
        "kernels.horner_madds": c["kernels.horner_madds"],
        "kernels.kernel_eval.busy_s": busy("kernels.kernel_eval"),
        "kernels.bessel_struve.busy_s": busy("kernels.bessel_struve"),
        "quadrature.quad_lhs.calls": quad_calls,
        "quadrature.quad_lhs.busy_s": busy("quadrature.quad_lhs"),
        "quadrature.quad_lhs.self_s": self_s("quadrature.quad_lhs"),
        "quadrature.n_evals": c["quadrature.n_evals"],
        "quadrature.subdivisions": c["quadrature.subdivisions"],
        "quadrature.budget_exhausted": c["quadrature.budget_exhausted"],
        "quadrature.converged_frac":
            c["quadrature.converged"] / quad_calls if quad_calls else 0.0,
        "quadrature.proof_series.calls": calls("quadrature.proof_series"),
        "quadrature.proof_series.busy_s": busy("quadrature.proof_series"),
        "quadrature.proof_series.terms": c["quadrature.proof_series.terms"],
        "quadrature.oberhettinger_closed.calls": c["quadrature.oberhettinger_closed.calls"],
        "audit.audit_point.busy_s": busy("audit.audit_point"),
        "audit.audit_point.self_s": self_s("audit.audit_point"),
        "audit.catalog.calls": c["audit.catalog.calls"],
        "audit.stage.lhs_s": stage("quadrature.quad_lhs"),
        "audit.stage.derived_s": stage("quadrature.proof_series"),
        "audit.stage.stated_s": stage("audit.stated"),
        "report.render_report.busy_s": busy("report.render_report"),
        "report.bytes": c["report.bytes"],
    }
