"""Seeded workload generators, op execution and correctness gates.

Load model: closed loop, one caller.  One process and one thread issue one
op at a time; the next op starts only after the previous one returned.  An
op is one ``audit_point`` call in the audit workloads and one scalar
evaluation in the series workloads.  The library only ever sees the
generated inputs; the seed never reaches it.

Every library function is looked up on its module at call time, so the
wrappers that :mod:`tracing` installs on those module attributes apply.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Iterator

import besselstruve.audit as audit_mod
import besselstruve.kernels as kernels_mod
import besselstruve.report as report_mod

CATALOG = audit_mod.catalog()
IDS = audit_mod.CATALOG_IDS

# Marker placed after each complete default pass: render the pass's report.
REPORT = "report"

# Stated forms evaluated by the series workloads.  T2's stated series lies outside its
# convergence domain for every gy != 0 (the library refuses it by design), so
# evaluating it would only time that refusal.
_WRIGHT_FORMS = ("T1", "C1", "C3", "T3", "T4", "T1-derived")
SERIES_KINDS = ("wright", "pfq", "kernel", "bessel_struve", "derived")

# Lower ends of the series arguments (gy/a of the Wright, pFq and derived
# series; w of kernel_eval), as (z_min, w_min).  Below about -10 the
# library's alternating series lose more than ten digits to cancellation and
# report wrong values as converged (ROADMAP 3b), and near -28 proof_series
# overflows (3a).  series_eval stops at -6, where the worst relative error
# seen is about 1e-9, a thousandth of the check's tolerance; series_wide and audit_wide keep the whole domain, so both defects
# show there as failed ops.
SERIES_EVAL_ARGS = (-6.0, -6.0)
WIDE_ARGS = (-30.0, -20.0)


@dataclass(frozen=True)
class Op:
    """One operation: ``kind`` selects the library entry point, ``args`` its inputs."""

    kind: str
    args: tuple

    def key(self) -> tuple:
        return (self.kind,) + self.args


# --------------------------------------------------------------------------
# generators

def _default_points() -> list[Op]:
    ops = []
    for ident in IDS:
        free_alpha = CATALOG[ident].fixed_alpha is None
        for pt in audit_mod.default_grid(ident).points():
            ops.append(Op("audit", (ident, pt.mu, pt.lam, pt.a, pt.y, pt.gamma,
                                    pt.alpha if free_alpha else None)))
    return ops


DEFAULT_PASS = _default_points()          # 276 points, grid order
DEFAULT_PASS_LEN = len(DEFAULT_PASS)


def audit_default_ops(seed: int) -> Iterator[Any]:
    """The built-in default grids, pass after pass; the seed is not used
    because the paper's headline sweep has no free inputs."""
    del seed
    while True:
        yield from DEFAULT_PASS
        yield REPORT


def _draw_point(rng: random.Random, ident: str, z_min: float = WIDE_ARGS[0]) -> tuple:
    """One admissible parameter point, kernel argument gy/a from ``z_min`` to 8."""
    mu = rng.uniform(0.05, 4.0)
    dlam = math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
    a = math.exp(rng.uniform(math.log(1e-2), math.log(1e2)))
    alpha = rng.uniform(-0.9, 3.0) if CATALOG[ident].fixed_alpha is None else None
    if ident == "T2":
        gy = rng.uniform(-1.8, 1.8)          # T2's own domain rule |gy|/2 <= 0.9
    else:
        gy = a * rng.uniform(z_min, 8.0)     # kernel argument gy/a ~ U[z_min, 8]
    return mu, mu + dlam, a, gy, alpha


def audit_wide_ops(seed: int) -> Iterator[Op]:
    """Fresh points, all seven ids round-robin, no tuple repeated."""
    rng = random.Random(f"audit_wide:{seed}")
    seen = set()
    for ident in itertools.cycle(IDS):
        while True:
            mu, lam, a, gy, alpha = _draw_point(rng, ident)
            op = Op("audit", (ident, mu, lam, a, gy, 1.0, alpha))
            if op.key() not in seen:
                break
        seen.add(op.key())
        yield op


def _series_ops(name: str, seed: int, args: tuple) -> Iterator[Op]:
    """Scalar evaluations, the five kinds in strict rotation."""
    z_min, w_min = args
    rng = random.Random(f"{name}:{seed}")
    for i in itertools.count():
        kind = SERIES_KINDS[i % len(SERIES_KINDS)]
        rnd = i // len(SERIES_KINDS)
        if kind == "wright":
            form = _WRIGHT_FORMS[rnd % len(_WRIGHT_FORMS)]
            ident = "T1" if form == "T1-derived" else form
            mu, lam, a, gy, alpha = _draw_point(rng, ident, z_min)
            if alpha is None:
                alpha = CATALOG[ident].fixed_alpha
            yield Op(kind, (form, mu, lam, a, gy, alpha))
        elif kind == "pfq":
            mu, lam, a, gy, _ = _draw_point(rng, "C2", z_min)
            yield Op(kind, ("C2", mu, lam, a, gy, CATALOG["C2"].fixed_alpha))
        elif kind == "kernel":
            yield Op(kind, (rng.uniform(-0.9, 3.0), rng.uniform(w_min, 20.0)))
        elif kind == "bessel_struve":
            yield Op(kind, (rng.randrange(2), rng.uniform(-20.0, 20.0)))
        else:
            ident = IDS[rnd % len(IDS)]
            mu, lam, a, gy, alpha = _draw_point(rng, ident, z_min)
            yield Op(kind, (ident, mu, lam, a, gy, alpha))


def series_eval_ops(seed: int) -> Iterator[Op]:
    return _series_ops("series_eval", seed, SERIES_EVAL_ARGS)


def series_wide_ops(seed: int) -> Iterator[Op]:
    return _series_ops("series_wide", seed, WIDE_ARGS)


GENERATORS = {
    "audit_default": audit_default_ops,
    "audit_wide": audit_wide_ops,
    "series_eval": series_eval_ops,
    "series_wide": series_wide_ops,
}
SERIES_WORKLOADS = ("series_eval", "series_wide")


def warmup_ops(workload: str) -> list[Any]:
    """Untimed warm-up: one op of each shape the workload runs, drawn from a
    stream the timed ops never use."""
    if workload in SERIES_WORKLOADS:
        return list(itertools.islice(GENERATORS[workload](-1), 2 * len(SERIES_KINDS)))
    first = {}
    for op in DEFAULT_PASS:
        first.setdefault(op.args[0], op)
    return list(first.values()) + [REPORT]


# --------------------------------------------------------------------------
# execution

def stated_form(form: str, mu, lam, a, gy, alpha):
    if form == "T1-derived":
        return audit_mod.t1_derived_closed_form(mu, lam, a, gy, alpha)
    return CATALOG[form].stated_form(mu, lam, a, gy, alpha)


def execute(op: Op):
    """Run one op against the library and return what it returned."""
    kind, args = op.kind, op.args
    if kind == "audit":
        ident, mu, lam, a, y, gamma, alpha = args
        return audit_mod.audit_point(ident, mu=mu, lam=lam, a=a, y=y,
                                     gamma=gamma, alpha=alpha)
    if kind in ("wright", "pfq"):
        return stated_form(*args).evaluate()
    if kind == "kernel":
        return kernels_mod.kernel_eval(*args)
    if kind == "bessel_struve":
        order, w = args
        return kernels_mod.bessel_i(order, w), kernels_mod.struve_l(order, w)
    ident, mu, lam, a, gy, alpha = args
    return audit_mod.derived_rhs(ident, mu=mu, lam=lam, a=a, y=gy, alpha=alpha)


def render(records: list) -> str:
    return report_mod.render_report(records, "csv")


# --------------------------------------------------------------------------
# outcome classification

def converged(result) -> bool:
    if isinstance(result, tuple):
        return all(r.converged for r in result)
    return result.converged


def decided(op: Op, result) -> bool:
    """VERIFIED/REFUTED for an audit op, ``converged=True`` for a series op."""
    if isinstance(result, BaseException):
        return False
    if op.kind == "audit":
        return result.verdict in (audit_mod.VERIFIED, audit_mod.REFUTED)
    return converged(result)


def expected_default_verdict(ident: str) -> str:
    """The audit outcome the paper's default grids give: T3 holds, the other
    six printed forms are refuted at every point."""
    return audit_mod.VERIFIED if ident == "T3" else audit_mod.REFUTED


def audit_record_errors(workload: str, op: Op, result) -> list[str]:
    """Hard correctness gates of the audit workloads for one op; empty when
    they hold.  An exception escaping ``audit_point`` counts as a failed op,
    except on the default grid, where the paper's outcome must come out."""
    if isinstance(result, BaseException):
        if workload == "audit_default":
            return [f"{type(result).__name__} escaped audit_point at {op.args}"]
        return []
    errors = []
    if not audit_mod.record_invariant_ok(result):
        errors.append(f"record_invariant_ok failed at {op.args}")
    if workload == "audit_default":
        want = expected_default_verdict(op.args[0])
        if result.verdict != want:
            errors.append(f"{result.verdict} at {op.args}, expected {want}")
    return errors
