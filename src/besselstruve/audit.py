"""Audit of the closed-form identities for the kernel-weighted integrals.

The catalog pairs each of seven identities (ids T1, T2, C1, C2, C3, T3, T4)
with the integrand kernel it binds and the closed-form right-hand side it
asserts.  Stated forms are transcribed exactly as written, suspected
misprints included, because the point of the audit is to test the formulas
as stated:

* T1 -- S_alpha kernel, fixed-numerator argument, a 3-factor Wright form.
* T2 -- S_alpha kernel, linear-in-x argument, as written (argument gy,
  prefactor 2**(1+mu)); the written weight sum puts this series outside
  its convergence domain for every gy != 0.
* C1 -- exp kernel, 2-factor Wright form with the (1+lam-mu) denominator
  entry as written.
* C2 -- the same integral as a prefactored 2F2.
* C3 -- the (exp(w)-1)/w kernel composition, with the (1/2, 3/2)
  denominator pair as written.
* T3 -- I0+L0 kernel, 3-factor Wright form.
* T4 -- the w*S_1(w) kernel standing in for the printed bracket
  2*I_1 + L_1 (see :func:`t4_variants` for the distinction),
  2-factor Wright form as written.

Every audited point evaluates three quantities: the quadrature left-hand
side (the referee), the term-by-term derived series (the second oracle),
and the stated right-hand side.  A verdict is only issued when the
quadrature error estimate is below 1e-8 of the value; VERIFIED needs the
stated form within 1e-6 of the quadrature, REFUTED needs it off by more
than 1e-3 *while the derived series agrees to 1e-6* (so a refutation can
never be caused by a broken oracle), and anything else is INCONCLUSIVE.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

from .errors import DomainError, NonConvergenceError
from .gammakit import _require_finite, gamma as _gamma_fn
from .kernels import (KernelChoice, PowerSeriesKernel, _inv_factorial,
                      as_power_series, kernel_coeff)
from .quadrature import ArgForm, IntegralSpec, QuadResult, proof_series, quad_lhs
from .series import SeriesValue
from .wright import WrightSpec, pfq_eval, wright_eval

__all__ = [
    "AuditRecord",
    "CATALOG_IDS",
    "Grid",
    "IdentityDef",
    "INCONCLUSIVE",
    "PfqClosedForm",
    "REFUTED",
    "VERIFIED",
    "WrightClosedForm",
    "audit_point",
    "audit_sweep",
    "catalog",
    "c2_reduction_residual",
    "c3_variants",
    "default_grid",
    "derived_rhs",
    "record_invariant_ok",
    "t1_derived_closed_form",
    "t4_variants",
    "verdict_counts",
]

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
INCONCLUSIVE = "INCONCLUSIVE"

VERIFY_REL_ERR = 1e-6
REFUTE_REL_ERR = 1e-3
LHS_QUALITY = 1e-8
MIN_LAM_MINUS_MU = 0.05   # conditioning floor: keeps gamma(lam-mu) tame
MAX_LINEAR_HALF_ARG = 0.9

_TINY = 1e-300
_SQRT_PI = 1.7724538509055160272981674833411
_REL_ERR_CLAMP = 1e300  # keeps reports JSON-parseable when the reference is 0

CATALOG_IDS = ("T1", "T2", "C1", "C2", "C3", "T3", "T4")


@dataclass(frozen=True)
class WrightClosedForm:
    """prefactor * Wright series at a fixed argument."""

    prefactor: float
    spec: WrightSpec
    z: float

    def evaluate(self, tol: float = 1e-12) -> SeriesValue:
        sv = wright_eval(self.spec, self.z, tol)
        return SeriesValue(self.prefactor * sv.value, sv.terms_used,
                           abs(self.prefactor) * sv.tail_estimate, sv.converged)


@dataclass(frozen=True)
class PfqClosedForm:
    """prefactor * generalized hypergeometric series at a fixed argument."""

    prefactor: float
    upper: tuple[float, ...]
    lower: tuple[float, ...]
    z: float

    def evaluate(self, tol: float = 1e-12) -> SeriesValue:
        sv = pfq_eval(self.upper, self.lower, self.z, tol)
        return SeriesValue(self.prefactor * sv.value, sv.terms_used,
                           abs(self.prefactor) * sv.tail_estimate, sv.converged)


@dataclass(frozen=True)
class IdentityDef:
    """One catalog entry: kernel, argument shape, and stated right side."""

    id: str
    arg_form: ArgForm
    fixed_alpha: float | None   # None: alpha is a free parameter (T1, T2)
    kernel_for: Callable[[float], PowerSeriesKernel]
    stated_form: Callable[[float, float, float, float, float],
                          "WrightClosedForm | PfqClosedForm"]
    description: str


def _t1_stated(mu, lam, a, gy, alpha):
    pref = (2.0 ** (1.0 - mu) * a ** (mu - lam)
            * _gamma_fn(alpha + 1.0) * _gamma_fn(2.0 * mu) / _SQRT_PI)
    spec = WrightSpec(
        upper=((0.5, 0.5), (lam + 1.0, 1.0), (lam - mu, 1.0)),
        lower=((lam, 1.0), (1.0 + lam + mu, 1.0)),
    )
    return WrightClosedForm(pref, spec, gy / a)


def _t2_stated(mu, lam, a, gy, alpha):
    pref = (2.0 ** (1.0 + mu) * a ** (mu - lam) * _gamma_fn(alpha + 1.0)
            * _gamma_fn(lam - mu) / (_SQRT_PI * _gamma_fn(1.0 + lam + mu)))
    spec = WrightSpec(
        upper=((0.5, 0.5), (2.0 * mu, 2.0), (lam + 1.0, 1.0)),
        lower=((lam, 1.0), (alpha + 1.0, 0.5)),
    )
    return WrightClosedForm(pref, spec, gy)


def _c1_stated(mu, lam, a, gy, alpha):
    pref = 2.0 ** (1.0 - mu) * a ** (mu - lam) * _gamma_fn(2.0 * mu)
    spec = WrightSpec(
        upper=((lam + 1.0, 1.0), (lam - mu, 1.0)),
        lower=((lam, 1.0), (1.0 + lam - mu, 1.0)),
    )
    return WrightClosedForm(pref, spec, gy / a)


def _c2_stated(mu, lam, a, gy, alpha):
    pref = (2.0 ** (1.0 - mu) * a ** (mu - lam) * _gamma_fn(2.0 * mu)
            * _gamma_fn(lam + 1.0) * _gamma_fn(lam - mu)
            / (_gamma_fn(lam) * _gamma_fn(1.0 + lam - mu)))
    return PfqClosedForm(pref, (lam + 1.0, lam - mu), (lam, 1.0 + lam - mu), gy / a)


def _c3_stated(mu, lam, a, gy, alpha):
    pref = 2.0 ** (-mu) * a ** (mu - lam) * _gamma_fn(2.0 * mu)
    spec = WrightSpec(
        upper=((0.5, 0.5), (lam + 1.0, 1.0), (lam - mu, 1.0)),
        lower=((0.5, 1.5), (lam, 1.0), (1.0 + lam + mu, 1.0)),
    )
    return WrightClosedForm(pref, spec, gy / a)


def _t3_stated(mu, lam, a, gy, alpha):
    pref = 2.0 ** (1.0 - mu) * a ** (mu - lam) * _gamma_fn(2.0 * mu) / _SQRT_PI
    spec = WrightSpec(
        upper=((0.5, 0.5), (lam + 1.0, 1.0), (lam - mu, 1.0)),
        lower=((1.0, 0.5), (lam, 1.0), (1.0 + lam + mu, 1.0)),
    )
    return WrightClosedForm(pref, spec, gy / a)


def _t4_stated(mu, lam, a, gy, alpha):
    pref = 2.0 ** (1.0 - mu) * a ** (mu - lam) * _gamma_fn(2.0 * mu) / _SQRT_PI
    spec = WrightSpec(
        upper=((0.5, 0.5), (lam - mu, 1.0)),
        lower=((2.0, 0.5), (1.0 + lam + mu, 1.0)),
    )
    return WrightClosedForm(pref, spec, gy / a)


def catalog() -> dict[str, IdentityDef]:
    """The seven audited identities, keyed by id, in sweep order."""
    defs = (
        IdentityDef("T1", ArgForm.FIXED_NUMERATOR, None,
                    lambda alpha: as_power_series(KernelChoice.S_ALPHA, alpha),
                    _t1_stated,
                    "S_alpha kernel, argument gy/t(x), stated 3-factor Wright form"),
        IdentityDef("T2", ArgForm.LINEAR_IN_X, None,
                    lambda alpha: as_power_series(KernelChoice.S_ALPHA, alpha),
                    _t2_stated,
                    "S_alpha kernel, argument gy*x/t(x), stated form as written"),
        IdentityDef("C1", ArgForm.FIXED_NUMERATOR, -0.5,
                    lambda alpha: as_power_series(KernelChoice.EXP),
                    _c1_stated,
                    "exp kernel, stated 2-factor Wright form as written"),
        IdentityDef("C2", ArgForm.FIXED_NUMERATOR, -0.5,
                    lambda alpha: as_power_series(KernelChoice.EXP),
                    _c2_stated,
                    "exp kernel, stated prefactored 2F2 form"),
        IdentityDef("C3", ArgForm.FIXED_NUMERATOR, 0.5,
                    lambda alpha: as_power_series(KernelChoice.EXPM1_OVER_W),
                    _c3_stated,
                    "(exp(w)-1)/w kernel, stated 3-factor Wright form as written"),
        IdentityDef("T3", ArgForm.FIXED_NUMERATOR, 0.0,
                    lambda alpha: as_power_series(KernelChoice.I0_PLUS_L0),
                    _t3_stated,
                    "I0+L0 kernel, stated 3-factor Wright form"),
        IdentityDef("T4", ArgForm.FIXED_NUMERATOR, 1.0,
                    lambda alpha: as_power_series(KernelChoice.TWO_I1_PLUS_L1),
                    _t4_stated,
                    "w*S_1 kernel (stands in for the printed 2I1+L1 bracket), "
                    "stated 2-factor Wright form as written"),
    )
    return {d.id: d for d in defs}


def t1_derived_closed_form(mu: float, lam: float, a: float, gy: float,
                           alpha: float) -> WrightClosedForm:
    """Closed Wright form of the T1 proof chain (the corrected right side).

    Re-derived from the term-wise base integral: relative to the stated T1
    form the series carries the extra denominator entry (alpha+1, 1/2).
    At alpha = 0 it coincides with T3's stated form.
    """
    pref = (2.0 ** (1.0 - mu) * a ** (mu - lam)
            * _gamma_fn(alpha + 1.0) * _gamma_fn(2.0 * mu) / _SQRT_PI)
    spec = WrightSpec(
        upper=((0.5, 0.5), (lam + 1.0, 1.0), (lam - mu, 1.0)),
        lower=((alpha + 1.0, 0.5), (lam, 1.0), (1.0 + lam + mu, 1.0)),
    )
    return WrightClosedForm(pref, spec, gy / a)


@dataclass(frozen=True)
class AuditRecord:
    """One identity evaluated at one parameter point, with verdict."""

    identity_id: str
    alpha: float
    mu: float
    lam: float
    a: float
    gamma: float
    y: float
    lhs: QuadResult | None
    lhs_error: str | None
    rhs_stated: SeriesValue | None
    rhs_stated_error: str | None
    rhs_derived: SeriesValue | None
    rhs_derived_error: str | None
    rel_err_stated: float | None
    rel_err_derived: float | None
    verdict: str


def _rel_err(value: float, reference: float) -> float:
    err = abs(value - reference) / max(abs(reference), _TINY)
    return err if math.isfinite(err) else _REL_ERR_CLAMP


def _decide_verdict(lhs: QuadResult | None, rel_stated: float | None,
                    rel_derived: float | None, stated_failed: bool) -> str:
    if lhs is None or rel_derived is None:
        return INCONCLUSIVE
    quality = lhs.abs_err_estimate / max(abs(lhs.value), _TINY)
    if quality >= LHS_QUALITY:
        return INCONCLUSIVE
    if stated_failed:
        # an unevaluable stated form cannot equal the (finite) integral;
        # refute only when the derived oracle confirms the quadrature
        return REFUTED if rel_derived < VERIFY_REL_ERR else INCONCLUSIVE
    if rel_stated < VERIFY_REL_ERR:
        return VERIFIED
    if rel_stated > REFUTE_REL_ERR and rel_derived < VERIFY_REL_ERR:
        return REFUTED
    return INCONCLUSIVE


def audit_point(identity_id: str, *, mu: float, lam: float, a: float, y: float,
                gamma: float = 1.0, alpha: float | None = None,
                tol: float = 1e-10) -> AuditRecord:
    """Evaluate one identity at one parameter point and issue a verdict.

    Evaluation errors are captured inside the record rather than raised;
    only malformed requests (unknown id, missing alpha, parameters outside
    the conditioning rules lam - mu >= 0.05 and, for the linear-argument
    family, |gamma*y|/2 <= 0.9) raise :class:`DomainError`.
    """
    cat = catalog()
    if identity_id not in cat:
        raise DomainError(f"unknown identity id {identity_id!r}; "
                          f"known ids: {', '.join(CATALOG_IDS)}")
    ident = cat[identity_id]
    mu = _require_finite(mu, "mu")
    lam = _require_finite(lam, "lam")
    a = _require_finite(a, "a")
    y = _require_finite(y, "y")
    gamma = _require_finite(gamma, "gamma")
    if ident.fixed_alpha is not None:
        eff_alpha = ident.fixed_alpha
    else:
        if alpha is None:
            raise DomainError(f"identity {identity_id} requires alpha")
        eff_alpha = _require_finite(alpha, "alpha")
    # one rounding of slack: 0.06 - 0.01 is 0.049999... in doubles
    if lam - mu < MIN_LAM_MINUS_MU - math.ulp(max(abs(lam), abs(mu))):
        raise DomainError(
            f"conditioning rule requires lam - mu >= {MIN_LAM_MINUS_MU}, "
            f"got {lam - mu}"
        )
    gy = gamma * y
    if ident.arg_form is ArgForm.LINEAR_IN_X and abs(gy) / 2.0 > MAX_LINEAR_HALF_ARG:
        raise DomainError(
            f"identity {identity_id} requires |gamma*y|/2 <= {MAX_LINEAR_HALF_ARG}, "
            f"got {abs(gy) / 2.0}"
        )

    spec = IntegralSpec(mu=mu, lam=lam, a=a, gamma=gamma, y=y,
                        arg_form=ident.arg_form)
    kernel = ident.kernel_for(eff_alpha)

    lhs = lhs_error = None
    try:
        lhs = quad_lhs(spec, kernel, tol)
    except (DomainError, NonConvergenceError, ArithmeticError) as exc:
        lhs_error = f"quadrature: {type(exc).__name__}: {exc}"

    derived = derived_error = None
    try:
        derived = proof_series(spec, kernel)
        if not derived.converged:
            derived_error = "derived series did not converge within the term cap"
            derived = None
    except (DomainError, NonConvergenceError, ArithmeticError) as exc:
        derived_error = f"derived series: {type(exc).__name__}: {exc}"

    stated = stated_error = None
    try:
        stated = ident.stated_form(mu, lam, a, gy, eff_alpha).evaluate()
        if not stated.converged:
            stated_error = "stated series did not converge within the term cap"
            stated = None
    except (DomainError, NonConvergenceError, ArithmeticError) as exc:
        stated_error = f"stated form: {type(exc).__name__}: {exc}"

    rel_stated = rel_derived = None
    if lhs is not None:
        if stated is not None:
            rel_stated = _rel_err(stated.value, lhs.value)
        if derived is not None:
            rel_derived = _rel_err(derived.value, lhs.value)

    verdict = _decide_verdict(lhs, rel_stated, rel_derived, stated is None)
    return AuditRecord(
        identity_id=identity_id, alpha=eff_alpha, mu=mu, lam=lam, a=a,
        gamma=gamma, y=y, lhs=lhs, lhs_error=lhs_error,
        rhs_stated=stated, rhs_stated_error=stated_error,
        rhs_derived=derived, rhs_derived_error=derived_error,
        rel_err_stated=rel_stated, rel_err_derived=rel_derived,
        verdict=verdict,
    )


class GridPoint(NamedTuple):
    alpha: float
    mu: float
    lam: float
    a: float
    gamma: float
    y: float


@dataclass(frozen=True)
class Grid:
    """Cartesian parameter grid; lam is specified as mu + dlam so every
    point automatically satisfies lam > mu."""

    alpha: tuple[float, ...]
    mu: tuple[float, ...]
    dlam: tuple[float, ...]
    a: tuple[float, ...]
    gy: tuple[float, ...]

    def __len__(self) -> int:
        return (len(self.alpha) * len(self.mu) * len(self.dlam)
                * len(self.a) * len(self.gy))

    def points(self) -> Iterator[GridPoint]:
        # lexicographic in (alpha, mu, dlam, a, gy); gamma is fixed at 1 so
        # the gy axis is realized through y alone
        for alpha, mu, dlam, a, gy in itertools.product(
                self.alpha, self.mu, self.dlam, self.a, self.gy):
            yield GridPoint(alpha, mu, mu + dlam, a, 1.0, gy)


_DEFAULT_MUS = (0.6, 1.0, 1.4)
_DEFAULT_DLAMS = (0.7, 1.8)


def default_grid(identity_id: str) -> Grid:
    """Built-in sweep grid for an identity (120 points for T1, 36 for T2,
    24 for each single-kernel identity)."""
    if identity_id == "T1":
        return Grid(alpha=(-0.5, 0.0, 0.5, 1.0, 1.7), mu=_DEFAULT_MUS,
                    dlam=_DEFAULT_DLAMS, a=(1.0, 2.0), gy=(0.2, 0.8))
    if identity_id == "T2":
        return Grid(alpha=(-0.5, 0.0, 1.0), mu=_DEFAULT_MUS,
                    dlam=_DEFAULT_DLAMS, a=(1.0,), gy=(0.4, 1.6))
    ident = catalog().get(identity_id)
    if ident is None:
        raise DomainError(f"unknown identity id {identity_id!r}")
    return Grid(alpha=(ident.fixed_alpha,), mu=_DEFAULT_MUS,
                dlam=_DEFAULT_DLAMS, a=(1.0, 2.0), gy=(0.2, 0.8))


def audit_sweep(identity_id: str, grid: Grid | None = None,
                tol: float = 1e-10) -> list[AuditRecord]:
    """Audit an identity over a grid; records come back in grid order."""
    if grid is None:
        grid = default_grid(identity_id)
    ident = catalog().get(identity_id)
    if ident is None:
        raise DomainError(f"unknown identity id {identity_id!r}")
    records = []
    for pt in grid.points():
        records.append(audit_point(
            identity_id, mu=pt.mu, lam=pt.lam, a=pt.a, y=pt.y,
            gamma=pt.gamma,
            alpha=pt.alpha if ident.fixed_alpha is None else None,
            tol=tol,
        ))
    return records


def verdict_counts(records: list[AuditRecord]) -> dict[str, int]:
    counts = {VERIFIED: 0, REFUTED: 0, INCONCLUSIVE: 0}
    for rec in records:
        counts[rec.verdict] += 1
    return counts


def record_invariant_ok(rec: AuditRecord) -> bool:
    """Machine check of the verdict rule on an emitted record."""
    if rec.lhs is None or rec.rel_err_derived is None:
        return rec.verdict == INCONCLUSIVE
    quality = rec.lhs.abs_err_estimate / max(abs(rec.lhs.value), _TINY)
    if rec.rel_err_stated is None:
        expected = (REFUTED if quality < LHS_QUALITY
                    and rec.rel_err_derived < VERIFY_REL_ERR else INCONCLUSIVE)
    elif rec.rel_err_stated < VERIFY_REL_ERR and quality < LHS_QUALITY:
        expected = VERIFIED
    elif (rec.rel_err_stated > REFUTE_REL_ERR and quality < LHS_QUALITY
          and rec.rel_err_derived < VERIFY_REL_ERR):
        expected = REFUTED
    else:
        expected = INCONCLUSIVE
    return rec.verdict == expected


def derived_rhs(identity_id: str, *, mu: float, lam: float, a: float, y: float,
                gamma: float = 1.0, alpha: float | None = None,
                tol: float = 1e-12) -> SeriesValue:
    """Proof-chain derived right-hand side for one identity at one point."""
    cat = catalog()
    if identity_id not in cat:
        raise DomainError(f"unknown identity id {identity_id!r}")
    ident = cat[identity_id]
    eff_alpha = ident.fixed_alpha if ident.fixed_alpha is not None else alpha
    if eff_alpha is None:
        raise DomainError(f"identity {identity_id} requires alpha")
    spec = IntegralSpec(mu=mu, lam=lam, a=a, gamma=gamma, y=y,
                        arg_form=ident.arg_form)
    return proof_series(spec, ident.kernel_for(eff_alpha), tol)


def c2_reduction_residual(mu: float, lam: float, a: float, y: float,
                        tol: float = 1e-12) -> float:
    """Relative residual between the C1 and C2 stated forms.

    The two printed parameter lists are mutually consistent (applying the
    weight-1 reduction to C1's Wright form yields C2's prefactored 2F2), so
    this residual measures transcription consistency, not correctness
    against the integral.  It is reported, not asserted.
    """
    v1 = _c1_stated(mu, lam, a, y, -0.5).evaluate(tol).value
    v2 = _c2_stated(mu, lam, a, y, -0.5).evaluate(tol).value
    return abs(v1 - v2) / max(abs(v1), abs(v2), _TINY)


def c3_variants(mu: float, lam: float, a: float, y: float,
                        tol: float = 1e-10) -> dict[str, float]:
    """Both readings of the C3 integrand, against its stated right side.

    The printed integrand exponent reads exp(w - 1), while the kernel
    composition behind the stated series is (exp(w) - 1)/w; these are
    different functions, so both integrals are computed and reported next
    to the stated value.
    """
    shifted = PowerSeriesKernel(lambda n: math.exp(-1.0) * _inv_factorial(n), 0,
                                "exp(w-1)")
    expm1w = as_power_series(KernelChoice.EXPM1_OVER_W)
    spec = IntegralSpec(mu=mu, lam=lam, a=a, gamma=1.0, y=y,
                        arg_form=ArgForm.FIXED_NUMERATOR)
    return {
        "stated": _c3_stated(mu, lam, a, y, 0.5).evaluate().value,
        "lhs_expm1_over_w": quad_lhs(spec, expm1w, tol).value,
        "lhs_shifted_exp": quad_lhs(spec, shifted, tol).value,
        "derived_expm1_over_w": proof_series(spec, expm1w).value,
        "derived_shifted_exp": proof_series(spec, shifted).value,
    }


def t4_variants(mu: float, lam: float, a: float, y: float,
                      tol: float = 1e-10) -> dict[str, float]:
    """Three readings of the T4 integrand, against its stated right side.

    The catalog binds the kernel w*S_1(w), the series the audited proof
    chain actually integrates.  The printed bracket 2*I_1(w) + L_1(w) is a
    different function (the true relation is w*S_1(w) = 2*I_1 + 2*L_1),
    and the printed proof silently substitutes plain S_1(w).  All three
    integrals are computed and reported next to the stated value.
    """
    w_s1 = as_power_series(KernelChoice.TWO_I1_PLUS_L1)
    s1 = as_power_series(KernelChoice.S_ALPHA, 1.0)
    # literal 2*I_1 + L_1: halve the even-power (Struve) part of w*S_1
    literal = PowerSeriesKernel(
        lambda n: kernel_coeff(1.0, n) * (1.0 if n % 2 == 0 else 0.5),
        1, "2I1+L1 (literal)")
    spec = IntegralSpec(mu=mu, lam=lam, a=a, gamma=1.0, y=y,
                        arg_form=ArgForm.FIXED_NUMERATOR)
    return {
        "stated": _t4_stated(mu, lam, a, y, 1.0).evaluate().value,
        "lhs_w_s1": quad_lhs(spec, w_s1, tol).value,
        "lhs_s1": quad_lhs(spec, s1, tol).value,
        "lhs_literal_bracket": quad_lhs(spec, literal, tol).value,
        "derived_w_s1": proof_series(spec, w_s1).value,
        "derived_s1": proof_series(spec, s1).value,
        "derived_literal_bracket": proof_series(spec, literal).value,
    }

