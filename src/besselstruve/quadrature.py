"""Numerical oracles for the weighted semi-infinite integrals.

The integrals under study all have the shape

    I = integral_0^inf  x**(mu-1) * t(x)**(-lam) * f(arg(x)) dx,
    t(x) = x + a + sqrt(x**2 + 2*a*x)

with f an entire power-series kernel and the argument either
``gy / t(x)`` (fixed numerator) or ``gy * x / t(x)`` (linear in x), where
``gy = gamma * y``.  Two independent evaluation routes are provided:

* :func:`quad_lhs` -- Gauss-Jacobi quadrature after the exact
  substitution t = x + a + sqrt(x**2 + 2*a*x), u = a/t, which maps the
  integral to a finite interval with pure power endpoint behavior
  u**(lam-mu-1) at u -> 0 and (1-u)**(2*mu-1) at u -> 1.  Those powers
  are the weight of the Gauss rule, so the endpoint singularities are
  integrated exactly and only a smooth factor is sampled.

* :func:`proof_series` -- the kernel is expanded into its power series and
  the closed base integral :func:`oberhettinger_closed` is applied term by
  term.  This is a genuinely different computation (no quadrature at all)
  and serves as the second oracle for every identity audit.

The base integral (f = 1) has the classical closed form

    2*lam * a**(-lam) * (a/2)**mu * gamma(2*mu)*gamma(lam-mu)/gamma(1+lam+mu)

valid for 0 < mu < lam, a > 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import DomainError, NonConvergenceError
from .gammakit import _require_finite, log_gamma
from .kernels import PowerSeriesKernel
from .series import SeriesValue, sum_series

__all__ = [
    "ArgForm",
    "IntegralSpec",
    "QuadResult",
    "TransformedIntegrand",
    "oberhettinger_closed",
    "proof_series",
    "quad_lhs",
    "transform_integrand",
]

_TINY = 1e-300
_MIN_NODES = 8
_MAX_NODES = 128            # dense eigh of the Jacobi matrix stays small up to here
_SERIES_MAX_TERMS = 400
_LINEAR_ARG_RADIUS_SAFETY = 0.9
_KERNEL_EVAL_TOL = 1e-13    # kernel series truncation inside the quadrature


class ArgForm(Enum):
    """Shape of the kernel argument inside the integrand."""

    FIXED_NUMERATOR = "fixed"   # gy / t(x)
    LINEAR_IN_X = "linear"      # gy * x / t(x)


@dataclass(frozen=True)
class IntegralSpec:
    """Parameters of one left-hand-side integral.

    Requires a > 0 and 0 < mu < lam.  For the linear-in-x argument the
    kernel argument tends to gy/2 as x -> inf, and the term-wise series
    oracle additionally needs |gy|/2 < 1; that bound is enforced here so a
    spec is always auditable by both oracles.
    """

    mu: float
    lam: float
    a: float
    gamma: float = 1.0
    y: float = 0.0
    arg_form: ArgForm = ArgForm.FIXED_NUMERATOR

    def __post_init__(self):
        for name in ("mu", "lam", "a", "gamma", "y"):
            object.__setattr__(self, name, _require_finite(getattr(self, name), name))
        object.__setattr__(self, "arg_form", ArgForm(self.arg_form))
        if self.a <= 0.0:
            raise DomainError(f"scale must satisfy a > 0, got a={self.a}")
        if self.mu <= 0.0:
            raise DomainError(f"requires mu > 0, got mu={self.mu}")
        if self.lam <= self.mu:
            raise DomainError(
                f"requires 0 < mu < lam, got mu={self.mu}, lam={self.lam}"
            )
        if self.arg_form is ArgForm.LINEAR_IN_X and abs(self.gy) / 2.0 >= 1.0:
            raise DomainError(
                f"linear-in-x argument requires |gamma*y|/2 < 1, got {abs(self.gy) / 2.0}"
            )

    @property
    def gy(self) -> float:
        return self.gamma * self.y


@dataclass(frozen=True)
class QuadResult:
    """Quadrature result with a conservative error estimate.

    ``n_evals`` counts the nodes evaluated over all Gauss rules tried and
    ``subdivisions`` the number of times the node count was doubled.
    """

    value: float
    abs_err_estimate: float
    n_evals: int
    subdivisions: int


def oberhettinger_closed(mu: float, lam: float, a: float) -> float:
    """Closed form of the base integral (f = 1), computed in log space.

    Valid for 0 < mu < lam and a > 0; everything is positive, so no sign
    tracking is needed.
    """
    mu = _require_finite(mu, "mu")
    lam = _require_finite(lam, "lam")
    a = _require_finite(a, "a")
    if a <= 0.0:
        raise DomainError(f"scale must satisfy a > 0, got a={a}")
    if not 0.0 < mu < lam:
        raise DomainError(
            f"base integral requires 0 < mu < lam, got mu={mu}, lam={lam}"
        )
    logv = (
        math.log(2.0 * lam)
        + (mu - lam) * math.log(a)
        - mu * math.log(2.0)
        + log_gamma(2.0 * mu)
        + log_gamma(lam - mu)
        - log_gamma(1.0 + lam + mu)
    )
    return math.exp(logv)


@dataclass(frozen=True)
class TransformedIntegrand:
    """The finite-interval form of an integral spec.

    After t = x + a + sqrt(x**2 + 2*a*x) and u = a/t,

        I = prefactor * integral_0^1 u**(lam-mu-1) * (1-u)**(2*mu-1)
                                     * (1+u) * f(kernel_argument(u)) du

    with prefactor = a**(mu-lam) * 2**(-mu) and x(u) = a*(1-u)**2 / (2*u).
    Endpoint behavior is a pure power on each side: u**(lam-mu-1) as
    u -> 0 and (1-u)**(2*mu-1) as u -> 1.  The kernel argument is
    gy*u/a (fixed numerator, limit 0 at u -> 0) or gy*(1-u)**2/2
    (linear in x, limit gy/2 at u -> 0).
    """

    spec: IntegralSpec
    prefactor: float
    u_exponent: float            # power of u at the left endpoint
    one_minus_u_exponent: float  # power of (1-u) at the right endpoint

    def x_of_u(self, u):
        return self.spec.a * (1.0 - u) ** 2 / (2.0 * u)

    def kernel_argument(self, u):
        if self.spec.arg_form is ArgForm.FIXED_NUMERATOR:
            return self.spec.gamma * self.spec.y * u / self.spec.a
        return self.spec.gamma * self.spec.y * (1.0 - u) ** 2 / 2.0

    def weight(self, u):
        return (u ** self.u_exponent
                * (1.0 - u) ** self.one_minus_u_exponent
                * (1.0 + u))


def transform_integrand(spec: IntegralSpec) -> TransformedIntegrand:
    """Substituted finite-interval description of the integral."""
    prefactor = spec.a ** (spec.mu - spec.lam) * 2.0 ** (-spec.mu)
    return TransformedIntegrand(
        spec=spec,
        prefactor=prefactor,
        u_exponent=spec.lam - spec.mu - 1.0,
        one_minus_u_exponent=2.0 * spec.mu - 1.0,
    )


@functools.lru_cache(maxsize=128)
def _gauss_jacobi(n: int, p: float, q: float) -> tuple[np.ndarray, np.ndarray]:
    """n-node (n >= 2) Gauss rule on [0, 1] for the weight u**p * (1-u)**q.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials with alpha = q, beta = p on [-1, 1], mapped by
    u = (1+x)/2; the weights are the squared first eigenvector components
    times the zeroth moment B(p+1, q+1).  The k = 0 diagonal and k = 1
    off-diagonal entries are taken in cancelled form, because the generic
    formulas divide 0/0 at alpha + beta = 0 and alpha + beta = -1.
    The returned arrays are shared between callers and read-only.
    """
    al, be = q, p
    k = np.arange(1, n, dtype=float)
    s = 2.0 * k + al + be
    diag = np.concatenate((
        [(be - al) / (al + be + 2.0)],
        (be * be - al * al) / (s * (s + 2.0)),
    ))
    k, s = k[1:], s[1:]
    off2 = np.concatenate((
        [4.0 * (1.0 + al) * (1.0 + be) / ((2.0 + al + be) ** 2 * (3.0 + al + be))],
        4.0 * k * (k + al) * (k + be) * (k + al + be)
        / (s * s * (s + 1.0) * (s - 1.0)),
    ))
    off = np.sqrt(off2)
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    moment0 = math.exp(math.lgamma(p + 1.0) + math.lgamma(q + 1.0)
                       - math.lgamma(p + q + 2.0))
    nodes = 0.5 * (1.0 + x)
    weights = moment0 * vec[0] ** 2
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def quad_lhs(spec: IntegralSpec, kernel: PowerSeriesKernel, tol: float = 1e-10,
             max_nodes: int = _MAX_NODES) -> QuadResult:
    """Gauss-Jacobi quadrature of the transformed integral.

    The endpoint powers u**(lam-mu-1) * (1-u)**(2*mu-1) are the weight of
    the rule (:func:`_gauss_jacobi`), so only the smooth factor
    (1+u) * f(kernel_argument(u)) is sampled and the endpoint singularities
    are integrated exactly.  Starting from 8 nodes, n doubles until the
    n-node and 2n-node results agree to ``tol`` relative to the latter,
    which is returned; their difference plus a rounding floor is the error
    estimate.  Needing more than ``max_nodes`` nodes raises
    :class:`NonConvergenceError`.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    tr = transform_integrand(spec)
    p, q = tr.u_exponent, tr.one_minus_u_exponent

    def rule(n: int) -> tuple[float, float]:
        u, w = _gauss_jacobi(n, p, q)
        wg = w * (1.0 + u) * kernel.evaluate_many(tr.kernel_argument(u),
                                                  tol=_KERNEL_EVAL_TOL)
        return math.fsum(wg), math.fsum(np.abs(wg))

    n = _MIN_NODES
    coarse, _ = rule(n)
    n_evals, subdivisions, diff = n, 0, math.inf
    while True:
        if 2 * n > max_nodes:
            raise NonConvergenceError(
                f"quadrature budget exhausted: {n} nodes, "
                f"last change {diff:.3e} above tol"
            )
        n *= 2
        fine, abs_sum = rule(n)
        n_evals += n
        subdivisions += 1
        diff = abs(coarse - fine)
        if diff <= tol * max(abs(fine), _TINY):
            break
        coarse = fine

    value = tr.prefactor * fine
    abs_err = tr.prefactor * (diff + 5e-15 * abs_sum)
    return QuadResult(value, abs_err, n_evals, subdivisions)


def proof_series(spec: IntegralSpec, kernel: PowerSeriesKernel,
                 tol: float = 1e-12, max_terms: int = _SERIES_MAX_TERMS) -> SeriesValue:
    """Term-by-term application of the closed base integral.

    Expanding f into its power series and integrating each power of the
    argument with :func:`oberhettinger_closed` gives

        sum_n coeff(n) * gy**(n+offset)
              * base(mu + s*(n+offset), lam + (n+offset), a)

    with s = 0 for the fixed-numerator argument and s = 1 for the
    linear-in-x argument (there the numerator x**n raises mu as well).
    Every term satisfies the base-integral hypothesis as long as lam > mu.
    This sum is the derived ground truth that quadrature results are
    audited against.
    """
    gy = spec.gy
    s = 1 if spec.arg_form is ArgForm.LINEAR_IN_X else 0
    if s == 1 and abs(gy) / 2.0 >= _LINEAR_ARG_RADIUS_SAFETY:
        raise DomainError(
            f"term-wise series needs |gamma*y|/2 < {_LINEAR_ARG_RADIUS_SAFETY}, "
            f"got {abs(gy) / 2.0}"
        )

    def terms() -> Iterator[float]:
        n = 0
        while True:
            m = n + kernel.offset
            c = kernel._c(n)
            if c == 0.0:
                yield 0.0
            else:
                yield c * gy ** m * oberhettinger_closed(
                    spec.mu + s * m, spec.lam + m, spec.a)
            n += 1

    return sum_series(terms(), tol, max_terms)
