"""Gamma-function machinery: log-gamma, gamma, pole-safe reciprocal, Pochhammer.

All functions are scalar, real, pure and safe for concurrent use.  Series
code elsewhere in the library assembles gamma products in log space from
these primitives and exponentiates once per term, so ratios such as
``gamma(2*mu + 2*n) / gamma(1 + lam + mu + 2*n)`` stay representable long
after either factor alone would overflow a double.

The primitives are thin wrappers over the standard library's ``math.lgamma``
and ``math.gamma``; the sign of gamma at a negative non-integer comes from
the parity of ``floor(x)``.  Against 40-digit mpmath at 15,000 sampled
points, ``gamma`` is within 6.5e-16 relative on [1e-3, 170] and 8.4e-16 on
(-30, 0), and log|gamma| within 2.0e-15 * max(1, |log|gamma||); the
Lanczos (g = 7) approximation used before missed by up to 2.7e-13 and
3.3e-14.  ``tests/test_gammakit.py::TestMpmathReference`` keeps this
checked.  The wrappers add what the stdlib leaves out: the library's error
types (:class:`PoleError` at the poles, :class:`GammaOverflowError` where
gamma leaves the double range) and a total ``reciprocal_gamma`` that
returns exactly 0.0 at the poles of gamma, which is what lets a
denominator pole annihilate a series term instead of aborting a summation.
"""

from __future__ import annotations

import math

from .errors import DomainError, GammaOverflowError, PoleError

__all__ = [
    "GAMMA_OVERFLOW_X",
    "gamma",
    "log_gamma",
    "pochhammer",
    "reciprocal_gamma",
    "signed_log_gamma",
]

# Largest x with gamma(x) representable in double precision.
GAMMA_OVERFLOW_X = 171.624376956302725

_MAX_EXP_ARG = 709.78  # exp() overflows above this


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def log_gamma(x: float) -> float:
    """Natural log of gamma(x) for x > 0; +inf once it leaves the double
    range (x above about 2.5e305)."""
    x = _require_finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got x={x}")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def gamma(x: float) -> float:
    """Gamma(x) for real non-pole x.

    Raises :class:`PoleError` at nonpositive integers and
    :class:`GammaOverflowError` when |gamma(x)| exceeds the double range
    (x > ``GAMMA_OVERFLOW_X``, or x too close to a pole).
    """
    x = _require_finite(x, "x")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise GammaOverflowError(f"gamma(x) overflows at x={x}") from None


def reciprocal_gamma(x: float) -> float:
    """1/gamma(x) as a total function: exactly 0.0 at the poles of gamma,
    and a signed inf where 1/gamma(x) overflows."""
    x = _require_finite(x, "x")
    if _is_nonpositive_integer(x):
        return 0.0
    try:
        return 1.0 / math.gamma(x)
    except (OverflowError, ZeroDivisionError):
        # |gamma(x)| left the double range (x past GAMMA_OVERFLOW_X, within
        # ~1e-308 of zero, or far below zero): finish in log space
        lg, s = signed_log_gamma(x)
        if -lg > _MAX_EXP_ARG:
            return math.copysign(math.inf, s)
        return math.copysign(math.exp(-lg), s)


def signed_log_gamma(x: float) -> tuple[float, float]:
    """(log|gamma(x)|, sign of gamma(x)) for non-pole real x.

    This is the log-space entry point used by the series engines; the sign
    of gamma on (-n-1, -n) is (-1)**(n+1), tracked explicitly.
    """
    x = _require_finite(x, "x")
    if x > 0.0:
        try:
            return math.lgamma(x), 1.0
        except OverflowError:
            return math.inf, 1.0
    n = math.floor(x)
    if x == n:
        raise PoleError(f"gamma pole at x={x}")
    return math.lgamma(x), -1.0 if n % 2 else 1.0


def pochhammer(lam: float, n: int) -> float:
    """Rising factorial (lam)_n = lam (lam+1) ... (lam+n-1), with ()_0 = 1.

    The product form is used throughout: it is total (no pole issues when
    lam is a nonpositive integer) and agrees with gamma(lam+n)/gamma(lam)
    wherever the ratio form is defined.
    """
    lam = _require_finite(lam, "lam")
    n = int(n)
    if n < 0:
        raise DomainError(f"pochhammer requires n >= 0, got n={n}")
    acc = 1.0
    for k in range(n):
        acc *= lam + k
    return acc
