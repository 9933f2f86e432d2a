"""Independent mpmath references for the ops of the series workloads.

Every reference is summed from the defining series in mpmath with at least
40 significant digits, raised further when the terms cancel, so the double
precision result under test is compared with a value accurate to far more
than the 1e-6 check.  Nothing here calls the library: the stated forms are
transcribed again below, prefactor included, so that a fault in the
library's gamma primitives cannot scale the reference and the result alike.
"""

from __future__ import annotations

import mpmath as mp

from workloads import Op

REL_TOL = 1e-6
_BASE_DPS = 40
_MAX_TERMS = 4000
_MIN_TERMS = 20

# Kernel of each catalog id for the derived series: (name, order alpha or
# None, power offset).  Mirrors the catalog's kernel bindings.
_KERNELS = {
    "T1": ("s_alpha", None, 0), "T2": ("s_alpha", None, 0),
    "C1": ("exp", None, 0), "C2": ("exp", None, 0),
    "C3": ("expm1_over_w", None, 0), "T3": ("s_alpha", 0.0, 0),
    "T4": ("s_alpha", 1.0, 1),
}


def _gamma_seq(c, w):
    """Gamma(c + w*k) for k = 0, 1, ... by exact recurrence when 2w is an
    integer (weights 1/2, 1, 3/2, 2 of the catalog), else directly."""
    c, w = mp.mpf(c), mp.mpf(w)
    if w == 0:
        g = mp.gamma(c)
        for _ in range(_MAX_TERMS):
            yield g
        return
    two_w = int(round(float(2 * w)))
    if abs(2 * w - two_w) > mp.mpf(10) ** (-30) or two_w <= 0:
        for k in range(_MAX_TERMS):
            yield mp.gamma(c + w * k)
        return
    step, shift = (1, two_w // 2) if two_w % 2 == 0 else (2, two_w)
    prev = [mp.gamma(c + w * k) for k in range(step)]
    yield from prev
    for k in range(step, _MAX_TERMS):
        base = c + w * (k - step)
        g = prev[k % step]
        for j in range(shift):
            g *= base + j
        prev[k % step] = g
        yield g


def _sum(terms):
    """Sum until three successive terms are below 10**-dps of the largest
    term; returns (sum, digits lost to cancellation) or None if the cap hits."""
    total = mp.mpf(0)
    biggest = mp.mpf(0)
    small = 0
    eps = mp.mpf(10) ** (-mp.mp.dps)
    for k, t in enumerate(terms):
        total += t
        biggest = max(biggest, abs(t))
        small = small + 1 if abs(t) <= eps * biggest else 0
        if k >= _MIN_TERMS and small >= 3:
            lost = 0 if total == 0 else max(0, int(mp.log10(biggest / abs(total))))
            return total, lost
    return None


def _at_precision(build):
    """Evaluate ``build()`` (an iterator of terms) at a precision that covers
    the cancellation it shows."""
    dps = _BASE_DPS
    for _ in range(3):
        with mp.workdps(dps):
            got = _sum(build())
            if got is None:
                return None
            total, lost = got
            if lost + 25 <= dps:
                return total
            dps = lost + 40
    return None


def _stated(form, mu, lam, a, gy, alpha):
    """(prefactor, upper, lower, z) of a stated form in mpmath, from the op's
    own parameters.  Wright forms give (value, weight) pairs; the C2 pFq form
    gives plain parameters."""
    mu, lam, a, gy, alpha = (mp.mpf(v) for v in (mu, lam, a, gy, alpha))
    half, g, z = mp.mpf(1) / 2, mp.gamma, gy / a
    base = 2 ** (1 - mu) * a ** (mu - lam) * g(2 * mu)
    if form == "C1":
        return base, ((lam + 1, 1), (lam - mu, 1)), ((lam, 1), (1 + lam - mu, 1)), z
    if form == "C2":
        pref = base * g(lam + 1) * g(lam - mu) / (g(lam) * g(1 + lam - mu))
        return pref, (lam + 1, lam - mu), (lam, 1 + lam - mu), z
    upper = ((half, half), (lam + 1, 1), (lam - mu, 1))
    if form == "C3":
        return base / 2, upper, ((half, 3 * half), (lam, 1), (1 + lam + mu, 1)), z
    pref = base / mp.sqrt(mp.pi)
    if form == "T3":
        return pref, upper, ((1, half), (lam, 1), (1 + lam + mu, 1)), z
    if form == "T4":
        return pref, ((half, half), (lam - mu, 1)), ((2, half), (1 + lam + mu, 1)), z
    pref *= g(alpha + 1)
    if form == "T1":
        return pref, upper, ((lam, 1), (1 + lam + mu, 1)), z
    if form == "T1-derived":
        return pref, upper, ((alpha + 1, half), (lam, 1), (1 + lam + mu, 1)), z
    raise ValueError(f"no stated form {form!r}")


def _wright(pref, upper, lower, z) -> mp.mpf | None:
    def terms():
        ups = [_gamma_seq(a, w) for a, w in upper]
        lows = [_gamma_seq(b, w) for b, w in lower]
        zk, fact = mp.mpf(1), mp.mpf(1)
        for k in range(_MAX_TERMS):
            t = zk / fact
            for g in ups:
                t *= next(g)
            for g in lows:
                t /= next(g)
            yield t
            zk *= z
            fact *= k + 1

    s = _at_precision(terms)
    return None if s is None else pref * s


def _pfq(pref, upper, lower, z) -> mp.mpf | None:
    with mp.workdps(_BASE_DPS):
        return pref * mp.hyper(list(upper), list(lower), z, maxterms=10 ** 5)


def _kernel_coeffs(name: str, alpha):
    """Power-series coefficients c_0, c_1, ... of the named kernel."""
    if name == "exp":
        f = mp.mpf(1)
        for n in range(_MAX_TERMS):
            yield 1 / f
            f *= n + 1
        return
    if name == "expm1_over_w":
        f = mp.mpf(1)
        for n in range(_MAX_TERMS):
            f *= n + 1
            yield 1 / f
        return
    # S_alpha: gamma(alpha+1) gamma((n+1)/2) / (sqrt(pi) n! gamma(n/2+alpha+1))
    alpha = mp.mpf(alpha)
    pref = mp.gamma(alpha + 1) / mp.sqrt(mp.pi)
    num = _gamma_seq(mp.mpf(1) / 2, mp.mpf(1) / 2)
    den = _gamma_seq(alpha + 1, mp.mpf(1) / 2)
    f = mp.mpf(1)
    for n in range(_MAX_TERMS):
        yield pref * next(num) / (f * next(den))
        f *= n + 1


def _kernel(alpha, w) -> mp.mpf | None:
    def terms():
        wn = mp.mpf(1)
        for c in _kernel_coeffs("s_alpha", alpha):
            yield c * wn
            wn *= w
    return _at_precision(terms)


def _derived(ident, mu, lam, a, gy, alpha) -> mp.mpf | None:
    name, order, offset = _KERNELS[ident]
    if order is None and name == "s_alpha":
        order = alpha
    s = 1 if ident == "T2" else 0

    def terms():
        mu_, lam_, a_, gy_ = (mp.mpf(v) for v in (mu, lam, a, gy))
        # base(m) = 2 lam' a**(mu'-lam') 2**(-mu') G(2mu') G(lam'-mu') / G(1+lam'+mu')
        # with mu' = mu + s*m and lam' = lam + m, m = n + offset
        g1 = _gamma_seq(2 * (mu_ + s * offset), 2 * s)
        g2 = _gamma_seq(lam_ - mu_ + (1 - s) * offset, 1 - s)
        g3 = _gamma_seq(1 + lam_ + mu_ + (1 + s) * offset, 1 + s)
        for n, c in enumerate(_kernel_coeffs(name, order)):
            m = n + offset
            mu_m, lam_m = mu_ + s * m, lam_ + m
            base = (2 * lam_m * a_ ** (mu_m - lam_m) * mp.mpf(2) ** (-mu_m)
                    * next(g1) * next(g2) / next(g3))
            yield c * gy_ ** m * base

    return _at_precision(terms)


def _rel_err(value: float, ref) -> float:
    return float(abs(mp.mpf(value) - ref) / max(abs(ref), mp.mpf(10) ** -300))


def check(op: Op, parts) -> bool | None:
    """True when every converged value of an op's result is within REL_TOL of
    the reference, False when one is not, None when nothing was checkable.
    ``parts`` holds (value, converged) per value the op returned, in order;
    extra trailing parts are ignored."""
    kind, args = op.kind, op.args
    if kind == "bessel_struve":
        order, w = args
        with mp.workdps(_BASE_DPS):
            refs = (mp.besseli(order, w), mp.struvel(order, w))
    elif kind in ("wright", "pfq"):
        with mp.workdps(_BASE_DPS):
            form = _stated(*args)
        refs = (_wright(*form) if kind == "wright" else _pfq(*form),)
    elif kind == "kernel":
        refs = (_kernel(*args),)
    else:
        refs = (_derived(*args),)
    verdicts = [_rel_err(value, ref) <= REL_TOL
                for (value, converged), ref in zip(parts, refs)
                if converged and ref is not None]
    if not verdicts:
        return None
    return all(verdicts)
