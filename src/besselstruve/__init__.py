"""Bessel-Struve kernel, generalized Wright series, and an identity audit.

The library has three layers:

* special functions -- :mod:`besselstruve.gammakit` (gamma machinery),
  :mod:`besselstruve.wright` (Wright / pFq series),
  :mod:`besselstruve.kernels` (Bessel-Struve kernel S_alpha, modified
  Bessel I_0, I_1 and modified Struve L_0, L_1, and power-series kernels);

* integral oracles -- :mod:`besselstruve.quadrature` (the closed base
  integral, an exact finite-interval substitution, Gauss-Jacobi
  quadrature, and the term-by-term proof-chain series);

* the audit -- :mod:`besselstruve.audit` evaluates each cataloged
  closed-form identity against both oracles over parameter grids and
  issues VERIFIED / REFUTED / INCONCLUSIVE verdicts, rendered by
  :mod:`besselstruve.report` and driven from :mod:`besselstruve.cli`.
"""

from .audit import (
    AuditRecord,
    CATALOG_IDS,
    Grid,
    IdentityDef,
    INCONCLUSIVE,
    PfqClosedForm,
    REFUTED,
    VERIFIED,
    WrightClosedForm,
    audit_point,
    audit_sweep,
    catalog,
    c2_reduction_residual,
    c3_variants,
    default_grid,
    derived_rhs,
    record_invariant_ok,
    t1_derived_closed_form,
    t4_variants,
    verdict_counts,
)
from .errors import (
    DivergenceError,
    DomainError,
    GammaOverflowError,
    NonConvergenceError,
    NumeratorPoleError,
    ParameterPoleError,
    PoleError,
)
from .gammakit import (
    GAMMA_OVERFLOW_X,
    gamma,
    log_gamma,
    pochhammer,
    reciprocal_gamma,
    signed_log_gamma,
)
from .kernels import (
    KernelChoice,
    PowerSeriesKernel,
    as_power_series,
    bessel_i,
    kernel_coeff,
    kernel_eval,
    struve_l,
    unit_kernel,
)
from .quadrature import (
    ArgForm,
    IntegralSpec,
    QuadResult,
    TransformedIntegrand,
    oberhettinger_closed,
    proof_series,
    quad_lhs,
    transform_integrand,
)
from .report import REPORT_COLUMNS, render_report, write_report
from .series import SeriesValue, sum_series
from .wright import (
    WrightSpec,
    pfq_eval,
    wright_delta,
    wright_eval,
    wright_radius,
    wright_reduce_check,
    wright_terms,
)

__version__ = "0.1.0"
