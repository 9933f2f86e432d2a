import math

import numpy as np
import pytest
from scipy import integrate, special

from besselstruve import (
    ArgForm,
    DomainError,
    IntegralSpec,
    KernelChoice,
    NonConvergenceError,
    as_power_series,
    oberhettinger_closed,
    proof_series,
    quad_lhs,
    transform_integrand,
    unit_kernel,
)
from besselstruve.quadrature import _gauss_jacobi

# frozen extended-precision anchors: raw x-domain integrals summed to 50+
# digits with tanh-sinh quadrature, independent of the u-substitution here
OBER_HALF_ANCHOR = 0.5303300858899106      # mu=0.5 lam=1.5 a=2, f = 1
FIXED_S0_ANCHOR = 0.15676062412347836      # mu=0.8 lam=2.5 a=1.5 gy=0.7, S_0
LINEAR_S0_ANCHOR = 0.5365840568333276      # mu=0.6 lam=2.2 a=1 gy=0.8, linear
FIXED_EXP_ANCHOR = 0.40511491719948741     # mu=1 lam=2 a=1 y=0.5, exp

BASE_GRID = [(mu, mu + dl, a)
             for mu in (0.5, 1.0, 1.7)
             for dl in (0.5, 1.5, 3.0)
             for a in (0.5, 1.0, 2.0)]
# lam + mu = 1 (Jacobi alpha + beta = -1), the second with a (1-u)**(-0.95)
# right endpoint
BASE_EDGE_CASES = [(0.3, 0.7, 1.3), (0.025, 0.975, 1.3)]


class TestOberhettingerClosed:
    def test_simple_rational_value(self):
        # 4 * (1/2) * gamma(2) gamma(1) / gamma(4) = 1/3
        assert oberhettinger_closed(1.0, 2.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_frozen_value(self):
        assert oberhettinger_closed(0.5, 1.5, 2.0) == pytest.approx(
            OBER_HALF_ANCHOR, rel=1e-13)

    @pytest.mark.parametrize("mu, lam", [(1.0, 1.0), (2.0, 1.5), (0.0, 1.0), (-0.5, 1.0)])
    def test_domain_errors(self, mu, lam):
        with pytest.raises(DomainError):
            oberhettinger_closed(mu, lam, 1.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(DomainError):
            oberhettinger_closed(1.0, 2.0, -1.0)


class TestIntegralSpec:
    def test_invariants_enforced(self):
        with pytest.raises(DomainError):
            IntegralSpec(mu=0.0, lam=1.0, a=1.0)
        with pytest.raises(DomainError):
            IntegralSpec(mu=2.0, lam=2.0, a=1.0)
        with pytest.raises(DomainError):
            IntegralSpec(mu=1.0, lam=2.0, a=0.0)
        with pytest.raises(DomainError):
            IntegralSpec(mu=1.0, lam=2.0, a=1.0, gamma=1.0, y=2.5,
                         arg_form=ArgForm.LINEAR_IN_X)

    def test_gy_product(self):
        spec = IntegralSpec(mu=1.0, lam=2.0, a=1.0, gamma=0.5, y=0.6)
        assert spec.gy == 0.3


class TestTransformIntegrand:
    def test_substitution_consistency(self):
        spec = IntegralSpec(mu=1.0, lam=2.0, a=1.0)
        tr = transform_integrand(spec)
        # u = 1 recovers x = 0 (t = a); u -> 0 is x -> inf
        assert tr.x_of_u(1.0) == 0.0
        assert tr.x_of_u(0.5) == pytest.approx(0.25, rel=1e-15)
        assert tr.u_exponent == pytest.approx(0.0)
        assert tr.one_minus_u_exponent == pytest.approx(1.0)

    def test_weight_vanishes_at_right_endpoint(self):
        spec = IntegralSpec(mu=1.0, lam=2.0, a=1.0)
        tr = transform_integrand(spec)
        assert tr.weight(1.0) == 0.0  # exponent 2*mu - 1 = 1

    def test_fixed_argument(self):
        spec = IntegralSpec(mu=1.0, lam=2.0, a=2.0, gamma=1.5, y=0.4)
        tr = transform_integrand(spec)
        assert tr.kernel_argument(1.0) == pytest.approx(0.3, rel=1e-15)
        assert tr.kernel_argument(0.0) == 0.0

    def test_linear_argument_limit(self):
        # gy * x(u) * u / a = gy * (1-u)**2 / 2 -> gy/2 as u -> 0
        spec = IntegralSpec(mu=1.0, lam=2.0, a=1.0, gamma=1.0, y=0.8,
                            arg_form=ArgForm.LINEAR_IN_X)
        tr = transform_integrand(spec)
        assert tr.kernel_argument(0.0) == pytest.approx(0.4, rel=1e-15)
        assert tr.kernel_argument(1.0) == 0.0
        u = 0.3
        explicit = spec.gy * tr.x_of_u(u) * u / spec.a
        assert tr.kernel_argument(u) == pytest.approx(explicit, rel=1e-14)

    def test_prefactor(self):
        spec = IntegralSpec(mu=0.5, lam=1.5, a=2.0)
        tr = transform_integrand(spec)
        assert tr.prefactor == pytest.approx(2.0 ** (-0.5) * 2.0 ** (-1.0), rel=1e-15)


class TestGaussJacobiRule:
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("p, q", [(-0.95, -0.95), (-0.3, -0.7), (0.8, 1.8)])
    def test_integrates_monomials_exactly(self, n, p, q):
        # (-0.3, -0.7) is the alpha + beta = -1 edge of the Jacobi matrix
        u, w = _gauss_jacobi(n, p, q)
        for k in range(2 * n):
            exact = special.beta(p + k + 1.0, q + 1.0)
            assert float(w @ u ** k) == pytest.approx(exact, rel=1e-13), k

    def test_rule_is_read_only(self):
        u, w = _gauss_jacobi(8, 0.5, 0.5)
        with pytest.raises(ValueError):
            u[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestQuadLhs:
    def test_unit_kernel_reduces_to_base(self):
        res = quad_lhs(IntegralSpec(mu=1.0, lam=2.0, a=1.0), unit_kernel())
        assert res.value == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert res.n_evals > 0

    def test_base_grid_against_closed_form(self):
        for mu, lam, a in BASE_GRID + BASE_EDGE_CASES:
            closed = oberhettinger_closed(mu, lam, a)
            res = quad_lhs(IntegralSpec(mu=mu, lam=lam, a=a), unit_kernel())
            assert res.value == pytest.approx(closed, rel=1e-9), (mu, lam, a)

    def test_error_estimate_conservative(self):
        hits = 0
        for mu, lam, a in BASE_GRID:
            closed = oberhettinger_closed(mu, lam, a)
            res = quad_lhs(IntegralSpec(mu=mu, lam=lam, a=a), unit_kernel())
            if abs(res.value - closed) <= res.abs_err_estimate:
                hits += 1
        assert hits >= math.ceil(0.95 * len(BASE_GRID))

    def test_gy_zero_reduces_to_base(self):
        spec = IntegralSpec(mu=1.0, lam=2.0, a=1.0, gamma=0.0, y=5.0)
        kernel = as_power_series(KernelChoice.S_ALPHA, alpha=1.2)
        res = quad_lhs(spec, kernel)
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-10)

    def test_frozen_anchor_fixed_s0(self):
        spec = IntegralSpec(mu=0.8, lam=2.5, a=1.5, gamma=1.0, y=0.7)
        res = quad_lhs(spec, as_power_series(KernelChoice.I0_PLUS_L0))
        assert res.value == pytest.approx(FIXED_S0_ANCHOR, rel=1e-10)

    def test_frozen_anchor_linear_s0(self):
        spec = IntegralSpec(mu=0.6, lam=2.2, a=1.0, gamma=1.0, y=0.8,
                            arg_form=ArgForm.LINEAR_IN_X)
        res = quad_lhs(spec, as_power_series(KernelChoice.I0_PLUS_L0))
        assert res.value == pytest.approx(LINEAR_S0_ANCHOR, rel=1e-10)

    def test_frozen_anchor_fixed_exp(self):
        spec = IntegralSpec(mu=1.0, lam=2.0, a=1.0, gamma=1.0, y=0.5)
        res = quad_lhs(spec, as_power_series(KernelChoice.EXP))
        assert res.value == pytest.approx(FIXED_EXP_ANCHOR, rel=1e-10)

    def test_against_scipy_on_raw_integral(self):
        # independent route: integrate the original x-domain integrand
        mu, lam, a, y = 0.9, 2.3, 1.2, 0.6
        kernel = as_power_series(KernelChoice.EXP)

        def raw(x):
            t = x + a + math.sqrt(x * x + 2 * a * x)
            return x ** (mu - 1.0) * t ** (-lam) * math.exp(y / t)

        ref, ref_err = integrate.quad(raw, 0.0, np.inf, limit=400)
        res = quad_lhs(IntegralSpec(mu=mu, lam=lam, a=a, gamma=1.0, y=y), kernel)
        assert res.value == pytest.approx(ref, rel=1e-8)

    def test_scale_homogeneity(self):
        # I(mu, lam, a, y) = a**(mu-lam) * I(mu, lam, 1, y/a) for the
        # fixed-numerator argument
        mu, lam, a, y = 0.7, 2.1, 2.0, 0.8
        kernel = as_power_series(KernelChoice.S_ALPHA, alpha=0.5)
        left = quad_lhs(IntegralSpec(mu=mu, lam=lam, a=a, gamma=1.0, y=y), kernel)
        right = quad_lhs(IntegralSpec(mu=mu, lam=lam, a=1.0, gamma=1.0, y=y / a), kernel)
        assert left.value == pytest.approx(a ** (mu - lam) * right.value, rel=1e-9)

    def test_gamma_y_product_symmetry(self):
        kernel = as_power_series(KernelChoice.S_ALPHA, alpha=0.5)
        r1 = quad_lhs(IntegralSpec(mu=0.8, lam=2.0, a=1.0, gamma=0.4, y=1.5), kernel)
        r2 = quad_lhs(IntegralSpec(mu=0.8, lam=2.0, a=1.0, gamma=1.5, y=0.4), kernel)
        assert r1.value == r2.value  # bit identical: only gamma*y enters

    def test_monotone_in_y(self):
        kernel = as_power_series(KernelChoice.I0_PLUS_L0)
        values = [quad_lhs(IntegralSpec(mu=1.0, lam=2.5, a=1.0, gamma=1.0, y=y),
                           kernel).value
                  for y in (0.0, 0.2, 0.5, 0.9, 1.4)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_budget_exhaustion_raises(self):
        # exp(40*u) is far from a low-degree polynomial on [0, 1]: the
        # 32- and 64-node rules are the first to agree, so a 32-node
        # budget runs out
        spec = IntegralSpec(mu=1.0, lam=2.5, a=1.0, gamma=1.0, y=40.0)
        with pytest.raises(NonConvergenceError, match="budget exhausted"):
            quad_lhs(spec, as_power_series(KernelChoice.EXP), tol=1e-10,
                     max_nodes=32)

    def test_small_lam_minus_mu_tail_correction(self):
        # 25% of the mass sits below u = 1e-12 here; the u**(-0.95) factor
        # is the weight of the Gauss-Jacobi rule, which carries that
        # singular mass exactly, with no tail correction
        mu, lam, a = 0.51, 0.56, 1.0
        closed = oberhettinger_closed(mu, lam, a)
        res = quad_lhs(IntegralSpec(mu=mu, lam=lam, a=a), unit_kernel())
        assert res.value == pytest.approx(closed, rel=1e-9)


class TestProofSeries:
    def test_single_term_at_y_zero(self):
        spec = IntegralSpec(mu=1.0, lam=2.0, a=1.0, gamma=1.0, y=0.0)
        sv = proof_series(spec, as_power_series(KernelChoice.S_ALPHA, alpha=0.3))
        assert sv.value == pytest.approx(oberhettinger_closed(1.0, 2.0, 1.0), rel=1e-14)

    def test_offset_kernel_vanishes_at_y_zero(self):
        spec = IntegralSpec(mu=1.0, lam=2.0, a=1.0, gamma=1.0, y=0.0)
        sv = proof_series(spec, as_power_series(KernelChoice.TWO_I1_PLUS_L1))
        assert sv.value == 0.0

    @pytest.mark.parametrize("spec_kwargs, kernel_choice, anchor, rel", [
        (dict(mu=0.8, lam=2.5, a=1.5, gamma=1.0, y=0.7),
         KernelChoice.I0_PLUS_L0, FIXED_S0_ANCHOR, 1e-12),
        (dict(mu=0.6, lam=2.2, a=1.0, gamma=1.0, y=0.8,
              arg_form=ArgForm.LINEAR_IN_X),
         KernelChoice.I0_PLUS_L0, LINEAR_S0_ANCHOR, 1e-12),
        (dict(mu=1.0, lam=2.0, a=1.0, gamma=1.0, y=0.5),
         KernelChoice.EXP, FIXED_EXP_ANCHOR, 1e-12),
    ])
    def test_frozen_anchors(self, spec_kwargs, kernel_choice, anchor, rel):
        sv = proof_series(IntegralSpec(**spec_kwargs), as_power_series(kernel_choice))
        assert sv.converged
        assert sv.value == pytest.approx(anchor, rel=rel)

    def test_two_oracle_agreement_spot_checks(self):
        cases = [
            (dict(mu=0.8, lam=2.5, a=1.5, gamma=1.0, y=0.7), KernelChoice.I0_PLUS_L0),
            (dict(mu=1.0, lam=2.0, a=1.0, gamma=1.0, y=0.5), KernelChoice.EXP),
            (dict(mu=0.6, lam=2.2, a=1.0, gamma=1.0, y=0.8,
                  arg_form=ArgForm.LINEAR_IN_X), KernelChoice.I0_PLUS_L0),
            (dict(mu=1.4, lam=3.2, a=2.0, gamma=1.0, y=0.9), KernelChoice.TWO_I1_PLUS_L1),
        ]
        for spec_kwargs, choice in cases:
            spec = IntegralSpec(**spec_kwargs)
            kernel = as_power_series(choice, alpha=None)
            series = proof_series(spec, kernel)
            quad = quad_lhs(spec, kernel)
            assert series.value == pytest.approx(quad.value, rel=1e-7)

    def test_linear_radius_guard(self):
        spec = IntegralSpec(mu=1.0, lam=2.0, a=1.0, gamma=1.0, y=1.9,
                            arg_form=ArgForm.LINEAR_IN_X)
        with pytest.raises(DomainError):
            proof_series(spec, as_power_series(KernelChoice.EXP))
        # quadrature itself still handles it
        assert quad_lhs(spec, as_power_series(KernelChoice.EXP)).value > 0


class TestSeriesTailContracts:
    def test_proof_series_tail_contract(self):
        tol = 1e-10
        spec = IntegralSpec(mu=0.8, lam=2.5, a=1.5, gamma=1.0, y=0.7)
        sv = proof_series(spec, as_power_series(KernelChoice.I0_PLUS_L0), tol)
        assert sv.converged
        assert sv.tail_estimate <= tol * max(abs(sv.value), 1e-300)

    def test_kernel_eval_tail_contract(self):
        from besselstruve import kernel_eval
        tol = 1e-9
        sv = kernel_eval(0.7, 3.0, tol)
        assert sv.converged
        assert sv.tail_estimate <= tol * max(abs(sv.value), 1e-300)
