"""The weighted semi-infinite integral and its two independent oracles.

Everything the audit does rests on integrals of the form

    I = int_0^inf x**(mu-1) * t(x)**(-lam) * f(arg) dx,
    t(x) = x + a + sqrt(x**2 + 2*a*x).

Route 1 (quad_lhs): substitute t, then u = a/t; the integral becomes a
finite-interval one with pure power endpoint behavior.  Those powers are
the weight of a Gauss-Jacobi rule, which integrates them exactly; the node
count doubles until two successive rules agree.

Route 2 (proof_series): expand f into its power series and apply the
closed base-integral formula term by term.  The two routes share no
quadrature machinery, which is what makes their agreement evidence.
"""

from besselstruve import (
    ArgForm,
    IntegralSpec,
    KernelChoice,
    as_power_series,
    oberhettinger_closed,
    proof_series,
    quad_lhs,
    transform_integrand,
    unit_kernel,
)

print("Base integral (f = 1): closed form vs quadrature")
print("   mu   lam    a    closed form        quadrature         rel diff")
for mu, lam, a in [(1.0, 2.0, 1.0), (0.5, 1.5, 2.0), (1.7, 4.7, 0.5), (0.51, 0.56, 1.0)]:
    closed = oberhettinger_closed(mu, lam, a)
    res = quad_lhs(IntegralSpec(mu=mu, lam=lam, a=a), unit_kernel())
    print(f"  {mu:4} {lam:5} {a:4} {closed:18.12g} {res.value:18.12g} "
          f"{abs(res.value-closed)/closed:9.2e}")
print("  (the last row keeps 25% of its mass below u = 1e-12; the Gauss-Jacobi")
print("   weight u**(-0.95) carries it exactly)")

spec = IntegralSpec(mu=0.8, lam=2.5, a=1.5, gamma=1.0, y=0.7)
tr = transform_integrand(spec)
print("\nTransformed integrand for mu=0.8, lam=2.5, a=1.5:")
print(f"  prefactor a^(mu-lam) 2^(-mu) = {tr.prefactor:.12g}")
print(f"  endpoint powers: u^{tr.u_exponent:g} at u->0, "
      f"(1-u)^{tr.one_minus_u_exponent:g} at u->1")
print(f"  x(u=0.5) = {tr.x_of_u(0.5):.12g}, kernel argument at u=1: "
      f"{tr.kernel_argument(1.0):.12g}")

print("\nTwo-oracle agreement on kernel integrals:")
cases = [
    ("S_0, fixed argument", spec, KernelChoice.I0_PLUS_L0),
    ("exp, fixed argument",
     IntegralSpec(mu=1.0, lam=2.0, a=1.0, gamma=1.0, y=0.5), KernelChoice.EXP),
    ("S_0, linear argument",
     IntegralSpec(mu=0.6, lam=2.2, a=1.0, gamma=1.0, y=0.8,
                  arg_form=ArgForm.LINEAR_IN_X), KernelChoice.I0_PLUS_L0),
]
for label, sp, choice in cases:
    kernel = as_power_series(choice)
    quad = quad_lhs(sp, kernel)
    series = proof_series(sp, kernel)
    print(f"  {label:22}: quad={quad.value:.15g} series={series.value:.15g} "
          f"rel diff {abs(quad.value-series.value)/abs(quad.value):.1e}")
    print(f"  {'':22}  quad diagnostics: {quad.n_evals} evals, "
          f"{quad.subdivisions} node doublings, err est {quad.abs_err_estimate:.1e}")
