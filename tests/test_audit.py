import math

import pytest

from besselstruve import (
    DomainError,
    INCONCLUSIVE,
    IntegralSpec,
    KernelChoice,
    REFUTED,
    VERIFIED,
    WrightClosedForm,
    as_power_series,
    audit_point,
    audit_sweep,
    catalog,
    c2_reduction_residual,
    c3_variants,
    default_grid,
    derived_rhs,
    proof_series,
    record_invariant_ok,
    t1_derived_closed_form,
    t4_variants,
    verdict_counts,
)

# frozen 50-digit anchors (raw x-domain integrals / direct summations)
T3_LHS_ANCHOR = 0.22234481950244641        # mu=1 lam=2.5 a=1 y=0.5, I0+L0
T1_DERIVED_ANCHOR = 0.21109166423256936    # alpha=1 mu=1 lam=2.5 a=1 gy=0.5
W_S1_ANCHOR = 0.062290279001773557         # mu=1 lam=2.5 a=1 y=0.6, w*S_1
S1_ALONE_ANCHOR = 0.21567574107224320      # same point, plain S_1
LITERAL_BRACKET_ANCHOR = 0.058277026856454403  # same point, 2*I_1 + L_1
C3_EXPM1W_ANCHOR = 0.21505443515960207     # mu=1 lam=2.5 a=1 y=0.5
C3_SHIFTED_ANCHOR = 0.089098399292615633   # same point, exp(w - 1)


class TestCatalog:
    def test_exactly_seven(self):
        cat = catalog()
        assert len(cat) == 7
        assert tuple(cat) == ("T1", "T2", "C1", "C2", "C3", "T3", "T4")

    def test_t1_stated_parameter_lists(self):
        mu, lam = 1.0, 2.5
        form = catalog()["T1"].stated_form(mu, lam, 1.0, 0.5, 0.0)
        assert form.spec.upper == ((0.5, 0.5), (lam + 1.0, 1.0), (lam - mu, 1.0))
        assert form.spec.lower == ((lam, 1.0), (1.0 + lam + mu, 1.0))
        assert form.z == 0.5

    def test_t3_stated_contains_half_weight_pair(self):
        form = catalog()["T3"].stated_form(1.0, 2.5, 1.0, 0.5, 0.0)
        assert (1.0, 0.5) in form.spec.lower

    def test_t2_argument_is_gy_as_written(self):
        form = catalog()["T2"].stated_form(1.0, 2.5, 2.0, 0.6, 0.0)
        assert form.z == 0.6  # not divided by a

    def test_c1_denominator_as_written(self):
        mu, lam = 0.8, 2.0
        form = catalog()["C1"].stated_form(mu, lam, 1.0, 0.5, -0.5)
        assert (1.0 + lam - mu, 1.0) in form.spec.lower  # printed 1+lam-mu

    def test_c3_flipped_pair_as_written(self):
        form = catalog()["C3"].stated_form(1.0, 2.5, 1.0, 0.5, 0.5)
        assert (0.5, 1.5) in form.spec.lower

    def test_fixed_alphas(self):
        cat = catalog()
        assert cat["T1"].fixed_alpha is None
        assert cat["T2"].fixed_alpha is None
        assert cat["C1"].fixed_alpha == -0.5
        assert cat["C3"].fixed_alpha == 0.5
        assert cat["T3"].fixed_alpha == 0.0
        assert cat["T4"].fixed_alpha == 1.0


class TestDerivedClosedForm:
    def test_t1_derived_matches_proof_series(self):
        # the corrected closed form carries the (alpha+1, 1/2) denominator;
        # its value must equal the term-wise series
        mu, lam, a, y, alpha = 1.0, 2.5, 1.0, 0.5, 1.0
        closed = t1_derived_closed_form(mu, lam, a, y, alpha).evaluate()
        series = derived_rhs("T1", mu=mu, lam=lam, a=a, y=y, alpha=alpha)
        assert closed.value == pytest.approx(series.value, rel=1e-12)
        assert closed.value == pytest.approx(T1_DERIVED_ANCHOR, rel=1e-12)

    def test_t1_derived_at_alpha_zero_is_t3_stated(self):
        mu, lam, a, y = 0.9, 2.2, 1.5, 0.6
        derived = t1_derived_closed_form(mu, lam, a, y, 0.0)
        stated_t3 = catalog()["T3"].stated_form(mu, lam, a, y, 0.0)
        assert derived.spec == stated_t3.spec
        assert derived.evaluate().value == pytest.approx(
            stated_t3.evaluate().value, rel=1e-12)

    def test_t1_k0_term_value(self):
        # at y = 0 the derived value is the base integral itself
        mu, lam, a, alpha = 0.7, 1.9, 2.0, 1.3
        sv = derived_rhs("T1", mu=mu, lam=lam, a=a, y=0.0, alpha=alpha)
        from besselstruve import oberhettinger_closed
        assert sv.value == pytest.approx(oberhettinger_closed(mu, lam, a), rel=1e-13)


class TestSpecializationCoherence:
    def test_alpha_minus_half_matches_exp_family(self):
        mu, lam, a, y = 1.0, 2.3, 1.0, 0.7
        t1 = derived_rhs("T1", mu=mu, lam=lam, a=a, y=y, alpha=-0.5)
        c1 = derived_rhs("C1", mu=mu, lam=lam, a=a, y=y)
        assert t1.value == pytest.approx(c1.value, rel=1e-10)

    def test_alpha_zero_matches_t3(self):
        mu, lam, a, y = 0.6, 1.8, 2.0, 0.4
        t1 = derived_rhs("T1", mu=mu, lam=lam, a=a, y=y, alpha=0.0)
        t3 = derived_rhs("T3", mu=mu, lam=lam, a=a, y=y)
        assert t1.value == pytest.approx(t3.value, rel=1e-10)

    def test_t4_is_offset_one_rederivation(self):
        mu, lam, a, y = 1.0, 2.5, 1.0, 0.6
        t4 = derived_rhs("T4", mu=mu, lam=lam, a=a, y=y)
        spec = IntegralSpec(mu=mu, lam=lam, a=a, gamma=1.0, y=y)
        rederived = proof_series(spec, as_power_series(KernelChoice.TWO_I1_PLUS_L1))
        assert t4.value == rederived.value


class TestAuditPoint:
    def test_t3_verified(self):
        rec = audit_point("T3", mu=1.0, lam=2.5, a=1.0, y=0.5)
        assert rec.verdict == VERIFIED
        assert rec.lhs.value == pytest.approx(T3_LHS_ANCHOR, rel=1e-10)

    def test_t1_refuted_with_healthy_oracles(self):
        rec = audit_point("T1", mu=1.0, lam=2.5, a=1.0, y=0.5, alpha=1.0)
        assert rec.verdict == REFUTED
        assert rec.rel_err_derived < 1e-6
        assert rec.rel_err_stated > 1e-3
        assert rec.rhs_derived.value == pytest.approx(T1_DERIVED_ANCHOR, rel=1e-10)

    def test_t2_stated_unevaluable_still_refuted(self):
        rec = audit_point("T2", mu=1.0, lam=2.5, a=1.0, y=0.5, alpha=0.0)
        assert rec.rhs_stated is None
        assert "diverges" in rec.rhs_stated_error
        assert rec.rel_err_stated is None
        assert rec.verdict == REFUTED
        assert rec.rel_err_derived < 1e-6

    def test_degenerate_anchor_y_zero(self):
        # both oracles collapse to the base integral at y = 0
        for ident in ("T1", "T2", "C1", "C2", "C3", "T3", "T4"):
            rec = audit_point(ident, mu=1.0, lam=2.5, a=1.0, y=0.0, alpha=1.7)
            assert rec.rel_err_derived < 1e-9, ident

    def test_t4_y_zero_both_sides_vanish(self):
        rec = audit_point("T4", mu=1.0, lam=2.5, a=1.0, y=0.0)
        assert rec.lhs.value == 0.0
        assert rec.rhs_derived.value == 0.0
        assert rec.rel_err_derived == 0.0
        # the stated form does not vanish there, so the point refutes it
        assert rec.verdict == REFUTED

    def test_unknown_identity(self):
        with pytest.raises(DomainError):
            audit_point("T9", mu=1.0, lam=2.0, a=1.0, y=0.1)

    def test_alpha_required_for_t1(self):
        with pytest.raises(DomainError):
            audit_point("T1", mu=1.0, lam=2.0, a=1.0, y=0.1)

    def test_conditioning_rules_enforced(self):
        with pytest.raises(DomainError):
            audit_point("T3", mu=1.0, lam=1.01, a=1.0, y=0.1)
        with pytest.raises(DomainError):
            audit_point("T3", mu=0.01, lam=0.059, a=1.0, y=0.5)
        with pytest.raises(DomainError):
            audit_point("T2", mu=1.0, lam=2.0, a=1.0, y=1.9, alpha=0.0)

    def test_conditioning_floor_allows_input_rounding(self):
        # 0.06 - 0.01 rounds to 0.049999... in doubles
        rec = audit_point("T3", mu=0.01, lam=0.06, a=1.0, y=0.5)
        assert rec.verdict == VERIFIED

    def test_overflow_captured_in_record(self):
        # a**(mu-lam-m) overflows inside the derived series at a = 0.01
        rec = audit_point("T3", mu=1.0, lam=2.0, a=0.01, y=1.0)
        assert rec.verdict == INCONCLUSIVE
        assert rec.rhs_derived is None
        assert rec.rhs_derived_error
        assert "OverflowError" in rec.rhs_derived_error
        assert record_invariant_ok(rec)

    def test_determinism(self):
        kw = dict(mu=0.8, lam=2.1, a=1.5, y=0.4, alpha=0.5)
        assert audit_point("T1", **kw) == audit_point("T1", **kw)


class TestGrids:
    def test_default_grid_sizes(self):
        assert len(default_grid("T1")) == 120
        assert len(default_grid("T2")) == 36
        for ident in ("C1", "C2", "C3", "T3", "T4"):
            assert len(default_grid(ident)) == 24

    def test_t2_grid_respects_guard(self):
        for pt in default_grid("T2").points():
            assert abs(pt.gamma * pt.y) <= 1.6
            assert abs(pt.gamma * pt.y) / 2.0 <= 0.9

    def test_points_lexicographic(self):
        pts = list(default_grid("T3").points())
        keys = [(p.alpha, p.mu, p.lam, p.a, p.y) for p in pts]
        assert keys == sorted(keys)

    def test_lam_always_above_mu(self):
        for ident in ("T1", "T2", "T3"):
            for pt in default_grid(ident).points():
                assert pt.lam > pt.mu


class TestSweeps:
    def test_t3_all_verified(self, default_sweeps):
        counts = verdict_counts(default_sweeps["T3"])
        assert counts[VERIFIED] == 24
        assert counts[REFUTED] == 0
        assert counts[INCONCLUSIVE] == 0

    def test_t1_sweep_size_and_order(self, default_sweeps):
        recs = default_sweeps["T1"]
        assert len(recs) == 120
        keys = [(r.alpha, r.mu, r.lam, r.a, r.y) for r in recs]
        assert keys == sorted(keys)

    def test_consistency_chain_everywhere(self, default_sweeps):
        # oracle agreement, independent of any verdict about the stated forms
        for ident, recs in default_sweeps.items():
            for rec in recs:
                assert rec.rel_err_derived is not None, ident
                assert rec.rel_err_derived < 1e-6, (ident, rec)

    def test_record_invariants_everywhere(self, default_sweeps):
        for recs in default_sweeps.values():
            for rec in recs:
                assert record_invariant_ok(rec)

    def test_refuted_always_backed_by_derived(self, default_sweeps):
        for recs in default_sweeps.values():
            for rec in recs:
                if rec.verdict == REFUTED:
                    assert rec.rel_err_derived < 1e-6

    def test_stated_family_verdicts(self, default_sweeps):
        # only the I0+L0 identity survives as printed
        for ident in ("T1", "T2", "C1", "C2", "C3", "T4"):
            counts = verdict_counts(default_sweeps[ident])
            assert counts[REFUTED] == len(default_sweeps[ident]), ident

    def test_sweep_determinism(self, default_sweeps):
        assert audit_sweep("C3") == default_sweeps["C3"]


class TestDiagnostics:
    def test_c2_reduction_residual_is_reported_small(self):
        # the two printed forms are images of each other under the weight-1
        # reduction, so the residual is summation noise
        res = c2_reduction_residual(1.0, 2.5, 1.0, 0.5)
        assert math.isfinite(res)
        assert res < 1e-9

    def test_c3_variants(self):
        out = c3_variants(1.0, 2.5, 1.0, 0.5)
        assert out["lhs_expm1_over_w"] == pytest.approx(C3_EXPM1W_ANCHOR, rel=1e-9)
        assert out["lhs_shifted_exp"] == pytest.approx(C3_SHIFTED_ANCHOR, rel=1e-9)
        # each reading agrees with its own derived series ...
        assert out["lhs_expm1_over_w"] == pytest.approx(
            out["derived_expm1_over_w"], rel=1e-7)
        assert out["lhs_shifted_exp"] == pytest.approx(
            out["derived_shifted_exp"], rel=1e-7)
        # ... and the stated value matches neither
        assert abs(out["stated"] - out["lhs_expm1_over_w"]) > 1e-3
        assert abs(out["stated"] - out["lhs_shifted_exp"]) > 1e-3

    def test_t4_variants(self):
        out = t4_variants(1.0, 2.5, 1.0, 0.6)
        assert out["lhs_w_s1"] == pytest.approx(W_S1_ANCHOR, rel=1e-9)
        assert out["lhs_s1"] == pytest.approx(S1_ALONE_ANCHOR, rel=1e-9)
        assert out["lhs_literal_bracket"] == pytest.approx(
            LITERAL_BRACKET_ANCHOR, rel=1e-9)
        for key in ("w_s1", "s1", "literal_bracket"):
            assert out[f"lhs_{key}"] == pytest.approx(out[f"derived_{key}"], rel=1e-7)
        # the stated right side matches none of the three readings
        for key in ("lhs_w_s1", "lhs_s1", "lhs_literal_bracket"):
            assert abs(out["stated"] - out[key]) / abs(out[key]) > 1e-3

    def test_closed_form_dataclass_evaluate(self):
        form = t1_derived_closed_form(1.0, 2.5, 1.0, 0.5, 1.0)
        assert isinstance(form, WrightClosedForm)
        sv = form.evaluate()
        assert sv.converged
